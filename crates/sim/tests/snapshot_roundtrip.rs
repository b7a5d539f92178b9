//! Snapshot/restore round-trips, property-tested over policies × fault
//! plans:
//!
//! * **resume identity** — snapshot the stepped driver at a random event
//!   index, run ahead, restore, run to completion: every metric
//!   (SLDwA included), the event count, fault statistics and the
//!   reservation report must be bit-identical to the uninterrupted run;
//! * **fingerprint stability** — the 128-bit state fingerprint is
//!   identical before snapshot and after restore, and a re-snapshot
//!   equals the original snapshot value (satellite of the Hash-clean
//!   state refactor: no f64 sneaks onto the snapshot path);
//! * **retained plans are not state** — a restore taken while the dynP
//!   planner holds plans retained from the previous event (a run of
//!   submissions at a deep queue) resumes bit-identically although the
//!   snapshot does not carry them.

use dynp_core::{DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_obs::Tracer;
use dynp_rms::{AdmissionConfig, Policy, RETAIN_MIN_DEPTH};
use dynp_sim::{simulate_chaos, ChaosDriver, DetailedRun, Event, SchedulerSpec};
use dynp_workload::{
    kth, transform, FaultModel, FaultPlan, JobSet, ReservationModel, ReservationRequest,
};
use proptest::prelude::*;

#[derive(Debug, PartialEq)]
struct RunFingerprint {
    sldwa_bits: u64,
    utilization_bits: u64,
    last_end_bits: u64,
    events: u64,
    completed: usize,
    faults: String,
    reservations: String,
}

fn fp(d: &DetailedRun) -> RunFingerprint {
    RunFingerprint {
        sldwa_bits: d.result.metrics.sldwa.to_bits(),
        utilization_bits: d.result.metrics.utilization.to_bits(),
        last_end_bits: d.result.metrics.last_end_secs.to_bits(),
        events: d.result.events,
        completed: d.completed.len(),
        faults: format!("{:?}", d.faults),
        reservations: format!("{:?}", d.reservations),
    }
}

fn inputs(
    seed: u64,
    jobs: usize,
    mtbf_secs: f64,
    with_res: bool,
) -> (JobSet, Vec<ReservationRequest>, FaultPlan) {
    let set = transform::shrink(&kth().generate(jobs, seed), 0.8);
    let requests = if with_res {
        ReservationModel::typical(0.15).generate(&set, seed ^ 0xA5A5)
    } else {
        Vec::new()
    };
    let plan = FaultModel::typical(mtbf_secs, 3_600.0, 0.05).generate(&set, seed ^ 0x0F0F);
    (set, requests, plan)
}

/// Steps `k` events, snapshots, runs ahead (corrupting the live state),
/// restores, asserts the fingerprint round-trips, and runs to the end.
fn interrupted_run(
    set: &JobSet,
    requests: &[ReservationRequest],
    plan: &FaultPlan,
    spec: &SchedulerSpec,
    k: usize,
) -> DetailedRun {
    let mut scheduler = spec.build();
    let mut driver = ChaosDriver::new(
        set,
        scheduler.as_mut(),
        requests,
        AdmissionConfig::default(),
        plan,
        Tracer::disabled(),
    );
    for _ in 0..k {
        if driver.step().is_none() {
            break;
        }
    }
    let snap = driver.snapshot();
    let before = driver.fingerprint();
    // Run ahead so restore has real work to undo.
    for _ in 0..25 {
        if driver.step().is_none() {
            break;
        }
    }
    driver.restore(&snap);
    assert_eq!(driver.fingerprint(), before, "fingerprint must round-trip");
    assert_eq!(
        driver.snapshot(),
        snap,
        "re-snapshot must equal the original"
    );
    driver.run_to_end()
}

fn specs() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::Static(Policy::Fcfs)),
        Just(SchedulerSpec::Static(Policy::Sjf)),
        Just(SchedulerSpec::Static(Policy::Ljf)),
        Just(SchedulerSpec::dynp(DeciderKind::Simple)),
        Just(SchedulerSpec::dynp(DeciderKind::Advanced)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Interrupting a run at any event index must be invisible in every
    // output bit: resume-after-restore equals never-interrupted.
    #[test]
    fn restore_resumes_bit_identically(
        seed in 0u64..u64::MAX,
        jobs in 40usize..100,
        spec in specs(),
        mtbf_secs in 8_000u64..60_000,
        with_res in prop_oneof![Just(false), Just(true)],
        cut in 0.0f64..1.0,
    ) {
        let (set, requests, plan) = inputs(seed, jobs, mtbf_secs as f64, with_res);

        let mut baseline_s = spec.build();
        let baseline = simulate_chaos(
            &set, baseline_s.as_mut(), &requests,
            AdmissionConfig::default(), &plan, Tracer::disabled(),
        );
        let k = (cut * baseline.result.events as f64) as usize;
        let resumed = interrupted_run(&set, &requests, &plan, &spec, k);
        prop_assert_eq!(fp(&baseline), fp(&resumed));
    }
}

// Deterministic pin of fingerprint stability (the Hash-clean state
// refactor): stepping, snapshotting, stepping ahead and restoring must
// reproduce the exact fingerprint, for both the minimal-state static
// scheduler and the maximal-state self-tuning one.
#[test]
fn fingerprints_are_stable_across_snapshot_restore() {
    let (set, requests, plan) = inputs(42, 60, 20_000.0, true);
    for spec in [
        SchedulerSpec::Static(Policy::Fcfs),
        SchedulerSpec::dynp(DeciderKind::Advanced),
    ] {
        let mut scheduler = spec.build();
        let mut driver = ChaosDriver::new(
            &set,
            scheduler.as_mut(),
            &requests,
            AdmissionConfig::default(),
            &plan,
            Tracer::disabled(),
        );
        for _ in 0..25 {
            driver.step();
        }
        let snap = driver.snapshot();
        let before = driver.fingerprint();
        for _ in 0..40 {
            driver.step();
        }
        assert_ne!(
            driver.fingerprint(),
            before,
            "{}: stepping ahead must change the state",
            spec.name()
        );
        driver.restore(&snap);
        assert_eq!(driver.fingerprint(), before, "{}", spec.name());
        assert_eq!(driver.snapshot(), snap, "{}", spec.name());
    }
}

// The dynP planner keeps each policy's plan from one event to the next
// and, on a submission that leaves the base profile as it was, re-places
// only the queue suffix behind the new job. A snapshot does not capture
// those plans: `restore` drops them and the next replan is a full pass.
// Cut a burst (300 jobs arriving 200x faster than the trace) in the
// middle of such a run of submissions, far above the retention cutoff,
// where the uninterrupted scheduler goes on re-placing suffixes.
#[test]
fn restore_inside_a_retained_stretch_resumes_bit_identically() {
    let set = transform::shrink(&kth().generate(300, 11), 0.005);
    let plan = FaultPlan::none();
    let dynp = || SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));

    let mut uninterrupted = dynp();
    let baseline = simulate_chaos(
        &set,
        &mut uninterrupted,
        &[],
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );
    let suffix_passes = uninterrupted.retained_counts().suffix_passes;
    assert!(suffix_passes > 100, "burst too shallow: {suffix_passes}");

    let mut scheduler = dynp();
    let mut driver = ChaosDriver::new(
        &set,
        &mut scheduler,
        &[],
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );
    // Stop between two arrivals, three arrivals into a run of them.
    let mut arrivals_in_a_row = 0;
    loop {
        let (_, event) = driver.step().expect("the burst never got deep");
        arrivals_in_a_row = match event {
            Event::Arrive(_) => arrivals_in_a_row + 1,
            _ => 0,
        };
        if arrivals_in_a_row >= 3
            && driver.core().state().waiting().len() >= 2 * RETAIN_MIN_DEPTH
            && matches!(driver.tied_events().first(), Some(Event::Arrive(_)))
        {
            break;
        }
    }
    let snap = driver.snapshot();
    let before = driver.fingerprint();
    for _ in 0..25 {
        driver.step();
    }
    driver.restore(&snap);
    assert_eq!(driver.fingerprint(), before, "fingerprint must round-trip");
    let resumed = driver.run_to_end();
    assert_eq!(fp(&baseline), fp(&resumed));
    assert_eq!(scheduler.stats, uninterrupted.stats);
    // The resumed scheduler went back to re-placing suffixes.
    assert!(scheduler.retained_counts().suffix_passes > 100);
}
