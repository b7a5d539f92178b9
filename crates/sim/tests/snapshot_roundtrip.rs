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
//!   snapshot does not carry them;
//! * **the feed cursors are state** — a snapshot taken while arrivals,
//!   requests and outages are all partly fed survives the byte codec and
//!   resumes bit-identically; a version-1 snapshot written by the commit
//!   before the feed (everything preloaded, no cursors) still decodes
//!   and resumes; a cursor outside its stream is a typed error.

use dynp_core::{DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_des::{CodecError, SimDuration, SimTime};
use dynp_obs::Tracer;
use dynp_rms::{AdmissionConfig, Policy, SchedulerSnapshot, RETAIN_MIN_DEPTH};
use dynp_sim::{
    decode_snapshot, encode_snapshot, simulate_chaos, ChaosDriver, DetailedRun, Event, FeedCursors,
    SchedulerSpec, SNAPSHOT_VERSION,
};
use dynp_workload::{
    kth, transform, FaultKind, FaultModel, FaultPlan, Job, JobId, JobSet, NodeOutage,
    ReservationModel, ReservationRequest,
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
    let suffix_passes = uninterrupted.plan_counters().suffix_passes;
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
    assert!(scheduler.plan_counters().suffix_passes > 100);
}

/// The inputs `fixtures/snapshot_v1.hex` was taken from, six events into
/// a dynP[advanced] run (t = 400 s), by the last commit that preloaded
/// every exogenous event. At that instant two arrivals, one request and
/// one whole outage are still in the future.
fn v1_scenario() -> (JobSet, Vec<ReservationRequest>, FaultPlan) {
    let secs = SimTime::from_secs;
    let job = |id, submit, width, estimate, actual| {
        Job::new(
            JobId(id),
            secs(submit),
            width,
            SimDuration::from_secs(estimate),
            SimDuration::from_secs(actual),
        )
    };
    let set = JobSet::new(
        "v1",
        4,
        vec![
            job(0, 0, 2, 500, 400),
            job(1, 100, 3, 300, 300),
            job(2, 200, 1, 900, 700),
            job(3, 600, 2, 200, 100),
            job(4, 900, 4, 100, 100),
        ],
    );
    let request = |id, submit, start, width, cancel_at: Option<u64>| ReservationRequest {
        id,
        submit: secs(submit),
        start: secs(start),
        duration: SimDuration::from_secs(300),
        width,
        cancel_at: cancel_at.map(secs),
    };
    let requests = vec![
        request(0, 50, 1_500, 2, None),
        request(1, 700, 2_500, 4, Some(1_000)),
    ];
    let outage = |node, down, up| NodeOutage {
        node,
        down_at: secs(down),
        up_at: secs(up),
    };
    let faults = FaultPlan {
        outages: vec![outage(3, 150, 650), outage(0, 800, 3_000)],
        job_faults: vec![(2, FaultKind::Crash { fraction: 0.5 })],
        ..FaultPlan::none()
    };
    (set, requests, faults)
}

fn v1_fixture() -> Vec<u8> {
    let hex: String = include_str!("fixtures/snapshot_v1.hex")
        .split_whitespace()
        .collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

// A version-1 snapshot holds every exogenous event in its heap and knows
// no cursors. It decodes as "nothing left to feed", and a driver of this
// commit restored from it finishes the run the old driver would have.
#[test]
fn version_1_snapshot_decodes_and_resumes() {
    let (set, requests, plan) = v1_scenario();
    let spec = SchedulerSpec::dynp(DeciderKind::Advanced);
    let bytes = v1_fixture();
    assert_eq!(bytes[8..12], 1u32.to_le_bytes(), "fixture is version 1");
    assert_ne!(SNAPSHOT_VERSION, 1);
    let snap = decode_snapshot(&bytes).expect("version 1 still decodes");
    assert_eq!(snap.feed, FeedCursors::default());
    assert_eq!(snap.engine.now, SimTime::from_secs(400));
    let future_arrivals = snap
        .engine
        .entries
        .iter()
        .filter(|(_, _, ev)| matches!(ev, Event::Arrive(_)))
        .count();
    assert_eq!(future_arrivals, 2, "a preloaded heap holds the future");

    let mut baseline_s = spec.build();
    let baseline = simulate_chaos(
        &set,
        baseline_s.as_mut(),
        &requests,
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );

    let mut scheduler = spec.build();
    let mut driver = ChaosDriver::new(
        &set,
        scheduler.as_mut(),
        &requests,
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );
    // The same six events, so that what this commit's driver still has
    // to dispatch can be compared with what the old heap held.
    for _ in 0..6 {
        driver.step();
    }
    let pending = |d: &ChaosDriver<'_>| -> Vec<(SimTime, Event)> {
        d.pending_events()
            .into_iter()
            .map(|(t, _, ev)| (t, ev))
            .collect()
    };
    let still_to_dispatch = pending(&driver);
    assert_ne!(driver.snapshot().feed, FeedCursors::default());
    driver.try_restore(&snap).expect("cursors at the end fit");
    assert_eq!(pending(&driver), still_to_dispatch);
    assert_eq!(driver.snapshot(), snap, "a restored v1 state is kept as is");
    assert_eq!(fp(&driver.run_to_end()), fp(&baseline));
}

// Cut a run where all three cursors are mid-stream, push the snapshot
// through the byte codec, run ahead, restore the decoded value: the
// resumed run is the uninterrupted one.
#[test]
fn restore_with_every_cursor_mid_stream_resumes_bit_identically() {
    let (set, requests, plan) = inputs(7, 80, 20_000.0, true);
    let spec = SchedulerSpec::dynp(DeciderKind::Advanced);
    let mut baseline_s = spec.build();
    let baseline = simulate_chaos(
        &set,
        baseline_s.as_mut(),
        &requests,
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );

    let mut scheduler = spec.build();
    let mut driver = ChaosDriver::new(
        &set,
        scheduler.as_mut(),
        &requests,
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );
    let mid = |left: u32, len: usize| 0 < left && (left as usize) < len;
    loop {
        driver.step().expect("the streams never overlapped");
        let c = driver.snapshot().feed;
        if mid(c.arrivals, set.len())
            && mid(c.requests, requests.len())
            && mid(c.outages, plan.outages.len())
        {
            break;
        }
    }
    let snap = driver.snapshot();
    // Far fewer entries than events to come: the tails are not copied.
    assert!(snap.engine.entries.len() < driver.pending_events().len() / 2);
    let decoded = decode_snapshot(&encode_snapshot(&snap)).expect("own snapshot decodes");
    assert_eq!(decoded, snap);
    let before = driver.fingerprint();
    for _ in 0..40 {
        driver.step();
    }
    assert_ne!(driver.snapshot().feed, snap.feed, "running ahead must feed");
    driver.try_restore(&decoded).expect("own cursors fit");
    assert_eq!(driver.fingerprint(), before);
    assert_eq!(fp(&driver.run_to_end()), fp(&baseline));
}

// A cursor that claims more unfed events than its stream holds — a
// snapshot of some other run, or a tampered file with a fresh checksum
// (more unfed arrivals than the run has jobs already fails
// `check_state`) — another scheduler's snapshot, a dynP snapshot whose active policy is
// not one of this scheduler's candidates, or a core whose time weights
// were last updated after its clock, is refused with a typed error
// before any state is touched.
#[test]
fn cursor_outside_its_stream_is_a_typed_error() {
    let (set, requests, plan) = inputs(7, 80, 20_000.0, true);
    let mut scheduler = SchedulerSpec::dynp(DeciderKind::Advanced).build();
    let mut driver = ChaosDriver::new(
        &set,
        scheduler.as_mut(),
        &requests,
        AdmissionConfig::default(),
        &plan,
        Tracer::disabled(),
    );
    for _ in 0..30 {
        driver.step();
    }
    let good = driver.snapshot();
    for _ in 0..10 {
        driver.step();
    }
    let later = driver.snapshot();
    driver.try_restore(&good).expect("the untampered snapshot");
    let before = driver.fingerprint();
    let one_too_many = |len: usize| len as u32 + 1;
    let feed = |feed| dynp_sim::SimSnapshot {
        feed,
        ..good.clone()
    };
    let arrivals_past_the_set = feed(FeedCursors {
        arrivals: one_too_many(set.len()),
        ..good.feed
    });
    for (what, bad) in [
        // More unfed arrivals than jobs: the state's own values already
        // contradict its attempt table, so `check_state` refuses it.
        ("job conservation", arrivals_past_the_set.clone()),
        (
            "request cursor",
            feed(FeedCursors {
                requests: one_too_many(requests.len()),
                ..good.feed
            }),
        ),
        (
            "outage cursor",
            feed(FeedCursors {
                outages: u32::MAX,
                ..good.feed
            }),
        ),
        (
            "scheduler state",
            dynp_sim::SimSnapshot {
                scheduler: SchedulerSnapshot::Easy { backfilled: 0 },
                ..good.clone()
            },
        ),
        (
            "scheduler state",
            dynp_sim::SimSnapshot {
                scheduler: SchedulerSnapshot::DynP {
                    active: Policy::Saf,
                    stats: Default::default(),
                },
                ..good.clone()
            },
        ),
        (
            "time weight past the clock",
            dynp_sim::SimSnapshot {
                core: later.core.clone(),
                ..good.clone()
            },
        ),
    ] {
        // Only the job count and the time weights are refused by the
        // bytes alone; the streams and the scheduler are not in them.
        let restored =
            decode_snapshot(&encode_snapshot(&bad)).and_then(|snap| driver.try_restore(&snap));
        assert_eq!(restored, Err(CodecError::Invalid { what }));
        assert_eq!(driver.fingerprint(), before, "{what}: state was touched");
    }
    // Restored in memory, with no decoder before it, the same cursor is
    // refused by the feed.
    assert_eq!(
        driver.try_restore(&arrivals_past_the_set),
        Err(CodecError::Invalid {
            what: "arrival cursor"
        })
    );
    assert_eq!(driver.fingerprint(), before);
    driver.try_restore(&good).expect("the untampered snapshot");
}
