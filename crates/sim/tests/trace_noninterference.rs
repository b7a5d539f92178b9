//! Observability non-interference: recording a trace must not perturb
//! the simulation. A trace-enabled run is bit-identical to a
//! trace-disabled run on the same seed — same SLDwA, utilization, event
//! count, decision/switch counters and reservation outcome — at every
//! trace level, with and without a reservation stream. It does not plan
//! the same way, and that is the point: a trace records every policy's
//! score, so a traced scheduler plans every policy completely, while an
//! untraced one stops planning the policies that have lost. Identical
//! results from the two are the evidence that stopping changes nothing.
//! Either way every per-policy pass at a deep queue — suffix or full —
//! is timed as one `PlanBuilt`.

use dynp_core::{DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_obs::{TraceEvent, TraceLevel, Tracer};
use dynp_rms::{AdmissionConfig, PlanCounters, Policy, RETAIN_MIN_DEPTH};
use dynp_sim::simulate_traced;
use dynp_workload::{kth, transform, ReservationModel};
use proptest::prelude::*;

/// What a run left behind: its results, and which paths the planner's
/// per-policy passes took.
type Run = (Fingerprint, PlanCounters);

/// Everything a tracer could conceivably disturb, collapsed into a
/// bitwise-comparable fingerprint.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    sldwa_bits: u64,
    utilization_bits: u64,
    artww_bits: u64,
    events: u64,
    decisions: u64,
    switches: u64,
    switched_to: [u64; Policy::COUNT],
    reservations: String,
}

fn run(seed: u64, jobs: usize, decider: DeciderKind, with_res: bool, tracer: Tracer) -> Run {
    run_at(seed, jobs, 0.8, decider, with_res, tracer)
}

/// [`run`] with the submission times scaled by `factor`: 0.8 is the
/// paper's load (queues of tens), 0.005 a burst (queues of hundreds).
fn run_at(
    seed: u64,
    jobs: usize,
    factor: f64,
    decider: DeciderKind,
    with_res: bool,
    tracer: Tracer,
) -> Run {
    let set = transform::shrink(&kth().generate(jobs, seed), factor);
    let requests = if with_res {
        ReservationModel::typical(0.15).generate(&set, seed ^ 0xA5A5)
    } else {
        Vec::new()
    };
    let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(decider));
    let detail = simulate_traced(
        &set,
        &mut scheduler,
        &requests,
        AdmissionConfig::default(),
        tracer,
    );
    let fingerprint = Fingerprint {
        sldwa_bits: detail.result.metrics.sldwa.to_bits(),
        utilization_bits: detail.result.metrics.utilization.to_bits(),
        artww_bits: detail.result.metrics.artww.to_bits(),
        events: detail.result.events,
        decisions: scheduler.stats.decisions,
        switches: scheduler.stats.switches,
        switched_to: scheduler.stats.switched_to,
        reservations: format!("{:?}", detail.reservations),
    };
    (fingerprint, scheduler.plan_counters())
}

fn deciders() -> impl Strategy<Value = DeciderKind> {
    prop_oneof![
        Just(DeciderKind::Simple),
        Just(DeciderKind::Advanced),
        Just(DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        }),
    ]
}

fn levels() -> impl Strategy<Value = TraceLevel> {
    prop_oneof![
        Just(TraceLevel::Decisions),
        Just(TraceLevel::Spans),
        Just(TraceLevel::All),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn traced_runs_are_bit_identical_to_untraced(
        seed in 0u64..u64::MAX,
        jobs in 150usize..350,
        decider in deciders(),
        level in levels(),
        with_res in prop_oneof![Just(false), Just(true)],
    ) {
        let (untraced, plain) = run(seed, jobs, decider, with_res, Tracer::disabled());
        let (traced, complete) = run(seed, jobs, decider, with_res, Tracer::enabled(level));
        prop_assert_eq!(untraced, traced);
        prop_assert_eq!((plain.passes, plain.jobs), (complete.passes, complete.jobs));
        prop_assert_eq!(complete.pruned, 0);
    }
}

/// The cheapest non-interference guarantee, pinned deterministically:
/// a disabled tracer records nothing, an enabled one records plenty.
#[test]
fn disabled_tracer_stays_empty_while_enabled_records() {
    let tracer = Tracer::disabled();
    run(7, 200, DeciderKind::Advanced, false, tracer.clone());
    assert_eq!(tracer.snapshot().records.len(), 0);

    let tracer = Tracer::enabled(TraceLevel::All);
    run(7, 200, DeciderKind::Advanced, false, tracer.clone());
    let snapshot = tracer.snapshot();
    assert!(snapshot.records.len() > 200, "expected a rich trace");
}

/// A queue deep enough for the planner to retain its per-policy plans,
/// under every decider: the untraced run stops the passes of the
/// policies that have lost, the traced run — at the lowest level already,
/// `Decision` records list every score — stops none, and the two give
/// the same results. Every retained pass of the traced run — suffix or
/// full — is timed as one `PlanBuilt` record, so the per-policy plan
/// spans still sum to the planning wall time.
#[test]
fn traced_burst_plans_completely_and_equals_the_untraced_one() {
    for decider in [
        DeciderKind::Simple,
        DeciderKind::Advanced,
        DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        },
    ] {
        traced_burst_equals_untraced(decider);
    }
}

fn traced_burst_equals_untraced(decider: DeciderKind) {
    let burst = |tracer: Tracer| run_at(29, 300, 0.005, decider, false, tracer);
    let (untraced, plain) = burst(Tracer::disabled());
    assert!(plain.suffix_passes > 100, "burst too shallow: {plain:?}");
    assert!(
        plain.pruned > plain.jobs / 10,
        "few passes stopped: {plain:?}"
    );
    for level in [TraceLevel::Decisions, TraceLevel::Spans, TraceLevel::All] {
        let tracer = Tracer::enabled(level);
        let (traced, complete) = burst(tracer.clone());
        assert_eq!(traced, untraced, "{decider:?} {level:?}");
        assert_eq!(complete.pruned, 0, "{decider:?} {level:?}");
        assert_eq!(
            (complete.passes, complete.jobs),
            (plain.passes, plain.jobs),
            "{decider:?} {level:?}"
        );
        assert!(complete.suffix_passes > 100, "{decider:?} {level:?}");
        if level == TraceLevel::Decisions {
            continue; // records no plans
        }
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.dropped, 0);
        let deep_plans = snapshot
            .records
            .iter()
            .filter(|r| {
                matches!(r.event, TraceEvent::PlanBuilt { queue_depth, .. }
                    if queue_depth as usize >= RETAIN_MIN_DEPTH)
            })
            .count();
        assert_eq!(deep_plans as u64, complete.passes, "{level:?}");
    }
}
