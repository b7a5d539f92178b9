//! Observability non-interference: recording a trace must not perturb
//! the simulation. A trace-enabled run is bit-identical to a
//! trace-disabled run on the same seed — same SLDwA, utilization, event
//! count, decision/switch counters and reservation outcome — at every
//! trace level, with and without a reservation stream — and it plans the
//! same way: the planner's suffix path (retained per-policy plans at a
//! deep queue) is taken exactly as often, and times one `PlanBuilt` per
//! policy like the full pass does.

use dynp_core::{DeciderKind, DynPConfig, SelfTuningScheduler};
use dynp_obs::{TraceEvent, TraceLevel, Tracer};
use dynp_rms::{AdmissionConfig, Policy, RetainedCounts, RETAIN_MIN_DEPTH};
use dynp_sim::simulate_traced;
use dynp_workload::{kth, transform, ReservationModel};
use proptest::prelude::*;

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
    /// Which planning path every per-policy pass took.
    planner: RetainedCounts,
}

fn run(
    seed: u64,
    jobs: usize,
    decider: DeciderKind,
    with_res: bool,
    tracer: Tracer,
) -> Fingerprint {
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
) -> Fingerprint {
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
    Fingerprint {
        sldwa_bits: detail.result.metrics.sldwa.to_bits(),
        utilization_bits: detail.result.metrics.utilization.to_bits(),
        artww_bits: detail.result.metrics.artww.to_bits(),
        events: detail.result.events,
        decisions: scheduler.stats.decisions,
        switches: scheduler.stats.switches,
        switched_to: scheduler.stats.switched_to,
        reservations: format!("{:?}", detail.reservations),
        planner: scheduler.retained_counts(),
    }
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
        let untraced = run(seed, jobs, decider, with_res, Tracer::disabled());
        let traced = run(seed, jobs, decider, with_res, Tracer::enabled(level));
        prop_assert_eq!(untraced, traced);
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

/// A queue deep enough for the planner to retain its per-policy plans:
/// the traced run takes the suffix path exactly where the untraced one
/// does, and every retained pass — suffix or full — is timed as one
/// `PlanBuilt` record, so the per-policy plan spans still sum to the
/// planning wall time.
#[test]
fn traced_burst_takes_the_suffix_path_like_the_untraced_one() {
    let burst = |tracer: Tracer| run_at(29, 300, 0.005, DeciderKind::Advanced, false, tracer);
    let untraced = burst(Tracer::disabled());
    assert!(
        untraced.planner.suffix_passes > 100,
        "burst too shallow: {:?}",
        untraced.planner
    );
    for level in [TraceLevel::Spans, TraceLevel::All] {
        let tracer = Tracer::enabled(level);
        assert_eq!(burst(tracer.clone()), untraced, "{level:?}");
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
        assert_eq!(deep_plans as u64, untraced.planner.passes, "{level:?}");
    }
}
