//! Regression pin for the keyed switch counters.
//!
//! `history_report` sources its per-policy switch counts from
//! [`SwitchStats::switched_to`] rather than re-deriving them from the
//! reconstructed [`PolicyHistory`] (whose segments collapse coincident
//! switch times and therefore undercount). This test pins the counters
//! on a fixed seeded run so any drift in the decision loop, the keyed
//! accounting, or the history reconstruction is caught loudly.

use dynp_core::{DeciderKind, DynPConfig, PolicyHistory, SelfTuningScheduler};
use dynp_des::SimTime;
use dynp_rms::Policy;
use dynp_sim::simulate;
use dynp_workload::{kth, transform};

#[test]
fn switched_to_counters_are_pinned_on_the_seeded_run() {
    let set = transform::shrink(&kth().generate(1_000, 0x5EED), 0.8);
    let mut scheduler = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
    let detail = simulate(&set, &mut scheduler);

    let stats = &scheduler.stats;
    // Pinned on the seeded run: KTH, 1000 jobs, seed 0x5EED, f = 0.8,
    // advanced decider. Any change here means the decision loop changed.
    assert_eq!(stats.decisions, 2_000);
    let by_policy: Vec<(&str, u64)> = Policy::BASIC
        .iter()
        .map(|&p| (p.name(), stats.switches_into(p)))
        .collect();
    assert_eq!(
        by_policy,
        vec![("FCFS", 10), ("SJF", 10), ("LJF", 1)],
        "switched_to counters drifted"
    );

    // Internal consistency, independent of the pinned values.
    let total: u64 = Policy::ALL.iter().map(|&p| stats.switches_into(p)).sum();
    assert_eq!(total, stats.switches);

    // The keyed counters dominate the segment-derived counts: the
    // reconstructed history may merge switches that share a timestamp,
    // so segments never exceed switches + 1.
    let end = SimTime::from_secs_f64(detail.result.metrics.last_end_secs);
    let history = PolicyHistory::reconstruct(Policy::Fcfs, stats, SimTime::ZERO, end);
    assert!(history.segments().len() as u64 <= stats.switches + 1);
}
