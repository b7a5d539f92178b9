//! Cross-validation of two independent scheduler implementations.
//!
//! Planning-based scheduling with earliest-fit (implicit backfilling) and
//! queueing with explicit EASY backfilling were implemented separately —
//! different algorithms, different code paths. In FCFS order they should
//! realize *very similar* executions: both start the queue head as early
//! as possible and backfill lower-priority jobs that cannot delay it.
//! They are not identical (the planner re-plans the whole queue and may
//! backfill more aggressively behind the head's reservation), but on
//! realistic workloads their aggregate metrics must agree closely. A
//! large divergence would indicate a bug in one of the two.

use dynp_suite::prelude::*;
use dynp_suite::workload::{traces, transform};

fn compare(trace: &str, factor: f64, tolerance: f64, util_tolerance: f64) {
    let model = traces::by_name(trace).unwrap();
    let set = transform::shrink(&model.generate(1_200, 31), factor);

    let mut planning = StaticScheduler::new(Policy::Fcfs);
    let mut easy = dynp_suite::rms::EasyBackfillScheduler::fcfs();
    let a = simulate(&set, &mut planning);
    let b = simulate(&set, &mut easy);

    assert_eq!(a.result.metrics.jobs, b.result.metrics.jobs);
    let rel = (a.result.metrics.sldwa - b.result.metrics.sldwa).abs() / a.result.metrics.sldwa;
    assert!(
        rel < tolerance,
        "{trace}@{factor}: planning FCFS sldwa {} vs EASY {} (rel {rel:.3})",
        a.result.metrics.sldwa,
        b.result.metrics.sldwa
    );
    assert!(
        (a.result.metrics.utilization - b.result.metrics.utilization).abs() < util_tolerance,
        "{trace}@{factor}: util {} vs {}",
        a.result.metrics.utilization,
        b.result.metrics.utilization
    );
}

#[test]
fn easy_matches_planning_fcfs_light_load() {
    compare("CTC", 1.0, 0.25, 0.03);
    compare("SDSC", 1.0, 0.25, 0.03);
}

#[test]
fn easy_matches_planning_fcfs_heavy_load() {
    // Under saturation EASY's greedier backfilling buys a few points of
    // utilization over the conservative full plan; allow that gap.
    compare("CTC", 0.7, 0.30, 0.06);
    compare("SDSC", 0.7, 0.30, 0.06);
}

/// On a single-job workload the two must agree exactly.
#[test]
fn identical_on_trivial_workloads() {
    let set = JobSet::new(
        "one",
        8,
        vec![Job::new(
            JobId(0),
            SimTime::from_secs(10),
            4,
            SimDuration::from_secs(100),
            SimDuration::from_secs(80),
        )],
    );
    let mut planning = StaticScheduler::new(Policy::Fcfs);
    let mut easy = dynp_suite::rms::EasyBackfillScheduler::fcfs();
    let a = simulate(&set, &mut planning);
    let b = simulate(&set, &mut easy);
    assert_eq!(
        a.result.metrics.sldwa.to_bits(),
        b.result.metrics.sldwa.to_bits()
    );
    assert_eq!(
        a.result.metrics.last_end_secs,
        b.result.metrics.last_end_secs
    );
}

/// The canonical divergence case, pinned down: the planner may backfill
/// a job that EASY rejects because it would overrun the head job's
/// shadow time on processors the head will need — but the planner knows
/// the head can be re-planned around it without delay. Both must still
/// start the head job at the same time.
#[test]
fn divergence_never_delays_the_queue_head() {
    // Machine 4; running width 3 until t=100 (estimate = actual).
    // Head job: width 4 (blocked until 100). Backfill candidate: width 1,
    // 150 s — EASY rejects it (ends past the shadow, no extra nodes);
    // the planner schedules it AFTER the head (start 100 is impossible:
    // the planner places the head first).
    let jobs = vec![
        Job::new(
            JobId(0),
            SimTime::ZERO,
            3,
            SimDuration::from_secs(100),
            SimDuration::from_secs(100),
        ),
        Job::new(
            JobId(1),
            SimTime::from_secs(1),
            4,
            SimDuration::from_secs(50),
            SimDuration::from_secs(50),
        ),
        Job::new(
            JobId(2),
            SimTime::from_secs(2),
            1,
            SimDuration::from_secs(150),
            SimDuration::from_secs(150),
        ),
    ];
    let set = JobSet::new("diverge", 4, jobs);

    for (label, result) in [
        (
            "planning",
            simulate(&set, &mut StaticScheduler::new(Policy::Fcfs)),
        ),
        (
            "easy",
            simulate(&set, &mut dynp_suite::rms::EasyBackfillScheduler::fcfs()),
        ),
    ] {
        // In both worlds the head (job 1) starts exactly at t=100:
        // wait 99 s. Job 2 runs after it (150 or after 100+50) —
        // total span identical.
        assert_eq!(result.result.metrics.jobs, 3, "{label}");
        assert_eq!(result.result.metrics.last_end_secs, 300.0, "{label}");
    }
}
