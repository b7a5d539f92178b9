//! Sanity check that the checker actually catches protocol bugs: with
//! the seeded `mc-mutant-stale-finish` driver fault compiled in (the
//! staleness test drops the attempt tag and only asks "is the job
//! running?"), exploration must find a violation, shrink it to the
//! minimal scenario, and the shrunk schedule must replay through the
//! production `simulate_chaos` entry point.
//!
//! Run with `cargo test -p dynp-mc --features mutants`.
#![cfg(feature = "mutants")]

use dynp_des::{SimDuration, SimTime};
use dynp_mc::{explore, replay, scheduler_factory, shrink, ExploreConfig, Scenario};
use dynp_obs::{TraceLevel, Tracer};
use dynp_rms::AdmissionConfig;
use dynp_sim::simulate_chaos;
use dynp_workload::{Job, JobId, NodeOutage, ReservationRequest, RetryPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A job is evicted mid-run by a node outage and retried; its first
/// attempt's `Finish` event is still pending when the second attempt is
/// running. The real driver ignores it (stale attempt tag); the mutant
/// honors it and completes the job at the wrong instant. Two irrelevant
/// elements (a late job, a far-future reservation) ride along so the
/// shrinker has something to delete.
fn mutant_bait() -> Scenario {
    Scenario {
        name: "mutant-bait".to_string(),
        machine: 2,
        jobs: vec![
            // Attempt 1 starts at t=0 (Finish tagged attempt 1 lands at
            // t=100s), is evicted by the outage at t=50s, and attempt 2
            // runs 55s..155s — so at t=100s the job is running again and
            // only the attempt tag exposes the stale event.
            Job::new(
                JobId(0),
                SimTime::from_secs(0),
                1,
                SimDuration::from_secs(200),
                SimDuration::from_secs(100),
            ),
            // Irrelevant: submits after everything interesting.
            Job::new(
                JobId(1),
                SimTime::from_secs(300),
                1,
                SimDuration::from_secs(10),
                SimDuration::from_secs(10),
            ),
        ],
        requests: vec![ReservationRequest {
            id: 0,
            submit: SimTime::from_secs(0),
            start: SimTime::from_secs(400),
            duration: SimDuration::from_secs(10),
            width: 1,
            cancel_at: None,
        }],
        outages: vec![NodeOutage {
            node: 0,
            down_at: SimTime::from_secs(50),
            up_at: SimTime::from_secs(60),
        }],
        job_faults: Vec::new(),
        retry: RetryPolicy {
            max_retries: 2,
            backoff: SimDuration::from_secs(5),
            factor: 1.0,
        },
        admission: AdmissionConfig::default(),
    }
}

#[test]
fn checker_finds_and_shrinks_the_seeded_stale_finish_bug() {
    let scenario = mutant_bait();
    let make = scheduler_factory("fcfs").unwrap();
    let cfg = ExploreConfig::default();

    let result = explore(&scenario, make.as_ref(), &cfg);
    let violation = result
        .violation
        .expect("the mutant must be caught by exploration");
    assert!(
        violation.detail.contains("completed at the wrong time"),
        "unexpected violation: {} / {}",
        violation.invariant,
        violation.detail
    );

    let shrunk = shrink(&scenario, &violation, make.as_ref(), &cfg);
    // The late job and the far-future reservation are deleted; the
    // evicted job and the outage that evicts it are both load-bearing.
    assert_eq!(shrunk.removed.len(), 2, "removed: {:?}", shrunk.removed);
    assert_eq!(shrunk.scenario.size(), 2);
    assert_eq!(shrunk.scenario.jobs.len(), 1);
    assert_eq!(shrunk.scenario.outages.len(), 1);
    assert!(
        shrunk
            .violation
            .detail
            .contains("completed at the wrong time"),
        "shrunk violation drifted: {}",
        shrunk.violation.detail
    );

    // The traced replay (what the bin dumps as the counterexample)
    // reproduces the panic at the end of the schedule and captures the
    // event prefix plus a trace.
    let (events, trace, panicked) = replay(
        &shrunk.scenario,
        make.as_ref(),
        &shrunk.violation.schedule,
        Tracer::enabled(TraceLevel::All),
    );
    assert!(
        panicked
            .as_deref()
            .unwrap_or_default()
            .contains("completed at the wrong time"),
        "replay of the schedule must end in the violation: {panicked:?}"
    );
    assert!(!events.is_empty());
    assert!(!trace.records.is_empty());

    // The minimal counterexample needs no tie permutation — it is the
    // plain FIFO schedule, so the production entry point reproduces it.
    assert!(
        shrunk.violation.is_fifo(),
        "schedule: {:?}",
        shrunk.violation.schedule
    );
    let set = shrunk.scenario.job_set();
    let requests = shrunk.scenario.requests.clone();
    let admission = shrunk.scenario.admission;
    let faults = shrunk.scenario.fault_plan();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        let mut scheduler = scheduler_factory("fcfs").unwrap()();
        simulate_chaos(
            &set,
            scheduler.as_mut(),
            &requests,
            admission,
            &faults,
            Tracer::disabled(),
        )
    }));
    std::panic::set_hook(prev);
    let payload = replayed.expect_err("simulate_chaos must reproduce the mutant panic");
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        text.contains("completed at the wrong time"),
        "replay panicked differently: {text}"
    );
}
