//! Property-based whole-stack tests: for arbitrary small workloads, the
//! realized execution (completed-job records) must satisfy the physical
//! invariants of the machine, for every scheduler.

use dynp_suite::prelude::*;
use proptest::prelude::*;

/// Replays one workload through one scheduler and checks the realized
/// timeline: processor conservation at every instant, causality (no job
/// starts before submission), and run-time fidelity (every job runs
/// exactly its actual run time).
fn check_run(set: &JobSet, spec: &SchedulerSpec) -> Result<(), TestCaseError> {
    // Re-run the simulation capturing the completed records.
    let mut state = dynp_suite::rms::RmsState::new(set.machine_size);
    let mut engine: dynp_suite::des::Engine<(bool, JobId)> = dynp_suite::des::Engine::new();
    for job in set.jobs() {
        engine.schedule_at(job.submit, (true, job.id));
    }
    let mut scheduler = spec.build();
    engine.run(|eng, (arrive, id)| {
        let now = eng.now();
        let reason = if arrive {
            state.submit(*set.job(id));
            ReplanReason::Submission
        } else {
            state.complete(id, now);
            ReplanReason::Completion
        };
        let schedule = scheduler.replan(&state, now, reason);
        let due: Vec<JobId> = schedule.due(now).map(|e| e.job.id).collect();
        for jid in due {
            let run = state.start(jid, now);
            eng.schedule_at(run.actual_end(), (false, jid));
        }
    });

    let completed = state.completed();
    prop_assert_eq!(completed.len(), set.len(), "lost jobs");

    for done in completed {
        prop_assert!(done.start >= done.job.submit, "started before submission");
        let runtime = done.end.saturating_since(done.start);
        prop_assert_eq!(runtime, done.job.actual, "ran wrong duration");
    }

    // Processor conservation at every start/end edge.
    let mut edges: Vec<u64> = completed
        .iter()
        .flat_map(|d| [d.start.as_millis(), d.end.as_millis()])
        .collect();
    edges.sort_unstable();
    edges.dedup();
    for &edge in &edges {
        let used: u64 = completed
            .iter()
            .filter(|d| d.start.as_millis() <= edge && edge < d.end.as_millis())
            .map(|d| d.job.width as u64)
            .sum();
        prop_assert!(
            used <= set.machine_size as u64,
            "overcommit at t={edge}ms: {used} > {}",
            set.machine_size
        );
    }
    Ok(())
}

fn arbitrary_jobset() -> impl Strategy<Value = JobSet> {
    (
        2u32..12, // machine size
        proptest::collection::vec(
            (
                0u64..5_000, // submit (s)
                1u32..12,    // width (clamped to machine)
                1u64..2_000, // estimate (s)
                1u64..2_000, // actual (clamped to estimate)
            ),
            1..35,
        ),
    )
        .prop_map(|(machine, raw)| {
            let jobs: Vec<Job> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (submit, width, est, act))| {
                    Job::new(
                        JobId(i as u32),
                        SimTime::from_secs(submit),
                        width.min(machine),
                        SimDuration::from_secs(est),
                        SimDuration::from_secs(act),
                    )
                })
                .collect();
            JobSet::new("prop", machine, jobs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Static FCFS/SJF/LJF respect machine physics on arbitrary inputs.
    #[test]
    fn static_schedulers_conserve_processors(set in arbitrary_jobset()) {
        for policy in Policy::BASIC {
            check_run(&set, &SchedulerSpec::Static(policy))?;
        }
    }

    /// All three dynP deciders respect machine physics on arbitrary
    /// inputs.
    #[test]
    fn dynp_schedulers_conserve_processors(set in arbitrary_jobset()) {
        for decider in [
            DeciderKind::Simple,
            DeciderKind::Advanced,
            DeciderKind::Preferred { policy: Policy::Sjf, threshold: 0.0 },
        ] {
            check_run(&set, &SchedulerSpec::dynp(decider))?;
        }
    }

    /// The EASY backfilling queueing scheduler respects machine physics
    /// on arbitrary inputs (its backfill decisions must never overcommit).
    #[test]
    fn easy_backfilling_conserves_processors(set in arbitrary_jobset()) {
        for policy in [Policy::Fcfs, Policy::Sjf] {
            check_run(&set, &SchedulerSpec::Easy(policy))?;
        }
    }

    /// A width-1 single-job workload is always served instantly by every
    /// scheduler (no spurious waiting).
    #[test]
    fn lone_job_never_waits(submit in 0u64..10_000, est in 1u64..5_000) {
        let set = JobSet::new(
            "lone",
            4,
            vec![Job::new(
                JobId(0),
                SimTime::from_secs(submit),
                1,
                SimDuration::from_secs(est),
                SimDuration::from_secs(est),
            )],
        );
        for spec in SchedulerSpec::paper_lineup() {
            let mut s = spec.build();
            let run = simulate(&set, s.as_mut());
            prop_assert_eq!(run.result.metrics.avg_wait_secs, 0.0);
            prop_assert_eq!(run.result.metrics.sldwa, 1.0);
        }
    }
}
