//! Invariants of the advance-reservation admission subsystem.
//!
//! Admission promises two things about every run:
//!
//! 1. **No overlap / no overcommit** — at no instant do the started batch
//!    jobs plus the honored reservation windows exceed the machine. An
//!    admitted window really is held capacity: jobs are planned (and
//!    started) around it.
//! 2. **Deterministic verdicts** — the same request stream against the
//!    same workload produces the same admit/reject sequence, with the
//!    same reject reasons, every time.
//!
//! Checked over randomized workloads × randomized streams (proptest) and
//! the paper's trace models.

use dynp_suite::prelude::*;
use dynp_suite::rms::{CompletedJob, NaiveProfile, RepairAction};
use dynp_suite::sim::{simulate_detailed, DetailedRun};
use dynp_suite::workload::traces;
use proptest::prelude::*;

fn job(id: u32, submit_s: u64, width: u32, est_s: u64, actual_s: u64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(submit_s),
        width,
        SimDuration::from_secs(est_s),
        SimDuration::from_secs(actual_s),
    )
}

fn req(id: u32, submit_s: u64, start_s: u64, dur_s: u64, width: u32) -> ReservationRequest {
    ReservationRequest {
        id,
        submit: SimTime::from_secs(submit_s),
        start: SimTime::from_secs(start_s),
        duration: SimDuration::from_secs(dur_s),
        width,
        cancel_at: None,
    }
}

/// Asserts that at every instant the realized job spans plus the honored
/// reservation windows fit the machine — evaluated at every span edge
/// with half-open `[start, end)` occupancy.
fn assert_no_overcommit(machine: u32, completed: &[CompletedJob], honored: &[Reservation]) {
    let mut edges: Vec<SimTime> = completed
        .iter()
        .flat_map(|c| [c.start, c.end])
        .chain(honored.iter().flat_map(|w| [w.start, w.end()]))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    for &t in &edges {
        let jobs: u32 = completed
            .iter()
            .filter(|c| c.start <= t && t < c.end)
            .map(|c| c.job.width)
            .sum();
        let windows: u32 = honored
            .iter()
            .filter(|w| w.start <= t && t < w.end())
            .map(|w| w.width)
            .sum();
        assert!(
            jobs + windows <= machine,
            "overcommit at t={t:?}: {jobs} job + {windows} window procs on a {machine}-proc machine"
        );
    }
    // Every honored window must also be machine-feasible on its own.
    for w in honored {
        assert!(w.width <= machine);
        assert!(!w.duration.is_zero());
    }
}

fn detailed_with(
    set: &JobSet,
    scheduler: &mut dyn Scheduler,
    reqs: &[ReservationRequest],
) -> DetailedRun {
    simulate_with_reservations(set, scheduler, reqs, AdmissionConfig::default())
}

proptest! {
    /// Random workloads × random request streams, three scheduler kinds:
    /// no started job ever overlaps an admitted window, and the machine is
    /// never overcommitted.
    #[test]
    fn no_job_overlaps_an_admitted_window(
        raw_jobs in proptest::collection::vec((0u64..1_500, 1u32..17, 1u64..500, 1u64..500), 1..30),
        raw_reqs in proptest::collection::vec((0u64..1_500, 1u64..2_000, 30u64..600, 1u32..17), 0..12),
        scheduler_pick in 0u8..3,
    ) {
        let jobs: Vec<Job> = raw_jobs
            .iter()
            .enumerate()
            .map(|(i, &(submit, width, est, actual))| {
                job(i as u32, submit, width, est, actual.min(est))
            })
            .collect();
        let set = JobSet::new("proptest", 16, jobs);
        let mut reqs: Vec<ReservationRequest> = raw_reqs
            .iter()
            .enumerate()
            .map(|(i, &(submit, lead, dur, width))| {
                req(i as u32, submit, submit + lead, dur, width)
            })
            .collect();
        reqs.sort_by_key(|r| r.submit);

        let mut scheduler: Box<dyn Scheduler> = match scheduler_pick {
            0 => Box::new(StaticScheduler::new(Policy::Fcfs)),
            1 => Box::new(SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced))),
            _ => Box::new(dynp_suite::rms::EasyBackfillScheduler::new(Policy::Fcfs)),
        };
        let d = detailed_with(&set, scheduler.as_mut(), &reqs);
        prop_assert_eq!(d.result.metrics.jobs, set.len());
        assert_no_overcommit(16, &d.completed, &d.reservations.honored);

        // Every admitted-and-not-cancelled window is honored, every
        // request got exactly one verdict.
        let st = &d.reservations.stats;
        prop_assert_eq!(st.requests, reqs.len() as u64);
        prop_assert_eq!(st.admitted, st.honored + st.cancelled);
        prop_assert_eq!(st.admitted + st.rejected(), st.requests);
    }

    /// The admit/reject sequence is a pure function of (workload, stream,
    /// scheduler): repeated runs agree verdict-for-verdict.
    #[test]
    fn verdicts_are_deterministic(
        raw_reqs in proptest::collection::vec((0u64..1_000, 1u64..1_500, 30u64..400, 1u32..17), 1..10),
        seed in 0u64..50,
    ) {
        let set = traces::kth().generate(60, seed);
        // Rebase request times into the set's span so some requests
        // actually contend with the jobs.
        let t0 = set.first_submit().as_millis() / 1000;
        let mut reqs: Vec<ReservationRequest> = raw_reqs
            .iter()
            .enumerate()
            .map(|(i, &(submit, lead, dur, width))| {
                req(i as u32, t0 + submit, t0 + submit + lead, dur, width.min(set.machine_size))
            })
            .collect();
        reqs.sort_by_key(|r| r.submit);

        let once = || {
            let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
            let d = detailed_with(&set, &mut s, &reqs);
            (d.reservations.rejected.clone(), d.reservations.stats)
        };
        let (rej1, st1) = once();
        let (rej2, st2) = once();
        prop_assert_eq!(rej1, rej2);
        prop_assert_eq!(st1, st2);
    }
}

/// How far past `now` the planner holds a running job at least, and where
/// it starts judging a window (the planner's `RUNNING_PAD`).
const RUNNING_PAD: SimDuration = SimDuration::from_millis(1);

/// Reservation repair as a trial profile: every running job allocated
/// from `now` to its padded estimated end, then each judged window, in
/// book order, earliest-fit at its clip from its promised width down and
/// allocated at the first width that starts there. Built on
/// `NaiveProfile`, so it shares no code with
/// `RmsState::plan_reservation_repair`'s arithmetic.
fn trial_profile_repair(s: &RmsState, now: SimTime) -> Vec<RepairAction> {
    let pad_end = now + RUNNING_PAD;
    let capacity = s.plan_capacity();
    let mut profile = NaiveProfile::new(capacity, now);
    for run in s.running() {
        let end = run.estimated_end().max(pad_end);
        profile.allocate(now, end.saturating_since(now), run.job.width);
    }
    let mut actions = Vec::new();
    for r in s.reservation_slice() {
        let clip = r.start.max(pad_end);
        if r.end() <= clip {
            continue;
        }
        let duration = r.end().saturating_since(clip);
        let fit = (1..=r.width.min(capacity))
            .rev()
            .find(|&w| profile.earliest_fit(clip, duration, w) == clip);
        match fit {
            Some(w) => {
                profile.allocate(clip, duration, w);
                if w != r.width {
                    actions.push(RepairAction::Downgraded {
                        id: r.id,
                        from_width: r.width,
                        to_width: w,
                    });
                }
            }
            None => actions.push(RepairAction::Revoked { id: r.id }),
        }
    }
    actions
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

    /// Repair by arithmetic ≡ repair by trial profile, action for action,
    /// and the repaired book is a fixpoint. All times are a few ms around
    /// `now`, on the scale of `RUNNING_PAD`: jobs whose estimated end is
    /// overdue or inside the pad, windows that began before `now + pad`
    /// or end inside it, nested and overlapping windows admitted out of
    /// start order, and capacities small enough for downgrade-then-revoke
    /// chains. A mutant that takes each window's peak at its clip only
    /// (missing the rise where an earlier window begins inside it) fails
    /// this test.
    #[test]
    fn repair_matches_the_trial_profile(
        machine in 2u32..17,
        drop in 1u32..4,
        raw_jobs in proptest::collection::vec((0u32..16, 4u64..500, 0i64..24), 0..7),
        raw_windows in proptest::collection::vec((0i64..26, 1u64..20, 0u32..16), 0..7),
    ) {
        let now = SimTime::from_millis(1_000);
        let at = |off: i64| SimTime::from_millis((1_000 + off) as u64);
        let mut s = RmsState::new(machine);
        for n in 0..drop.min(machine - 1) {
            s.node_down(machine - 1 - n);
        }
        for (i, &(w, back, end_off)) in raw_jobs.iter().enumerate() {
            let free = s.free_processors();
            if free == 0 {
                break;
            }
            // Estimated end at `now - 3` … `now + 20` ms.
            let est = (back as i64 + end_off - 3) as u64;
            s.submit(Job::new(
                JobId(i as u32),
                SimTime::ZERO,
                1 + w % free,
                SimDuration::from_millis(est),
                SimDuration::from_millis(est),
            ));
            s.start(JobId(i as u32), at(-(back as i64)));
        }
        for &(start_off, dur, w) in &raw_windows {
            s.admit_reservation(at(start_off - 5), SimDuration::from_millis(dur), 1 + w % machine);
        }
        let planned = s.plan_reservation_repair(now);
        prop_assert_eq!(&planned, &trial_profile_repair(&s, now));
        prop_assert_eq!(s.repair_reservations(now), planned);
        prop_assert!(s.plan_reservation_repair(now).is_empty());
    }
}

/// Trace-model workloads under heavy booking pressure: the invariant
/// holds for every decider, and the stream really does get windows both
/// admitted and rejected (the test would be vacuous otherwise).
#[test]
fn trace_models_hold_the_overlap_invariant_under_pressure() {
    for model in traces::standard_models() {
        let set = model.generate(150, 13);
        let reqs = ReservationModel::typical(0.3).generate(&set, 5);
        assert!(!reqs.is_empty());
        let mut s = SelfTuningScheduler::new(DynPConfig::paper(DeciderKind::Advanced));
        let d = detailed_with(&set, &mut s, &reqs);
        assert_no_overcommit(set.machine_size, &d.completed, &d.reservations.honored);
        let st = &d.reservations.stats;
        assert!(st.admitted > 0, "{}: nothing admitted", set.name);
        assert!(st.rejected() > 0, "{}: nothing rejected", set.name);
    }
}

/// A full-width window is exclusive: no job may run inside it, and jobs
/// that would overlap wait for the window's end.
#[test]
fn full_width_window_excludes_all_jobs() {
    let set = JobSet::new(
        "t",
        8,
        vec![job(0, 0, 8, 500, 500), job(1, 10, 8, 500, 500)],
    );
    let reqs = [req(0, 5, 600, 300, 8)];
    let mut s = StaticScheduler::new(Policy::Fcfs);
    let d = detailed_with(&set, &mut s, &reqs);
    assert_eq!(d.reservations.stats.admitted, 1);
    assert_no_overcommit(8, &d.completed, &d.reservations.honored);
    // Job 1 cannot fit between job 0's end (500) and the window (600):
    // it runs after the window.
    let j1 = d.completed.iter().find(|c| c.job.id.0 == 1).unwrap();
    assert_eq!(j1.start, SimTime::from_secs(900));
}

/// The empty stream changes nothing: `simulate_with_reservations` with no
/// requests is bit-identical to `simulate_detailed` for every scheduler
/// in the line-up.
#[test]
fn empty_stream_is_bit_identical_for_every_scheduler() {
    let set = traces::ctc().generate(120, 23);
    let build: Vec<Box<dyn Fn() -> Box<dyn Scheduler>>> = vec![
        Box::new(|| Box::new(StaticScheduler::new(Policy::Sjf))),
        Box::new(|| Box::new(dynp_suite::rms::EasyBackfillScheduler::new(Policy::Fcfs))),
        Box::new(|| {
            Box::new(SelfTuningScheduler::new(DynPConfig::paper(
                DeciderKind::Preferred {
                    policy: Policy::Sjf,
                    threshold: 0.0,
                },
            )))
        }),
    ];
    for make in &build {
        let mut a = make();
        let mut b = make();
        let plain = simulate_detailed(&set, a.as_mut());
        let with = detailed_with(&set, b.as_mut(), &[]);
        assert_eq!(
            plain.result.metrics.sldwa.to_bits(),
            with.result.metrics.sldwa.to_bits()
        );
        assert_eq!(
            plain.result.metrics.utilization.to_bits(),
            with.result.metrics.utilization.to_bits()
        );
        assert_eq!(plain.result.events, with.result.events);
    }
}
