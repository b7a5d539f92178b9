//! Equivalence oracle for the incremental replanning engine.
//!
//! The incremental `SelfTuningScheduler` (shared base profiles, persistent
//! per-policy queue orders, fast paths) must be *bit-identical* to the
//! from-scratch reference algorithm it replaced: same schedules, same
//! decisions, same metrics, same switch statistics. These tests drive both
//! engines through full simulations — randomized workloads and the paper's
//! trace models — and demand exact equality.

use dynp_suite::prelude::*;
use dynp_suite::rms::{PlanCounters, Schedule, RETAIN_MIN_DEPTH};
use dynp_suite::workload::{traces, transform, FaultModel, FaultPlan};
use proptest::prelude::*;

/// Plan fan-out worker counts every equivalence claim is checked at.
/// 1 is the sequential path, 2 and 8 exercise the `std::thread::scope`
/// fan-out (8 > the 3 candidate policies, so some workers go idle).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn job(id: u32, submit_s: u64, width: u32, est_s: u64, actual_s: u64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(submit_s),
        width,
        SimDuration::from_secs(est_s),
        SimDuration::from_secs(actual_s),
    )
}

/// Builds the scheduler for one run: reference or incremental, the
/// latter with a forced fan-out worker count (min-depth 0 so even tiny
/// test queues take the threaded path when `threads > 1`).
fn scheduler_with(config: &DynPConfig, reference: bool, threads: usize) -> SelfTuningScheduler {
    let mut s = SelfTuningScheduler::new(config.clone());
    s.set_reference_mode(reference);
    s.set_planner_threads(threads);
    if threads > 1 {
        s.set_parallel_min_depth(0);
    }
    s
}

/// The runs [`assert_equivalent_with`] returns planner counters of, in order.
const PATHS: [&str; 2] = ["sequential", "fanned out"];

/// Runs one full simulation with the given config, incrementally or in
/// reference mode, and returns everything the run produced. A non-empty
/// `reqs` adds an advance-reservation stream, so both engines also plan
/// around admitted windows.
fn run_with(
    set: &JobSet,
    config: &DynPConfig,
    reference: bool,
    reqs: &[ReservationRequest],
    threads: usize,
) -> (
    SimMetrics,
    dynp_suite::core::SwitchStats,
    Policy,
    ReservationStats,
    PlanCounters,
) {
    let mut s = scheduler_with(config, reference, threads);
    let d = simulate_chaos(
        set,
        &mut s,
        reqs,
        AdmissionConfig::default(),
        &FaultPlan::none(),
        Tracer::disabled(),
    );
    (
        d.result.metrics,
        s.stats.clone(),
        s.active_policy(),
        d.reservations.stats,
        s.plan_counters(),
    )
}

/// Returns which paths the planner's per-policy passes took in the
/// sequential incremental run and in the fanned-out ones (all zero on
/// queues that stay under `RETAIN_MIN_DEPTH`). The fanned-out runs take
/// the same paths as each other — what a pass keeps and where it stops
/// as lost do not depend on the worker count — and share nothing; the
/// sequential run's passes also start from the prefixes their orders
/// share, which changes what they keep, never what they plan.
fn assert_equivalent_with(
    set: &JobSet,
    config: &DynPConfig,
    reqs: &[ReservationRequest],
) -> [PlanCounters; 2] {
    let (m_ref, stats_ref, active_ref, res_ref, _) = run_with(set, config, true, reqs, 1);
    let (mut sequential, mut fanned) = (None, None);
    for threads in THREAD_COUNTS {
        let (m_inc, stats_inc, active_inc, res_inc, counts) =
            run_with(set, config, false, reqs, threads);
        if threads == 1 {
            sequential = Some(counts);
        } else {
            assert_eq!(*fanned.get_or_insert(counts), counts, "{threads} threads");
            assert_eq!(counts.shared, 0, "{threads} threads shared a prefix");
        }
        let ctx = format!(
            "{} / {:?} / {:?} / {} reservation requests / {threads} planner threads",
            set.name,
            config.decider,
            config.decide_on,
            reqs.len()
        );
        assert_eq!(res_inc, res_ref, "{ctx}");
        assert_eq!(m_inc.sldwa.to_bits(), m_ref.sldwa.to_bits(), "{ctx}");
        assert_eq!(
            m_inc.utilization.to_bits(),
            m_ref.utilization.to_bits(),
            "{ctx}"
        );
        assert_eq!(m_inc.artww.to_bits(), m_ref.artww.to_bits(), "{ctx}");
        assert_eq!(m_inc.last_end_secs, m_ref.last_end_secs, "{ctx}");
        assert_eq!(stats_inc, stats_ref, "{ctx}");
        assert_eq!(active_inc, active_ref, "{ctx}");
    }
    let (sequential, fanned) = (
        sequential.expect("one thread"),
        fanned.expect("two threads"),
    );
    let passes = |c: PlanCounters| (c.passes, c.jobs);
    assert_eq!(passes(sequential), passes(fanned));
    [sequential, fanned]
}

fn assert_equivalent(set: &JobSet, config: &DynPConfig) -> [PlanCounters; 2] {
    assert_equivalent_with(set, config, &[])
}

proptest! {
    /// Random workloads: incremental and reference runs are bit-identical
    /// for every decider and decide-on variant.
    #[test]
    fn incremental_equals_reference_on_random_workloads(
        raw in proptest::collection::vec((0u64..2_000, 1u32..17, 1u64..600, 1u64..600), 1..40),
        decider_pick in 0u8..4,
        submissions_only in 0u8..2,
    ) {
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(submit, width, est, actual))| {
                job(i as u32, submit, width, est, actual.min(est))
            })
            .collect();
        let set = JobSet::new("proptest", 16, jobs);
        let decider = match decider_pick {
            0 => DeciderKind::Simple,
            1 => DeciderKind::Advanced,
            2 => DeciderKind::Preferred { policy: Policy::Sjf, threshold: 0.0 },
            _ => DeciderKind::Preferred { policy: Policy::Ljf, threshold: 0.05 },
        };
        let mut config = DynPConfig::paper(decider);
        if submissions_only == 1 {
            config.decide_on = DecideOn::SubmissionsOnly;
        }
        assert_equivalent(&set, &config);
    }

    /// Reservation-bearing states: with a random request stream admitted
    /// into the book, the incremental engine still matches the reference
    /// bit-for-bit — including the admission verdicts themselves.
    #[test]
    fn incremental_equals_reference_with_reservations(
        raw in proptest::collection::vec((0u64..2_000, 1u32..17, 1u64..600, 1u64..600), 1..25),
        raw_reqs in proptest::collection::vec((0u64..2_000, 1u64..2_500, 30u64..600, 1u32..17), 1..10),
        decider_pick in 0u8..3,
        submissions_only in 0u8..2,
    ) {
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, &(submit, width, est, actual))| {
                job(i as u32, submit, width, est, actual.min(est))
            })
            .collect();
        let set = JobSet::new("proptest-res", 16, jobs);
        let mut reqs: Vec<ReservationRequest> = raw_reqs
            .iter()
            .enumerate()
            .map(|(i, &(submit, lead, dur, width))| ReservationRequest {
                id: i as u32,
                submit: SimTime::from_secs(submit),
                start: SimTime::from_secs(submit + lead),
                duration: SimDuration::from_secs(dur),
                width,
                cancel_at: (i % 3 == 0).then(|| SimTime::from_secs(submit + lead / 2)),
            })
            .collect();
        reqs.sort_by_key(|r| r.submit);
        let decider = match decider_pick {
            0 => DeciderKind::Simple,
            1 => DeciderKind::Advanced,
            _ => DeciderKind::Preferred { policy: Policy::Sjf, threshold: 0.0 },
        };
        let mut config = DynPConfig::paper(decider);
        if submissions_only == 1 {
            config.decide_on = DecideOn::SubmissionsOnly;
        }
        assert_equivalent_with(&set, &config, &reqs);
    }
}

/// The paper's trace models: incremental and reference runs are
/// bit-identical on realistic workloads.
#[test]
fn incremental_equals_reference_on_trace_models() {
    for model in traces::standard_models() {
        let set = transform::shrink(&model.generate(200, 7), 0.8);
        for decider in [
            DeciderKind::Advanced,
            DeciderKind::Preferred {
                policy: Policy::Sjf,
                threshold: 0.0,
            },
        ] {
            assert_equivalent(&set, &DynPConfig::paper(decider));
        }
    }
}

/// Trace models with a calibrated reservation stream riding along: the
/// two engines agree bit-for-bit on both the job metrics and the
/// admission outcome.
#[test]
fn incremental_equals_reference_on_trace_models_with_reservations() {
    for model in traces::standard_models() {
        let set = model.generate(150, 19);
        let reqs = ReservationModel::typical(0.2).generate(&set, 3);
        assert!(!reqs.is_empty());
        assert_equivalent_with(&set, &DynPConfig::paper(DeciderKind::Advanced), &reqs);
    }
}

/// Fault-bearing runs: with a calibrated chaos trace injected (node
/// outages, crashes, overruns, retries), the incremental engine still
/// matches the reference bit-for-bit at every fan-out worker count —
/// the fault replans go through the same batched planning path.
#[test]
fn incremental_equals_reference_under_faults() {
    for model in traces::standard_models() {
        let set = transform::shrink(&model.generate(150, 23), 0.8);
        let plan = FaultModel::typical(20_000.0, 3_600.0, 0.05).generate(&set, 13);
        assert!(!plan.is_empty(), "fault model injected nothing");
        let config = DynPConfig::paper(DeciderKind::Advanced);
        let chaos_run = |reference: bool, threads: usize| {
            let mut s = scheduler_with(&config, reference, threads);
            let d = simulate_chaos(
                &set,
                &mut s,
                &[],
                AdmissionConfig::default(),
                &plan,
                Tracer::disabled(),
            );
            (d.result.metrics, s.stats.clone(), s.active_policy())
        };
        let (m_ref, stats_ref, active_ref) = chaos_run(true, 1);
        for threads in THREAD_COUNTS {
            let (m_inc, stats_inc, active_inc) = chaos_run(false, threads);
            let ctx = format!("{} / faults / {threads} planner threads", set.name);
            assert_eq!(m_inc.sldwa.to_bits(), m_ref.sldwa.to_bits(), "{ctx}");
            assert_eq!(
                m_inc.utilization.to_bits(),
                m_ref.utilization.to_bits(),
                "{ctx}"
            );
            assert_eq!(m_inc.last_end_secs, m_ref.last_end_secs, "{ctx}");
            assert_eq!(stats_inc, stats_ref, "{ctx}");
            assert_eq!(active_inc, active_ref, "{ctx}");
        }
    }
}

/// A fault-free chaos plan pins the identity: `simulate_chaos` with
/// `FaultPlan::none` must equal the plain reservation run bit-for-bit,
/// sequential and fanned out alike.
#[test]
fn fault_free_chaos_equals_plain_run_across_thread_counts() {
    use dynp_suite::sim::simulate_chaos;
    let set = transform::shrink(&traces::ctc().generate(200, 31), 0.8);
    let config = DynPConfig::paper(DeciderKind::Advanced);
    let plain = run_with(&set, &config, false, &[], 1);
    for threads in THREAD_COUNTS {
        let mut s = scheduler_with(&config, false, threads);
        let d = simulate_chaos(
            &set,
            &mut s,
            &[],
            AdmissionConfig::default(),
            &FaultPlan::none(),
            dynp_suite::obs::Tracer::disabled(),
        );
        assert_eq!(
            d.result.metrics.sldwa.to_bits(),
            plain.0.sldwa.to_bits(),
            "{threads} planner threads"
        );
        assert_eq!(s.stats, plain.1, "{threads} planner threads");
        assert_eq!(s.active_policy(), plain.2);
    }
}

/// Seeded determinism regression: the incremental engine reproduces its
/// own run exactly — identical metrics *and* identical switch statistics
/// — at every fan-out worker count, and all worker counts agree.
#[test]
fn incremental_run_is_deterministic() {
    let model = traces::ctc();
    let config = DynPConfig::paper(DeciderKind::Advanced);
    let once = |threads: usize| {
        let set = transform::shrink(&model.generate(300, 41), 0.8);
        let (m, stats, active, ..) = run_with(&set, &config, false, &[], threads);
        (m, stats, active)
    };
    let (m1, stats1, active1) = once(1);
    for threads in THREAD_COUNTS {
        let (m2, stats2, active2) = once(threads);
        assert_eq!(m1.sldwa.to_bits(), m2.sldwa.to_bits());
        assert_eq!(m1.utilization.to_bits(), m2.utilization.to_bits());
        assert_eq!(&stats1, &stats2);
        assert_eq!(active1, active2);
    }
    assert!(stats1.decisions > 0);
}

/// A burst: KTH jobs arriving 200× faster than the trace, so the queue
/// climbs through `RETAIN_MIN_DEPTH` into the hundreds and drains back
/// through it. Most replans on the way up are submissions on an
/// unchanged base — the planner's suffix path — and most of those stop
/// planning the policies that have lost; every one of them must leave
/// the run bit-identical to the from-scratch reference, which plans and
/// scores every policy completely. So must the other objectives, each
/// with its own weighting of a job's delay — and `Utilization`, which a
/// partial plan does not bound, must stop no pass at all. The active
/// policy's complete passes take the tails of the plans they replace
/// once no job left can tell the two apart (`PlanCounters::spliced`).
///
/// 1 200 jobs in release builds (the CI equivalence legs). Under debug
/// assertions every profile update re-checks the whole profile, which
/// makes a pass cubic in the burst size — minutes at 1 200 — so debug
/// builds run a 400-job burst, still well across the cutoff.
#[test]
fn incremental_equals_reference_on_a_burst_across_the_retention_cutoff() {
    let (jobs, expect_suffix_passes, expect_spliced) = if cfg!(debug_assertions) {
        (400, 300, 10_000)
    } else {
        (1_200, 1_000, 120_000)
    };
    let set = transform::shrink(&traces::kth().generate(jobs, 53), 0.005);
    for decider in [
        DeciderKind::Advanced,
        DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        },
    ] {
        let counts = assert_equivalent(&set, &DynPConfig::paper(decider));
        for (path, planner) in PATHS.into_iter().zip(counts) {
            assert!(
                planner.suffix_passes > expect_suffix_passes,
                "{decider:?} {path}: the burst took the suffix path: {planner:?}"
            );
            assert!(
                planner.folded > 0,
                "{decider:?} {path}: no plan kept its prefix across a start: {planner:?}"
            );
            // Measured 14 940 (400 jobs) and 181 046 (1 200): a weaker
            // splice test shows up here as a count.
            assert!(
                planner.spliced > expect_spliced,
                "{decider:?} {path}: complete passes spliced too little: {planner:?}"
            );
            assert!(
                planner.pruned > planner.jobs / 2,
                "{decider:?} {path}: the burst stopped few passes: {planner:?}"
            );
            assert!(
                planner.rest_stops > 0,
                "{decider:?} {path}: no pass stopped on its rest"
            );
        }
    }
    // The same burst with reference mode on over a stretch of the rise.
    // The driver clears the queue log after every replan, so the engine
    // comes back behind it, rebuilds its orders from the waiting queue —
    // and must be on the never-switched run's path, suffix passes and
    // all.
    let config = DynPConfig::paper(DeciderKind::Advanced);
    let (m, stats, active, _, _) = run_with(&set, &config, false, &[], 1);
    let mut switched = Switched {
        inner: scheduler_with(&config, false, 1),
        replans: 0,
        stretch: jobs / 4..jobs / 2,
        suffix_at_resume: 0,
    };
    let d = simulate(&set, &mut switched);
    assert_eq!(d.result.metrics.sldwa.to_bits(), m.sldwa.to_bits());
    assert_eq!(d.result.metrics.artww.to_bits(), m.artww.to_bits());
    assert_eq!(switched.inner.stats, stats);
    assert_eq!(switched.inner.active_policy(), active);
    assert!(switched.replans > switched.stretch.end);
    let resumed = switched.inner.plan_counters().suffix_passes - switched.suffix_at_resume;
    assert!(
        resumed > expect_suffix_passes,
        "{resumed} suffix passes after the rebuild"
    );

    // The objective that weighs a delay otherwise than by width, and the
    // one that cannot be bounded.
    let set = transform::shrink(&traces::kth().generate(jobs / 2, 53), 0.005);
    for objective in [Objective::AvgResponseTime, Objective::Utilization] {
        let mut config = DynPConfig::paper(DeciderKind::Advanced);
        config.objective = objective;
        let counts = assert_equivalent(&set, &config);
        for (path, planner) in PATHS.into_iter().zip(counts) {
            // Only a width-weighted delay has a bound on the rest.
            assert_eq!(planner.rest_stops, 0, "{objective:?} {path}");
            assert!(
                planner.suffix_passes > expect_suffix_passes / 3,
                "{objective:?} {path}: {planner:?}"
            );
            assert_eq!(
                planner.pruned > 0,
                objective != Objective::Utilization,
                "{objective:?} {path}: {planner:?}"
            );
        }
    }
}

/// A self-tuning scheduler that plans in reference mode over the replans
/// numbered `stretch` and incrementally before and after.
struct Switched {
    inner: SelfTuningScheduler,
    replans: usize,
    stretch: std::ops::Range<usize>,
    /// Suffix passes taken when the stretch ended.
    suffix_at_resume: u64,
}

impl Scheduler for Switched {
    fn replan(&mut self, state: &RmsState, now: SimTime, reason: ReplanReason) -> Schedule {
        if self.replans == self.stretch.start {
            self.inner.set_reference_mode(true);
        } else if self.replans == self.stretch.end {
            self.inner.set_reference_mode(false);
            self.suffix_at_resume = self.inner.plan_counters().suffix_passes;
        }
        self.replans += 1;
        self.inner.replan(state, now, reason)
    }

    fn active_policy(&self) -> Policy {
        self.inner.active_policy()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A CTC-shaped burst: forty wide jobs of ten hours submitted first, then
/// narrow ones of one estimate or another. The long jobs hold the head
/// of the queue, and over them the FCFS and LJF orders agree (one
/// estimate, then submission order), so one policy's pass starts from
/// the other's plan of that prefix — and the run is still bit-identical
/// to the reference, which shares nothing.
#[test]
fn incremental_equals_reference_on_a_burst_with_shared_prefixes() {
    let jobs: Vec<Job> = (0..160u32)
        .map(|i| match i {
            0..40 => job(i, i as u64, 8 + i % 9, 36_000, 18_000 + 60 * i as u64),
            _ => {
                let est = if i % 3 == 0 { 3_600 } else { 600 };
                job(i, i as u64, 1 + i % 16, est, est / 2)
            }
        })
        .collect();
    let set = JobSet::new("ctc-burst", 64, jobs);
    for decider in [
        DeciderKind::Advanced,
        DeciderKind::Preferred {
            policy: Policy::Sjf,
            threshold: 0.0,
        },
    ] {
        let [planner, fanned] = assert_equivalent(&set, &DynPConfig::paper(decider));
        assert!(planner.passes > 0, "{decider:?}: the burst stayed shallow");
        assert!(
            planner.shared > 0,
            "{decider:?}: no pass started from a shared prefix"
        );
        assert_eq!(fanned.shared, 0, "{decider:?}: fanned-out passes shared");
    }
}

/// One `RmsState` driven by hand, with the from-scratch reference
/// scheduler and one incremental scheduler per fan-out worker count
/// replanning side by side: every replan must give the same schedule,
/// statistics and active policy from all of them. For the cases a
/// simulation cannot be steered into on purpose.
struct SideBySide {
    state: RmsState,
    reference: SelfTuningScheduler,
    incremental: Vec<SelfTuningScheduler>,
    next_id: u32,
}

/// Machine of the hand-built cases; `BLOCKER` of its processors are
/// held by one long job, so no queue job wider than the rest can start.
const MACHINE: u32 = 16;
const BLOCKER: u32 = 12;

impl SideBySide {
    /// A machine with a 12-wide job running over `[0, blocker_secs)` and
    /// `depth` queue jobs too wide to start beside it, submitted one per
    /// second from t = 1 s: a standing queue above `RETAIN_MIN_DEPTH`
    /// on a base that does not change.
    fn with_standing_queue(config: &DynPConfig, blocker_secs: u64, depth: u32) -> Self {
        let mut s = Self::with_blocker(config, blocker_secs);
        for i in 1..=depth {
            // Three estimates only: SJF and LJF insert into runs of
            // equal-estimate jobs, ordered by their (submit, id) tail.
            s.submit(i as u64, 5 + i % 12, 100 * (1 + i as u64 % 3));
        }
        assert!(s.state.waiting().len() >= RETAIN_MIN_DEPTH);
        s
    }

    /// A machine with the 12-wide job running over `[0, blocker_secs)`
    /// and nothing waiting.
    fn with_blocker(config: &DynPConfig, blocker_secs: u64) -> Self {
        let mut s = SideBySide {
            state: RmsState::new(MACHINE),
            reference: scheduler_with(config, true, 1),
            incremental: THREAD_COUNTS
                .iter()
                .map(|&threads| scheduler_with(config, false, threads))
                .collect(),
            next_id: 0,
        };
        s.submit(0, BLOCKER, blocker_secs);
        s.state.start(JobId(0), SimTime::ZERO);
        s.replan(0, ReplanReason::Submission);
        s
    }

    /// Submits a new job at `now_s` and replans.
    fn submit(&mut self, now_s: u64, width: u32, est_s: u64) -> Schedule {
        self.state
            .submit(job(self.next_id, now_s, width, est_s, est_s));
        self.next_id += 1;
        self.replan(now_s, ReplanReason::Submission)
    }

    fn replan(&mut self, now_s: u64, reason: ReplanReason) -> Schedule {
        let now = SimTime::from_secs(now_s);
        let want = self.reference.replan(&self.state, now, reason);
        for (s, threads) in self.incremental.iter_mut().zip(THREAD_COUNTS) {
            let got = s.replan(&self.state, now, reason);
            let ctx = format!("t = {now_s} s, {reason:?}, {threads} planner threads");
            assert_eq!(got.entries, want.entries, "{ctx}");
            assert_eq!(s.stats, self.reference.stats, "{ctx}");
            assert_eq!(s.active_policy(), self.reference.active_policy(), "{ctx}");
        }
        want
    }

    /// Per-policy passes that took the suffix path, in the incremental
    /// scheduler that took the fewest.
    fn suffix_passes(&self) -> u64 {
        self.fewest(|c| c.suffix_passes)
    }

    /// Retained plans that kept their prefix across jobs leaving the
    /// queue, in the incremental scheduler that kept the fewest.
    fn folded(&self) -> u64 {
        self.fewest(|c| c.folded)
    }

    fn fewest(&self, count: impl Fn(PlanCounters) -> u64) -> u64 {
        self.incremental
            .iter()
            .map(|s| count(s.plan_counters()))
            .min()
            .expect("one scheduler per thread count")
    }
}

fn paper_config() -> DynPConfig {
    DynPConfig::paper(DeciderKind::Advanced)
}

#[test]
fn suffix_path_handles_equal_estimate_ties_at_the_insertion_point() {
    let mut s = SideBySide::with_standing_queue(&paper_config(), 10_000, 80);
    let before = s.suffix_passes();
    // Same estimate as a third of the queue: the job lands at the end
    // of its run of ties (time only moves on, so its (submit, id) tail
    // sorts last) — in the middle of the SJF and LJF orders.
    let plan = s.submit(90, 7, 200);
    assert_eq!(plan.len(), 81);
    s.submit(90, 7, 200);
    s.submit(91, 9, 100);
    assert_eq!(
        s.suffix_passes() - before,
        9,
        "three policies, three events"
    );
}

#[test]
fn suffix_path_survives_a_cancelled_queue_job() {
    let mut s = SideBySide::with_standing_queue(&paper_config(), 10_000, 80);
    // A departure that never started: the base stays what it was, the
    // plans ahead of the job do not.
    s.state.withdraw(JobId(40));
    let before = s.suffix_passes();
    let plan = s.replan(85, ReplanReason::Submission);
    assert!(plan.entries.iter().all(|e| e.job.id != JobId(40)));
    assert_eq!(s.suffix_passes(), before, "a departure takes the full pass");
    s.submit(86, 6, 300);
    assert_eq!(s.suffix_passes() - before, 3);
    // Cancelled and resubmitted between two replans.
    let back = s.state.withdraw(JobId(41));
    s.state.resubmit(back);
    s.submit(87, 8, 100);
    assert_eq!(s.suffix_passes() - before, 3);
}

#[test]
fn suffix_path_survives_a_start_as_planned() {
    let mut s = SideBySide::with_standing_queue(&paper_config(), 10_000, 80);
    // A narrow job fits beside the blocker, where no queue job does:
    // every plan that gets to it starts it at once — the winning one
    // among them, which is complete.
    let plan = s.submit(90, 2, 500);
    let due: Vec<JobId> = plan.due(SimTime::from_secs(90)).map(|e| e.job.id).collect();
    assert_eq!(due, [JobId(81)]);
    s.state.start(due[0], SimTime::from_secs(90));
    let (suffix, folded) = (s.suffix_passes(), s.folded());
    s.submit(95, 6, 200);
    let folded_now = s.folded() - folded;
    assert!(folded_now >= 1, "the winning plan started it");
    assert_eq!(
        s.suffix_passes() - suffix,
        folded_now,
        "each kept its prefix"
    );
    // A job that started as planned and ended early changes the base:
    // nothing folds.
    let folded = s.folded();
    let early = job(s.next_id, 96, 1, 300, 1);
    s.next_id += 1;
    s.state.submit(early);
    let plan = s.replan(96, ReplanReason::Submission);
    assert!(plan
        .due(SimTime::from_secs(96))
        .any(|e| e.job.id == early.id));
    s.state.start(early.id, SimTime::from_secs(96));
    s.state.complete(early.id, SimTime::from_secs(97));
    s.replan(97, ReplanReason::Completion);
    assert_eq!(s.folded(), folded);
}

/// Cancelled jobs leave without a rectangle, so the base the plans were
/// made on, with the departed jobs folded in, is never the new one —
/// not even for a job the winning plan started at the instant it was
/// cancelled — and every plan is made afresh, as the reference makes it.
#[test]
fn cancelled_jobs_fold_nothing() {
    let mut s = SideBySide::with_standing_queue(&paper_config(), 10_000, 80);
    for k in 0..12u32 {
        let now = 90 + 2 * k as u64;
        let plan = s.submit(now, 1 + k % 4, 100 + 50 * k as u64);
        let narrow = JobId(s.next_id - 1);
        assert!(plan
            .due(SimTime::from_secs(now))
            .any(|e| e.job.id == narrow));
        s.state.withdraw(narrow);
        if k % 2 == 1 {
            s.state.withdraw(JobId(1 + 6 * k));
        }
        let passes = s.suffix_passes();
        s.replan(now + (k % 3 == 0) as u64, ReplanReason::Submission);
        assert_eq!(s.suffix_passes(), passes, "cancel {k} took the full pass");
    }
    assert_eq!(s.folded(), 0);
}

#[test]
fn suffix_path_skips_over_wide_jobs_under_degraded_capacity() {
    let mut s = SideBySide::with_standing_queue(&paper_config(), 10_000, 80);
    // Lose an idle node (the blocker holds nodes 0..12): the width-16
    // queue jobs (i % 12 == 11) no longer fit the machine at any time.
    assert_eq!(s.state.node_down(15), None);
    let plan = s.replan(85, ReplanReason::Fault);
    let over_wide = (1..=80).filter(|i| 5 + i % 12 == 16).count();
    assert!(over_wide > 0);
    assert_eq!(plan.len(), 80 - over_wide);
    let before = s.suffix_passes();
    // Schedules no longer run parallel to the orders; a kept prefix
    // must end before the first skipped job or not be kept.
    s.submit(86, 6, 300);
    s.submit(86, 16, 100);
    s.submit(87, 9, 200);
    assert!(s.suffix_passes() > before);
    s.state.node_up(15);
    assert_eq!(s.replan(88, ReplanReason::Fault).len(), 83);
}

#[test]
fn suffix_path_follows_the_clip_of_an_active_reservation() {
    let mut s = SideBySide::with_standing_queue(&paper_config(), 10_000, 80);
    // The idle processors, reserved over [100 s, 5 000 s).
    s.state
        .admit_reservation(SimTime::from_secs(100), SimDuration::from_secs(4_900), 4);
    s.replan(85, ReplanReason::Reservation);
    let before = s.suffix_passes();
    // Ahead of its start the window is part of an unchanging base.
    s.submit(90, 7, 100);
    assert_eq!(s.suffix_passes() - before, 3);
    // Once it runs, its clip `[now + pad, end)` moves with `now`.
    s.submit(150, 7, 200);
    s.submit(151, 7, 300);
    assert_eq!(s.suffix_passes() - before, 3);
    // ... except between two replans at one instant.
    s.submit(151, 8, 100);
    assert_eq!(s.suffix_passes() - before, 6);
    assert!(s.state.cancel_reservation(0));
    s.replan(152, ReplanReason::Reservation);
    s.submit(153, 8, 200);
    assert_eq!(s.suffix_passes() - before, 9);
}

#[test]
fn suffix_path_follows_the_pad_of_an_overdue_running_job() {
    // The blocker's estimate runs out at t = 100 s; until its completion
    // event is handled it holds its processors for one pad past `now`.
    let mut s = SideBySide::with_standing_queue(&paper_config(), 100, 80);
    s.submit(99, 6, 100);
    let before = s.suffix_passes();
    s.submit(100, 6, 200); // the base now ends in a pad, not at t = 100 s
    assert_eq!(s.suffix_passes(), before);
    s.submit(100, 6, 300); // same instant, same pad
    assert_eq!(s.suffix_passes() - before, 3);
    s.state.complete(JobId(0), SimTime::from_secs(100));
    let plan = s.replan(100, ReplanReason::Completion);
    assert!(plan.due(SimTime::from_secs(100)).count() > 0);
    assert_eq!(s.suffix_passes() - before, 3);
}

#[test]
fn suffix_path_under_submissions_only_decisions() {
    let mut config = paper_config();
    config.decide_on = DecideOn::SubmissionsOnly;
    let mut s = SideBySide::with_standing_queue(&config, 10_000, 80);
    let before = s.suffix_passes();
    s.submit(90, 7, 200);
    assert_eq!(s.suffix_passes() - before, 3);
    // Anything but a submission plans the active policy alone, on the
    // planner's scratch profile: the retained plans are gone.
    s.replan(91, ReplanReason::Completion);
    s.submit(92, 7, 100);
    assert_eq!(s.suffix_passes() - before, 3);
    s.submit(93, 7, 300);
    assert_eq!(s.suffix_passes() - before, 6);
}

/// Nodes go down until only jobs wider than the up machine wait, then
/// they come back and the wide jobs fit and start. The steps in which
/// nothing fits plan nothing, and every step equals reference mode —
/// at a shallow queue, and at one deep enough for retained plans, where
/// the first step after one that planned nothing plans in full. Under
/// submissions-only decisions the fault steps plan the active policy
/// alone, and skip that too.
#[test]
fn steps_in_which_no_waiting_job_fits_equal_the_reference() {
    let mut config = paper_config();
    for (decide_on, depth) in [DecideOn::AllEvents, DecideOn::SubmissionsOnly]
        .into_iter()
        .flat_map(|d| [(d, 8), (d, RETAIN_MIN_DEPTH as u32 + 16)])
    {
        config.decide_on = decide_on;
        let deep = depth as usize >= RETAIN_MIN_DEPTH;
        let ctx = format!("{decide_on:?}, {depth} jobs");
        let mut s = SideBySide::with_blocker(&config, 10_000);
        // 13 to 16 wide: none starts beside the 12-wide blocker.
        for i in 1..=depth {
            s.submit(i as u64, BLOCKER + 1 + i % 4, 100 * (1 + i as u64 % 3));
        }
        assert_eq!(s.suffix_passes() > 0, deep, "{ctx}");
        // The idle nodes go down: 12 stay up, all of them the blocker's.
        for (k, node) in (BLOCKER..MACHINE).enumerate() {
            assert_eq!(s.state.node_down(node), None);
            let plan = s.replan(100 + k as u64, ReplanReason::Fault);
            assert_eq!(plan.is_empty(), node + 1 == MACHINE, "{ctx}");
        }
        assert!(s.state.nothing_fits());
        let passes = s.fewest(|c| c.passes);
        assert!(s.submit(110, MACHINE, 300).is_empty());
        // A job that fits is planned; once it is cancelled, nothing fits
        // again, and the next job that fits is planned in full.
        assert_eq!(s.submit(120, 4, 100).len(), 1);
        let narrow = JobId(s.next_id - 1);
        s.state.withdraw(narrow);
        assert!(s.replan(121, ReplanReason::Submission).is_empty());
        // Of these three steps only the one with a job that fits
        // planned: at depth, one retained pass per policy.
        let planned = if deep { 3 } else { 0 };
        assert_eq!(s.fewest(|c| c.passes) - passes, planned, "{ctx}");
        let passes = s.suffix_passes();
        assert_eq!(s.submit(122, 4, 100).len(), 1);
        assert_eq!(s.suffix_passes(), passes, "{ctx}");
        // The nodes come back; once the blocker ends, wide jobs start.
        for (k, node) in (BLOCKER..MACHINE).enumerate() {
            s.state.node_up(node);
            let plan = s.replan(200 + k as u64, ReplanReason::Fault);
            let up = s.state.plan_capacity();
            let fit = s.state.waiting().iter().filter(|j| j.width <= up);
            assert_eq!(plan.len(), fit.count(), "{ctx}");
        }
        let end = SimTime::from_secs(10_000);
        s.state.complete(JobId(0), end);
        let plan = s.replan(10_000, ReplanReason::Completion);
        let due: Vec<Job> = plan.due(end).map(|e| e.job).collect();
        assert!(due.iter().any(|j| j.width > BLOCKER), "{due:?}");
        for job in &due {
            s.state.start(job.id, end);
        }
        s.replan(10_000, ReplanReason::Completion);
    }
}
