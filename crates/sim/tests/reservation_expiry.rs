//! Reservation expiry edge cases, pinned deterministically:
//!
//! * a window expiring **exactly at** another event's timestamp frees
//!   its capacity at that instant — a job arriving at the expiry tick
//!   starts immediately, not a replan later;
//! * a user cancel timestamped **after** the window already ran (or at
//!   its start) is too late by construction and is ignored — the window
//!   is honored once, never double-counted, and nothing panics.

use dynp_des::{SimDuration, SimTime};
use dynp_obs::Tracer;
use dynp_rms::{AdmissionConfig, Policy, StaticScheduler};
use dynp_sim::{simulate_chaos, DetailedRun};
use dynp_workload::{FaultPlan, Job, JobId, JobSet, ReservationRequest};

fn j(id: u32, submit_s: u64, width: u32, est_s: u64, act_s: u64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(submit_s),
        width,
        SimDuration::from_secs(est_s),
        SimDuration::from_secs(act_s),
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

fn with_requests(
    set: &JobSet,
    scheduler: &mut StaticScheduler,
    requests: &[ReservationRequest],
) -> DetailedRun {
    simulate_chaos(
        set,
        scheduler,
        requests,
        AdmissionConfig::default(),
        &FaultPlan::none(),
        Tracer::disabled(),
    )
}

#[test]
fn window_expiring_exactly_at_job_arrival_frees_capacity_at_that_instant() {
    // Machine 2 fully held by a window over [100, 200); a width-2 job
    // arrives exactly at the expiry tick 200. The ResEnd and the
    // arrival share the timestamp: the job must start at 200 with zero
    // wait, not linger behind an already-expired window.
    let set = JobSet::new("t", 2, vec![j(0, 200, 2, 100, 60)]);
    let requests = vec![req(0, 0, 100, 100, 2)];
    let mut s = StaticScheduler::new(Policy::Fcfs);
    let d = with_requests(&set, &mut s, &requests);

    assert_eq!(d.reservations.stats.admitted, 1);
    assert_eq!(d.reservations.stats.honored, 1);
    assert_eq!(d.completed.len(), 1);
    assert_eq!(d.completed[0].start, SimTime::from_secs(200));
    assert_eq!(d.completed[0].end, SimTime::from_secs(260));
    assert_eq!(d.result.metrics.avg_wait_secs, 0.0);
}

#[test]
fn job_submitted_before_expiry_waits_for_the_window_not_longer() {
    // Same window, but the job arrives mid-window at 150: it cannot
    // overlap [100, 200), so it is planned to the window edge and must
    // start exactly at 200 once the expiry replan runs.
    let set = JobSet::new("t", 2, vec![j(0, 150, 2, 100, 60)]);
    let requests = vec![req(0, 0, 100, 100, 2)];
    let mut s = StaticScheduler::new(Policy::Fcfs);
    let d = with_requests(&set, &mut s, &requests);

    assert_eq!(d.reservations.stats.honored, 1);
    assert_eq!(d.completed[0].start, SimTime::from_secs(200));
    assert!((d.result.metrics.avg_wait_secs - 50.0).abs() < 1e-9);
}

#[test]
fn cancel_timestamped_after_expiry_is_ignored() {
    // The model promises cancels land before the window starts; a
    // malformed request carrying a cancel *after* the window already
    // ended must not un-honor it, double-count it, or panic.
    let mut r = req(0, 0, 100, 100, 1);
    r.cancel_at = Some(SimTime::from_secs(250));
    let set = JobSet::new("t", 2, vec![j(0, 0, 1, 400, 400)]);
    let mut s = StaticScheduler::new(Policy::Fcfs);
    let d = with_requests(&set, &mut s, &[r]);

    assert_eq!(d.reservations.stats.admitted, 1);
    assert_eq!(d.reservations.stats.honored, 1);
    assert_eq!(d.reservations.stats.cancelled, 0);
    assert_eq!(d.reservations.honored.len(), 1);
}

#[test]
fn cancel_timestamped_exactly_at_window_start_is_too_late() {
    // The cancel deadline is strictly before the start: a cancel at the
    // start instant itself no longer withdraws anything — the window
    // runs and is honored.
    let mut r = req(0, 0, 100, 50, 1);
    r.cancel_at = Some(SimTime::from_secs(100));
    let set = JobSet::new("t", 2, vec![j(0, 0, 1, 400, 400)]);
    let mut s = StaticScheduler::new(Policy::Fcfs);
    let d = with_requests(&set, &mut s, &[r]);

    assert_eq!(d.reservations.stats.admitted, 1);
    assert_eq!(d.reservations.stats.honored, 1);
    assert_eq!(d.reservations.stats.cancelled, 0);
}

#[test]
fn back_to_back_windows_meet_exactly_at_the_boundary() {
    // Two width-2 windows sharing the boundary instant 200 on machine 2:
    // [100, 200) expires exactly when [200, 300) starts. Expiry frees
    // the capacity at 200, so admission of the second window must have
    // succeeded and both run to completion.
    let set = JobSet::new("t", 2, vec![j(0, 300, 2, 50, 50)]);
    let requests = vec![req(0, 0, 100, 100, 2), req(1, 0, 200, 100, 2)];
    let mut s = StaticScheduler::new(Policy::Fcfs);
    let d = with_requests(&set, &mut s, &requests);

    assert_eq!(d.reservations.stats.admitted, 2);
    assert_eq!(d.reservations.stats.honored, 2);
    // The job rides after the second window with zero wait.
    assert_eq!(d.completed[0].start, SimTime::from_secs(300));
}
