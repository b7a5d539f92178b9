//! The one state check: what makes a driver state consistent.
//!
//! [`check_state`] judges the values a run state is made of — a
//! [`CoreSnapshot`] and its engine's pending events — and nothing else.
//! It is called in four places: [`crate::decode_snapshot`], the service
//! checkpoint decoder (so recovery falls back to an older checkpoint),
//! the model checker on every state it explores, and, in debug builds,
//! the service's checkpoint writer. The decoders themselves refuse only
//! what the bytes alone tell: tags, counts, lengths and timer order.
//!
//! A refused state is one that restored would panic a transition, a
//! drain or a debug assert, or plan on a machine it miscounts — see
//! DESIGN §14 for the members and what each would break.

use crate::shard::{CoreSnapshot, Event};
use dynp_des::{CodecError, EngineSnapshot};
use dynp_workload::{Job, JobId};

/// Refuses a run state that no run of the driver reaches.
///
/// `absent` is how many of the run's jobs the state legitimately holds
/// nowhere: the arrivals a batch snapshot's feed has not pushed yet, or
/// the jobs a daemon cancelled. The attempt table's length is the run's
/// job count. `table` is the daemon's job table, `None` for a batch
/// snapshot, whose jobs are the driver's input; a batch state that has
/// dispatched nothing is the run's root (see the time-weight member).
/// A daemon has no fault plan and no reservation stream, so its only
/// timers are `Finish`es; a batch snapshot's `Kill`s and reservation
/// requests name entries of inputs it does not hold, and go unchecked.
///
/// # Errors
/// [`CodecError::Invalid`] naming the first member the state breaks.
pub fn check_state(
    core: &CoreSnapshot,
    engine: &EngineSnapshot<Event>,
    absent: u64,
    table: Option<&[Job]>,
) -> Result<(), CodecError> {
    let invalid = |what| Err(CodecError::Invalid { what });
    let (st, now) = (&core.state, engine.now);
    let machine = st.machine_size();

    // Every later update of a time weight comes at or after the clock, so
    // its last update lies in `[start, now]`. At a batch root the clock
    // is still 0 while the weights start at the first exogenous instant:
    // there they must be untouched and no event may come before them.
    let root = table.is_none() && engine.processed == 0;
    for tw in [&core.queue_tw, &core.busy_tw] {
        let (start, last) = (tw.start(), tw.last_update());
        let fits = if root {
            last == start && engine.entries.first().is_none_or(|e| e.0 >= start)
        } else {
            start <= last && last <= now
        };
        if !fits {
            return invalid("time weight past the clock");
        }
    }

    // The node accounting `start`, `complete`, `fail`, `node_down` and
    // `node_up` assume. (The decoder has matched the node table's length
    // to the machine.)
    let down = (0..machine).filter(|&n| st.is_node_down(n)).count() as u32;
    if down != st.down_nodes() || down >= machine {
        return invalid("down-node count");
    }
    let free = (0..machine)
        .filter(|&n| !st.is_node_down(n) && st.node_occupant(n).is_none())
        .count() as u32;
    if free != st.free_processors() {
        return invalid("free-node count");
    }
    if core.fstats.down_node_allocations != 0 {
        return invalid("down-node allocation");
    }

    // Every job word is a valid job on this machine, its id is inside the
    // attempt table, and it sits in one place at most.
    let jobs = core.attempts.len();
    if core.attempts.contains(&u32::MAX) {
        // No start could count its attempt.
        return invalid("attempt count");
    }
    let mut seen = vec![false; jobs];
    let mut place = |job: &Job| {
        if job.check(machine).is_err() {
            return invalid("job word");
        }
        match seen.get_mut(job.id.0 as usize) {
            None => invalid("job id"),
            Some(true) => invalid("job conservation"),
            Some(slot) => {
                *slot = true;
                Ok(())
            }
        }
    };
    for job in st.waiting() {
        place(job)?;
        if job.submit > now {
            return invalid("job time");
        }
    }
    // How many nodes each running job holds, by id.
    let mut held = vec![None; jobs];
    for r in st.running() {
        place(&r.job)?;
        if r.start < r.job.submit || r.start > now {
            return invalid("job time");
        }
        held[r.job.id.0 as usize] = Some(0);
    }
    for c in st.completed() {
        place(&c.job)?;
        if c.start < c.job.submit || c.end != c.start.saturating_add(c.job.actual) || c.end > now {
            return invalid("job time");
        }
    }
    for l in st.lost() {
        place(&l.job)?;
    }
    if core.fstats.lost != st.lost().len() as u64 {
        return invalid("lost count");
    }
    for n in 0..machine {
        let Some(id) = st.node_occupant(n) else {
            continue;
        };
        match held.get_mut(id.0 as usize) {
            Some(Some(count)) if !st.is_node_down(n) => *count += 1,
            _ => return invalid("node holder"),
        }
    }
    if st
        .running()
        .iter()
        .any(|r| held[r.job.id.0 as usize] != Some(r.job.width))
    {
        return invalid("running job's nodes");
    }

    // The pending events: each job event names a job of the table, an
    // arrival or retry is its job's one place, a running job has exactly
    // one live end (its Finish at `start + actual`), no tag runs ahead of
    // its job's attempts, and every down node comes back up.
    let attempt = |id: JobId| core.attempts.get(id.0 as usize).copied();
    let mut live = vec![0u32; jobs];
    let mut ups = vec![0i64; machine as usize];
    let mut ends = vec![false; core.admitted.len()];
    for &(t, _, ev) in &engine.entries {
        if table.is_some() && !matches!(ev, Event::Finish(..)) {
            return invalid("service timer");
        }
        match ev {
            Event::Arrive(id) | Event::Resubmit(id) => {
                if attempt(id).is_none() {
                    return invalid("job id");
                }
                if std::mem::replace(&mut seen[id.0 as usize], true) {
                    return invalid("job conservation");
                }
            }
            Event::Finish(id, tag) | Event::Kill(id, tag) => {
                let current = attempt(id).ok_or(CodecError::Invalid { what: "job id" })?;
                if tag > current {
                    return invalid("attempt tag");
                }
                let running = st.running().iter().find(|r| r.job.id == id);
                if let (true, Some(r)) = (tag == current, running) {
                    live[id.0 as usize] += 1;
                    if matches!(ev, Event::Finish(..)) && t != r.start.saturating_add(r.job.actual)
                    {
                        return invalid("running job's timer");
                    }
                }
            }
            Event::NodeDown(n) | Event::NodeUp(n) => {
                let Some(count) = ups.get_mut(n as usize) else {
                    return invalid("node event");
                };
                let up = matches!(ev, Event::NodeUp(_));
                *count += if up { 1 } else { -1 };
            }
            Event::ResStart(w) | Event::ResEnd(w) | Event::ResCancel(w) => {
                let Some(end) = ends.get_mut(w as usize) else {
                    return invalid("window id");
                };
                *end |= matches!(ev, Event::ResEnd(_)) && !core.admitted[w as usize].1;
            }
            _ => {}
        }
    }
    if st.running().iter().any(|r| live[r.job.id.0 as usize] != 1) {
        return invalid("running job's timer");
    }
    if (0..machine).any(|n| ups[n as usize] != st.is_node_down(n) as i64) {
        return invalid("node outage");
    }
    let occurring = seen.iter().filter(|&&s| s).count() as u64;
    if occurring.checked_add(absent) != Some(jobs as u64) {
        return invalid("job conservation");
    }
    if let Some(table) = table {
        let entry = |(i, job): (usize, &Job)| job.id.0 as usize == i && job.check(machine).is_ok();
        if table.len() != jobs || !table.iter().enumerate().all(entry) {
            return invalid("job table");
        }
    }

    // The book and the admitted-window ledger agree: every booked window
    // is admitted, live, and at its ledger width. Every admitted window
    // is honored, dead (cancelled or revoked) or still has its end to
    // come, and repair run now would change nothing.
    let s = &core.report.stats;
    for w in st.reservations().all() {
        match core.admitted.get(w.id as usize) {
            Some((ledger, false)) if ledger == w => {}
            _ => return invalid("reservation book"),
        }
    }
    let dead = core.admitted.iter().filter(|a| a.1).count() as u64;
    let pending = ends.iter().filter(|&&e| e).count() as u64;
    if s.admitted != core.admitted.len() as u64
        || s.honored != core.report.honored.len() as u64
        || s.cancelled.checked_add(s.revoked) != Some(dead)
        || [s.honored, dead, pending]
            .iter()
            .try_fold(0u64, |a, &b| a.checked_add(b))
            != Some(s.admitted)
    {
        return invalid("reservation counters");
    }
    if !st.plan_reservation_repair(now).is_empty() {
        return invalid("reservation repair");
    }
    Ok(())
}
