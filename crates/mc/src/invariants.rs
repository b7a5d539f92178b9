//! Pluggable safety invariants, checked at every explored state.
//!
//! Each invariant is a pure predicate over the driver's observable state
//! (RMS state, fault statistics, reservation report, and every event
//! still to dispatch — [`ChaosDriver::pending_events`] merges the heap
//! with the exogenous events the feed has not pushed yet, so a job that
//! has not arrived counts as "pending" whichever side of the cursor its
//! arrival sits on). A violation returns a human-readable detail string; the
//! explorer attaches the event schedule that reached the state and hands
//! both to the shrinker.

use crate::scenario::Scenario;
use dynp_sim::{ChaosDriver, Event};

/// One named safety property.
#[derive(Clone, Copy)]
pub struct Invariant {
    /// Short identifier (appears in violations and reports).
    pub name: &'static str,
    /// The predicate: `Err(detail)` on violation.
    pub check: fn(&ChaosDriver<'_>, &Scenario) -> Result<(), String>,
}

impl std::fmt::Debug for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Invariant({})", self.name)
    }
}

/// The standard battery: every safety property the chaos + reservation
/// protocols promise.
pub fn standard() -> Vec<Invariant> {
    vec![
        Invariant {
            name: "job-conservation",
            check: job_conservation,
        },
        Invariant {
            name: "no-down-node-occupancy",
            check: no_down_node_occupancy,
        },
        Invariant {
            name: "free-accounting",
            check: free_accounting,
        },
        Invariant {
            name: "reservation-repair-fixpoint",
            check: reservation_repair_fixpoint,
        },
        Invariant {
            name: "attempt-tag-integrity",
            check: attempt_tag_integrity,
        },
        Invariant {
            name: "exact-instant-completion",
            check: exact_instant_completion,
        },
        Invariant {
            name: "book-consistency",
            check: book_consistency,
        },
    ]
}

/// Every job is in exactly one place: waiting, running, completed, lost,
/// or in flight as a pending `Arrive`/`Resubmit` event.
fn job_conservation(d: &ChaosDriver<'_>, scenario: &Scenario) -> Result<(), String> {
    let st = d.core().state();
    let total = scenario.jobs.len();
    let mut seen = vec![0u32; total];
    let mut tally = |id: u32, place: &str| -> Result<(), String> {
        let slot = seen
            .get_mut(id as usize)
            .ok_or_else(|| format!("unknown job {id} in {place}"))?;
        *slot += 1;
        Ok(())
    };
    for j in st.waiting() {
        tally(j.id.0, "waiting")?;
    }
    for r in st.running() {
        tally(r.job.id.0, "running")?;
    }
    for c in st.completed() {
        tally(c.job.id.0, "completed")?;
    }
    for l in st.lost() {
        tally(l.job.id.0, "lost")?;
    }
    for (_, _, ev) in d.pending_events() {
        match ev {
            Event::Arrive(id) | Event::Resubmit(id) => tally(id.0, "pending")?,
            _ => {}
        }
    }
    for (id, n) in seen.iter().enumerate() {
        if *n != 1 {
            return Err(format!(
                "job {id} appears {n} times across waiting/running/completed/lost/pending"
            ));
        }
    }
    Ok(())
}

/// No running job occupies a down node, and the driver's own counted
/// check agrees.
fn no_down_node_occupancy(d: &ChaosDriver<'_>, _s: &Scenario) -> Result<(), String> {
    let st = d.core().state();
    for r in st.running() {
        for n in st.nodes_of(r.job.id) {
            if st.is_node_down(n) {
                return Err(format!("job {} occupies down node {n}", r.job.id));
            }
        }
    }
    let counted = d.core().fault_stats().down_node_allocations;
    if counted != 0 {
        return Err(format!("driver counted {counted} down-node allocations"));
    }
    Ok(())
}

/// The free-processor counter equals the number of up-and-unoccupied
/// nodes (the node map is the ground truth).
fn free_accounting(d: &ChaosDriver<'_>, _s: &Scenario) -> Result<(), String> {
    let st = d.core().state();
    let ground_truth = (0..st.machine_size())
        .filter(|&n| !st.is_node_down(n) && st.node_occupant(n).is_none())
        .count() as u32;
    if st.free_processors() != ground_truth {
        return Err(format!(
            "free counter {} but {} nodes are up and unoccupied",
            st.free_processors(),
            ground_truth
        ));
    }
    Ok(())
}

/// Schedule repair is a fixpoint: between events, every admitted window
/// still fits the current capacity at its promised (possibly downgraded)
/// width — a repair run *now* would change nothing. This is the
/// guarantee-preservation property of the downgrade/revoke protocol.
fn reservation_repair_fixpoint(d: &ChaosDriver<'_>, _s: &Scenario) -> Result<(), String> {
    let actions = d.core().state().plan_reservation_repair(d.now());
    if actions.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "book is not repair-stable at {:?}: {actions:?}",
            d.now()
        ))
    }
}

/// Every running job has exactly one pending completion-or-kill event
/// tagged with its current attempt — no orphaned attempts (job would run
/// forever) and no duplicated endings.
fn attempt_tag_integrity(d: &ChaosDriver<'_>, _s: &Scenario) -> Result<(), String> {
    let core = d.core();
    let pending = d.pending_events();
    for r in core.state().running() {
        let id = r.job.id;
        let current = core.attempts_of(id);
        let live = pending
            .iter()
            .filter(|(_, _, ev)| {
                matches!(ev, Event::Finish(j, a) | Event::Kill(j, a)
                         if *j == id && *a == current)
            })
            .count();
        if live != 1 {
            return Err(format!(
                "running job {id} attempt {current} has {live} pending Finish/Kill events"
            ));
        }
    }
    Ok(())
}

/// Every completed record spans exactly the job's actual run time — a
/// completion at any other instant means a stale event was honored.
fn exact_instant_completion(d: &ChaosDriver<'_>, _s: &Scenario) -> Result<(), String> {
    for c in d.core().state().completed() {
        // Saturating: a broken driver must be reported, not panic here.
        let span = c.end.saturating_since(c.start);
        if span != c.job.actual {
            return Err(format!(
                "job {} ran {:?} but its actual run time is {:?}",
                c.job.id, span, c.job.actual
            ));
        }
    }
    Ok(())
}

/// The reservation book and the driver's admitted-window ledger agree:
/// every booked window is an admitted, still-live window at its recorded
/// (possibly downgraded) width, and no cancelled/revoked window lingers
/// in the book.
fn book_consistency(d: &ChaosDriver<'_>, _s: &Scenario) -> Result<(), String> {
    let admitted = d.core().admitted_windows();
    for w in d.core().state().reservations().all() {
        let Some((ledger, dead)) = admitted.get(w.id as usize) else {
            return Err(format!("window {} in book but never admitted", w.id));
        };
        if *dead {
            return Err(format!(
                "window {} is cancelled/revoked but still in the book",
                w.id
            ));
        }
        if ledger.start != w.start || ledger.duration != w.duration || ledger.width != w.width {
            return Err(format!(
                "window {} drifted: book {:?}/{:?}/{} vs ledger {:?}/{:?}/{}",
                w.id, w.start, w.duration, w.width, ledger.start, ledger.duration, ledger.width
            ));
        }
    }
    Ok(())
}
