//! The dependency resolver: which same-instant tied events actually need
//! their orders permuted.
//!
//! Exhaustively permuting every tie is `k!` schedules per instant. Most
//! of that is waste: an event the driver provably ignores (an early
//! `return` before any state is touched) commutes with *everything* — its
//! position among the ties cannot influence the run. The resolver
//! classifies each tied event and the explorer:
//!
//! * dispatches a provable no-op immediately, canonically, without
//!   branching (one child instead of `k`), and
//! * branches over all `k` orders only when every tied event is live.
//!
//! Soundness of the no-op classification rests on monotonicity arguments
//! against the driver in `dynp-sim`:
//!
//! * **Stale `Finish`/`Kill`** — an attempt tag below the job's current
//!   attempt counter can never match again (the counter only grows), and
//!   a tagged event for a non-running job can only see the job return
//!   with a *higher* counter. Ignored now, ignored forever.
//! * **`ResStart`** — the window's capacity has been withheld from every
//!   plan since admission; the boundary instant itself changes nothing.
//! * **`ResCancel` of a dead window** — once the cancelled/revoked flag
//!   is set it is never cleared; the cancel arm returns without touching
//!   state.

use dynp_sim::{ChaosDriver, Event};

/// True when dispatching `ev` in the driver's *current* state is a
/// provable no-op that will remain a no-op under any permutation of the
/// currently tied events (see module docs for the argument).
pub(crate) fn is_commutable_noop(driver: &ChaosDriver<'_>, ev: &Event) -> bool {
    let core = driver.core();
    match *ev {
        Event::Finish(id, attempt) | Event::Kill(id, attempt) => {
            core.attempts_of(id) != attempt
                || !core.state().running().iter().any(|r| r.job.id == id)
        }
        Event::ResStart(_) => true,
        Event::ResCancel(book_id) => core.admitted_windows()[book_id as usize].1,
        _ => false,
    }
}

/// The tie ranks the explorer must branch over from the current state:
/// a single canonical choice when a tied no-op exists (or there is no
/// tie), every rank otherwise.
pub(crate) fn branch_choices(driver: &ChaosDriver<'_>, tied: &[Event]) -> Vec<usize> {
    if let Some(n) = tied.iter().position(|e| is_commutable_noop(driver, e)) {
        return vec![n];
    }
    (0..tied.len()).collect()
}
