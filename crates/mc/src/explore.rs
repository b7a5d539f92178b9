//! The exploration engine: exhaustive DFS/BFS over event interleavings.
//!
//! A state is a full [`SimSnapshot`] of the chaos driver (RMS state,
//! attempt counters, statistics, event heap with exact tie-break ranks,
//! feed cursors, scheduler cross-event state). Branching happens only at
//! same-instant ties, and only over the orders the dependency resolver
//! ([`crate::deps`]) cannot prove commutable. Revisits are pruned by a
//! 128-bit fingerprint set, so the reachable state *graph* is walked, not
//! the (exponentially larger) schedule tree.
//!
//! Every popped state runs [`dynp_sim::check_state`], the check a
//! decoded snapshot or checkpoint must pass too; drained leaves
//! additionally run the driver's own terminal asserts (job conservation,
//! empty book) via [`ChaosDriver::finish_detached`]. Panics anywhere in
//! the driver — including seeded mutants — are caught and reported as
//! violations with the event schedule that reached them.

use crate::deps::branch_choices;
use crate::scenario::Scenario;
use dynp_des::SimTime;
use dynp_obs::{TraceSnapshot, Tracer};
use dynp_rms::Scheduler;
use dynp_sim::{check_state, ChaosDriver, Event, SimSnapshot};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the frontier is ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first: reaches deep violations fast, frontier stays small.
    Dfs,
    /// Breadth-first: finds a *shortest* violating schedule first.
    Bfs,
}

impl Strategy {
    /// Parses `"dfs"`/`"bfs"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s.to_ascii_lowercase().as_str() {
            "dfs" => Some(Strategy::Dfs),
            "bfs" => Some(Strategy::Bfs),
            _ => None,
        }
    }
}

/// Exploration bounds and ordering.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Frontier discipline.
    pub strategy: Strategy,
    /// Maximum schedule length (events along one path); deeper states are
    /// truncated, not expanded.
    pub max_depth: usize,
    /// Safety cap on expanded states; exceeding it stops the run.
    pub max_states: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            strategy: Strategy::Dfs,
            max_depth: 256,
            max_states: 200_000,
        }
    }
}

/// Counters describing one exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// States popped and expanded (each a distinct fingerprint).
    pub explored: u64,
    /// Transitions that landed on an already-visited fingerprint.
    pub deduplicated: u64,
    /// Drained leaves that passed the terminal checks.
    pub terminal_states: u64,
    /// States cut off by the depth or state cap.
    pub truncated: u64,
    /// Largest frontier size reached.
    pub peak_frontier: usize,
}

/// A safety violation, addressed by the exact event schedule that
/// reproduces it from the initial state.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The refusal of [`dynp_sim::check_state`] (e.g. `"invalid job
    /// conservation"`), or `"panic"`/`"terminal"` for driver asserts
    /// tripped mid-step or at the drain check.
    pub invariant: String,
    /// Human-readable detail (the refused state's clock, or the panic
    /// payload).
    pub detail: String,
    /// Tie-rank choices from the initial state: replaying
    /// `step_nth_tied(schedule[i])` for each `i` deterministically
    /// reaches the violation. All zeros ⇒ the plain FIFO run
    /// ([`dynp_sim::simulate_chaos`]) hits it too.
    pub schedule: Vec<usize>,
}

impl Violation {
    /// True when the violating schedule is the plain FIFO order, i.e.
    /// `simulate_chaos` itself reproduces the failure.
    pub fn is_fifo(&self) -> bool {
        self.schedule.iter().all(|&n| n == 0)
    }
}

/// The result of one exploration: counters plus the first violation (the
/// search stops at it).
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Search counters.
    pub stats: ExploreStats,
    /// First violation found, if any.
    pub violation: Option<Violation>,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// RAII guard silencing the global panic hook: exploration *expects* to
/// catch driver panics (that is how seeded mutants surface), and the
/// default hook would spray backtraces for every caught one.
struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn new() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Exhaustively explores every reachable interleaving of `scenario`
/// under the given exploration bounds, checking every state with
/// [`dynp_sim::check_state`]. Stops at the first violation.
///
/// `make_scheduler` is called once per exploration; the scheduler must
/// support snapshot/restore (every scheduler in this workspace does).
pub fn explore(
    scenario: &Scenario,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &ExploreConfig,
) -> Exploration {
    let set = scenario.job_set();
    let faults = scenario.fault_plan();
    let mut scheduler = make_scheduler();
    let mut driver = ChaosDriver::new(
        &set,
        scheduler.as_mut(),
        &scenario.requests,
        scenario.admission,
        &faults,
        Tracer::disabled(),
    );

    let _quiet = QuietPanics::new();
    let mut stats = ExploreStats::default();
    let mut visited: HashSet<u128> = HashSet::new();
    let init = driver.snapshot();
    visited.insert(init.fingerprint());
    let mut frontier: VecDeque<(SimSnapshot, Vec<usize>)> = VecDeque::new();
    frontier.push_back((init, Vec::new()));

    while let Some((snap, path)) = match cfg.strategy {
        Strategy::Dfs => frontier.pop_back(),
        Strategy::Bfs => frontier.pop_front(),
    } {
        if stats.explored >= cfg.max_states {
            stats.truncated += 1;
            break;
        }
        stats.explored += 1;
        if let Err(e) = check_state(&snap.core, &snap.engine, snap.feed.arrivals.into(), None) {
            return Exploration {
                stats,
                violation: Some(Violation {
                    invariant: e.to_string(),
                    detail: format!("state at {:?}", snap.engine.now),
                    schedule: path,
                }),
            };
        }
        driver.restore(&snap);

        let tied = driver.tied_events();
        if tied.is_empty() {
            // Drained leaf: run the driver's own terminal asserts.
            match catch_unwind(AssertUnwindSafe(|| driver.finish_detached())) {
                Ok(_) => stats.terminal_states += 1,
                Err(payload) => {
                    return Exploration {
                        stats,
                        violation: Some(Violation {
                            invariant: "terminal".to_string(),
                            detail: panic_text(payload),
                            schedule: path,
                        }),
                    };
                }
            }
            continue;
        }
        if path.len() >= cfg.max_depth {
            stats.truncated += 1;
            continue;
        }

        for n in branch_choices(&driver, &tied) {
            driver.restore(&snap);
            let stepped = catch_unwind(AssertUnwindSafe(|| driver.step_nth_tied(n)));
            let mut next_path = path.clone();
            next_path.push(n);
            match stepped {
                Err(payload) => {
                    return Exploration {
                        stats,
                        violation: Some(Violation {
                            invariant: "panic".to_string(),
                            detail: panic_text(payload),
                            schedule: next_path,
                        }),
                    };
                }
                Ok(None) => unreachable!("branch rank {n} out of {} ties", tied.len()),
                Ok(Some(_)) => {
                    if visited.insert(driver.fingerprint()) {
                        frontier.push_back((driver.snapshot(), next_path));
                        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
                    } else {
                        stats.deduplicated += 1;
                    }
                }
            }
        }
    }

    Exploration {
        stats,
        violation: None,
    }
}

/// Deterministically replays a tie-rank schedule from the initial state,
/// recording the dispatched events, with an optional tracer threaded
/// through the whole stack. A trailing panic (the violation itself) is
/// caught so the events and trace up to it are still returned.
///
/// Returns the dispatched `(time, event)` prefix, the trace, and the
/// panic text if the final step blew up.
pub fn replay(
    scenario: &Scenario,
    make_scheduler: &dyn Fn() -> Box<dyn Scheduler>,
    schedule: &[usize],
    tracer: Tracer,
) -> (Vec<(SimTime, Event)>, TraceSnapshot, Option<String>) {
    let set = scenario.job_set();
    let faults = scenario.fault_plan();
    let mut scheduler = make_scheduler();
    let mut driver = ChaosDriver::new(
        &set,
        scheduler.as_mut(),
        &scenario.requests,
        scenario.admission,
        &faults,
        tracer.clone(),
    );
    let _quiet = QuietPanics::new();
    let mut events = Vec::new();
    let mut panicked = None;
    for &n in schedule {
        match catch_unwind(AssertUnwindSafe(|| driver.step_nth_tied(n))) {
            Ok(Some((t, ev))) => events.push((t, ev)),
            Ok(None) => break,
            Err(payload) => {
                panicked = Some(panic_text(payload));
                break;
            }
        }
    }
    (events, tracer.snapshot(), panicked)
}
