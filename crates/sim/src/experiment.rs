//! Parameter sweeps: traces × shrinking factors × schedulers × job sets.
//!
//! The paper's experiment grid: for each of the four traces, generate K
//! synthetic job sets, scale each by every shrinking factor, run every
//! scheduler on every scaled set, and combine the K per-set results by
//! dropping min and max and averaging the rest.
//!
//! Runs execute on a small worker pool (std scoped threads); every
//! run is independent and deterministic, so the sweep result does not
//! depend on scheduling order or worker count.

use crate::runner::simulate_chaos;
use crate::spec::SchedulerSpec;
use dynp_des::SimDuration;
use dynp_metrics::{CombinedMetrics, FaultStats, ReservationStats, SimMetrics};
use dynp_obs::Tracer;
use dynp_rms::AdmissionConfig;
use dynp_workload::{
    transform, FaultModel, FaultPlan, JobSet, ReservationModel, ReservationRequest, TraceModel,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One cell of the experiment grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Trace name ("CTC", …).
    pub trace: String,
    /// Shrinking factor.
    pub factor: f64,
    /// The scheduler's label in the line-up.
    pub scheduler: String,
}

/// A cell with its combined (drop-min/max averaged) metrics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// Grid coordinates.
    pub cell: Cell,
    /// Combined metrics over the K job sets.
    pub combined: CombinedMetrics,
    /// Reservation admission counters summed over all K job sets (the
    /// drop-min/max convention applies to job metrics only). All zeros
    /// when the sweep carries no reservation load.
    pub reservations: ReservationStats,
    /// Fault/recovery counters summed over all K job sets. All zeros
    /// when the sweep carries no fault load.
    pub faults: FaultStats,
}

/// The full sweep result.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// All cells, in (trace, factor, scheduler) iteration order.
    pub cells: Vec<CellResult>,
    /// Lazily built coordinate → index map. Valid only as long as
    /// `cells` is not mutated after the first lookup; the sweep builds
    /// `cells` once and then only reads.
    index: OnceLock<HashMap<String, usize>>,
}

impl ExperimentResult {
    /// Wraps a finished cell list.
    pub(crate) fn new(cells: Vec<CellResult>) -> Self {
        ExperimentResult {
            cells,
            index: OnceLock::new(),
        }
    }

    /// Lookup key: the factor is quantized to a 1e-6 grid so callers can
    /// pass the same literal the grid was built from without worrying
    /// about float noise (the old linear scan compared with a 1e-9
    /// tolerance; quantization subsumes it, and real factors are 0.05
    /// apart).
    fn key(trace: &str, factor: f64, scheduler: &str) -> String {
        let q = (factor * 1e6).round() as i64;
        format!("{trace}\u{1}{q}\u{1}{scheduler}")
    }

    /// Looks a cell up by coordinates in O(1) after a one-time index
    /// build (the previous implementation scanned all cells per lookup,
    /// which made table rendering over big sweeps quadratic).
    pub(crate) fn get(&self, trace: &str, factor: f64, scheduler: &str) -> Option<&CellResult> {
        let index = self.index.get_or_init(|| {
            let mut map = HashMap::with_capacity(self.cells.len());
            // Reverse order so the first occurrence wins on (impossible
            // in grid order, but defensive) duplicate coordinates,
            // matching the old scan's first-match semantics.
            for (i, c) in self.cells.iter().enumerate().rev() {
                map.insert(
                    Self::key(&c.cell.trace, c.cell.factor, &c.cell.scheduler),
                    i,
                );
            }
            map
        });
        index
            .get(&Self::key(trace, factor, scheduler))
            .map(|&i| &self.cells[i])
    }

    /// Combined SLDwA of a cell (`NaN` when absent).
    pub fn sldwa(&self, trace: &str, factor: f64, scheduler: &str) -> f64 {
        self.get(trace, factor, scheduler)
            .map_or(f64::NAN, |c| c.combined.sldwa)
    }

    /// Combined utilization of a cell (`NaN` when absent).
    pub fn utilization(&self, trace: &str, factor: f64, scheduler: &str) -> f64 {
        self.get(trace, factor, scheduler)
            .map_or(f64::NAN, |c| c.combined.utilization)
    }
}

/// An advance-reservation load riding on every run of a sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReservationLoad {
    /// Target offered booked-area fraction (see
    /// [`ReservationModel::typical`]).
    pub booked_fraction: f64,
    /// Admission guarantee slack in seconds: how far a promised job start
    /// may slip before a window is refused.
    pub guarantee_slack_secs: u64,
}

impl ReservationLoad {
    fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            guarantee_slack: SimDuration::from_secs(self.guarantee_slack_secs),
        }
    }
}

/// A sweep definition.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Workload models to sweep.
    pub traces: Vec<TraceModel>,
    /// Shrinking factors (paper: 1.0 … 0.6).
    pub factors: Vec<f64>,
    /// Scheduler line-up: each spec under the label its results are
    /// keyed by.
    pub lineup: Vec<(String, SchedulerSpec)>,
    /// Jobs per synthetic set (paper: 10,000).
    pub jobs_per_set: usize,
    /// Synthetic sets per trace (paper: 10).
    pub sets_per_trace: usize,
    /// Base RNG seed; set i of every trace uses a seed derived from it.
    pub base_seed: u64,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Optional advance-reservation load applied to every run. `None`
    /// keeps the sweep on the plain job-only path (bit-identical to the
    /// pre-reservation harness).
    pub reservations: Option<ReservationLoad>,
    /// Optional fault-injection load applied to every run. `None` keeps
    /// every run fault-free (bit-identical to the pre-fault harness).
    pub faults: Option<FaultModel>,
}

impl Experiment {
    /// The paper's grid over the given traces and line-up at a chosen
    /// scale.
    pub fn new(
        traces: Vec<TraceModel>,
        lineup: Vec<(String, SchedulerSpec)>,
        jobs_per_set: usize,
        sets_per_trace: usize,
    ) -> Self {
        Experiment {
            traces,
            factors: dynp_workload::traces::SHRINKING_FACTORS.to_vec(),
            lineup,
            jobs_per_set,
            sets_per_trace,
            base_seed: 0x5EED,
            workers: 0,
            reservations: None,
            faults: None,
        }
    }

    /// Total number of simulation runs the sweep performs.
    pub fn total_runs(&self) -> usize {
        self.traces.len() * self.factors.len() * self.lineup.len() * self.sets_per_trace
    }

    /// Runs the sweep, invoking `progress(done, total)` as runs finish.
    pub(crate) fn run_with_progress(
        &self,
        progress: impl Fn(usize, usize) + Sync,
    ) -> ExperimentResult {
        // Pre-generate the base (factor 1.0) job sets once per
        // (trace, set); shrinking is cheap and done per task.
        let base_sets: Vec<Vec<JobSet>> = self
            .traces
            .iter()
            .map(|m| m.generate_sets(self.jobs_per_set, self.sets_per_trace, self.base_seed))
            .collect();

        // Task grid: (trace, factor, scheduler, set).
        struct Task {
            trace: usize,
            factor: usize,
            sched: usize,
            set: usize,
        }
        let mut tasks = Vec::with_capacity(self.total_runs());
        for t in 0..self.traces.len() {
            for f in 0..self.factors.len() {
                for s in 0..self.lineup.len() {
                    for k in 0..self.sets_per_trace {
                        tasks.push(Task {
                            trace: t,
                            factor: f,
                            sched: s,
                            set: k,
                        });
                    }
                }
            }
        }

        let results: Mutex<Vec<Option<(SimMetrics, ReservationStats, FaultStats)>>> =
            Mutex::new(vec![None; tasks.len()]);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let total = tasks.len();
        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };

        std::thread::scope(|scope| {
            for _ in 0..workers.min(total.max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() {
                        break;
                    }
                    let task = &tasks[i];
                    let base = &base_sets[task.trace][task.set];
                    let set = transform::shrink(base, self.factors[task.factor]);
                    let mut scheduler = self.lineup[task.sched].1.build();
                    // Every run goes through the single chaos driver:
                    // empty request/fault inputs are bit-identical to the
                    // historical plain paths (pinned by runner tests).
                    let run_seed = self.base_seed.wrapping_add(task.set as u64);
                    let (reqs, admission): (Vec<ReservationRequest>, AdmissionConfig) =
                        match &self.reservations {
                            None => (Vec::new(), AdmissionConfig::default()),
                            Some(load) => (
                                ReservationModel::typical(load.booked_fraction)
                                    .generate(&set, run_seed),
                                load.admission(),
                            ),
                        };
                    let plan = match &self.faults {
                        None => FaultPlan::none(),
                        Some(model) => model.generate(&set, run_seed),
                    };
                    let d = simulate_chaos(
                        &set,
                        scheduler.as_mut(),
                        &reqs,
                        admission,
                        &plan,
                        Tracer::disabled(),
                    );
                    results.lock().unwrap()[i] =
                        Some((d.result.metrics, d.reservations.stats, d.faults));
                    let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                    progress(d, total);
                });
            }
        });

        // Combine per cell, preserving the deterministic grid order.
        let metrics = results.into_inner().unwrap();
        let mut cells = Vec::new();
        let sets = self.sets_per_trace;
        for (t, model) in self.traces.iter().enumerate() {
            for (f, &factor) in self.factors.iter().enumerate() {
                for (s, (label, _)) in self.lineup.iter().enumerate() {
                    let base_idx = ((t * self.factors.len() + f) * self.lineup.len() + s) * sets;
                    let mut runs = Vec::with_capacity(sets);
                    let mut res_stats = ReservationStats::default();
                    let mut fault_stats = FaultStats::default();
                    for k in 0..sets {
                        let (m, r, fs) = metrics[base_idx + k].expect("missing run result");
                        runs.push(m);
                        res_stats.merge(&r);
                        fault_stats.merge(&fs);
                    }
                    cells.push(CellResult {
                        cell: Cell {
                            trace: model.name.clone(),
                            factor,
                            scheduler: label.clone(),
                        },
                        combined: CombinedMetrics::combine(&runs),
                        reservations: res_stats,
                        faults: fault_stats,
                    });
                }
            }
        }
        ExperimentResult::new(cells)
    }

    /// Runs the sweep silently.
    pub fn run(&self) -> ExperimentResult {
        self.run_with_progress(|_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_rms::Policy;

    fn tiny_experiment(workers: usize) -> Experiment {
        let mut e = Experiment::new(
            vec![dynp_workload::traces::kth()],
            [Policy::Fcfs, Policy::Sjf]
                .map(|p| (p.name().to_string(), SchedulerSpec::Static(p)))
                .to_vec(),
            120,
            3,
        );
        e.factors = vec![1.0, 0.8];
        e.workers = workers;
        e
    }

    #[test]
    fn sweep_covers_the_grid() {
        let e = tiny_experiment(1);
        assert_eq!(e.total_runs(), 2 * 2 * 3);
        let r = e.run();
        assert_eq!(r.cells.len(), 4); // 1 trace × 2 factors × 2 schedulers
        for c in &r.cells {
            assert_eq!(c.combined.runs, 3);
            assert!(c.combined.sldwa >= 1.0 - 1e-9);
            assert!(c.combined.utilization > 0.0 && c.combined.utilization <= 1.0);
        }
        assert!(r.get("KTH", 0.8, "SJF").is_some());
        assert!(r.get("KTH", 0.7, "SJF").is_none());
        assert!(!r.sldwa("KTH", 1.0, "FCFS").is_nan());
        assert!(r.sldwa("KTH", 1.0, "LJF").is_nan());
    }

    #[test]
    fn results_are_keyed_by_label() {
        // Two specs that share a display name stay apart under their
        // labels, and the name itself keys nothing.
        let mut e = tiny_experiment(1);
        e.lineup = ["a", "b"]
            .map(|l| (l.to_string(), SchedulerSpec::Static(Policy::Sjf)))
            .to_vec();
        let r = e.run();
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.sldwa("KTH", 0.8, "a"), r.sldwa("KTH", 0.8, "b"));
        assert!(r.get("KTH", 0.8, "SJF").is_none());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = tiny_experiment(1).run();
        let parallel = tiny_experiment(4).run();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.combined.sldwa, b.combined.sldwa);
            assert_eq!(a.combined.utilization, b.combined.utilization);
        }
    }

    #[test]
    fn progress_reaches_total() {
        let e = tiny_experiment(2);
        let max_seen = std::sync::atomic::AtomicUsize::new(0);
        let r = e.run_with_progress(|done, total| {
            assert!(done <= total);
            max_seen.fetch_max(done, Ordering::Relaxed);
        });
        assert_eq!(max_seen.load(Ordering::Relaxed), e.total_runs());
        assert_eq!(r.cells.len(), 4);
    }

    #[test]
    fn reservation_load_rides_on_every_run() {
        let mut e = tiny_experiment(2);
        e.reservations = Some(ReservationLoad {
            booked_fraction: 0.2,
            guarantee_slack_secs: 0,
        });
        let r = e.run();
        for c in &r.cells {
            assert!(c.reservations.requests > 0, "{:?} saw no requests", c.cell);
            assert_eq!(
                c.reservations.admitted,
                c.reservations.honored + c.reservations.cancelled + c.reservations.revoked
            );
        }
        // The plain sweep stays untouched: all-zero counters and the
        // same job metrics as before reservations existed.
        let plain = tiny_experiment(2).run();
        for (with, without) in r.cells.iter().zip(&plain.cells) {
            assert_eq!(without.reservations, ReservationStats::default());
            assert_eq!(with.cell, without.cell);
        }
    }

    #[test]
    fn fault_load_rides_on_every_run() {
        let mut e = tiny_experiment(2);
        e.faults = Some(FaultModel::typical(20_000.0, 3_600.0, 0.05));
        let r = e.run();
        for c in &r.cells {
            assert!(
                !c.faults.is_empty(),
                "{:?} saw no fault activity at all",
                c.cell
            );
            assert_eq!(c.faults.down_node_allocations, 0, "{:?}", c.cell);
            assert_eq!(c.faults.node_downs, c.faults.node_ups);
        }
        // The fault-free sweep stays untouched: all-zero counters.
        let plain = tiny_experiment(2).run();
        for (with, without) in r.cells.iter().zip(&plain.cells) {
            assert_eq!(without.faults, FaultStats::default());
            assert_eq!(with.cell, without.cell);
        }
    }

    #[test]
    fn higher_load_does_not_reduce_slowdown() {
        // Shrinking to 0.8 strictly increases offered load; SLDwA should
        // not get (noticeably) better.
        let r = tiny_experiment(1).run();
        let light = r.sldwa("KTH", 1.0, "FCFS");
        let heavy = r.sldwa("KTH", 0.8, "FCFS");
        assert!(
            heavy >= light * 0.9,
            "heavier load should not improve slowdown much: {light} → {heavy}"
        );
    }
}
