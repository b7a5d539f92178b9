//! Minimal shared command-line parsing for the experiment binaries.
//!
//! Every table/figure binary accepts the same scale flags:
//!
//! ```text
//! --jobs N       jobs per synthetic set        (paper: 10000)
//! --sets K       synthetic sets per trace      (paper: 10)
//! --quick        shorthand for --jobs 2500 --sets 5
//! --trace NAME   restrict to one trace (repeatable; default: all four)
//! --seed S       base RNG seed                 (default 0x5EED)
//! --workers W    worker threads                (default: one per core)
//! --planner-threads T  plan fan-out threads inside each dynP step
//!                      (default 0 = auto; see DynPConfig::planner_threads)
//! --out DIR      also write CSV tables and gnuplot .dat files to DIR
//! --res-fraction F  offered booked-area fraction of a reservation
//!                   stream riding on every run (default 0 = none)
//! --res-slack S     admission guarantee slack in seconds (default 0)
//! --mtbf S          per-node mean time between failures in seconds
//!                   (default 0 = no node outages)
//! --mttr S          mean node repair time in seconds (default 3600)
//! --crash-prob P    first-attempt job crash probability (overruns ride
//!                   along at P/2; default 0 = none)
//! --trace-out BASE  write a structured trace of one run to BASE.jsonl
//!                   (audit log) and BASE.trace.json (chrome://tracing)
//! --trace-level L   off | decisions | spans | all (default: decisions
//!                   when --trace-out is given, off otherwise)
//! --trace-ring N    tracer ring-buffer capacity in records (default:
//!                   the tracer's built-in capacity)
//! ```

use crate::experiment::{FaultLoad, ReservationLoad};
use dynp_obs::TraceLevel;
use dynp_workload::{traces, TraceModel};
use std::path::PathBuf;

/// Parsed common options.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Jobs per synthetic set.
    pub jobs: usize,
    /// Synthetic sets per trace.
    pub sets: usize,
    /// Selected workload models.
    pub traces: Vec<TraceModel>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// Plan fan-out threads inside each dynP step (0 = auto: the
    /// `DYNP_PLANNER_THREADS` environment variable, then available
    /// parallelism).
    pub planner_threads: usize,
    /// Output directory for CSV/.dat files.
    pub out: Option<PathBuf>,
    /// Offered booked-area fraction of the reservation stream (0 = no
    /// stream).
    pub res_fraction: f64,
    /// Admission guarantee slack in seconds.
    pub res_slack_secs: u64,
    /// Per-node mean time between failures in seconds (0 = no outages).
    pub mtbf_secs: f64,
    /// Mean node repair time in seconds.
    pub mttr_secs: f64,
    /// First-attempt job crash probability (0 = none).
    pub crash_prob: f64,
    /// Base path for structured trace output (`BASE.jsonl` +
    /// `BASE.trace.json`), if tracing was requested.
    pub trace_out: Option<PathBuf>,
    /// Trace verbosity (`None` = not given on the command line).
    pub trace_level: Option<TraceLevel>,
    /// Tracer ring-buffer capacity in records (`None` = the tracer's
    /// default).
    pub trace_ring: Option<usize>,
    /// Leftover (binary-specific) arguments.
    pub rest: Vec<String>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            jobs: traces::PAPER_JOBS_PER_SET,
            sets: traces::PAPER_SETS_PER_TRACE,
            traces: traces::standard_models(),
            seed: 0x5EED,
            workers: 0,
            planner_threads: 0,
            out: None,
            res_fraction: 0.0,
            res_slack_secs: 0,
            mtbf_secs: 0.0,
            mttr_secs: 3_600.0,
            crash_prob: 0.0,
            trace_out: None,
            trace_level: None,
            trace_ring: None,
            rest: Vec::new(),
        }
    }
}

impl CommonArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> CommonArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--jobs N] [--sets K] [--quick] [--trace NAME]... \
                     [--seed S] [--workers W] [--planner-threads T] [--out DIR] \
                     [--res-fraction F] [--res-slack S] \
                     [--mtbf S] [--mttr S] [--crash-prob P] \
                     [--trace-out BASE] [--trace-level off|decisions|spans|all] \
                     [--trace-ring N]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable).
    pub(crate) fn parse_from(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
        let mut out = CommonArgs::default();
        let mut selected: Vec<TraceModel> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--jobs" => {
                    out.jobs = value("--jobs")?
                        .parse()
                        .map_err(|_| "--jobs expects an integer".to_string())?;
                }
                "--sets" => {
                    out.sets = value("--sets")?
                        .parse()
                        .map_err(|_| "--sets expects an integer".to_string())?;
                }
                "--quick" => {
                    out.jobs = 2_500;
                    out.sets = 5;
                }
                "--trace" => {
                    let name = value("--trace")?;
                    let model =
                        traces::by_name(&name).ok_or_else(|| format!("unknown trace {name:?}"))?;
                    selected.push(model);
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects an integer".to_string())?;
                }
                "--workers" => {
                    out.workers = value("--workers")?
                        .parse()
                        .map_err(|_| "--workers expects an integer".to_string())?;
                }
                "--planner-threads" => {
                    let v = value("--planner-threads")?;
                    out.planner_threads = v.parse().map_err(|_| {
                        format!("--planner-threads expects a non-negative integer, got {v:?}")
                    })?;
                }
                "--out" => {
                    out.out = Some(PathBuf::from(value("--out")?));
                }
                "--res-fraction" => {
                    out.res_fraction = value("--res-fraction")?
                        .parse()
                        .map_err(|_| "--res-fraction expects a number".to_string())?;
                    if !(0.0..=1.0).contains(&out.res_fraction) {
                        return Err("--res-fraction must be in [0, 1]".to_string());
                    }
                }
                "--res-slack" => {
                    out.res_slack_secs = value("--res-slack")?
                        .parse()
                        .map_err(|_| "--res-slack expects an integer".to_string())?;
                }
                "--mtbf" => {
                    out.mtbf_secs = value("--mtbf")?
                        .parse()
                        .map_err(|_| "--mtbf expects a number of seconds".to_string())?;
                    if out.mtbf_secs < 0.0 {
                        return Err("--mtbf must be non-negative".to_string());
                    }
                }
                "--mttr" => {
                    out.mttr_secs = value("--mttr")?
                        .parse()
                        .map_err(|_| "--mttr expects a number of seconds".to_string())?;
                    if out.mttr_secs <= 0.0 {
                        return Err("--mttr must be positive".to_string());
                    }
                }
                "--crash-prob" => {
                    out.crash_prob = value("--crash-prob")?
                        .parse()
                        .map_err(|_| "--crash-prob expects a probability".to_string())?;
                    if !(0.0..=0.5).contains(&out.crash_prob) {
                        return Err("--crash-prob must be in [0, 0.5]".to_string());
                    }
                }
                "--trace-out" => {
                    out.trace_out = Some(PathBuf::from(value("--trace-out")?));
                }
                "--trace-level" => {
                    let name = value("--trace-level")?;
                    out.trace_level = Some(TraceLevel::parse(&name).ok_or_else(|| {
                        format!("--trace-level expects off|decisions|spans|all, got {name:?}")
                    })?);
                }
                "--trace-ring" => {
                    let capacity: usize = value("--trace-ring")?
                        .parse()
                        .map_err(|_| "--trace-ring expects an integer".to_string())?;
                    if capacity == 0 {
                        return Err("--trace-ring must be positive".to_string());
                    }
                    out.trace_ring = Some(capacity);
                }
                other => out.rest.push(other.to_string()),
            }
        }
        if !selected.is_empty() {
            out.traces = selected;
        }
        if out.jobs == 0 || out.sets == 0 {
            return Err("--jobs and --sets must be positive".to_string());
        }
        Ok(out)
    }

    /// The effective trace level: an explicit `--trace-level` wins;
    /// `--trace-out` alone defaults to
    /// [`TraceLevel::Decisions`]; neither means off.
    pub(crate) fn effective_trace_level(&self) -> TraceLevel {
        match (self.trace_level, &self.trace_out) {
            (Some(level), _) => level,
            (None, Some(_)) => TraceLevel::Decisions,
            (None, None) => TraceLevel::Off,
        }
    }

    /// The tracer the flags select (disabled unless tracing was
    /// requested). `--trace-ring` bounds its ring buffer.
    pub fn tracer(&self) -> dynp_obs::Tracer {
        let level = self.effective_trace_level();
        match self.trace_ring {
            Some(capacity) => dynp_obs::Tracer::with_capacity(level, capacity),
            None => dynp_obs::Tracer::enabled(level),
        }
    }

    /// Writes the recorded trace to `BASE.jsonl` (audit log) and
    /// `BASE.trace.json` (Chrome trace-event format) when `--trace-out
    /// BASE` was given. Returns the two paths written.
    pub fn write_trace(
        &self,
        tracer: &dynp_obs::Tracer,
    ) -> std::io::Result<Option<(PathBuf, PathBuf)>> {
        let Some(base) = &self.trace_out else {
            return Ok(None);
        };
        let snapshot = tracer.snapshot();
        let jsonl = PathBuf::from(format!("{}.jsonl", base.display()));
        let chrome = PathBuf::from(format!("{}.trace.json", base.display()));
        dynp_obs::write_jsonl(&snapshot, &jsonl)?;
        dynp_obs::write_chrome_trace(&snapshot, &chrome)?;
        Ok(Some((jsonl, chrome)))
    }

    /// Applies the shared parallelism flags to a sweep. The per-step
    /// plan fan-out stays sequential by default (the sweep already fans
    /// runs across `--workers`); an explicit `--planner-threads` opts
    /// in.
    pub fn configure_sweep(&self, exp: &mut crate::experiment::Experiment) {
        exp.workers = self.workers;
        if self.planner_threads > 0 {
            exp.planner_threads = self.planner_threads;
        }
    }

    /// The reservation load the flags select, if any.
    pub fn reservation_load(&self) -> Option<ReservationLoad> {
        if self.res_fraction > 0.0 {
            Some(ReservationLoad {
                booked_fraction: self.res_fraction,
                guarantee_slack_secs: self.res_slack_secs,
            })
        } else {
            None
        }
    }

    /// The fault-injection load the flags select, if any.
    pub fn fault_load(&self) -> Option<FaultLoad> {
        if self.mtbf_secs > 0.0 || self.crash_prob > 0.0 {
            Some(FaultLoad {
                mtbf_secs: self.mtbf_secs,
                mttr_secs: self.mttr_secs,
                crash_prob: self.crash_prob,
            })
        } else {
            None
        }
    }

    /// Standard progress printer: a line every ~5% of runs.
    pub fn progress_printer(total: usize) -> impl Fn(usize, usize) + Sync {
        let step = (total / 20).max(1);
        move |done, total| {
            if done % step == 0 || done == total {
                eprintln!("  [{done}/{total}] runs complete");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_paper_scale() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.jobs, 10_000);
        assert_eq!(a.sets, 10);
        assert_eq!(a.traces.len(), 4);
        assert!(a.out.is_none());
    }

    #[test]
    fn quick_shrinks_the_scale() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.jobs, 2_500);
        assert_eq!(a.sets, 5);
    }

    #[test]
    fn explicit_flags_override() {
        let a = parse(&[
            "--jobs",
            "100",
            "--sets",
            "3",
            "--seed",
            "7",
            "--workers",
            "2",
        ])
        .unwrap();
        assert_eq!(a.jobs, 100);
        assert_eq!(a.sets, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(a.workers, 2);
    }

    #[test]
    fn planner_threads_flag_parses() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.planner_threads, 0);
        let a = parse(&["--planner-threads", "4"]).unwrap();
        assert_eq!(a.planner_threads, 4);
        assert!(parse(&["--planner-threads"]).is_err());
        assert!(parse(&["--planner-threads", "x"]).is_err());
    }

    #[test]
    fn trace_ring_bounds_the_tracer() {
        let a = parse(&[
            "--trace-out",
            "/tmp/t",
            "--trace-level",
            "all",
            "--trace-ring",
            "2",
        ])
        .unwrap();
        assert_eq!(a.trace_ring, Some(2));
        let tracer = a.tracer();
        for i in 0..5u32 {
            tracer.record(
                dynp_des::SimTime::from_secs(u64::from(i)),
                dynp_obs::TraceEvent::SimEvent {
                    kind: "arrive",
                    id: u64::from(i),
                },
            );
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.dropped, 3);
        assert!(parse(&["--trace-ring", "0"]).is_err());
        assert!(parse(&["--trace-ring", "x"]).is_err());
        assert!(parse(&["--trace-ring"]).is_err());
    }

    #[test]
    fn trace_selection_and_rest() {
        let a = parse(&["--trace", "kth", "--trace", "CTC", "--frobnicate"]).unwrap();
        let names: Vec<&str> = a.traces.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["KTH", "CTC"]);
        assert_eq!(a.rest, vec!["--frobnicate"]);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "x"]).is_err());
        assert!(parse(&["--trace", "nope"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--res-fraction", "1.5"]).is_err());
        assert!(parse(&["--res-fraction", "x"]).is_err());
    }

    #[test]
    fn trace_flags_select_a_level() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.effective_trace_level(), TraceLevel::Off);
        assert!(!a.tracer().is_enabled());

        let a = parse(&["--trace-out", "/tmp/t"]).unwrap();
        assert_eq!(a.effective_trace_level(), TraceLevel::Decisions);
        assert!(a.tracer().is_enabled());

        let a = parse(&["--trace-out", "/tmp/t", "--trace-level", "all"]).unwrap();
        assert_eq!(a.effective_trace_level(), TraceLevel::All);

        // An explicit off silences even with an output path.
        let a = parse(&["--trace-out", "/tmp/t", "--trace-level", "off"]).unwrap();
        assert!(!a.tracer().is_enabled());

        assert!(parse(&["--trace-level", "verbose"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn reservation_flags_select_a_load() {
        let a = parse(&[]).unwrap();
        assert!(a.reservation_load().is_none());
        let a = parse(&["--res-fraction", "0.2", "--res-slack", "600"]).unwrap();
        let load = a.reservation_load().unwrap();
        assert_eq!(load.booked_fraction, 0.2);
        assert_eq!(load.guarantee_slack_secs, 600);
    }

    #[test]
    fn fault_flags_select_a_load() {
        let a = parse(&[]).unwrap();
        assert!(a.fault_load().is_none());

        let a = parse(&["--mtbf", "50000", "--mttr", "1800", "--crash-prob", "0.05"]).unwrap();
        let load = a.fault_load().unwrap();
        assert_eq!(load.mtbf_secs, 50_000.0);
        assert_eq!(load.mttr_secs, 1_800.0);
        assert_eq!(load.crash_prob, 0.05);
        assert!(!load.model().is_disabled());

        // Either knob alone enables the load.
        assert!(parse(&["--crash-prob", "0.1"])
            .unwrap()
            .fault_load()
            .is_some());
        assert!(parse(&["--mtbf", "90000"]).unwrap().fault_load().is_some());

        assert!(parse(&["--mtbf", "-1"]).is_err());
        assert!(parse(&["--mttr", "0"]).is_err());
        assert!(parse(&["--crash-prob", "0.9"]).is_err());
        assert!(parse(&["--crash-prob", "x"]).is_err());
    }
}
