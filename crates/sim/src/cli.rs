//! The one command-line reader of every bin in the workspace.
//!
//! [`Flags`] is a cursor over the process arguments with typed reads. A
//! value that is missing, malformed or out of range, and a flag no reader
//! knows, print the bin's usage and exit 2 with a message that names the
//! flag; `--help` prints the usage and exits 0. [`Flags::from_env`] is
//! the only reader of the process arguments.
//!
//! [`CommonArgs`] holds the flags the simulation bins share ([`usage`]
//! lists them with their help lines). Each bin names the shared flags it
//! reads and rejects the rest, so no flag is parsed and then dropped.

use crate::experiment::ReservationLoad;
use crate::spec::{parse_scheduler, SchedulerSpec};
use dynp_obs::TraceLevel;
use dynp_workload::{traces, FaultModel, TraceModel};
use std::fmt::Debug;
use std::ops::RangeBounds;
use std::path::PathBuf;
use std::str::FromStr;

/// A bin's command line: a cursor over its arguments, with the typed
/// reads the bins share. A malformed command line ends the process
/// through [`Flags::bail`] with the bin's usage text.
pub struct Flags {
    usage: String,
    argv: std::vec::IntoIter<String>,
}

impl Flags {
    /// The process arguments, to be explained by `usage` when they are
    /// wrong.
    pub fn from_env(usage: impl Into<String>) -> Flags {
        Flags::new(usage, std::env::args().skip(1).collect())
    }

    fn new(usage: impl Into<String>, argv: Vec<String>) -> Flags {
        Flags {
            usage: usage.into(),
            argv: argv.into_iter(),
        }
    }

    /// The rest of the arguments, explained by `usage` from here on.
    pub fn with_usage(self, usage: impl Into<String>) -> Flags {
        Flags {
            usage: usage.into(),
            ..self
        }
    }

    /// The next flag or positional argument; `--help` / `-h` prints the
    /// usage text and exits 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.argv.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// Prints `why` and the usage text to stderr and exits with 2.
    pub fn bail(&self, why: &str) -> ! {
        eprintln!("error: {why}\n{}", self.usage);
        std::process::exit(2);
    }

    /// Exits over a flag no reader of the bin knows.
    pub fn unknown(&self, flag: &str) -> ! {
        self.bail(&format!("unknown flag {flag:?}"))
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.argv.next() {
            Some(v) => v,
            None => self.bail(&format!("{flag} needs a value")),
        }
    }

    /// `raw`, the value (or part of the value) of `flag`, as a number.
    pub fn parse<T: FromStr>(&self, raw: &str, flag: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| self.bail(&format!("{flag} needs a number, got {raw:?}")))
    }

    /// The value following `flag`, as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        self.parse(&raw, flag)
    }

    /// `raw`, the value (or part of the value) of `flag`, as a positive
    /// number: an integer above zero, or a finite float above zero.
    pub fn positive_of<T: FromStr>(&self, raw: &str, flag: &str) -> T {
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => self.parse(raw, flag),
            _ => self.bail(&format!("{flag} needs a positive number, got {raw:?}")),
        }
    }

    /// The value following `flag`, as a positive number.
    pub fn positive<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        self.positive_of(&raw, flag)
    }

    /// The value following `flag`, as a number in `range` (NaN is in
    /// none).
    pub fn num_in<T, R>(&mut self, flag: &str, range: R) -> T
    where
        T: FromStr + PartialOrd + Debug,
        R: RangeBounds<T> + Debug,
    {
        let v: T = self.num(flag);
        if !range.contains(&v) {
            self.bail(&format!("{flag} must be in {range:?}, got {v:?}"));
        }
        v
    }

    /// The scheduler the value following `flag` spells
    /// ([`parse_scheduler`]).
    pub fn scheduler(&mut self, flag: &str) -> SchedulerSpec {
        let raw = self.value(flag);
        parse_scheduler(&raw).unwrap_or_else(|why| self.bail(&format!("{flag}: {why}")))
    }
}

/// Every shared flag with its help line.
const SHARED: [&str; 16] = [
    "--jobs N             jobs per synthetic set (paper: 10000)",
    "--sets K             synthetic sets per trace (paper: 10)",
    "--quick              shorthand for --jobs 2500 --sets 5",
    "--trace NAME         CTC|KTH|LANL|SDSC, repeatable (default: all four)",
    "--seed S             base RNG seed (default 0x5EED)",
    "--workers W          worker threads (default: one per core)",
    "--out DIR            output directory",
    "--scheduler SPEC     FCFS|SJF|LJF|SAF|LAF|easy[:P]|dynp[:simple|:advanced|:preferred:P[:T]]",
    "--res-fraction F     offered booked-area fraction (default 0 = none)",
    "--res-slack S        admission guarantee slack in seconds (default 0)",
    "--mtbf S             per-node mean time between failures in seconds (default 0 = none)",
    "--mttr S             mean node repair time in seconds (default 3600)",
    "--crash-prob P       first-attempt job crash probability; overruns at P/2 (default 0)",
    "--trace-out BASE     write a structured trace to BASE.jsonl and BASE.trace.json",
    "--trace-level L      off|decisions|spans|all (default: decisions with --trace-out)",
    "--trace-ring N       tracer ring-buffer capacity in records",
];

/// The shared flags of structured tracing.
pub const TRACING: [&str; 3] = ["--trace-out", "--trace-level", "--trace-ring"];

/// A bin's usage text: `head`, then the help line of each shared flag
/// in `accepts`.
pub fn usage(head: &str, accepts: &[&str]) -> String {
    let mut text = head.to_string();
    for line in SHARED {
        if accepts
            .iter()
            .any(|flag| line.split(' ').next() == Some(flag))
        {
            text.push_str("\n  ");
            text.push_str(line);
        }
    }
    text
}

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
    /// Output directory.
    pub out: Option<PathBuf>,
    /// Schedulers named by `--scheduler`, in order.
    pub schedulers: Vec<SchedulerSpec>,
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
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            jobs: traces::PAPER_JOBS_PER_SET,
            sets: traces::PAPER_SETS_PER_TRACE,
            traces: traces::standard_models(),
            seed: 0x5EED,
            workers: 0,
            out: None,
            schedulers: Vec::new(),
            res_fraction: 0.0,
            res_slack_secs: 0,
            mtbf_secs: 0.0,
            mttr_secs: 3_600.0,
            crash_prob: 0.0,
            trace_out: None,
            trace_level: None,
            trace_ring: None,
        }
    }
}

impl CommonArgs {
    /// Reads a bin's command line: the shared flags `accepts` names into
    /// a `CommonArgs`, every other argument through `own`, which returns
    /// whether it knew it. An argument neither knows ends the process
    /// with the usage text.
    pub fn read(
        flags: &mut Flags,
        accepts: &[&str],
        mut own: impl FnMut(&mut Flags, &str) -> bool,
    ) -> CommonArgs {
        let mut a = CommonArgs::default();
        let mut selected = Vec::new();
        while let Some(flag) = flags.next_flag() {
            if !accepts.contains(&flag.as_str()) {
                if !own(flags, &flag) {
                    flags.unknown(&flag);
                }
                continue;
            }
            match flag.as_str() {
                "--jobs" => a.jobs = flags.positive(&flag),
                "--sets" => a.sets = flags.positive(&flag),
                "--quick" => (a.jobs, a.sets) = (2_500, 5),
                "--trace" => {
                    let name = flags.value(&flag);
                    let model = traces::by_name(&name)
                        .unwrap_or_else(|| flags.bail(&format!("--trace: unknown trace {name:?}")));
                    selected.push(model);
                }
                "--seed" => a.seed = flags.num(&flag),
                "--workers" => a.workers = flags.num(&flag),
                "--out" => a.out = Some(PathBuf::from(flags.value(&flag))),
                "--scheduler" => a.schedulers.push(flags.scheduler(&flag)),
                "--res-fraction" => a.res_fraction = flags.num_in(&flag, 0.0..=1.0),
                "--res-slack" => a.res_slack_secs = flags.num(&flag),
                "--mtbf" => a.mtbf_secs = flags.num_in(&flag, 0.0..f64::INFINITY),
                "--mttr" => a.mttr_secs = flags.positive(&flag),
                "--crash-prob" => a.crash_prob = flags.num_in(&flag, 0.0..=0.5),
                "--trace-out" => a.trace_out = Some(PathBuf::from(flags.value(&flag))),
                "--trace-level" => {
                    let name = flags.value(&flag);
                    let level = TraceLevel::parse(&name).unwrap_or_else(|| {
                        flags.bail(&format!(
                            "--trace-level expects off|decisions|spans|all, got {name:?}"
                        ))
                    });
                    a.trace_level = Some(level);
                }
                "--trace-ring" => a.trace_ring = Some(flags.positive(&flag)),
                _ => flags.unknown(&flag),
            }
        }
        if !selected.is_empty() {
            a.traces = selected;
        }
        a
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

    /// The reservation load the flags select, if any.
    pub(crate) fn reservation_load(&self) -> Option<ReservationLoad> {
        (self.res_fraction > 0.0).then_some(ReservationLoad {
            booked_fraction: self.res_fraction,
            guarantee_slack_secs: self.res_slack_secs,
        })
    }

    /// The fault-injection load the flags select, if any.
    pub(crate) fn fault_load(&self) -> Option<FaultModel> {
        let model = FaultModel::typical(self.mtbf_secs, self.mttr_secs, self.crash_prob);
        (!model.is_disabled()).then_some(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shared flag accepted; malformed input is the boundary
    /// test's (`tests/cli_boundary.rs`), since it ends the process.
    fn parse(args: &[&str]) -> CommonArgs {
        let all: Vec<&str> = SHARED.iter().filter_map(|s| s.split(' ').next()).collect();
        let mut flags = Flags::new("", args.iter().map(|s| s.to_string()).collect());
        CommonArgs::read(&mut flags, &all, |_, _| false)
    }

    #[test]
    fn defaults_are_paper_scale() {
        let a = parse(&[]);
        assert_eq!(a.jobs, 10_000);
        assert_eq!(a.sets, 10);
        assert_eq!(a.traces.len(), 4);
        assert!(a.out.is_none());
    }

    #[test]
    fn quick_shrinks_the_scale() {
        let a = parse(&["--quick"]);
        assert_eq!((a.jobs, a.sets), (2_500, 5));
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
        ]);
        assert_eq!((a.jobs, a.sets, a.seed), (100, 3, 7));
        assert_eq!(a.workers, 2);
    }

    #[test]
    fn own_flags_and_positionals_reach_the_bin() {
        let mut flags = Flags::new(
            "",
            [
                "--trace",
                "kth",
                "file.jsonl",
                "--shrink",
                "0.5",
                "--trace",
                "CTC",
            ]
            .map(String::from)
            .to_vec(),
        );
        let (mut files, mut shrink) = (Vec::new(), 0.0);
        let a = CommonArgs::read(&mut flags, &["--trace"], |flags, arg| match arg {
            "--shrink" => {
                shrink = flags.positive(arg);
                true
            }
            file if !file.starts_with('-') => {
                files.push(file.to_string());
                true
            }
            _ => false,
        });
        let names: Vec<&str> = a.traces.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["KTH", "CTC"]);
        assert_eq!(files, vec!["file.jsonl"]);
        assert_eq!(shrink, 0.5);
    }

    #[test]
    fn schedulers_keep_their_order() {
        let a = parse(&["--scheduler", "easy", "--scheduler", "dynp:simple"]);
        let names: Vec<String> = a.schedulers.iter().map(SchedulerSpec::name).collect();
        assert_eq!(names, vec!["EASY", "dynP[simple]"]);
    }

    #[test]
    fn usage_lists_only_the_accepted_flags() {
        let text = usage("usage: bin", &["--jobs", "--out"]);
        assert!(text.starts_with("usage: bin\n"));
        assert!(text.contains("--jobs N") && text.contains("--out DIR"));
        assert!(!text.contains("--sets"));
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
        ]);
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
    }

    #[test]
    fn trace_flags_select_a_level() {
        let a = parse(&[]);
        assert_eq!(a.effective_trace_level(), TraceLevel::Off);
        assert!(!a.tracer().is_enabled());

        let a = parse(&["--trace-out", "/tmp/t"]);
        assert_eq!(a.effective_trace_level(), TraceLevel::Decisions);
        assert!(a.tracer().is_enabled());

        let a = parse(&["--trace-out", "/tmp/t", "--trace-level", "all"]);
        assert_eq!(a.effective_trace_level(), TraceLevel::All);

        // An explicit off silences even with an output path.
        let a = parse(&["--trace-out", "/tmp/t", "--trace-level", "off"]);
        assert!(!a.tracer().is_enabled());
    }

    #[test]
    fn reservation_flags_select_a_load() {
        assert!(parse(&[]).reservation_load().is_none());
        let a = parse(&["--res-fraction", "0.2", "--res-slack", "600"]);
        let load = a.reservation_load().unwrap();
        assert_eq!(load.booked_fraction, 0.2);
        assert_eq!(load.guarantee_slack_secs, 600);
    }

    #[test]
    fn fault_flags_select_a_load() {
        assert!(parse(&[]).fault_load().is_none());

        let a = parse(&["--mtbf", "50000", "--mttr", "1800", "--crash-prob", "0.05"]);
        let load = a.fault_load().unwrap();
        assert_eq!(load.mtbf_secs, 50_000.0);
        assert_eq!(load.mttr_secs, 1_800.0);
        assert_eq!(load.crash_prob, 0.05);

        // Either knob alone enables the load.
        assert!(parse(&["--crash-prob", "0.1"]).fault_load().is_some());
        assert!(parse(&["--mtbf", "90000"]).fault_load().is_some());
    }
}
