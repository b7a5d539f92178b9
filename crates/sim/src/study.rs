//! The paper's tables and the ablations, as values.
//!
//! A [`Study`] is what `experiment NAME` runs: a labelled scheduler
//! line-up swept over the synthetic traces along an axis (the shrinking
//! factors, or one sweep at factor 1.0 per booked fraction or per MTBF
//! step), rendered by one of two table layouts, followed by its reading
//! text and, where it has one, a check. What is not a sweep table —
//! Tables 1 and 2, the paper's columns beside ours in Tables 3–5, the
//! shape checks — is a function its study names.
//!
//! Results are keyed by label, so one line-up can hold specs that share
//! a display name (A3's five `dynP[advanced]` variants).

use crate::cli::CommonArgs;
use crate::experiment::{CellResult, Experiment, ExperimentResult, ReservationLoad};
use crate::paper_ref;
use crate::report::{num, signed, FigureData, Table};
use crate::spec::SchedulerSpec;
use crate::svg::{write_chart, ChartOptions};
use dynp_core::DecideOn::{self, AllEvents, SubmissionsOnly};
use dynp_core::DeciderKind;
use dynp_metrics::Objective::{
    self, AvgResponseTime, ResponseTimeWeightedByWidth, SlowdownWeightedByArea, Utilization,
};
use dynp_rms::Policy;
use dynp_workload::traces::SHRINKING_FACTORS;
use dynp_workload::{FaultModel, TraceStats};
use std::path::Path;

/// A sweep and what it measured.
type Run = (Experiment, ExperimentResult);

/// One study of the reproduction.
pub struct Study {
    /// The name `experiment` runs it by, and the stem of its table file.
    pub name: &'static str,
    /// The shared flags the study reads; `experiment` rejects the others.
    pub flags: Vec<&'static str>,
    /// The schedulers, each under the label its results are keyed by.
    pub lineup: Vec<(String, SchedulerSpec)>,
    /// The table caption (of a table written by a layout, not by code).
    title: &'static str,
    axis: Axis,
    layout: Layout,
    /// Printed under the table.
    reading: &'static str,
    /// The per-trace figure of the axis: kind, caption, metric.
    figure: Option<(&'static str, &'static str, Metric)>,
    /// Printed last: a summary, the shape checks or an invariant.
    check: Option<fn(&[Run])>,
}

/// What the rows of a sweep table run over.
enum Axis {
    /// The paper's shrinking factors, in one sweep.
    Factors,
    /// One sweep at factor 1.0 per offered booked-area fraction.
    Booked(&'static [f64]),
    /// One sweep at factor 1.0 per per-node MTBF in seconds (0 = none).
    Mtbf(&'static [f64]),
}

/// How a study's results become its table.
enum Layout {
    /// Not a sweep: the study is this function.
    Code(fn(&CommonArgs)),
    /// Trace, the axis columns, then per metric one column for each of
    /// the first `n` labels of the line-up.
    Wide(Vec<(Metric, usize)>),
    /// Trace, factor, label, SLDwA, utilization: one row per label and
    /// cell, label-major.
    Long,
    /// The paper's values beside ours, written by this function.
    Paper(fn(&Experiment, &ExperimentResult, Option<&Path>)),
}

/// A per-scheduler column of a [`Layout::Wide`] table.
#[derive(Clone, Copy)]
enum Metric {
    Sldwa,
    Util,
    /// Reservation acceptance rate in %.
    Acc,
    /// Honored share of the requested reservation area in %.
    BookedU,
    Lost,
    Retries,
}

impl Metric {
    /// The column header's prefix and the decimals of a cell.
    fn format(self) -> (&'static str, usize) {
        match self {
            Metric::Sldwa => ("SLDwA", 2),
            Metric::Util => ("util", 2),
            Metric::Acc => ("acc%", 1),
            Metric::BookedU => ("bookedU%", 1),
            Metric::Lost => ("lost", 0),
            Metric::Retries => ("retries", 0),
        }
    }

    fn of(self, c: &CellResult) -> f64 {
        match self {
            Metric::Sldwa => c.combined.sldwa,
            Metric::Util => c.combined.utilization * 100.0,
            Metric::Acc => c.reservations.acceptance_rate() * 100.0,
            Metric::BookedU => c.reservations.area_acceptance_rate() * 100.0,
            Metric::Lost => c.faults.lost as f64,
            Metric::Retries => c.faults.retries as f64,
        }
    }

    /// Whether `exp` carries what the metric counts: the reservation
    /// columns need a reservation load, the fault columns a fault load.
    fn applies(self, exp: &Experiment) -> bool {
        match self {
            Metric::Acc | Metric::BookedU => exp.reservations.is_some(),
            Metric::Lost | Metric::Retries => exp.faults.is_some(),
            Metric::Sldwa | Metric::Util => true,
        }
    }
}

/// The flags of a sweep study.
const SWEEP: &[&str] = &[
    "--jobs",
    "--sets",
    "--quick",
    "--trace",
    "--seed",
    "--workers",
    "--out",
];

/// The flags of the loads a sweep can carry.
const LOADS: [&str; 5] = [
    "--res-fraction",
    "--res-slack",
    "--mtbf",
    "--mttr",
    "--crash-prob",
];

/// A line-up labelled by display name.
fn named(specs: impl IntoIterator<Item = SchedulerSpec>) -> Vec<(String, SchedulerSpec)> {
    specs.into_iter().map(|s| (s.name(), s)).collect()
}

fn preferred(policy: Policy, threshold: f64) -> SchedulerSpec {
    SchedulerSpec::dynp(DeciderKind::Preferred { policy, threshold })
}

/// A3's dynP[advanced] variant that decides on `decide_on` by
/// `objective`, labelled `all-events/SLDwA` and the like.
fn advanced_variant((decide_on, objective): (DecideOn, Objective)) -> (String, SchedulerSpec) {
    let on = match decide_on {
        AllEvents => "all-events",
        SubmissionsOnly => "submit-only",
    };
    let paper = (decide_on, objective) == (AllEvents, SlowdownWeightedByArea);
    let paper = if paper { " (paper)" } else { "" };
    let label = format!("{on}/{}{paper}", objective.name());
    let decider = DeciderKind::Advanced;
    let spec = SchedulerSpec::DynP {
        decider,
        objective,
        decide_on,
    };
    (label, spec)
}

/// The three deciders, for the reservation and fault ablations.
fn deciders() -> Vec<(String, SchedulerSpec)> {
    named([
        SchedulerSpec::dynp(DeciderKind::Simple),
        SchedulerSpec::dynp(DeciderKind::Advanced),
        preferred(Policy::Sjf, 0.0),
    ])
}

impl Study {
    /// A sweep study over the paper's shrinking factors, with one table
    /// and no figure, reading or check.
    fn sweep(name: &'static str, title: &'static str) -> Study {
        Study {
            name,
            flags: SWEEP.to_vec(),
            lineup: Vec::new(),
            title,
            axis: Axis::Factors,
            layout: Layout::Wide(Vec::new()),
            reading: "",
            figure: None,
            check: None,
        }
    }
}

/// Thresholds of the "clearly better" ablation (A2).
const THRESHOLDS: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.25];
/// Labels of the paper's Table 5 line-up.
const ADV: &str = "dynP[advanced]";
const PREF: &str = "dynP[SJF-preferred]";

/// Every study, in the order `run_experiments.sh` runs them.
pub fn studies() -> Vec<Study> {
    let wide = |m: &[Metric]| Layout::Wide(m.iter().map(|&m| (m, usize::MAX)).collect());
    vec![
        // Not sweeps: each study is its function.
        Study {
            flags: Vec::new(),
            layout: Layout::Code(table1),
            ..Study::sweep("table1", "")
        },
        Study {
            flags: vec!["--jobs", "--sets", "--quick", "--trace", "--seed", "--out"],
            layout: Layout::Code(table2),
            ..Study::sweep("table2", "")
        },
        Study {
            lineup: named([Policy::Fcfs, Policy::Sjf, Policy::Ljf].map(SchedulerSpec::Static)),
            layout: Layout::Paper(table4),
            check: Some(table4_shapes),
            ..Study::sweep("table4", "")
        },
        Study {
            lineup: named([
                SchedulerSpec::Static(Policy::Sjf),
                SchedulerSpec::dynp(DeciderKind::Advanced),
                preferred(Policy::Sjf, 0.0),
            ]),
            layout: Layout::Paper(table5),
            check: Some(table5_shapes),
            ..Study::sweep("table5", "")
        },
        Study {
            lineup: named(
                std::iter::once(SchedulerSpec::dynp(DeciderKind::Advanced))
                    .chain(Policy::BASIC.map(|p| preferred(p, 0.0))),
            ),
            layout: wide(&[Metric::Sldwa, Metric::Util]),
            check: Some(preferred_averages),
            ..Study::sweep(
                "ablation_preferred",
                "Ablation A1 — preferred-policy choice for the unfair decider",
            )
        },
        Study {
            lineup: THRESHOLDS
                .iter()
                .map(|&t| (format!("th={t}"), preferred(Policy::Sjf, t)))
                .chain([("SJF".to_string(), SchedulerSpec::Static(Policy::Sjf))])
                .collect(),
            // Static SJF is the SLDwA reference only.
            layout: Layout::Wide(vec![
                (Metric::Sldwa, usize::MAX),
                (Metric::Util, THRESHOLDS.len()),
            ]),
            reading: "reading: as the threshold grows the decider sticks to SJF longer; its \
                      results\nshould interpolate between th=0 (paper) and the static SJF column.",
            ..Study::sweep(
                "ablation_threshold",
                "Ablation A2 — 'clearly better' threshold of the SJF-preferred decider (th=0 is \
                 the paper's setting; th→∞ degenerates to static SJF)",
            )
        },
        Study {
            lineup: [
                (AllEvents, SlowdownWeightedByArea),
                (SubmissionsOnly, SlowdownWeightedByArea),
                (AllEvents, ResponseTimeWeightedByWidth),
                (AllEvents, AvgResponseTime),
                (AllEvents, Utilization),
            ]
            .map(advanced_variant)
            .to_vec(),
            layout: Layout::Long,
            reading: "reading: submit-only decisions halve the self-tuning overhead; the \
                      objective\nrow shows how the tuned metric propagates into the realized \
                      SLDwA/utilization\n(tuning on utilization should trade slowdown away, \
                      like static LJF does).",
            ..Study::sweep(
                "ablation_step",
                "Ablation A3 — self-tuning step frequency and decider objective \
                 (dynP[advanced] variants)",
            )
        },
        Study {
            lineup: named([
                SchedulerSpec::Easy(Policy::Fcfs),
                SchedulerSpec::Easy(Policy::Sjf),
                SchedulerSpec::Static(Policy::Fcfs),
                SchedulerSpec::Static(Policy::Sjf),
                preferred(Policy::Sjf, 0.0),
            ]),
            layout: wide(&[Metric::Sldwa, Metric::Util]),
            reading: "reading: planning FCFS vs EASY isolates the value of full-schedule \
                      planning;\ndynP[SJF-preferred] should beat both single-policy families on \
                      slowdown while\nstaying close on utilization. EASY only ever reserves for \
                      the queue head, so\nunder deep queues its width-weighted waits grow faster \
                      than the planner's.",
            ..Study::sweep(
                "ablation_queue_vs_planning",
                "Ablation A4 — queueing with EASY backfilling vs planning with implicit \
                 backfilling",
            )
        },
        Study {
            flags: [SWEEP, &["--res-slack"]].concat(),
            lineup: deciders(),
            axis: Axis::Booked(&[0.0, 0.05, 0.10, 0.20, 0.40]),
            layout: wide(&[Metric::Acc, Metric::Sldwa, Metric::BookedU]),
            figure: Some((
                "figR",
                "admission acceptance rate vs. booked fraction",
                Metric::Acc,
            )),
            reading: "reading: at booked fraction 0 every decider matches the reservation-free \
                      harness;\nas the pre-booked share grows, admission starts refusing windows \
                      (capacity and\nguarantee rejections) and the batch SLDwA degrades — the \
                      price of guarantees.",
            ..Study::sweep(
                "ablation_reservations",
                "Ablation A4 — acceptance rate, SLDwA and booked-area utilization vs. offered \
                 booked-area fraction (factor 1.0)",
            )
        },
        Study {
            flags: [SWEEP, &["--mttr", "--crash-prob"]].concat(),
            lineup: deciders(),
            // Small MTBF = frequently failing nodes.
            axis: Axis::Mtbf(&[0.0, 200_000.0, 50_000.0, 20_000.0, 8_000.0]),
            layout: wide(&[Metric::Sldwa, Metric::Lost, Metric::Retries]),
            figure: Some(("figF", "SLDwA vs. machine unavailability", Metric::Sldwa)),
            reading: "reading: at MTBF 0 (no outages) every decider matches the fault-free \
                      harness;\nas nodes fail more often, evictions force retries and eventually \
                      lost jobs, and\nthe batch SLDwA degrades — outage damage the self-tuner \
                      cannot plan away.",
            check: Some(fault_invariants),
            ..Study::sweep(
                "ablation_faults",
                "Ablation A5 — SLDwA, lost jobs and retries vs. node availability (factor 1.0)",
            )
        },
        Study {
            flags: [SWEEP, &["--scheduler"], &LOADS].concat(),
            lineup: named(SchedulerSpec::paper_lineup()),
            layout: wide(&[
                Metric::Sldwa,
                Metric::Util,
                Metric::Acc,
                Metric::Lost,
                Metric::Retries,
            ]),
            ..Study::sweep(
                "sweep",
                "sweep — the --scheduler line-up (default: the paper's) under the given loads",
            )
        },
    ]
}

/// The study `experiment NAME` runs.
pub fn find(name: &str) -> Option<Study> {
    studies().into_iter().find(|s| s.name == name)
}

/// Writes an output file, or ends the process naming it.
fn written(what: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: cannot write {what}: {e}");
        std::process::exit(1);
    }
}

impl Study {
    /// Runs the study at the scale `args` selects and prints (and, with
    /// `--out`, writes) what it measured.
    pub fn run(&self, args: &CommonArgs) {
        if let Layout::Code(code) = self.layout {
            return code(args);
        }
        let lineup = if args.schedulers.is_empty() {
            self.lineup.clone()
        } else {
            named(args.schedulers.clone())
        };
        let mut base = Experiment::new(args.traces.clone(), lineup, args.jobs, args.sets);
        base.base_seed = args.seed;
        base.workers = args.workers;
        base.reservations = args.reservation_load();
        base.faults = args.fault_load();
        let sweeps = self.axis.sweeps(base, args);

        let total: usize = sweeps.iter().map(Experiment::total_runs).sum();
        eprintln!("{}: {total} runs", self.name);
        let every = (total / 20).max(1);
        let mut done_before = 0;
        let run: Vec<Run> = sweeps
            .into_iter()
            .map(|exp| {
                let base = done_before;
                done_before += exp.total_runs();
                let result = exp.run_with_progress(|done, _| {
                    let done = base + done;
                    if done % every == 0 || done == total {
                        eprintln!("  [{done}/{total}] runs complete");
                    }
                });
                (exp, result)
            })
            .collect();

        let out = args.out.as_deref();
        let table = match &self.layout {
            Layout::Wide(columns) => Some(self.wide(columns, &run, args)),
            Layout::Long => Some(self.long(&run[0])),
            Layout::Paper(paper) => {
                paper(&run[0].0, &run[0].1, out);
                None
            }
            Layout::Code(_) => None,
        };
        if let Some(table) = table {
            print!("{}", table.to_text());
            if let Some(dir) = out {
                written(self.name, table.write_csv(dir, self.name));
            }
        }
        if !self.reading.is_empty() {
            println!("\n{}", self.reading);
        }
        if let Some(check) = self.check {
            check(&run);
        }
    }

    /// The one per-scheduler table: trace, the axis columns, then one
    /// column per metric and label. A metric whose load no sweep
    /// carries is left out.
    fn wide(&self, columns: &[(Metric, usize)], run: &[Run], args: &CommonArgs) -> Table {
        let labels: Vec<&str> = run[0].0.lineup.iter().map(|(l, _)| l.as_str()).collect();
        let columns: Vec<(Metric, &[&str])> = columns
            .iter()
            .filter(|(m, _)| run.iter().any(|(exp, _)| m.applies(exp)))
            .map(|&(m, n)| (m, &labels[..n.min(labels.len())]))
            .collect();
        let mut headers: Vec<String> = std::iter::once("trace")
            .chain(self.axis.headers().iter().copied())
            .map(str::to_string)
            .collect();
        for (m, labels) in &columns {
            headers.extend(labels.iter().map(|l| format!("{} {l}", m.format().0)));
        }
        let mut table = Table {
            title: self.title.to_string(),
            headers,
            rows: Vec::new(),
        };
        for model in &args.traces {
            let trace = model.name.as_str();
            let mut fig = FigureData::new("", &labels);
            for (sweep, factor, x, lead) in self.axis.points(args.mttr_secs) {
                let result = &run[sweep].1;
                let value =
                    |m: Metric, l: &str| result.get(trace, factor, l).map_or(f64::NAN, |c| m.of(c));
                let mut row = vec![trace.to_string()];
                row.extend(lead);
                for &(m, labels) in &columns {
                    row.extend(labels.iter().map(|l| num(value(m, l), m.format().1)));
                }
                table.push_row(row);
                if let Some((_, _, m)) = self.figure {
                    fig.push(x, labels.iter().map(|l| value(m, l)).collect());
                }
            }
            if let Some((kind, caption, _)) = self.figure {
                fig.title = format!("{trace} — {caption}");
                write_figure(args.out.as_deref(), kind, trace, &fig);
            }
        }
        table
    }

    /// One row per label, trace and factor, label-major.
    fn long(&self, (exp, result): &Run) -> Table {
        let headers = ["trace", "factor", "variant", "SLDwA", "util %"];
        let mut table = Table::new(self.title, &headers);
        for (label, _) in &exp.lineup {
            for model in &exp.traces {
                for &factor in &exp.factors {
                    let trace = model.name.as_str();
                    table.push_row(vec![
                        trace.to_string(),
                        num(factor, 1),
                        label.clone(),
                        num(result.sldwa(trace, factor, label), 2),
                        num(result.utilization(trace, factor, label) * 100.0, 2),
                    ]);
                }
            }
        }
        table
    }
}

impl Axis {
    /// The sweeps of the axis, each a copy of `base` with its own load.
    fn sweeps(&self, base: Experiment, args: &CommonArgs) -> Vec<Experiment> {
        match *self {
            Axis::Factors => vec![base],
            Axis::Booked(fractions) => fractions
                .iter()
                .map(|&booked_fraction| Experiment {
                    factors: vec![1.0],
                    reservations: (booked_fraction > 0.0).then_some(ReservationLoad {
                        booked_fraction,
                        guarantee_slack_secs: args.res_slack_secs,
                    }),
                    ..base.clone()
                })
                .collect(),
            Axis::Mtbf(steps) => steps
                .iter()
                .map(|&mtbf_secs| {
                    let model = FaultModel::typical(mtbf_secs, args.mttr_secs, args.crash_prob);
                    Experiment {
                        factors: vec![1.0],
                        faults: (!model.is_disabled()).then_some(model),
                        ..base.clone()
                    }
                })
                .collect(),
        }
    }

    fn headers(&self) -> &'static [&'static str] {
        match self {
            Axis::Factors => &["factor"],
            Axis::Booked(_) => &["booked"],
            Axis::Mtbf(_) => &["MTBF s", "unavail%"],
        }
    }

    /// Each row of the axis: the sweep that holds it, its shrinking
    /// factor, its figure x and its leading cells.
    fn points(&self, mttr_secs: f64) -> Vec<(usize, f64, f64, Vec<String>)> {
        match *self {
            Axis::Factors => SHRINKING_FACTORS
                .iter()
                .map(|&f| (0, f, f, vec![num(f, 1)]))
                .collect(),
            Axis::Booked(fractions) => fractions
                .iter()
                .enumerate()
                .map(|(i, &b)| (i, 1.0, b, vec![num(b, 2)]))
                .collect(),
            Axis::Mtbf(steps) => steps
                .iter()
                .enumerate()
                .map(|(i, &mtbf)| {
                    // Steady-state unavailability of an alternating
                    // renewal process: MTTR / (MTBF + MTTR).
                    let unavail = if mtbf > 0.0 {
                        mttr_secs / (mtbf + mttr_secs) * 100.0
                    } else {
                        0.0
                    };
                    (i, 1.0, unavail, vec![num(mtbf, 0), num(unavail, 2)])
                })
                .collect(),
        }
    }
}

/// The axes of a figure kind. Every kind is a literal in this file.
fn axes(kind: &str) -> ChartOptions {
    let factor = "shrinking factor";
    let (x_label, y_label, log_y) = match kind {
        "fig1" | "fig3" => (factor, "SLDwA (log scale)", true),
        "fig2" | "fig4" => (factor, "utilization [%]", false),
        "figR" => ("offered booked-area fraction", "acceptance rate [%]", false),
        "figF" => ("machine unavailability [%]", "SLDwA (log scale)", true),
        _ => unreachable!("no axes for figure kind {kind}"),
    };
    ChartOptions {
        log_y,
        y_label,
        x_label,
    }
}

/// Writes `KIND_trace.dat` and draws it as `KIND_trace.svg` when there
/// is an output directory.
fn write_figure(out: Option<&Path>, kind: &str, trace: &str, fig: &FigureData) {
    if let Some(dir) = out {
        let name = format!("{kind}_{}", trace.to_lowercase());
        written(&name, fig.write_dat(dir, &name));
        written(&name, write_chart(fig, &axes(kind), dir, &name));
    }
}

/// Table 1: the simple decider's case analysis, recomputed exactly.
fn table1(_: &CommonArgs) {
    use dynp_core::table1::{render_table1, table1_rows};
    println!("Table 1 — detailed analysis of the simple decider");
    println!("(decisions recomputed by the dynp-core deciders; ** marks the");
    println!(" rows where the simple decider deviates from the correct decision)\n");
    print!("{}", render_table1());
    let wrong: Vec<String> = table1_rows()
        .iter()
        .filter(|r| r.simple_is_wrong)
        .map(|r| format!("{} (old={})", r.case, r.old.name()))
        .collect();
    println!(
        "\nwrong simple-decider decisions: {} rows — {}",
        wrong.len(),
        wrong.join(", ")
    );
    println!("paper: \"In four cases (1, 6b, 8c, and 10c) a wrong decision is made\"");
    println!("(case 1 errs for two of its three old policies, hence 5 rows in 4 cases)");
}

/// Table 2: the measured properties of the synthetic sets beside the
/// published statistics of the original traces.
fn table2(args: &CommonArgs) {
    println!(
        "Table 2 — basic trace properties: measured over {} synthetic sets × {} jobs per trace",
        args.sets, args.jobs
    );
    println!("(\"paper\" rows are the published statistics of the original archive traces)\n");
    let mut table = Table::new(
        "",
        &[
            "trace",
            "source",
            "width min",
            "avg",
            "max",
            "machine",
            "est min[s]",
            "avg",
            "max",
            "act min[s]",
            "avg",
            "max",
            "overest",
            "ia min[s]",
            "avg",
            "max",
            "load",
        ],
    );
    for model in &args.traces {
        // Averaged over the sets the simulation experiments run on.
        let sets = model.generate_sets(args.jobs, args.sets, args.seed);
        let stats: Vec<TraceStats> = sets.iter().map(TraceStats::measure).collect();
        let n = stats.len() as f64;
        let avg = |f: &dyn Fn(&TraceStats) -> f64| stats.iter().map(f).sum::<f64>() / n;
        let minv =
            |f: &dyn Fn(&TraceStats) -> f64| stats.iter().map(f).fold(f64::INFINITY, f64::min);
        let maxv =
            |f: &dyn Fn(&TraceStats) -> f64| stats.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        table.push_row(vec![
            model.name.clone(),
            "ours".into(),
            num(minv(&|s| s.width.min), 0),
            num(avg(&|s| s.width.mean), 2),
            num(maxv(&|s| s.width.max), 0),
            model.machine_size.to_string(),
            num(minv(&|s| s.estimate.min), 0),
            num(avg(&|s| s.estimate.mean), 0),
            num(maxv(&|s| s.estimate.max), 0),
            num(minv(&|s| s.actual.min), 0),
            num(avg(&|s| s.actual.mean), 0),
            num(maxv(&|s| s.actual.max), 0),
            num(avg(&|s| s.overestimation_factor), 3),
            num(minv(&|s| s.interarrival.min), 0),
            num(avg(&|s| s.interarrival.mean), 0),
            num(maxv(&|s| s.interarrival.max), 0),
            num(avg(&|s| s.offered_load), 3),
        ]);
        if let Some(r) = paper_ref::TABLE2.iter().find(|r| r.trace == model.name) {
            table.push_row(vec![
                model.name.clone(),
                "paper".into(),
                num(r.width.0, 0),
                num(r.width.1, 2),
                num(r.width.2, 0),
                r.machine.to_string(),
                num(r.estimate.0, 0),
                num(r.estimate.1, 0),
                num(r.estimate.2, 0),
                num(r.actual.0, 0),
                num(r.actual.1, 0),
                num(r.actual.2, 0),
                num(r.overestimation, 3),
                num(r.interarrival.0, 0),
                num(r.interarrival.1, 0),
                num(r.interarrival.2, 0),
                "-".into(),
            ]);
        }
    }
    print!("{}", table.to_text());
    println!(
        "\nnotes: interarrival averages are calibrated to the paper's measured offered load at"
    );
    println!("shrinking factor 1.0 rather than to the raw trace interarrival (DESIGN.md §4.2);");
    println!("min actual run time is clamped to 1 s (the paper's traces contain 0 s jobs).");
    if let Some(dir) = &args.out {
        written("table2", table.write_csv(dir, "table2"));
        eprintln!("wrote {}/table2.csv", dir.display());
    }
}

/// Table 4 and the data of Figures 1 (SLDwA) and 2 (utilization): the
/// static policies beside the paper's values.
fn table4(exp: &Experiment, result: &ExperimentResult, out: Option<&Path>) {
    let mut table = Table::new(
        format!(
            "Table 4 — SLDwA and utilization of the basic policies ({} jobs × {} sets, drop-min/max average; 'p:' columns are the paper's values)",
            exp.jobs_per_set, exp.sets_per_trace
        ),
        &[
            "trace", "factor",
            "FCFS", "SJF", "LJF", "p:FCFS", "p:SJF", "p:LJF",
            "util FCFS", "SJF", "LJF", "p:FCFS", "p:SJF", "p:LJF",
        ],
    );
    let series = ["FCFS", "SJF", "LJF", "paper_FCFS", "paper_SJF", "paper_LJF"];
    for model in &exp.traces {
        let trace = model.name.as_str();
        let mut fig1 = FigureData::new(
            format!("Figure 1 ({trace}) — SLDwA of FCFS/SJF/LJF vs shrinking factor"),
            &series,
        );
        let mut fig2 = FigureData::new(
            format!("Figure 2 ({trace}) — utilization [%] of FCFS/SJF/LJF vs shrinking factor"),
            &series,
        );
        for &factor in &exp.factors {
            let sld = ["FCFS", "SJF", "LJF"].map(|p| result.sldwa(trace, factor, p));
            let util = ["FCFS", "SJF", "LJF"].map(|p| result.utilization(trace, factor, p) * 100.0);
            let paper = paper_ref::table4(trace, factor);
            let (psld, putil) = paper.map_or(([f64::NAN; 3], [f64::NAN; 3]), |p| (p.sldwa, p.util));
            let mut row = vec![trace.to_string(), num(factor, 1)];
            row.extend([sld, psld, util, putil].concat().iter().map(|&v| num(v, 2)));
            table.push_row(row);
            fig1.push(factor, [sld, psld].concat());
            fig2.push(factor, [util, putil].concat());
        }
        write_figure(out, "fig1", trace, &fig1);
        write_figure(out, "fig2", trace, &fig2);
    }
    print!("{}", table.to_text());
    if let Some(dir) = out {
        written("table4", table.write_csv(dir, "table4"));
        eprintln!(
            "wrote table4.csv and fig1_*/fig2_*.{{dat,svg}} to {}",
            dir.display()
        );
    }
}

/// Table 5 and Table 3 (its per-trace averages) and the data of Figures
/// 3 (SLDwA) and 4 (utilization): dynP's deciders against static SJF,
/// beside the paper's values.
fn table5(exp: &Experiment, result: &ExperimentResult, out: Option<&Path>) {
    let mut table = Table::new(
        format!(
            "Table 5 — dynP (advanced, SJF-preferred) vs static SJF ({} jobs × {} sets; 'p:' columns are the paper's values; positive SLDwA differences are good)",
            exp.jobs_per_set, exp.sets_per_trace
        ),
        &[
            "trace", "factor",
            "SJF", "adv.", "SJF-pref.",
            "Δadv%", "Δpref%", "p:Δadv%", "p:Δpref%",
            "util SJF", "adv.", "SJF-pref.",
            "Δadv", "Δpref", "p:Δadv", "p:Δpref",
        ],
    );
    let mut table3 = Table::new(
        "Table 3 — averages over all shrinking factors (relative SLDwA difference to SJF in %, absolute utilization difference in %-points)",
        &[
            "trace",
            "ΔSLDwA adv%", "ΔSLDwA pref%", "p:adv%", "p:pref%",
            "Δutil adv", "Δutil pref", "p:adv", "p:pref",
        ],
    );
    let series = [
        "SJF",
        "advanced",
        "SJF-preferred",
        "paper_SJF",
        "paper_adv",
        "paper_pref",
    ];
    // Positive = dynP better (smaller slowdown), as in the paper.
    let sld_diffs = |s: [f64; 3]| [(s[0] - s[1]) / s[0] * 100.0, (s[0] - s[2]) / s[0] * 100.0];
    let util_diffs = |u: [f64; 3]| [u[1] - u[0], u[2] - u[0]];
    for model in &exp.traces {
        let trace = model.name.as_str();
        let mut fig3 = FigureData::new(
            format!("Figure 3 ({trace}) — SLDwA of dynP deciders vs SJF"),
            &series,
        );
        let mut fig4 = FigureData::new(
            format!("Figure 4 ({trace}) — utilization [%] of dynP deciders vs SJF"),
            &series,
        );
        let (mut sld_sum, mut util_sum) = ([0.0f64; 2], [0.0f64; 2]);
        for &factor in &exp.factors {
            let sld = ["SJF", ADV, PREF].map(|s| result.sldwa(trace, factor, s));
            let util = ["SJF", ADV, PREF].map(|s| result.utilization(trace, factor, s) * 100.0);
            let (d_sld, d_util) = (sld_diffs(sld), util_diffs(util));
            for (sum, d) in sld_sum
                .iter_mut()
                .zip(d_sld)
                .chain(util_sum.iter_mut().zip(d_util))
            {
                *sum += d;
            }
            let paper = paper_ref::table5(trace, factor);
            let (psld, putil) = paper.map_or(([f64::NAN; 3], [f64::NAN; 3]), |p| (p.sldwa, p.util));
            let (pd_sld, pd_util) = (sld_diffs(psld), util_diffs(putil));
            let mut row = vec![trace.to_string(), num(factor, 1)];
            row.extend(sld.iter().map(|&v| num(v, 2)));
            row.extend([d_sld, pd_sld].concat().iter().map(|&v| signed(v, 2)));
            row.extend(util.iter().map(|&v| num(v, 2)));
            row.extend([d_util, pd_util].concat().iter().map(|&v| signed(v, 2)));
            table.push_row(row);
            fig3.push(factor, [sld, psld].concat());
            fig4.push(factor, [util, putil].concat());
        }
        let nf = exp.factors.len() as f64;
        let p3 = paper_ref::TABLE3.iter().find(|r| r.trace == trace);
        let (psld, putil) = p3.map_or(([f64::NAN; 2], [f64::NAN; 2]), |p| {
            (p.sldwa_diff_pct, p.util_diff_pts)
        });
        let averages = [
            sld_sum.map(|s| s / nf),
            psld,
            util_sum.map(|s| s / nf),
            putil,
        ];
        let mut row = vec![trace.to_string()];
        row.extend(averages.concat().iter().map(|&v| signed(v, 2)));
        table3.push_row(row);
        write_figure(out, "fig3", trace, &fig3);
        write_figure(out, "fig4", trace, &fig4);
    }
    print!("{}", table.to_text());
    println!();
    print!("{}", table3.to_text());
    if let Some(dir) = out {
        written("table5", table.write_csv(dir, "table5"));
        written("table3", table3.write_csv(dir, "table3"));
        eprintln!(
            "wrote table5.csv, table3.csv and fig3_*/fig4_*.{{dat,svg}} to {}",
            dir.display()
        );
    }
}

/// Prints the heading of the shape checks: the paper's qualitative
/// claims, tested on our data.
fn shape_checks() -> impl Fn(&str, bool) {
    println!("\nshape checks (paper's qualitative claims on our data):");
    |label, ok| println!("  [{}] {label}", if ok { "ok" } else { "MISS" })
}

/// The claims §4.3 of the paper derives from Table 4.
fn table4_shapes(run: &[Run]) {
    let (exp, r) = &run[0];
    let check = shape_checks();
    let has = |trace: &str| exp.traces.iter().any(|t| t.name == trace);
    if has("KTH") {
        let ok = exp
            .factors
            .iter()
            .all(|&f| r.sldwa("KTH", f, "SJF") <= r.sldwa("KTH", f, "FCFS"));
        check("KTH: SJF beats FCFS in SLDwA at every workload", ok);
    }
    for trace in ["CTC", "SDSC"] {
        if has(trace) {
            let ok = r.sldwa(trace, 0.6, "SJF") < r.sldwa(trace, 0.6, "FCFS");
            check(
                &format!("{trace}: SJF overtakes FCFS at heavy load (0.6)"),
                ok,
            );
        }
    }
    let every = |ok: &dyn Fn(&str, f64) -> bool| {
        exp.traces
            .iter()
            .all(|t| exp.factors.iter().all(|&f| ok(&t.name, f)))
    };
    check(
        "LJF never has a better SLDwA than SJF",
        every(&|t, f| r.sldwa(t, f, "LJF") >= r.sldwa(t, f, "SJF") - 1e-9),
    );
    check(
        "SJF utilization does not exceed LJF's (±2 pts)",
        every(&|t, f| r.utilization(t, f, "SJF") <= r.utilization(t, f, "LJF") + 0.02),
    );
}

/// The claims the paper derives from Table 5.
fn table5_shapes(run: &[Run]) {
    let (exp, r) = &run[0];
    let check = shape_checks();
    let has = |trace: &str| exp.traces.iter().any(|t| t.name == trace);
    for trace in ["CTC", "SDSC"] {
        if has(trace) {
            let better = |ok: &dyn Fn(f64) -> bool| exp.factors.iter().filter(|&&f| ok(f)).count();
            let sld = better(&|f| r.sldwa(trace, f, PREF) < r.sldwa(trace, f, "SJF"));
            let util = better(&|f| r.utilization(trace, f, PREF) > r.utilization(trace, f, "SJF"));
            check(
                &format!(
                    "{trace}: SJF-preferred improves slowdown AND utilization at most workloads"
                ),
                sld >= 3 && util >= 3,
            );
        }
    }
    if has("KTH") {
        let avg_diff: f64 = exp
            .factors
            .iter()
            .map(|&f| {
                let s = r.sldwa("KTH", f, "SJF");
                (s - r.sldwa("KTH", f, PREF)) / s * 100.0
            })
            .sum::<f64>()
            / exp.factors.len() as f64;
        check(
            "KTH: dynP gains over SJF are small (|avg| < 5%)",
            avg_diff.abs() < 5.0,
        );
    }
}

/// A1's summary: each preferred decider's average SLDwA difference to
/// the advanced one (the first label).
fn preferred_averages(run: &[Run]) {
    let (exp, r) = &run[0];
    println!(
        "\naverage SLDwA difference to dynP[advanced] in % (positive = better than advanced):"
    );
    let advanced = &exp.lineup[0].0;
    for model in &exp.traces {
        let trace = model.name.as_str();
        print!("  {trace:<5}");
        for (label, _) in &exp.lineup[1..] {
            let avg: f64 = exp
                .factors
                .iter()
                .map(|&f| {
                    let adv = r.sldwa(trace, f, advanced);
                    (adv - r.sldwa(trace, f, label)) / adv * 100.0
                })
                .sum::<f64>()
                / exp.factors.len() as f64;
            print!("  {label}: {avg:+.2}%");
        }
        println!();
    }
}

/// A5's invariants. The driver asserts job conservation
/// (`completed + lost == submitted`) on every run, so reaching this
/// line proves it held everywhere; down-node isolation is summed here.
/// CI greps the closing line.
fn fault_invariants(run: &[Run]) {
    let cells = || run.iter().flat_map(|(_, r)| &r.cells);
    let down: u64 = cells().map(|c| c.faults.down_node_allocations).sum();
    let runs: usize = cells().map(|c| c.combined.runs).sum();
    assert_eq!(
        down, 0,
        "chaos invariant violated: a job start landed on a down node"
    );
    println!("\nchaos invariants: job conservation and down-node isolation hold ({runs} runs)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_names_are_unique_and_found() {
        let names: Vec<&str> = studies().iter().map(|s| s.name).collect();
        for name in &names {
            assert_eq!(find(name).map(|s| s.name), Some(*name));
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1);
        }
        assert!(find("table3").is_none());
    }

    #[test]
    fn labels_are_unique_within_each_lineup() {
        for study in studies() {
            let mut labels: Vec<&str> = study.lineup.iter().map(|(l, _)| l.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), study.lineup.len(), "{}", study.name);
        }
    }

    #[test]
    fn every_figure_kind_is_drawn_beside_its_data() {
        let dir = std::env::temp_dir().join(format!("dynp_study_figures_{}", std::process::id()));
        let mut fig = FigureData::new("t", &["a"]);
        fig.push(1.0, vec![2.0]);
        for kind in ["fig1", "fig2", "fig3", "fig4", "figR", "figF"] {
            write_figure(Some(&dir), kind, "CTC", &fig);
            let svg = std::fs::read_to_string(dir.join(format!("{kind}_ctc.svg"))).unwrap();
            assert!(svg.contains(axes(kind).x_label), "{kind}");
            assert!(dir.join(format!("{kind}_ctc.dat")).exists(), "{kind}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wide_table_covers_the_axis_and_the_lineup() {
        let study = find("ablation_reservations").unwrap();
        let args = CommonArgs {
            jobs: 60,
            sets: 1,
            traces: vec![dynp_workload::traces::kth()],
            workers: 1,
            ..CommonArgs::default()
        };
        let base = Experiment::new(args.traces.clone(), study.lineup.clone(), 60, 1);
        let run: Vec<Run> = study
            .axis
            .sweeps(base, &args)
            .into_iter()
            .map(|exp| {
                let result = exp.run();
                (exp, result)
            })
            .collect();
        let Layout::Wide(columns) = &study.layout else {
            panic!("A4r is a wide table")
        };
        let table = study.wide(columns, &run, &args);
        assert_eq!(table.headers.len(), 2 + 3 * 3);
        assert_eq!(table.headers[2], "acc% dynP[simple]");
        assert_eq!(table.rows.len(), 5);
        assert_eq!(table.rows[0][1], "0.00");
        assert_eq!(table.rows[0][2], "100.0", "no stream accepts everything");
    }
}
