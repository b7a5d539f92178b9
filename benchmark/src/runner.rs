//! One invocation: set up, measure for `--seconds`, check, report.

use crate::batch::{self, Inputs, Kind, Mode, Pass};
use crate::digest::Digest;
use crate::hostspeed;
use crate::micro;
use crate::procfs;
use crate::report::{Report, DEFAULT_SEED};
use crate::service::{self, Daemon, Schedule, Site, Summary, Window};
use crate::stats;
use dynp_obs::parse::Json;
use dynp_serve::FsyncPolicy;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--workload NAME`.
    pub workload: String,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds N`: how long the timed part measures.
    pub seconds: f64,
    /// `--trace 1` / `--traced`: the per-layer run.
    pub traced: bool,
    /// `--bless`: rewrite `expected/<workload>.seed<S>`.
    pub bless: bool,
}

impl Args {
    /// Parses `--flag value` pairs; unknown flags are errors.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            traced: false,
            bless: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                }
                "--trace" => args.traced = value()? != "0",
                "--traced" => args.traced = true,
                "--bless" => args.bless = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if !(args.seconds > 0.0 && args.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        if !crate::report::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                crate::report::WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// Directory of this crate's files relative to the repository root (the
/// directory the benchmark is run from).
const HOME: &str = "benchmark";

/// How many times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_grid" => run_batch(Kind::PaperGrid, args),
        "deep_queue" => run_batch(Kind::DeepQueue, args),
        "chaos" => run_batch(Kind::Chaos, args),
        "federation" => run_batch(Kind::Federation, args),
        "service_mem" => run_service(false, args),
        "service_wal" => run_service(true, args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Writes `contents` to `benchmark/out/<name>`.
pub fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = Path::new(HOME).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------

/// Builds the inputs and runs the warm-up [`SETUPS`] times; returns the
/// inputs and the median set-up time at nominal host speed.
fn set_up_batch(kind: Kind, seed: u64) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (built, section) = hostspeed::bracketed(|| {
            let inputs = batch::build_inputs(kind, seed, 1);
            batch::warm_up(&inputs);
            inputs
        });
        times.push(section.corrected_ns() / 1e9);
        inputs = Some(built);
    }
    (inputs.expect("SETUPS > 0"), stats::median(&times))
}

/// Compares `digest` with `expected/<workload>.seed<S>` when that file
/// exists (it does for the default seed); `--bless` rewrites it.
fn check_expected(report: &mut Report, args: &Args, digest: Digest) -> Result<(), String> {
    let path = Path::new(HOME)
        .join("expected")
        .join(format!("{}.seed{}", args.workload, args.seed));
    if args.bless {
        std::fs::create_dir_all(path.parent().expect("has a parent")).map_err(|e| e.to_string())?;
        std::fs::write(&path, format!("{}\n", digest.hex())).map_err(|e| e.to_string())?;
        eprintln!("blessed {}", path.display());
    }
    if let Ok(expected) = std::fs::read_to_string(&path) {
        report.check(
            format!("sim_digest {} equals {}", digest.hex(), path.display()),
            expected.trim() == digest.hex(),
        );
    }
    Ok(())
}

fn run_batch(kind: Kind, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, setup_s) = set_up_batch(kind, args.seed);
    let jobs = inputs.jobs() as f64;
    if args.traced {
        batch_layers(&inputs, args, &mut report)?;
        return Ok(report);
    }

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        passes.push(batch::run_pass(&inputs, Mode::Untraced));
    }
    let digest = passes[0].digest;
    let bad = passes
        .iter()
        .filter(|p| !p.conserved || p.digest != digest)
        .count();
    report.check(
        "job conservation in every pass",
        passes.iter().all(|p| p.conserved),
    );
    report.check(
        format!("sim_digest identical across {} passes", passes.len()),
        passes.iter().all(|p| p.digest == digest),
    );
    check_expected(&mut report, args, digest)?;
    report.attempted = inputs.jobs() as u64 * passes.len() as u64;
    report.failed = inputs.jobs() as u64 * bad as u64;

    let wall: Vec<f64> = passes
        .iter()
        .map(|p| p.section.corrected_ns() / 1e9)
        .collect();
    let cpu: Vec<f64> = passes
        .iter()
        .map(|p| p.section.corrected_cpu_ns() / 1e9)
        .collect();
    let n = passes.len();
    report.set("jobs_per_s", jobs / stats::median(&wall), n);
    report.set("job_p50_us", stats::median(&wall) * 1e6 / jobs, n);
    report.set("cpu_us_per_job", stats::median(&cpu) * 1e6 / jobs, n);
    report.set("peak_rss_mb", procfs::peak_rss_mb("self").unwrap_or(0.0), 1);
    report.set("setup_s", setup_s, SETUPS);
    let raw: Vec<f64> = passes.iter().map(|p| p.section.raw_ns / 1e9).collect();
    eprintln!(
        "{}: {n} passes of {jobs} jobs; pass wall median {:.4} s as measured, {:.4} s at nominal host speed (mean relative speed {:.3})",
        kind.name(),
        stats::median(&raw),
        stats::median(&wall),
        passes.iter().map(|p| p.section.speed()).sum::<f64>() / n as f64,
    );
    Ok(report)
}

/// The traced run of a batch workload: an untraced, a timed and a traced
/// pass, the layer split, and the probes of the layers this workload
/// owns.
fn batch_layers(inputs: &Inputs, args: &Args, report: &mut Report) -> Result<(), String> {
    // Three passes, one instrument each. The probe's two clock reads per
    // replan are 8 % of a chaos event but a ten-thousandth of a
    // deep-queue one, whose pass takes seven seconds: there the timed
    // pass doubles as the untraced reference.
    let timed = batch::run_pass(inputs, Mode::Timed);
    let plain = match inputs.kind {
        Kind::DeepQueue => None,
        _ => Some(batch::run_pass(inputs, Mode::Untraced)),
    };
    let plain = plain.as_ref().unwrap_or(&timed);
    let traced = batch::run_pass(inputs, Mode::Traced);
    let passes = [plain, &timed, &traced];
    report.check("job conservation", passes.iter().all(|p| p.conserved));
    report.check(
        "sim_digest identical between the untraced, the timed and the traced pass",
        passes.iter().all(|p| p.digest == plain.digest),
    );
    let counts = |p: &Pass| {
        let allocations = p.section.allocations;
        (p.events, p.replans, p.switches, p.peak_queue, allocations)
    };
    report.check(
        format!(
            "exact counts identical between the untraced and the timed pass ({:?} vs {:?})",
            counts(plain),
            counts(&timed)
        ),
        counts(plain) == counts(&timed),
    );
    check_expected(report, args, plain.digest)?;
    report.attempted = 3 * inputs.jobs() as u64;

    let events = plain.events.max(1) as f64;
    report.set("sim.events", plain.events as f64, 1);
    report.set("core.replans", plain.replans as f64, 1);
    report.set("core.switches", plain.switches as f64, 1);
    report.set("sim.peak_queue", plain.peak_queue as f64, 1);
    report.set("sim.mean_queue", plain.mean_queue, 1);
    report.set(
        "sim.alloc_per_event",
        plain.section.allocations as f64 / events,
        1,
    );
    report.set("sim.federation.epochs", plain.epochs as f64, 1);
    if plain.epochs > 0 {
        report.set(
            "sim.federation.events_per_epoch",
            events / plain.epochs as f64,
            1,
        );
    }

    // The probe's split: replan + driver residual = wall, exactly, at
    // nominal host speed. The federation builds its own schedulers, so
    // its replan time is the traced pass's `replan` spans instead.
    let split = if timed.replan_ns > 0 { &timed } else { &traced };
    let split_wall_ns = split.section.corrected_ns();
    let replan_ns = split.replan_ns as f64 * split.section.speed();
    report.set(
        "core.replan_ns_per_event",
        replan_ns / events,
        split.replans as usize,
    );
    report.set("core.replan_share", replan_ns / split_wall_ns, 1);
    report.set(
        "sim.driver_ns_per_event",
        (split_wall_ns - replan_ns) / events,
        1,
    );

    let speed = traced.section.speed();
    let wall_ns = traced.section.corrected_ns();
    report.set("host.speed", speed, traced.section.speeds.len());

    // The tracer's split: self time per span name, per event.
    let per_event = |name: &str| {
        traced
            .spans
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 * speed / events)
    };
    let count = |name: &str| traced.spans.get(name).map_or(0, |t| t.count as usize);
    report.set("sim.span.event_self_ns", per_event("event"), count("event"));
    report.set(
        "core.span.replan_self_ns",
        per_event("replan"),
        count("replan"),
    );
    report.set(
        "rms.span.prepare_ns",
        per_event("prepare"),
        count("prepare"),
    );
    report.set("rms.span.plan_ns", per_event("plan"), count("plan"));
    report.set(
        "rms.span.admission_self_ns",
        per_event("admission"),
        count("admission"),
    );
    let in_events = traced
        .spans
        .get("event")
        .map_or(0.0, |t| t.total_ns as f64 * speed);
    if in_events > 0.0 {
        report.set("des.loop_residual_ns", (wall_ns - in_events) / events, 1);
    }
    report.set(
        "obs.trace_overhead_pct",
        (wall_ns / plain.section.corrected_ns() - 1.0) * 100.0,
        1,
    );
    report.set("obs.dropped", traced.dropped as f64, 1);
    report.set("obs.records", traced.records as f64, 1);
    report.check("the trace ring dropped nothing", traced.dropped == 0);

    match inputs.kind {
        Kind::PaperGrid => {
            // Reference mode ≡ incremental on one cell (the first).
            let one = Inputs {
                kind: inputs.kind,
                cells: inputs.cells[..1].to_vec(),
                federated: Vec::new(),
            };
            let incremental = batch::run_pass(&one, Mode::Untraced);
            let reference = batch::run_pass(&one, Mode::Reference);
            report.check(
                format!("reference mode ≡ incremental on {}", one.cells[0].label),
                incremental.digest == reference.digest,
            );
            let (inc, reference) = micro::planner_step_ns(64, 31);
            report.set("rms.planner.plan_ns_d64", inc, 31);
            report.set("rms.reference.plan_ns_d64", reference, 31);
            report.set("rms.planner.prepare_ns_r64", micro::prepare_ns(64), 31);
            report.set("rms.planner.prepare_ns_r256", micro::prepare_ns(256), 31);
            report.set("core.decide_ns", micro::decide_ns(), 21);
            report.set(
                "metrics.finalize_ns_per_job",
                micro::finalize_ns_per_job(),
                21,
            );
            report.set(
                "workload.generate_ns_per_job",
                micro::generate_ns_per_job(),
                11,
            );
            report.set(
                "workload.swf_parse_ns_per_job",
                micro::swf_parse_ns_per_job(),
                11,
            );
        }
        Kind::DeepQueue => {
            let (inc, reference) = micro::planner_step_ns(1024, 11);
            report.set("rms.planner.plan_ns_d1024", inc, 11);
            report.set("rms.reference.plan_ns_d1024", reference, 11);
            let (inc, reference) = micro::planner_step_ns(4096, 5);
            report.set("rms.planner.plan_ns_d4096", inc, 5);
            report.set("rms.reference.plan_ns_d4096", reference, 5);
            report.set(
                "rms.planner.fanout_ratio_d4096",
                micro::fanout_ratio_d4096(5),
                5,
            );
        }
        Kind::Chaos => {
            let (heap, calendar) = micro::queue_pair_ns(1_000);
            report.set("des.heap.push_pop_ns_1k", heap, 21);
            report.set("des.calendar.push_pop_ns_1k", calendar, 21);
            let (heap, calendar) = micro::queue_pair_ns(64_000);
            report.set("des.heap.push_pop_ns_64k", heap, 21);
            report.set("des.calendar.push_pop_ns_64k", calendar, 21);
            report.set("rms.state.transition_ns", micro::state_transition_ns(), 21);
            report.set(
                "rms.admission.evaluate_ns",
                micro::admission_evaluate_ns(),
                21,
            );
            let cell = &inputs.cells[0];
            let (snapshot, restore, bytes) = micro::snapshot_costs(&cell.set, &cell.faults);
            report.set("sim.snapshot_ns", snapshot, 11);
            report.set("sim.restore_ns", restore, 11);
            report.set("sim.snapshot_bytes", bytes as f64, 1);
            let model = dynp_workload::FaultModel::typical(20_000.0, 3_600.0, 0.05);
            let ns = micro::median_ns(3, 1, || {
                std::hint::black_box(model.generate(&cell.set, args.seed));
            });
            report.set(
                "workload.fault_plan_ns_per_job",
                ns / cell.set.len() as f64,
                3,
            );
        }
        Kind::Federation => {
            // Alternate the two executors so host drift hits both.
            let mut ratios = Vec::new();
            let mut agree = true;
            for _ in 0..5 {
                let one = batch::run_pass_on(inputs, Mode::Untraced, 1);
                let two = batch::run_pass_on(inputs, Mode::Untraced, 2);
                agree &= one.digest == two.digest && one.digest == plain.digest;
                ratios.push(one.section.raw_ns / two.section.raw_ns);
            }
            report.check("federation on 2 shard threads ≡ 1 thread", agree);
            report.set(
                "sim.federation.t2_ratio",
                stats::median(&ratios),
                ratios.len(),
            );
        }
    }

    if let Some(tail) = &traced.last_trace {
        let path = write_out(
            &format!("{}.trace.json", args.workload),
            &dynp_obs::render_chrome_trace(tail),
        )?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Service workloads
// ---------------------------------------------------------------------

/// Send rate and simulated utilisation of the two service workloads.
///
/// The journal rotates (and the daemon checkpoints) every 1 MiB, which
/// is 19 800 records. At 2 000 submits/s a 10 s window ends within a
/// percent of that, so whether the 3 MB checkpoint was ever built — 5 MB
/// of peak RSS and a 10 ms stall — depended on the seed; at 3 000/s it
/// always is, two thirds of the way through.
fn service_shape(wal: bool) -> (f64, f64) {
    if wal {
        (3_000.0, 0.5)
    } else {
        (4_000.0, 0.9)
    }
}

fn daemon_args(schedule: &Schedule, journal: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--machine",
        &service::MACHINE.to_string(),
        "--scheduler",
        "dynp",
        // Backpressure is not what these workloads measure: no submit
        // may be refused.
        "--max-queue",
        "1000000",
        "--speedup",
        &schedule.speedup.to_string(),
    ]
    .map(String::from)
    .to_vec();
    if let Some(dir) = journal {
        args.extend(["--journal".into(), dir.display().to_string()]);
        args.extend(["--fsync".into(), "rotate".into()]);
    }
    args
}

fn status_u64(status: &Json, key: &str) -> u64 {
    status.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// One daemon, one window, one drain.
struct Session {
    window: Window,
    summary: Summary,
    peak_rss_mb: f64,
    start_s: f64,
}

fn serve_once(
    site: &Site,
    name: &str,
    schedule: &Schedule,
    journal: Option<&Path>,
) -> Result<Session, String> {
    let mut daemon = Daemon::spawn(site, name, &daemon_args(schedule, journal))?;
    let (_, took) = daemon.first_status()?;
    let window = service::open_loop(&daemon, schedule, site.generator_cpus)?;
    let peak_rss_mb = procfs::peak_rss_mb(&daemon.pid()).ok_or("daemon died after the window")?;
    let summary = daemon.shutdown()?;
    Ok(Session {
        window,
        summary,
        peak_rss_mb,
        start_s: took.as_secs_f64(),
    })
}

/// Starts `daemon --recover` on a checkpoint-free copy of `journal` and
/// returns (seconds to its first `status` reply, the `accepted` count it
/// reports).
fn recover_once(site: &Site, name: &str, journal: &Path) -> Result<(f64, u64), String> {
    let copy = site.scratch.join(name);
    service::copy_journal_without_checkpoints(journal, &copy)?;
    let args = [
        "--journal".to_string(),
        copy.display().to_string(),
        "--recover".into(),
    ];
    let mut daemon = Daemon::spawn(site, name, &args)?;
    let (status, took) = daemon.first_status()?;
    let accepted = status_u64(&status, "accepted");
    daemon.shutdown()?;
    Ok((took.as_secs_f64(), accepted))
}

fn run_service(wal: bool, args: &Args) -> Result<Report, String> {
    // Building is not set-up: the first run in a checkout compiles the
    // workspace, every later one finds the binaries current.
    let site = Site::prepare()?;
    let result = run_service_at(&site, wal, args);
    site.clean();
    result
}

fn run_service_at(site: &Site, wal: bool, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (rate, utilisation) = service_shape(wal);

    // Set-up: generate the schedule, start the daemon, first `status`
    // reply. Repeated; the extra daemons are drained at once.
    let mut setups = Vec::new();
    let mut schedule = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let built = Schedule::generate(args.seed, rate, args.seconds, utilisation);
        let journal = wal.then(|| site.scratch.join(format!("setup-journal-{i}")));
        let mut daemon = Daemon::spawn(
            site,
            &format!("setup-{i}"),
            &daemon_args(&built, journal.as_deref()),
        )?;
        daemon.first_status()?;
        setups.push(t.elapsed().as_secs_f64());
        daemon.shutdown()?;
        schedule = Some(built);
    }
    let schedule = schedule.expect("SETUPS > 0");
    let sent = schedule.len() as u64;

    let journal = wal.then(|| site.scratch.join("journal"));
    let session = serve_once(site, "daemon", &schedule, journal.as_deref())?;
    let window = &session.window;
    let summary = &session.summary;

    report.attempted = sent;
    let refused = window.rejected + window.unanswered;
    report.failed = refused + summary.lost + summary.accepted.abs_diff(summary.completed);
    report.check(
        format!("every submit answered and accepted ({sent} sent)"),
        window.accepted == sent && refused == 0,
    );
    report.check("daemon summary: lost = 0", summary.lost == 0);
    report.check(
        "daemon summary: completed = accepted = sent after the drain",
        summary.completed == summary.accepted && summary.accepted == sent,
    );
    if let Some(journal) = &journal {
        let replayed = service::replay_summary(site, journal)?;
        report.check(
            "replay bin summary ≡ daemon summary (counts, SLDwA, fingerprint)",
            replayed == *summary,
        );
        if !args.traced {
            let (_, accepted) = recover_once(site, "recover-check", journal)?;
            report.check(
                format!("recovered accepted ({accepted}) = records journaled ({sent})"),
                accepted == sent,
            );
        }
    }

    let latency = stats::sorted(&window.latency_us);
    if latency.is_empty() {
        return Err("the daemon answered nothing".into());
    }
    let p50 = stats::quantile_sorted(&latency, 0.5);
    eprintln!(
        "{}: {sent} submits at {rate}/s, speedup {} (simulated utilisation {utilisation}); first status after {:.1} ms",
        args.workload,
        schedule.speedup,
        session.start_s * 1e3
    );
    if !args.traced {
        report.set(
            "jobs_per_s",
            latency.len() as f64 / window.elapsed_s,
            latency.len(),
        );
        report.set("job_p50_us", p50, latency.len());
        report.set("cpu_us_per_job", window.daemon_cpu_s * 1e6 / sent as f64, 1);
        report.set("peak_rss_mb", session.peak_rss_mb, 1);
        report.set("setup_s", stats::median(&setups), SETUPS);
        return Ok(report);
    }

    service_layers(
        site,
        wal,
        args,
        &schedule,
        &session,
        journal.as_deref(),
        &mut report,
    )?;
    Ok(report)
}

/// The traced run of a service workload: the same window, read in full,
/// plus direct probes of the layers on the daemon's path.
fn service_layers(
    site: &Site,
    wal: bool,
    args: &Args,
    schedule: &Schedule,
    session: &Session,
    journal: Option<&Path>,
    report: &mut Report,
) -> Result<(), String> {
    let window = &session.window;
    let latency = stats::sorted(&window.latency_us);
    let n = latency.len();
    let p50 = stats::quantile_sorted(&latency, 0.5);
    report.set("serve.admit_p50_us", p50, n);
    // p99 of a 10 s window has hundreds of samples beyond it; a short
    // `--seconds` falls back to what the sample supports.
    let tail = stats::highest_percentile(n).map_or(0.5, |q| q.min(0.99));
    report.set(
        "serve.admit_p99_us",
        stats::quantile_sorted(&latency, tail),
        n,
    );
    report.set("serve.admit_max_us", latency[n - 1], n);
    let lag = stats::sorted(&window.lag_us);
    report.set(
        "serve.gen_lag_p99_us",
        stats::quantile_sorted(&lag, 0.99),
        lag.len(),
    );
    report.set("serve.backlog_at_end", window.backlog_at_end as f64, 1);

    let (parse, render) = micro::proto_ns();
    report.set("serve.proto.parse_ns", parse, 21);
    report.set("serve.proto.render_ns", render, 21);
    let rtt = micro::inproc_submit_rtt_ns(schedule.speedup, 5_000);
    report.set("serve.inproc.submit_rtt_ns", rtt, 5_000);
    report.set("serve.wire_residual_us", p50 - rtt / 1e3, 1);

    if !wal {
        report.set("serve.knee_eps", knee(site, args)?, 1);
        return Ok(());
    }
    let journal = journal.expect("the WAL workload has a journal");
    for (name, policy, n) in [
        ("serve.journal.append_ns_never", FsyncPolicy::Never, 5_000),
        (
            "serve.journal.append_ns_rotate",
            FsyncPolicy::OnRotate,
            5_000,
        ),
        ("serve.journal.append_ns_always", FsyncPolicy::Always, 200),
    ] {
        let ns = micro::journal_append_ns(&site.scratch, policy, n);
        report.set(name, ns, n as usize);
        if policy == FsyncPolicy::Always {
            report.set("serve.fsync_always_p50_us", ns / 1e3, n as usize);
        }
    }
    let costs = micro::journal_read_costs(journal, &site.scratch)?;
    report.set(
        "serve.journal.read_ns_per_record",
        costs.read_ns_per_record,
        5,
    );
    report.set("serve.replay_ns_per_record", costs.replay_ns_per_record, 3);
    report.set("serve.checkpoint.bytes", costs.checkpoint_bytes as f64, 1);
    report.set("serve.checkpoint.load_ns", costs.checkpoint_load_ns, 5);
    report.set("serve.checkpoint.write_ns", costs.checkpoint_write_ns, 5);

    let mut recoveries = Vec::new();
    let mut all_recovered = true;
    for i in 0..5 {
        let (took, accepted) = recover_once(site, &format!("recover-{i}"), journal)?;
        all_recovered &= accepted == schedule.len() as u64;
        recoveries.push(took);
    }
    report.check(
        "recovered accepted = records journaled, five times",
        all_recovered,
    );
    report.set(
        "serve.recover_s",
        stats::median(&recoveries),
        recoveries.len(),
    );
    report.set("serve.recover_records", schedule.len() as f64, 1);
    Ok(())
}

/// The rate ladder: ×2 from 2 000 submits/s, 1.5 s a rung, each rung a
/// fresh daemon whose `--speedup` keeps the simulated utilisation at
/// 0.9. The knee is the highest rate whose p99 stays within 2 ms and
/// whose backlog when the last request left is within 1 % of those sent.
fn knee(site: &Site, args: &Args) -> Result<f64, String> {
    let mut knee = 0.0;
    for (i, rate) in [2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0]
        .into_iter()
        .enumerate()
    {
        let schedule = Schedule::generate(args.seed.wrapping_add(i as u64 + 1), rate, 1.5, 0.9);
        let session = serve_once(site, &format!("rung-{i}"), &schedule, None)?;
        let window = &session.window;
        let latency = stats::sorted(&window.latency_us);
        let sent = schedule.len() as u64;
        let holds = !latency.is_empty()
            && window.accepted == sent
            && stats::quantile_sorted(&latency, 0.99) <= 2_000.0
            && window.backlog_at_end * 100 <= sent;
        eprintln!(
            "knee rung {rate}/s: p99 {:.0} us, backlog at end {} of {sent}: {}",
            latency
                .last()
                .map_or(0.0, |_| stats::quantile_sorted(&latency, 0.99)),
            window.backlog_at_end,
            if holds { "holds" } else { "breaks" }
        );
        if !holds {
            break;
        }
        knee = rate;
    }
    Ok(knee)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = Args::parse(&argv(&[
            "--workload",
            "chaos",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "chaos".into(),
                seed: 7,
                seconds: 10.0,
                traced: true,
                bless: false
            }
        );
        let a = Args::parse(&argv(&["--workload", "paper_grid", "--trace", "0"])).unwrap();
        assert_eq!((a.seed, a.traced), (DEFAULT_SEED, false));
        assert!(Args::parse(&argv(&["--workload", "nope"])).is_err());
        assert!(Args::parse(&argv(&["--workload", "chaos", "--seconds", "0"])).is_err());
        assert!(Args::parse(&argv(&["--workload", "chaos", "--frobnicate"])).is_err());
        assert!(Args::parse(&argv(&["--seed"])).is_err());
    }
}
