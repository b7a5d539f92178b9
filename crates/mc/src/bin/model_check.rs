//! Command-line model checker for the chaos + reservation protocols.
//!
//! Explores every reachable same-instant interleaving of a small
//! scenario, checking each state with `dynp_sim::check_state`.
//! On violation: shrinks the scenario to a 1-minimal counterexample,
//! writes a replayable report (and a `dynp-obs` trace next to it when
//! `--counterexample` is given), and exits non-zero.
//!
//! ```text
//! model_check --nodes 2 --jobs 3 --faults 1 --res 1 \
//!             --strategy dfs --scheduler dynp --depth 256 \
//!             --counterexample target/mc-counterexample.txt
//! ```

use dynp_mc::{
    explore, replay, scheduler_factory, shrink, ExploreConfig, Scenario, ScenarioConfig,
    SchedulerFactory, Strategy,
};
use dynp_obs::{write_jsonl, TraceLevel, Tracer};
use dynp_sim::cli::Flags;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: model_check [--nodes N] [--jobs N] [--faults N] [--res N]
                   [--depth N] [--max-states N] [--strategy dfs|bfs]
                   [--scheduler SPEC] [--counterexample PATH]";

struct Args {
    cfg: ScenarioConfig,
    explore: ExploreConfig,
    scheduler: String,
    make: SchedulerFactory,
    counterexample: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut cfg = ScenarioConfig {
        nodes: 2,
        jobs: 3,
        outages: 1,
        reservations: 1,
    };
    let mut explore = ExploreConfig::default();
    let mut scheduler = "dynp".to_string();
    let mut counterexample = None;

    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--nodes" => cfg.nodes = flags.positive(&flag),
            "--jobs" => cfg.jobs = flags.num(&flag),
            "--faults" => cfg.outages = flags.num(&flag),
            "--res" => cfg.reservations = flags.num(&flag),
            "--depth" => explore.max_depth = flags.num(&flag),
            "--max-states" => explore.max_states = flags.num(&flag),
            "--strategy" => {
                let raw = flags.value(&flag);
                explore.strategy = Strategy::parse(&raw).unwrap_or_else(|| {
                    flags.bail(&format!("--strategy expects dfs or bfs, got {raw:?}"))
                });
            }
            "--scheduler" => scheduler = flags.value(&flag),
            "--counterexample" => counterexample = Some(PathBuf::from(flags.value(&flag))),
            other => flags.unknown(other),
        }
    }
    if cfg.outages > 0 && cfg.nodes < 2 {
        flags.bail("--faults needs --nodes 2 or more: the last usable node cannot go down");
    }
    let make = scheduler_factory(&scheduler)
        .unwrap_or_else(|why| flags.bail(&format!("--scheduler: {why}")));
    Args {
        cfg,
        explore,
        scheduler,
        make,
        counterexample,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let make = &args.make;
    let scenario = Scenario::build(&args.cfg);

    println!(
        "model_check: scenario {} scheduler {} strategy {:?} depth {} max-states {}",
        scenario.name,
        args.scheduler,
        args.explore.strategy,
        args.explore.max_depth,
        args.explore.max_states
    );
    let result = explore(&scenario, make.as_ref(), &args.explore);
    let s = result.stats;
    println!(
        "explored {} states ({} deduplicated, {} terminal, {} truncated, peak frontier {})",
        s.explored, s.deduplicated, s.terminal_states, s.truncated, s.peak_frontier
    );

    let Some(violation) = result.violation else {
        println!("no violations");
        return ExitCode::SUCCESS;
    };

    println!(
        "VIOLATION of {} after schedule {:?}: {}",
        violation.invariant, violation.schedule, violation.detail
    );
    println!("shrinking...");
    let shrunk = shrink(&scenario, &violation, make.as_ref(), &args.explore);
    println!(
        "shrunk: removed {} element(s) in {} exploration(s); minimal scenario has {} element(s)",
        shrunk.removed.len(),
        shrunk.attempts,
        shrunk.scenario.size()
    );

    let (events, trace, panicked) = replay(
        &shrunk.scenario,
        make.as_ref(),
        &shrunk.violation.schedule,
        Tracer::enabled(TraceLevel::All),
    );

    let mut report = String::new();
    {
        use std::fmt::Write as _;
        let _ = writeln!(report, "invariant: {}", shrunk.violation.invariant);
        let _ = writeln!(report, "detail:    {}", shrunk.violation.detail);
        let _ = writeln!(report, "schedule:  {:?}", shrunk.violation.schedule);
        let _ = writeln!(
            report,
            "fifo:      {} (all-zero schedule replays through simulate_chaos)",
            shrunk.violation.is_fifo()
        );
        let _ = writeln!(report, "removed:   {:?}", shrunk.removed);
        let _ = write!(report, "{}", shrunk.scenario.describe());
        let _ = writeln!(report, "replayed events:");
        for (t, ev) in &events {
            let _ = writeln!(report, "  {:>8}ms {ev:?}", t.as_millis());
        }
        if let Some(p) = panicked {
            let _ = writeln!(report, "replay panicked: {p}");
        }
    }
    print!("{report}");

    if let Some(path) = &args.counterexample {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("failed to write {}: {e}", path.display());
        } else {
            println!("counterexample written to {}", path.display());
        }
        let trace_path = path.with_extension("trace.jsonl");
        match write_jsonl(&trace, &trace_path) {
            Ok(()) => println!("trace written to {}", trace_path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", trace_path.display()),
        }
    }
    ExitCode::FAILURE
}
