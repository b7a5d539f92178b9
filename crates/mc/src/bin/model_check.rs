//! Command-line model checker for the chaos + reservation protocols.
//!
//! Explores every reachable same-instant interleaving of a small
//! scenario, checking the standard invariant battery at each state.
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
    explore, replay, scheduler_factory, shrink, standard, ExploreConfig, Scenario, ScenarioConfig,
    Strategy,
};
use dynp_obs::{write_jsonl, TraceLevel, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cfg: ScenarioConfig,
    explore: ExploreConfig,
    scheduler: String,
    counterexample: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: model_check [--nodes N] [--jobs N] [--faults N] [--res N]\n\
         \x20                  [--depth N] [--max-states N] [--strategy dfs|bfs]\n\
         \x20                  [--scheduler SPEC] [--counterexample PATH]"
    );
    std::process::exit(2);
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

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--nodes" => cfg.nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--jobs" => cfg.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--faults" => cfg.outages = value("--faults").parse().unwrap_or_else(|_| usage()),
            "--res" => cfg.reservations = value("--res").parse().unwrap_or_else(|_| usage()),
            "--depth" => explore.max_depth = value("--depth").parse().unwrap_or_else(|_| usage()),
            "--max-states" => {
                explore.max_states = value("--max-states").parse().unwrap_or_else(|_| usage())
            }
            "--strategy" => {
                explore.strategy = Strategy::parse(&value("--strategy")).unwrap_or_else(|| {
                    eprintln!("unknown strategy (expected dfs or bfs)");
                    usage();
                })
            }
            "--scheduler" => scheduler = value("--scheduler"),
            "--counterexample" => counterexample = Some(PathBuf::from(value("--counterexample"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    Args {
        cfg,
        explore,
        scheduler,
        counterexample,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let make = scheduler_factory(&args.scheduler).unwrap_or_else(|why| {
        eprintln!("error: {why}");
        std::process::exit(2);
    });
    let invariants = standard();
    let scenario = Scenario::build(&args.cfg);

    println!(
        "model_check: scenario {} scheduler {} strategy {:?} depth {} max-states {}",
        scenario.name,
        args.scheduler,
        args.explore.strategy,
        args.explore.max_depth,
        args.explore.max_states
    );
    let result = explore(&scenario, make.as_ref(), &invariants, &args.explore);
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
    let shrunk = shrink(
        &scenario,
        &violation,
        make.as_ref(),
        &invariants,
        &args.explore,
    );
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
