//! A miniature version of the paper's full evaluation: one trace, all
//! five shrinking factors, the complete scheduler line-up, multiple job
//! sets combined with the drop-min/max rule — Table 4 and Table 5 in one
//! screen at example scale.
//!
//! ```text
//! cargo run --release --example mini_evaluation [-- TRACE]
//! ```

use dynp_suite::prelude::*;

fn main() {
    let trace = std::env::args().nth(1).unwrap_or_else(|| "SDSC".into());
    let model = dynp_suite::workload::traces::by_name(&trace)
        .unwrap_or_else(|| panic!("unknown trace {trace:?} (use CTC, KTH, LANL or SDSC)"));

    let lineup = SchedulerSpec::paper_lineup()
        .into_iter()
        .map(|spec| (spec.name(), spec))
        .collect();
    let mut experiment = Experiment::new(
        vec![model],
        lineup,
        1_200, // jobs per set (example scale; the paper uses 10,000)
        4,     // sets per trace (the paper uses 10)
    );
    experiment.base_seed = 99;

    eprintln!(
        "running {} simulations ({} trace × {} factors × {} schedulers × {} sets)…",
        experiment.total_runs(),
        experiment.traces.len(),
        experiment.factors.len(),
        experiment.lineup.len(),
        experiment.sets_per_trace,
    );
    let result = experiment.run();

    let names: Vec<&String> = experiment.lineup.iter().map(|(name, _)| name).collect();

    println!("\nSLDwA (slowdown weighted by area — lower is better), trace {trace}:");
    print!("{:>7}", "factor");
    for n in &names {
        print!(" {n:>20}");
    }
    println!();
    for &factor in &experiment.factors {
        print!("{factor:>7.1}");
        for n in &names {
            print!(" {:>20.2}", result.sldwa(&trace, factor, n));
        }
        println!();
    }

    println!("\nutilization [%] (higher is better):");
    print!("{:>7}", "factor");
    for n in &names {
        print!(" {n:>20}");
    }
    println!();
    for &factor in &experiment.factors {
        print!("{factor:>7.1}");
        for n in &names {
            print!(" {:>20.2}", result.utilization(&trace, factor, n) * 100.0);
        }
        println!();
    }

    println!("\nexpected shape (cf. the paper): LJF trades slowdown for utilization, SJF");
    println!("the reverse; dynP with either decider should track or beat the best static");
    println!("policy on slowdown while recovering most of the utilization gap.");
}
