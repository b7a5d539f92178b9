//! Generic sweep runner: compose any scheduler line-up from the command
//! line and run it over any subset of traces and shrinking factors.
//!
//! ```text
//! cargo run --release -p dynp-sim --bin sweep -- \
//!     --trace CTC --scheduler FCFS --scheduler dynp:preferred:SJF \
//!     --scheduler easy --scheduler dynp:advanced --quick
//! ```
//!
//! Scheduler syntax: see [`dynp_sim::parse_scheduler`] (`dynp` alone is
//! `dynp:advanced`).

use dynp_sim::cli::CommonArgs;
use dynp_sim::report::{num, Table};
use dynp_sim::{parse_scheduler, Experiment, SchedulerSpec};

fn main() {
    let args = CommonArgs::parse();

    // Binary-specific flags come through args.rest: --scheduler SPEC…
    let mut specs: Vec<SchedulerSpec> = Vec::new();
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--scheduler" => {
                let spec_str = rest.next().unwrap_or_else(|| {
                    eprintln!("--scheduler needs a value");
                    std::process::exit(2);
                });
                match parse_scheduler(spec_str) {
                    Ok(s) => specs.push(s),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if specs.is_empty() {
        specs = SchedulerSpec::paper_lineup();
        eprintln!("no --scheduler given; using the paper line-up");
    }
    let names: Vec<String> = specs.iter().map(SchedulerSpec::name).collect();

    let mut exp = Experiment::new(args.traces.clone(), specs, args.jobs, args.sets);
    exp.base_seed = args.seed;
    args.configure_sweep(&mut exp);
    exp.reservations = args.reservation_load();
    exp.faults = args.fault_load();
    let with_reservations = exp.reservations.is_some();
    let with_faults = exp.faults.is_some();
    eprintln!(
        "sweep: {} traces × {} factors × {} schedulers × {} sets = {} runs",
        exp.traces.len(),
        exp.factors.len(),
        exp.schedulers.len(),
        exp.sets_per_trace,
        exp.total_runs()
    );
    let result = exp.run_with_progress(CommonArgs::progress_printer(exp.total_runs()));

    let mut headers: Vec<String> = vec!["trace".into(), "factor".into()];
    headers.extend(names.iter().map(|n| format!("SLDwA {n}")));
    headers.extend(names.iter().map(|n| format!("util% {n}")));
    if with_reservations {
        headers.extend(names.iter().map(|n| format!("res-acc% {n}")));
    }
    if with_faults {
        headers.extend(names.iter().map(|n| format!("lost {n}")));
        headers.extend(names.iter().map(|n| format!("retries {n}")));
    }
    let mut table = Table::new(
        format!("sweep ({} jobs × {} sets)", args.jobs, args.sets),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for model in &exp.traces {
        for &factor in &exp.factors {
            let mut row = vec![model.name.clone(), num(factor, 1)];
            for n in &names {
                row.push(num(result.sldwa(&model.name, factor, n), 2));
            }
            for n in &names {
                row.push(num(result.utilization(&model.name, factor, n) * 100.0, 2));
            }
            if with_reservations {
                for n in &names {
                    let acc = result
                        .get(&model.name, factor, n)
                        .map_or(f64::NAN, |c| c.reservations.acceptance_rate());
                    row.push(num(acc * 100.0, 1));
                }
            }
            if with_faults {
                for n in &names {
                    let lost = result
                        .get(&model.name, factor, n)
                        .map_or(0, |c| c.faults.lost);
                    row.push(format!("{lost}"));
                }
                for n in &names {
                    let retries = result
                        .get(&model.name, factor, n)
                        .map_or(0, |c| c.faults.retries);
                    row.push(format!("{retries}"));
                }
            }
            table.push_row(row);
        }
    }
    print!("{}", table.to_text());

    if let Some(dir) = &args.out {
        table.write_csv(dir, "sweep").expect("write sweep.csv");
        eprintln!("wrote sweep.csv to {}", dir.display());
    }
}
