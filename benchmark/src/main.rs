//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload W
//! [--seed S] [--seconds N] [--trace 0|1] [--bless]`, from the repository
//! root. The last line of standard output is the result as one JSON
//! object; the table for people goes to standard error.

use dynp_benchmark::alloc::CountingAlloc;
use dynp_benchmark::runner::{self, Args};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    match runner::run(&args) {
        Ok(mut report) => {
            let line = report.render_json(args.traced);
            eprint!("{}", report.render_table());
            if args.traced {
                let name = format!("{}.layers.json", args.workload);
                match runner::write_out(&name, &report.render_layers_json()) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(why) => eprintln!("{why}"),
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{}: {why}", args.workload);
            ExitCode::from(1)
        }
    }
}
