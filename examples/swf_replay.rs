//! Replay a Standard Workload Format (SWF) trace — the format of the
//! Parallel Workloads Archive — through the dynP line-up.
//!
//! With no argument, a small embedded SWF fragment is used, so the
//! example is self-contained; pass a path to replay a real archive trace
//! (e.g. `CTC-SP2-1996-3.1-cln.swf`).
//!
//! ```text
//! cargo run --release --example swf_replay [-- /path/to/trace.swf [machine_size]]
//! ```

use dynp_suite::prelude::*;
use dynp_suite::workload::swf;
use std::fs::File;
use std::io::BufReader;

/// A hand-written SWF fragment: 12 jobs on a 64-processor machine with
/// mixed widths and run times (fields: job submit wait run alloc cpu mem
/// reqproc reqtime reqmem status uid gid exe queue partition prec think).
const EMBEDDED: &str = "\
; embedded demo trace
; MaxProcs: 64
 1     0  -1   300  8 -1 -1  8   600 -1 1 1 1 -1 1 -1 -1 -1
 2    60  -1  7200 32 -1 -1 32 14400 -1 1 2 1 -1 1 -1 -1 -1
 3   120  -1   120  1 -1 -1  1   300 -1 1 3 1 -1 1 -1 -1 -1
 4   180  -1   900 16 -1 -1 16  1800 -1 1 1 1 -1 1 -1 -1 -1
 5   200  -1    60  1 -1 -1  1    60 -1 1 4 1 -1 1 -1 -1 -1
 6   240  -1  3600 24 -1 -1 24  7200 -1 1 2 1 -1 1 -1 -1 -1
 7   600  -1  1800  8 -1 -1  8  3600 -1 1 5 1 -1 1 -1 -1 -1
 8   660  -1   600  4 -1 -1  4  1200 -1 1 3 1 -1 1 -1 -1 -1
 9   720  -1 10800 48 -1 -1 48 21600 -1 1 2 1 -1 1 -1 -1 -1
10   900  -1   240  2 -1 -1  2   600 -1 1 4 1 -1 1 -1 -1 -1
11  1200  -1  5400 16 -1 -1 16 10800 -1 1 1 1 -1 1 -1 -1 -1
12  1500  -1   450  8 -1 -1  8   900 -1 1 5 1 -1 1 -1 -1 -1
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set = match args.first() {
        Some(path) => {
            let machine: u32 = args
                .get(1)
                .map(|s| s.parse().expect("machine size must be an integer"))
                .unwrap_or(430);
            let file = File::open(path).expect("cannot open SWF file");
            swf::read_swf(BufReader::new(file), path.clone(), machine).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            })
        }
        None => swf::read_swf(BufReader::new(EMBEDDED.as_bytes()), "embedded", 64)
            .expect("embedded SWF must parse"),
    };

    let stats = dynp_suite::workload::TraceStats::measure(&set);
    println!("{}\n", stats.table2_rows());

    println!(
        "{:<24} {:>8} {:>10} {:>8} {:>10}",
        "scheduler", "SLDwA", "avg wait", "util %", "switches"
    );
    for spec in SchedulerSpec::paper_lineup() {
        let mut scheduler = spec.build();
        let run = simulate(&set, scheduler.as_mut());
        println!(
            "{:<24} {:>8.2} {:>9.0}s {:>8.2} {:>10}",
            run.result.scheduler,
            run.result.metrics.sldwa,
            run.result.metrics.avg_wait_secs,
            run.result.metrics.utilization * 100.0,
            "-",
        );
    }
    println!("\n(download real traces from the Parallel Workloads Archive and pass the");
    println!(".swf path to replay them; widths are clamped to the machine size)");
}
