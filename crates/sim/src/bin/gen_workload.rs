//! Workload export tool: generate synthetic job sets and write them as
//! Standard Workload Format files, so any other simulator (or a later
//! run of this one) can consume the exact inputs.
//!
//! ```text
//! cargo run --release -p dynp-sim --bin gen_workload -- \
//!     --trace CTC --jobs 10000 --sets 3 --shrink 0.8 --out workloads
//! cargo run --release -p dynp-sim --bin gen_workload -- --lublin --jobs 5000
//! ```

use dynp_sim::cli::{usage, CommonArgs, Flags};
use dynp_workload::lublin::LublinModel;
use dynp_workload::{swf, transform, TraceStats};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

const ACCEPTS: &[&str] = &["--jobs", "--sets", "--quick", "--trace", "--seed", "--out"];

fn main() {
    let mut flags = Flags::from_env(usage(
        "usage: gen_workload [--shrink F] [--lublin] [flags]\n  \
         --shrink F           scale interarrival times by F (default 1)\n  \
         --lublin             generate from the Lublin model instead of the traces\n  \
         (--out defaults to workloads)",
        ACCEPTS,
    ));
    let mut shrink_factor = 1.0f64;
    let mut use_lublin = false;
    let args = CommonArgs::read(&mut flags, ACCEPTS, |flags, flag| {
        match flag {
            "--shrink" => shrink_factor = flags.positive(flag),
            "--lublin" => use_lublin = true,
            _ => return false,
        }
        true
    });
    let out_dir = args.out.as_deref().unwrap_or(Path::new("workloads"));
    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("error: cannot write {what}: {e}");
        std::process::exit(1);
    };
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| fail(&out_dir.display().to_string(), e));

    let sets = if use_lublin {
        LublinModel::default().generate_sets(args.jobs, args.sets, args.seed)
    } else {
        args.traces
            .iter()
            .flat_map(|m| m.generate_sets(args.jobs, args.sets, args.seed))
            .collect()
    };

    for set in sets {
        let scaled = if (shrink_factor - 1.0).abs() > 1e-12 {
            transform::shrink(&set, shrink_factor)
        } else {
            set
        };
        let fname = format!("{}.swf", scaled.name.replace('/', "_").replace('@', "_x"));
        let path = out_dir.join(&fname);
        File::create(&path)
            .and_then(|file| swf::write_swf(&scaled, BufWriter::new(file)))
            .unwrap_or_else(|e| fail(&path.display().to_string(), e));
        println!(
            "{} -> {} ({} jobs)",
            TraceStats::measure(&scaled).table2_rows(),
            path.display(),
            scaled.len()
        );
    }
}
