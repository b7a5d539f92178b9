//! The `replay` bin: re-derives a daemon summary from a journal alone.
//!
//! ```text
//! cargo run --release -p dynp-serve --bin replay -- --journal DIR
//! ```
//!
//! Reads the journal directory a daemon wrote, rebuilds the scheduler
//! from the header's recipe (override with `--scheduler` if needed),
//! replays every journaled command through the batch DES driver, and
//! prints the same summary JSON line the daemon prints at drain. A
//! daemon session and its journal replay are bit-identical by
//! construction — same accepted/completed counts, same SLDwA, same
//! fingerprint — which is exactly what the CI crash-recovery job
//! asserts by diffing the two lines.

use dynp_serve::{parse_scheduler, read_journal, render_summary, replay_records};
use dynp_sim::cli::Flags;
use std::path::PathBuf;

const USAGE: &str = "\
usage: replay --journal DIR [--scheduler SPEC]

  --journal DIR    journal directory written by the daemon
  --scheduler SPEC override the scheduler recipe recorded in the journal
                   header (FCFS|SJF|LJF|easy[:P]|dynp[...])";

fn main() {
    let mut journal: Option<PathBuf> = None;
    let mut scheduler = None;
    let mut flags = Flags::from_env(USAGE);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--journal" => journal = Some(PathBuf::from(flags.value(&flag))),
            "--scheduler" => scheduler = Some(flags.scheduler(&flag)),
            other => flags.unknown(other),
        }
    }
    let Some(dir) = journal else {
        flags.bail("--journal DIR is required");
    };
    let journal = read_journal(&dir).unwrap_or_else(|e| {
        eprintln!("cannot read journal {}: {e}", dir.display());
        std::process::exit(1);
    });
    if journal.torn_at.is_some() {
        eprintln!(
            "replay: note: journal has a torn tail (crash mid-append); \
             replaying the {} complete records",
            journal.records.len()
        );
    }
    let spec = scheduler.unwrap_or_else(|| {
        parse_scheduler(&journal.scheduler).unwrap_or_else(|why| flags.bail(&why))
    });
    // Rejection counters are zero because rejected submissions are
    // (deliberately) not journaled.
    let report =
        replay_records(journal.machine_size, &journal.records, &spec).unwrap_or_else(|e| {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        });
    println!("{}", render_summary(&report));
}
