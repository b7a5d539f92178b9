//! Runs one study of the reproduction: a table of the paper or an
//! ablation (`dynp_sim::study`).
//!
//! ```text
//! cargo run --release -p dynp-sim --bin experiment -- table4 --quick --out results
//! cargo run --release -p dynp-sim --bin experiment -- sweep --trace CTC \
//!     --scheduler FCFS --scheduler dynp:preferred:SJF --quick
//! experiment STUDY --help     # the flags the study reads
//! ```

use dynp_sim::cli::{usage, CommonArgs, Flags};
use dynp_sim::study::{find, studies};

fn main() {
    let names: Vec<&str> = studies().iter().map(|s| s.name).collect();
    let mut flags = Flags::from_env(format!(
        "usage: experiment STUDY [flags]\n\nstudies: {}\n\
         `experiment STUDY --help` lists the flags a study reads",
        names.join(" ")
    ));
    let Some(name) = flags.next_flag() else {
        flags.bail("name a study");
    };
    let Some(study) = find(&name) else {
        flags.bail(&format!("unknown study {name:?}"));
    };
    let mut flags = flags.with_usage(usage(
        &format!("usage: experiment {name} [flags]"),
        &study.flags,
    ));
    let args = CommonArgs::read(&mut flags, &study.flags, |_, _| false);
    study.run(&args);
}
