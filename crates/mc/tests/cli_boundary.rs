//! No command line panics `model_check`: a malformed value, an
//! out-of-range one, a scenario the scenario builder cannot build and an
//! unknown flag each exit 2 with the usage and a message naming the
//! flag, and `--help` exits 0.

use std::process::{Command, Output};

const MODEL_CHECK: &str = env!("CARGO_BIN_EXE_model_check");

fn run(args: &[&str]) -> Output {
    Command::new(MODEL_CHECK)
        .args(args)
        .output()
        .expect("spawn model_check")
}

#[test]
fn bad_command_lines_exit_2_naming_the_flag() {
    let rejected: &[(&[&str], &str)] = &[
        (&["--nodes", "0"], "--nodes"),
        (&["--nodes", "1"], "--faults"),
        (&["--nodes", "1", "--faults", "2"], "--faults"),
        (&["--jobs", "x"], "--jobs"),
        (&["--depth"], "--depth"),
        (&["--strategy", "astar"], "--strategy"),
        (&["--scheduler", "round-robin"], "--scheduler"),
        (&["--bogus"], "--bogus"),
    ];
    for (args, names) in rejected {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(stderr.contains(names), "{case}");
        assert!(stderr.contains("usage:"), "{case}");
        assert!(!stderr.contains("panicked"), "{case}");
    }
}

#[test]
fn help_exits_0_and_a_one_node_machine_without_outages_is_checked() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage:"));

    let out = run(&["--nodes", "1", "--faults", "0", "--jobs", "2", "--res", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}
