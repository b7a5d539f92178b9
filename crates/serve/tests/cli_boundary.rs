//! No command line panics a `dynp-serve` bin: a malformed value, an
//! out-of-range one and an unknown flag each exit 2 with the usage and a
//! message naming the flag, before a daemon starts, and `--help` exits
//! 0.

use std::process::{Command, Output, Stdio};

const DAEMON: &str = env!("CARGO_BIN_EXE_daemon");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const REPLAY: &str = env!("CARGO_BIN_EXE_replay");

fn run(bin: &str, args: &[&str]) -> Output {
    // stdin at EOF: a daemon that wrongly started would drain and exit.
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn the bin")
}

/// (bin, command line, what the error must name)
const REJECTED: &[(&str, &[&str], &str)] = &[
    (DAEMON, &["--machine", "0"], "--machine"),
    (DAEMON, &["--machine", "-4"], "--machine"),
    (DAEMON, &["--max-queue", "x"], "--max-queue"),
    (DAEMON, &["--speedup", "0"], "--speedup"),
    (DAEMON, &["--scheduler", "round-robin"], "--scheduler"),
    (DAEMON, &["--fsync", "sometimes"], "--fsync"),
    (DAEMON, &["--quota", "16"], "--quota"),
    (DAEMON, &["--quota", "16:x"], "--quota BURST"),
    (DAEMON, &["--recover"], "--journal"),
    (DAEMON, &["--bogus"], "--bogus"),
    (LOADGEN, &["--rate", "nan"], "--rate"),
    (LOADGEN, &["--rate", "100,0"], "--rate"),
    (LOADGEN, &["--rate", ""], "--rate"),
    (LOADGEN, &["--duration", "-1"], "--duration"),
    (LOADGEN, &["--duration", "inf"], "--duration"),
    (LOADGEN, &["--workers", "0"], "--workers"),
    (LOADGEN, &["--users", "0"], "--users"),
    (LOADGEN, &["--departure", "2"], "--departure"),
    (LOADGEN, &["--zipf", "nan"], "--zipf"),
    (LOADGEN, &["--rate", "100"], "--connect"),
    // The daemon's own flags are the daemon bin's, not the load's.
    (LOADGEN, &["--connect", "s", "--machine", "64"], "--machine"),
    (
        LOADGEN,
        &["--connect", "s", "--quota", "16:8000"],
        "--quota",
    ),
    (REPLAY, &[], "--journal"),
    (REPLAY, &["--journal"], "--journal"),
    (
        REPLAY,
        &["--journal", "j", "--scheduler", "x"],
        "--scheduler",
    ),
    (REPLAY, &["--bogus"], "--bogus"),
];

#[test]
fn bad_command_lines_exit_2_naming_the_flag() {
    for (bin, args, names) in REJECTED {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{bin} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(stderr.contains(names), "{case}");
        assert!(stderr.contains("usage:"), "{case}");
        assert!(!stderr.contains("panicked"), "{case}");
    }
}

#[test]
fn help_prints_the_usage() {
    for bin in [DAEMON, LOADGEN, REPLAY] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
    }
}
