//! No command line panics a `dynp-serve` bin: a malformed value, an
//! out-of-range one and an unknown flag each exit 2 with the usage and a
//! message naming the flag, before a daemon starts, and `--help` exits
//! 0.

use dynp_des::{SimDuration, SimTime};
use dynp_serve::{FsyncPolicy, JournalWriter};
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

/// A journal whose checksummed submit fails the job gate — width 0,
/// wider than its header's 16 processors, estimate 0, actual past the
/// estimate — is refused by `replay` with exit 1 and the field named,
/// never replayed into a planner panic.
#[test]
fn replay_refuses_a_journal_the_gate_refuses() {
    let ms = SimDuration::from_millis;
    for (width, estimate, actual, names) in [
        (0, 1000, 1000, "width 0 "),
        (17, 1000, 1000, "width 17 "),
        (u32::MAX, 1000, 1000, "width 4294967295 "),
        (4, 0, 0, "estimate_ms 0 "),
        (4, 1000, 1001, "actual_ms 1001 "),
    ] {
        let dir = std::env::temp_dir().join(format!("dynp_cli_replay_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer =
            JournalWriter::create(&dir, 16, 1, "dynp", FsyncPolicy::Never, 1 << 20).unwrap();
        writer
            .append_submit(SimTime::ZERO, 0, 0, width, ms(estimate), ms(actual))
            .unwrap();
        writer.sync().unwrap();
        drop(writer);
        let out = run(REPLAY, &["--journal", dir.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{names}: {stderr}");
        assert!(stderr.contains(names), "{names}: {stderr}");
        assert!(!stderr.contains("panicked"), "{names}: {stderr}");
        std::fs::remove_dir_all(&dir).unwrap();
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
