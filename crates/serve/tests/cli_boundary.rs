//! No command line panics a `dynp-serve` bin: a malformed value, an
//! out-of-range one and an unknown flag each exit 2 with the usage and a
//! message naming the flag, before a daemon starts, and `--help` exits
//! 0.

use dynp_des::{SimDuration, SimTime};
use dynp_serve::{FsyncPolicy, JournalRecord, JournalWriter};
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

/// One journaled command of a test journal: a submit `(job, width,
/// estimate_ms, actual_ms)` or a cancel of a job.
enum Rec {
    Submit(u32, u32, u64, u64),
    Cancel(u32),
}

/// A journal `replay` must refuse with exit 1 and the reason named, never
/// replayed into a planner panic: a checksummed submit that fails the job
/// gate — width 0, wider than its header's 16 processors, estimate 0,
/// actual past the estimate — or records the admission path could not
/// have written, a skipped job id or a cancel of a job never submitted.
#[test]
fn replay_refuses_a_journal_the_gate_refuses() {
    use Rec::{Cancel, Submit};
    let ms = SimDuration::from_millis;
    let rows: &[(&[Rec], &str)] = &[
        (&[Submit(0, 0, 1000, 1000)], "width 0 "),
        (&[Submit(0, 17, 1000, 1000)], "width 17 "),
        (&[Submit(0, u32::MAX, 1000, 1000)], "width 4294967295 "),
        (&[Submit(0, 4, 0, 0)], "estimate_ms 0 "),
        (&[Submit(0, 4, 1000, 1001)], "actual_ms 1001 "),
        (
            &[Submit(0, 4, 1000, 1000), Submit(2, 4, 1000, 1000)],
            "non-dense job ids: expected 1, found 2",
        ),
        (
            &[Submit(0, 4, 1000, 1000), Cancel(5)],
            "cancel of unknown job 5",
        ),
    ];
    for (records, names) in rows {
        let dir = std::env::temp_dir().join(format!("dynp_cli_replay_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer =
            JournalWriter::create(&dir, 16, 1, "dynp", FsyncPolicy::Never, 1 << 20).unwrap();
        for rec in *records {
            match *rec {
                Submit(job, width, estimate, actual) => writer
                    .append_submit(SimTime::ZERO, job, 0, width, ms(estimate), ms(actual))
                    .unwrap(),
                Cancel(job) => {
                    let (seq, stamp) = (writer.next_seq(), SimTime::ZERO);
                    writer
                        .append(&JournalRecord::Cancel { seq, stamp, job })
                        .unwrap()
                }
            };
        }
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
