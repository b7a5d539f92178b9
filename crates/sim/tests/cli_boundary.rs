//! No command line panics a `dynp-sim` bin, and none is half read:
//! a malformed value, an out-of-range one and a flag the bin does not
//! read each exit 2 with the usage and a message naming the flag, and
//! `--help` exits 0 without running anything.

use std::process::{Command, Output, Stdio};

const EXPERIMENT: &str = env!("CARGO_BIN_EXE_experiment");
const HISTORY: &str = env!("CARGO_BIN_EXE_history_report");
const GEN: &str = env!("CARGO_BIN_EXE_gen_workload");
const FEDERATION: &str = env!("CARGO_BIN_EXE_federation");
const TRACE_REPORT: &str = env!("CARGO_BIN_EXE_trace_report");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn the bin")
}

/// (bin, command line, what the error must name)
const REJECTED: &[(&str, &[&str], &str)] = &[
    (HISTORY, &["--shrink", "x"], "--shrink"),
    (HISTORY, &["--shrink", "0"], "--shrink"),
    (HISTORY, &["--shrink", "-1"], "--shrink"),
    (HISTORY, &["--shrink", "nan"], "--shrink"),
    (HISTORY, &["--shrink", "inf"], "--shrink"),
    (HISTORY, &["--scheduler", "FCFS"], "--scheduler"),
    (HISTORY, &["--scheduler", "dynp:oracle"], "--scheduler"),
    (HISTORY, &["--decider", "simple"], "--decider"),
    (HISTORY, &["--sets", "3"], "--sets"),
    (HISTORY, &["--trace-ring", "0"], "--trace-ring"),
    (HISTORY, &["--trace-level", "verbose"], "--trace-level"),
    (
        HISTORY,
        &["--jobs", "50", "--trace", "CTC", "--trace", "KTH"],
        "given twice",
    ),
    (
        HISTORY,
        &[
            "--jobs",
            "50",
            "--scheduler",
            "dynp",
            "--scheduler",
            "dynp:simple",
        ],
        "given twice",
    ),
    (GEN, &["--shrink", "0"], "--shrink"),
    (GEN, &["--shrink", "inf"], "--shrink"),
    (GEN, &["--out-dir", "w"], "--out-dir"),
    (GEN, &["--jobs", "0"], "--jobs"),
    (EXPERIMENT, &[], "study"),
    (EXPERIMENT, &["table3"], "table3"),
    (EXPERIMENT, &["table1", "--out", "r"], "--out"),
    (
        EXPERIMENT,
        &[
            "table2", "--jobs", "10", "--sets", "1", "--job", "5", "--bogus",
        ],
        "--job",
    ),
    (EXPERIMENT, &["table2", "--workers", "2"], "--workers"),
    (
        EXPERIMENT,
        &["table4", "--res-fraction", "0.2"],
        "--res-fraction",
    ),
    (EXPERIMENT, &["table4", "--trace-out", "t"], "--trace-out"),
    (EXPERIMENT, &["table4", "--jobs"], "--jobs"),
    (EXPERIMENT, &["table5", "--scheduler", "SJF"], "--scheduler"),
    (EXPERIMENT, &["ablation_faults", "--mtbf", "5"], "--mtbf"),
    (
        EXPERIMENT,
        &["ablation_reservations", "--res-fraction", "0.1"],
        "--res-fraction",
    ),
    (EXPERIMENT, &["sweep", "--scheduler", "nope"], "--scheduler"),
    (EXPERIMENT, &["sweep", "--trace", "nope"], "--trace"),
    (EXPERIMENT, &["sweep", "--sets", "0"], "--sets"),
    (
        EXPERIMENT,
        &["sweep", "--res-fraction", "1.5"],
        "--res-fraction",
    ),
    (
        EXPERIMENT,
        &["sweep", "--res-fraction", "nan"],
        "--res-fraction",
    ),
    (EXPERIMENT, &["sweep", "--mtbf", "-1"], "--mtbf"),
    (EXPERIMENT, &["sweep", "--mttr", "0"], "--mttr"),
    (
        EXPERIMENT,
        &["sweep", "--crash-prob", "0.9"],
        "--crash-prob",
    ),
    (FEDERATION, &["--clusters", "0"], "--clusters"),
    (FEDERATION, &["--link-latency", "0"], "--link-latency"),
    (
        FEDERATION,
        &["--migration-factor", "x"],
        "--migration-factor",
    ),
    (FEDERATION, &["--route-policy", "nearest"], "--route-policy"),
    (FEDERATION, &["--out", "r"], "--out"),
    (FEDERATION, &["--trace", "nope"], "--trace"),
    (
        FEDERATION,
        &["--jobs", "50", "--trace", "KTH", "--trace", "SDSC"],
        "given twice",
    ),
    // Thread counts are not settings: a sweep plans on one thread per
    // run, a federation runs its shards in turn. (The trailing bad value
    // ends a build that still takes the flag before it runs anything.)
    (
        EXPERIMENT,
        &["table4", "--planner-threads", "2", "--jobs", "0"],
        "unknown flag \"--planner-threads\"",
    ),
    (
        FEDERATION,
        &["--shard-threads", "2", "--clusters", "0"],
        "unknown flag \"--shard-threads\"",
    ),
    (TRACE_REPORT, &[], "trace file"),
    (TRACE_REPORT, &["--bogus", "t.jsonl"], "--bogus"),
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
fn help_prints_the_usage_and_runs_nothing() {
    let cases: &[(&str, &[&str])] = &[
        (EXPERIMENT, &["--help"]),
        (EXPERIMENT, &["table1", "--help"]),
        (EXPERIMENT, &["table4", "--help"]),
        (EXPERIMENT, &["sweep", "--jobs", "10", "-h"]),
        (HISTORY, &["--help"]),
        (GEN, &["--help"]),
        (FEDERATION, &["--help"]),
        (TRACE_REPORT, &["--help"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}");
        assert!(stdout.starts_with("usage:"), "{bin} {args:?}: {stdout}");
        assert!(!stdout.contains("Table"), "{bin} {args:?} ran: {stdout}");
    }
    let sweep = run(EXPERIMENT, &["sweep", "--help"]);
    let usage = String::from_utf8_lossy(&sweep.stdout);
    assert!(usage.contains("--scheduler SPEC") && usage.contains("--mtbf S"));
    let table1 = run(EXPERIMENT, &["table1", "--help"]);
    assert!(!String::from_utf8_lossy(&table1.stdout).contains("--jobs"));
}

/// `federation --trace-out BASE` writes `BASE.cluster{i}.jsonl`, one per
/// cluster, and no `BASE.jsonl` or Chrome trace: its help says so.
#[test]
fn federation_help_names_the_files_its_trace_out_writes() {
    let out = run(FEDERATION, &["--help"]);
    let usage = String::from_utf8_lossy(&out.stdout);
    let line = usage
        .lines()
        .find(|l| l.trim_start().starts_with("--trace-out"))
        .expect("a --trace-out line");
    assert!(line.contains("BASE.cluster{i}.jsonl"), "{line}");
    assert!(!usage.contains("BASE.trace.json"), "{usage}");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("federation_trace_out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let base = dir.join("fed").to_str().expect("a UTF-8 path").to_string();
    let ran = run(
        FEDERATION,
        &["--jobs", "20", "--clusters", "2", "--trace-out", &base],
    );
    assert_eq!(ran.status.code(), Some(0), "{ran:?}");
    for i in 0..2 {
        assert!(dir.join(format!("fed.cluster{i}.jsonl")).is_file());
    }
    assert!(!dir.join("fed.jsonl").exists() && !dir.join("fed.trace.json").exists());
}

#[test]
fn a_study_runs_at_the_scale_its_flags_select() {
    let out = run(
        EXPERIMENT,
        &["table2", "--jobs", "50", "--sets", "1", "--trace", "KTH"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("measured over 1 synthetic sets × 50 jobs"));
    assert!(stdout.contains("KTH") && !stdout.contains("CTC"));
}
