//! SWF parser robustness corpus: every fixture under `tests/fixtures/`
//! is a hostile or degenerate input, and the parser must answer each
//! with a typed [`SwfError`] (carrying the offending line number) or a
//! documented skip — never a panic, wrap, or silent mis-parse.

use dynp_workload::swf::{read_swf, SwfError};
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

fn fixture(name: &str) -> BufReader<File> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    BufReader::new(File::open(&path).unwrap_or_else(|e| panic!("open {}: {e}", path.display())))
}

/// Asserts the fixture fails with `Malformed` at the given 1-based line.
fn assert_malformed_at(name: &str, line: usize) {
    match read_swf(fixture(name), name, 128) {
        Err(SwfError::Malformed { line: l, reason }) => {
            assert_eq!(l, line, "{name}: wrong line in {reason:?}")
        }
        other => panic!("{name}: expected Malformed, got {other:?}"),
    }
}

#[test]
fn truncated_record_reports_its_line() {
    assert_malformed_at("truncated_record.swf", 2);
}

#[test]
fn non_numeric_field_reports_its_line() {
    assert_malformed_at("non_numeric_field.swf", 1);
}

#[test]
fn out_of_range_timestamps_are_rejected_not_wrapped() {
    // Values that would overflow the seconds → milliseconds scale.
    assert_malformed_at("huge_timestamp.swf", 2);
    assert_malformed_at("huge_estimate.swf", 1);
    // Representable, but past the job bound (`Job::check`).
    assert_malformed_at("unbounded_durations.swf", 4);
}

#[test]
fn job_times_are_held_to_the_bound() {
    // 2^35 ms is 34 359 738.368 s; submit times may reach 2^48 ms.
    let line = |submit: &str, run: &str, req: &str| {
        format!("1 {submit} -1 {run} 4 -1 -1 4 {req} -1 1 -1 -1 -1 -1 -1 -1 -1\n")
    };
    let read = |text: String| read_swf(text.as_bytes(), "bound", 4);
    let at = "34359738.368";
    let over = "34359738.369";
    assert!(read(line("0", at, at)).is_ok());
    assert!(read(line("281474976710.656", "10", "10")).is_ok());
    for (text, field) in [
        (line("0", over, at), "actual_ms"),
        (line("0", "10", over), "estimate_ms"),
        (line("281474976710.657", "10", "10"), "submit_ms"),
    ] {
        match read(text) {
            Err(SwfError::Malformed { line: 1, reason }) => {
                assert!(reason.contains(field), "{reason}")
            }
            other => panic!("{field}: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn invalid_utf8_is_a_typed_io_error() {
    match read_swf(fixture("binary_garbage.swf"), "garbage", 128) {
        Err(SwfError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn well_formed_but_unusable_records_are_skipped_not_errors() {
    let set =
        read_swf(fixture("all_records_skipped.swf"), "skips", 128).expect("skips are not errors");
    assert_eq!(set.len(), 0);
}
