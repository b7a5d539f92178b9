//! Standard Workload Format (SWF) I/O.
//!
//! The Parallel Workload Archive — the source of the paper's CTC, KTH,
//! LANL and SDSC inputs — distributes traces in SWF: one job per line,
//! 18 whitespace-separated integer fields, with `;` header comments. This
//! module reads and writes the format so the harness can run on real
//! archive traces instead of (or alongside) the synthetic models.
//!
//! Field map used here (1-based SWF field numbers):
//!
//! | # | SWF field            | use                                    |
//! |---|----------------------|----------------------------------------|
//! | 1 | job number           | ignored (ids are re-assigned densely)  |
//! | 2 | submit time (s)      | [`Job::submit`]                        |
//! | 4 | run time (s)         | [`Job::actual`]                        |
//! | 5 | allocated processors | fallback width                         |
//! | 8 | requested processors | [`Job::width`] (preferred)             |
//! | 9 | requested time (s)   | [`Job::estimate`]                      |
//!
//! Jobs with unknown (`-1`) width or no usable run time are skipped —
//! the archive's own tooling does the same. When the requested time is
//! unknown the actual run time is used as the estimate (a perfect
//! estimate), matching common simulator practice.
//!
//! ## Fractional seconds
//!
//! Archive traces carry integer seconds, but the synthetic generators
//! draw their instants and run times as `f64` seconds and keep them at
//! millisecond resolution, so a generated set lands between second
//! boundaries. Job time fields are therefore read as (possibly
//! fractional) seconds and kept at millisecond resolution, and the
//! writer emits a fractional field (3 decimals) exactly when the value
//! is not a whole second — so files written from integer-second data
//! stay in the archive's integer form, while a generated set (what
//! `gen_workload` writes) reads back job for job, to the millisecond.

use crate::job::{Job, JobId, JobSet};
use dynp_des::{SimDuration, SimTime};
use std::io::{self, BufRead, Write};

/// Formats `ms` as SWF seconds: a plain integer when whole (the archive
/// format, byte-identical to the previous writer), otherwise with
/// exactly 3 decimals so the millisecond value survives the round trip.
fn fmt_secs(ms: u64) -> String {
    if ms.is_multiple_of(1000) {
        format!("{}", ms / 1000)
    } else {
        format!("{}.{:03}", ms / 1000, ms % 1000)
    }
}

/// Converts a non-negative seconds field to millisecond ticks, rounding
/// to the nearest millisecond. `None` when a `u64` cannot hold it; the
/// job bounds are the gate's to check.
fn secs_to_ms(v: f64) -> Option<u64> {
    let ms = (v * 1000.0).round();
    (0.0..u64::MAX as f64).contains(&ms).then_some(ms as u64)
}

/// Errors raised while parsing an SWF stream.
#[derive(Debug)]
pub enum SwfError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A non-comment line had fewer than 9 fields or a non-numeric field.
    Malformed {
        /// 1-based line number in the input.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::Io(e) => write!(f, "I/O error: {e}"),
            SwfError::Malformed { line, reason } => {
                write!(f, "malformed SWF line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// A [`SwfError::Malformed`] at the 0-based line `lineno`.
fn malformed(lineno: usize, reason: String) -> SwfError {
    SwfError::Malformed {
        line: lineno + 1,
        reason,
    }
}

impl From<io::Error> for SwfError {
    fn from(e: io::Error) -> Self {
        SwfError::Io(e)
    }
}

/// Parses an SWF stream into a job set for a machine of `machine_size`
/// processors. Jobs wider than the machine are clamped to it (archive
/// traces occasionally exceed the configured partition).
pub fn read_swf(
    reader: impl BufRead,
    name: impl Into<String>,
    machine_size: u32,
) -> Result<JobSet, SwfError> {
    let mut jobs = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() < 9 {
            let reason = format!("expected >= 9 fields, got {}", fields.len());
            return Err(malformed(lineno, reason));
        }
        let parse = |idx: usize| -> Result<f64, SwfError> {
            fields[idx].parse::<f64>().map_err(|_| {
                malformed(
                    lineno,
                    format!("field {} is not numeric: {:?}", idx + 1, fields[idx]),
                )
            })
        };
        let submit = parse(1)?;
        let run = parse(3)?;
        let alloc = parse(4)? as i64;
        let req_procs = parse(7)? as i64;
        let req_time = parse(8)?;

        let width = if req_procs > 0 { req_procs } else { alloc };
        if width <= 0 || run < 0.0 || submit < 0.0 {
            continue; // unusable record, skip like the archive tools do
        }
        // Times keep millisecond resolution: archive traces only ever
        // carry whole seconds, generated sets carry millisecond instants.
        let ms = |what: &str, secs: f64| {
            secs_to_ms(secs)
                .ok_or_else(|| malformed(lineno, format!("{what} out of range: {secs}")))
        };
        let actual = SimDuration::from_millis(ms("run time", run)?);
        let estimate = if req_time > 0.0 {
            SimDuration::from_millis(ms("requested time", req_time)?)
        } else {
            actual
        };
        let submit = SimTime::from_millis(ms("submit time", submit)?);
        // Clamp before narrowing: a field wider than the machine (or
        // even u32) is the documented clamp case, never a silent wrap.
        let width = (width as u64).min(machine_size as u64) as u32;
        let id = JobId(jobs.len() as u32);
        let job = Job::try_new(id, submit, width, estimate, actual, machine_size)
            .map_err(|e| malformed(lineno, e.to_string()))?;
        jobs.push(job);
    }
    Ok(JobSet::new(name, machine_size, jobs))
}

/// Writes a job set as SWF. Fields this model does not carry (user, group,
/// queue, …) are emitted as `-1`, as the format prescribes.
pub fn write_swf(set: &JobSet, mut writer: impl Write) -> io::Result<()> {
    writeln!(writer, "; generated by dynp-workload")?;
    writeln!(writer, "; MaxProcs: {}", set.machine_size)?;
    writeln!(writer, "; Jobs: {}", set.len())?;
    for job in set.jobs() {
        // job, submit, wait, run, alloc, cpu, mem, reqproc, reqtime,
        // reqmem, status, uid, gid, exe, queue, partition, prec, think
        writeln!(
            writer,
            "{} {} -1 {} {} -1 -1 {} {} -1 1 -1 -1 -1 -1 -1 -1 -1",
            job.id.0 + 1,
            fmt_secs(job.submit.as_millis()),
            fmt_secs(job.actual.as_millis()),
            job.width,
            job.width,
            fmt_secs(job.estimate.as_millis()),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const SAMPLE: &str = "\
; Sample SWF header
; MaxProcs: 128
1 0 10 100 4 -1 -1 4 200 -1 1 5 5 -1 1 -1 -1 -1
2 50 0 3600 -1 -1 -1 16 7200 -1 1 5 5 -1 1 -1 -1 -1
3 60 0 -1 8 -1 -1 8 100 -1 0 5 5 -1 1 -1 -1 -1
4 70 0 500 32 -1 -1 -1 -1 -1 1 5 5 -1 1 -1 -1 -1
";

    #[test]
    fn parses_jobs_and_skips_unusable_records() {
        let set = read_swf(BufReader::new(SAMPLE.as_bytes()), "sample", 128).unwrap();
        // job 3 has run time -1 → skipped; jobs 1, 2, 4 survive.
        assert_eq!(set.len(), 3);
        let j0 = &set.jobs()[0];
        assert_eq!(j0.submit, SimTime::from_secs(0));
        assert_eq!(j0.width, 4);
        assert_eq!(j0.actual, SimDuration::from_secs(100));
        assert_eq!(j0.estimate, SimDuration::from_secs(200));
        // job 4 has no requested processors → falls back to allocated (32),
        // and no requested time → estimate = actual.
        let j2 = &set.jobs()[2];
        assert_eq!(j2.width, 32);
        assert_eq!(j2.estimate, j2.actual);
    }

    #[test]
    fn actual_clamped_to_estimate_on_underestimating_traces() {
        // run time 7200 > requested 3600: planning RMS kills at estimate.
        let line = "1 0 0 7200 4 -1 -1 4 3600 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let set = read_swf(BufReader::new(line.as_bytes()), "t", 64).unwrap();
        assert_eq!(set.jobs()[0].actual, SimDuration::from_secs(3600));
    }

    #[test]
    fn width_clamps_to_machine() {
        let line = "1 0 0 10 512 -1 -1 512 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let set = read_swf(BufReader::new(line.as_bytes()), "t", 128).unwrap();
        assert_eq!(set.jobs()[0].width, 128);
    }

    #[test]
    fn malformed_line_is_an_error() {
        let bad = "1 2 3\n";
        let err = read_swf(BufReader::new(bad.as_bytes()), "t", 4).unwrap_err();
        match err {
            SwfError::Malformed { line, .. } => assert_eq!(line, 1),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn non_numeric_field_is_an_error() {
        let bad = "1 abc 0 10 4 -1 -1 4 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        assert!(read_swf(BufReader::new(bad.as_bytes()), "t", 4).is_err());
    }

    #[test]
    fn fractional_seconds_round_trip_at_millisecond_fidelity() {
        let jobs = vec![
            Job::new(
                JobId(0),
                SimTime::from_millis(1_234),
                4,
                SimDuration::from_millis(90_500),
                SimDuration::from_millis(60_001),
            ),
            Job::new(
                JobId(1),
                SimTime::from_millis(2_000),
                8,
                SimDuration::from_millis(3_600_000),
                SimDuration::from_millis(1),
            ),
        ];
        let set = JobSet::new("session", 64, jobs);
        let mut buf = Vec::new();
        write_swf(&set, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        // Fractional only where needed: whole seconds stay integers.
        assert!(text.contains("1.234"), "fractional submit lost: {text}");
        assert!(
            text.contains(" 2 "),
            "whole-second submit gained a fraction"
        );
        let again = read_swf(BufReader::new(buf.as_slice()), "session", 64).unwrap();
        assert_eq!(set.len(), again.len());
        for (a, b) in set.jobs().iter().zip(again.jobs()) {
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.actual, b.actual);
        }
    }

    #[test]
    fn fmt_secs_matches_integer_writer_on_whole_seconds() {
        assert_eq!(fmt_secs(0), "0");
        assert_eq!(fmt_secs(1000), "1");
        assert_eq!(fmt_secs(1), "0.001");
        assert_eq!(fmt_secs(1500), "1.500");
        assert_eq!(fmt_secs(59_999), "59.999");
    }

    #[test]
    fn round_trip_preserves_jobs() {
        let set = read_swf(BufReader::new(SAMPLE.as_bytes()), "sample", 128).unwrap();
        let mut buf = Vec::new();
        write_swf(&set, &mut buf).unwrap();
        let again = read_swf(BufReader::new(buf.as_slice()), "sample", 128).unwrap();
        assert_eq!(set.len(), again.len());
        for (a, b) in set.jobs().iter().zip(again.jobs()) {
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.width, b.width);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.actual, b.actual);
        }
    }
}
