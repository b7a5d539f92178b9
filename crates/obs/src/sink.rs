//! Trace sinks: JSONL (the machine-readable audit log) and the Chrome
//! trace-event format (`chrome://tracing` / Perfetto-loadable spans).
//!
//! Both formats are written by hand — the workspace deliberately vendors
//! a no-op serde — and the JSONL format is the contract
//! [`crate::parse`] reads back (pinned by round-trip tests).

use crate::event::{TraceEvent, TraceRecord};
use crate::tracer::TraceSnapshot;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// Writes an f64 as JSON: the shortest round-trip decimal, or `null` for
/// non-finite values (which JSON cannot carry).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // Bare integers like `3` are valid JSON numbers; keep them as-is.
    } else {
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal — the
/// one escaper behind the trace sinks and the `dynp-serve` reply lines.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one record as a single JSONL line (no trailing newline).
pub fn render_jsonl_line(rec: &TraceRecord) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"seq\":{},\"sim_ms\":{},\"wall_ns\":{},\"type\":",
        rec.seq,
        rec.sim.as_millis(),
        rec.wall_ns
    );
    push_str(&mut out, rec.event.type_tag());
    match &rec.event {
        TraceEvent::SimEvent { kind, id } => {
            out.push_str(",\"kind\":");
            push_str(&mut out, kind);
            let _ = write!(out, ",\"id\":{id}");
        }
        TraceEvent::PlanBuilt {
            policy,
            queue_depth,
            profile_points,
            workers,
            dur_ns,
        } => {
            out.push_str(",\"policy\":");
            push_str(&mut out, policy);
            let _ = write!(
                out,
                ",\"queue_depth\":{queue_depth},\"profile_points\":{profile_points},\"workers\":{workers},\"dur_ns\":{dur_ns}"
            );
        }
        TraceEvent::Decision {
            old,
            verdict,
            rule,
            scores,
        } => {
            out.push_str(",\"old\":");
            push_str(&mut out, old);
            out.push_str(",\"verdict\":");
            push_str(&mut out, verdict);
            out.push_str(",\"rule\":");
            push_str(&mut out, rule);
            out.push_str(",\"scores\":{");
            for (i, (policy, score)) in scores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str(&mut out, policy);
                out.push(':');
                push_f64(&mut out, *score);
            }
            out.push('}');
        }
        TraceEvent::PolicySwitch { from, to } => {
            out.push_str(",\"from\":");
            push_str(&mut out, from);
            out.push_str(",\"to\":");
            push_str(&mut out, to);
        }
        TraceEvent::AdmissionVerdict { request, verdict } => {
            let _ = write!(out, ",\"request\":{request},\"verdict\":");
            push_str(&mut out, verdict);
        }
        TraceEvent::BackfillMove {
            job,
            width,
            overtaken,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"width\":{width},\"overtaken\":{overtaken}"
            );
        }
        TraceEvent::Span { name, dur_ns } => {
            out.push_str(",\"name\":");
            push_str(&mut out, name);
            let _ = write!(out, ",\"dur_ns\":{dur_ns}");
        }
        TraceEvent::NodeDown { node } | TraceEvent::NodeUp { node } => {
            let _ = write!(out, ",\"node\":{node}");
        }
        TraceEvent::JobFault {
            job,
            attempt,
            reason,
        } => {
            let _ = write!(out, ",\"job\":{job},\"attempt\":{attempt},\"reason\":");
            push_str(&mut out, reason);
        }
        TraceEvent::JobRetry {
            job,
            attempt,
            delay_ms,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"attempt\":{attempt},\"delay_ms\":{delay_ms}"
            );
        }
        TraceEvent::JobLost { job, attempts } => {
            let _ = write!(out, ",\"job\":{job},\"attempts\":{attempts}");
        }
        TraceEvent::ReservationRepair {
            reservation,
            action,
            width,
        } => {
            let _ = write!(out, ",\"reservation\":{reservation},\"action\":");
            push_str(&mut out, action);
            let _ = write!(out, ",\"width\":{width}");
        }
        TraceEvent::JobRouted {
            job,
            from,
            to,
            transfer_ms,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"from\":{from},\"to\":{to},\"transfer_ms\":{transfer_ms}"
            );
        }
        TraceEvent::MigrateDepart { job, from, to }
        | TraceEvent::MigrateArrive { job, from, to } => {
            let _ = write!(out, ",\"job\":{job},\"from\":{from},\"to\":{to}");
        }
        TraceEvent::CheckpointWritten { journal_seq, bytes } => {
            let _ = write!(out, ",\"journal_seq\":{journal_seq},\"bytes\":{bytes}");
        }
        TraceEvent::CheckpointLoaded {
            journal_seq,
            replayed,
        } => {
            let _ = write!(
                out,
                ",\"journal_seq\":{journal_seq},\"replayed\":{replayed}"
            );
        }
        TraceEvent::JournalRotated { segment, bytes } => {
            let _ = write!(out, ",\"segment\":{segment},\"bytes\":{bytes}");
        }
        TraceEvent::QuotaRejected { user, queue_depth } => {
            let _ = write!(out, ",\"user\":{user},\"queue_depth\":{queue_depth}");
        }
    }
    out.push('}');
    out
}

/// Renders a whole snapshot as JSONL text (one record per line). A
/// `#dropped` comment-style header line is prepended when the ring buffer
/// overflowed, so consumers know the trace is a suffix.
pub fn render_jsonl(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    if snapshot.dropped > 0 {
        let _ = writeln!(
            out,
            "{{\"seq\":null,\"type\":\"meta\",\"dropped\":{}}}",
            snapshot.dropped
        );
    }
    for rec in &snapshot.records {
        out.push_str(&render_jsonl_line(rec));
        out.push('\n');
    }
    out
}

/// Writes the snapshot as JSONL to `path`.
pub fn write_jsonl(snapshot: &TraceSnapshot, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(render_jsonl(snapshot).as_bytes())?;
    file.flush()
}

/// Renders the snapshot in the Chrome trace-event format: a JSON object
/// with a `traceEvents` array, loadable in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
///
/// Span-like records ([`TraceEvent::Span`], [`TraceEvent::PlanBuilt`])
/// become complete (`"ph":"X"`) events on the wall-clock timeline with
/// their duration; everything else becomes an instant (`"ph":"i"`)
/// event. Timestamps are microseconds since tracer creation; the
/// simulation time of each record rides along in `args.sim_ms` so the
/// two clocks can be correlated.
pub fn render_chrome_trace(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for rec in &snapshot.records {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_us = rec.wall_ns as f64 / 1_000.0;
        match &rec.event {
            TraceEvent::Span { name, dur_ns } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{ts_us},\
                     \"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{}}}}}",
                    *dur_ns as f64 / 1_000.0,
                    rec.sim.as_millis()
                );
            }
            TraceEvent::PlanBuilt {
                policy,
                queue_depth,
                profile_points,
                workers,
                dur_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"plan:{policy}\",\"cat\":\"plan\",\"ph\":\"X\",\"ts\":{ts_us},\
                     \"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"queue_depth\":{queue_depth},\"profile_points\":{profile_points},\
                     \"workers\":{workers}}}}}",
                    *dur_ns as f64 / 1_000.0,
                    rec.sim.as_millis()
                );
            }
            TraceEvent::Decision {
                old, verdict, rule, ..
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"decide\",\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"old\":\"{old}\",\"verdict\":\"{verdict}\",\"rule\":\"{rule}\"}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::PolicySwitch { from, to } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"switch {from}->{to}\",\"cat\":\"decision\",\"ph\":\"i\",\
                     \"s\":\"g\",\"ts\":{ts_us},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"sim_ms\":{}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::AdmissionVerdict { request, verdict } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"admission:{verdict}\",\"cat\":\"admission\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"sim_ms\":{},\"request\":{request}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::SimEvent { kind, id } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"event:{kind}\",\"cat\":\"dispatch\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"sim_ms\":{},\"id\":{id}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::BackfillMove {
                job,
                width,
                overtaken,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"backfill:j{job}\",\"cat\":\"dispatch\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"width\":{width},\"overtaken\":{overtaken}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::NodeDown { node } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"node_down:n{node}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"sim_ms\":{},\"node\":{node}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::NodeUp { node } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"node_up:n{node}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"sim_ms\":{},\"node\":{node}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::JobFault {
                job,
                attempt,
                reason,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"fault:{reason}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"job\":{job},\"attempt\":{attempt}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::JobRetry {
                job,
                attempt,
                delay_ms,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"retry:j{job}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"attempt\":{attempt},\"delay_ms\":{delay_ms}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::JobLost { job, attempts } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"lost:j{job}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"attempts\":{attempts}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::ReservationRepair {
                reservation,
                action,
                width,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"repair:{action}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"reservation\":{reservation},\"width\":{width}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::JobRouted {
                job,
                from,
                to,
                transfer_ms,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"route:j{job}\",\"cat\":\"federation\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"from\":{from},\"to\":{to},\"transfer_ms\":{transfer_ms}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::MigrateDepart { job, from, to } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"migrate_depart:j{job}\",\"cat\":\"federation\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"from\":{from},\"to\":{to}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::MigrateArrive { job, from, to } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"migrate_arrive:j{job}\",\"cat\":\"federation\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"from\":{from},\"to\":{to}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::CheckpointWritten { journal_seq, bytes } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"checkpoint\",\"cat\":\"durability\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"journal_seq\":{journal_seq},\"bytes\":{bytes}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::CheckpointLoaded {
                journal_seq,
                replayed,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"ckpt_load\",\"cat\":\"durability\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"journal_seq\":{journal_seq},\"replayed\":{replayed}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::JournalRotated { segment, bytes } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"rotate:s{segment}\",\"cat\":\"durability\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"bytes\":{bytes}}}}}",
                    rec.sim.as_millis()
                );
            }
            TraceEvent::QuotaRejected { user, queue_depth } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"quota:u{user}\",\"cat\":\"durability\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts_us},\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{},\
                     \"queue_depth\":{queue_depth}}}}}",
                    rec.sim.as_millis()
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the snapshot as a Chrome trace to `path`.
pub fn write_chrome_trace(snapshot: &TraceSnapshot, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(render_chrome_trace(snapshot).as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimTime;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            sim: SimTime::from_secs(seq),
            wall_ns: seq * 1_000,
            event,
        }
    }

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            records: vec![
                rec(
                    0,
                    TraceEvent::SimEvent {
                        kind: "arrive",
                        id: 3,
                    },
                ),
                rec(
                    1,
                    TraceEvent::PlanBuilt {
                        policy: "SJF",
                        queue_depth: 4,
                        profile_points: 9,
                        workers: 2,
                        dur_ns: 777,
                    },
                ),
                rec(
                    2,
                    TraceEvent::Decision {
                        old: "FCFS",
                        verdict: "SJF",
                        rule: "argmin",
                        scores: vec![("FCFS", 3.5), ("SJF", 1.25), ("LJF", 2.0)],
                    },
                ),
                rec(
                    3,
                    TraceEvent::PolicySwitch {
                        from: "FCFS",
                        to: "SJF",
                    },
                ),
                rec(
                    4,
                    TraceEvent::AdmissionVerdict {
                        request: 2,
                        verdict: "no-capacity",
                    },
                ),
                rec(
                    5,
                    TraceEvent::BackfillMove {
                        job: 11,
                        width: 2,
                        overtaken: 1,
                    },
                ),
                rec(
                    6,
                    TraceEvent::Span {
                        name: "step",
                        dur_ns: 12_345,
                    },
                ),
                rec(7, TraceEvent::NodeDown { node: 5 }),
                rec(8, TraceEvent::NodeUp { node: 5 }),
                rec(
                    9,
                    TraceEvent::JobFault {
                        job: 11,
                        attempt: 1,
                        reason: "node-loss",
                    },
                ),
                rec(
                    10,
                    TraceEvent::JobRetry {
                        job: 11,
                        attempt: 1,
                        delay_ms: 300_000,
                    },
                ),
                rec(
                    11,
                    TraceEvent::JobLost {
                        job: 12,
                        attempts: 4,
                    },
                ),
                rec(
                    12,
                    TraceEvent::ReservationRepair {
                        reservation: 3,
                        action: "downgraded",
                        width: 2,
                    },
                ),
                rec(
                    13,
                    TraceEvent::JobRouted {
                        job: 20,
                        from: 0,
                        to: 2,
                        transfer_ms: 1_500,
                    },
                ),
                rec(
                    14,
                    TraceEvent::MigrateDepart {
                        job: 21,
                        from: 1,
                        to: 0,
                    },
                ),
                rec(
                    15,
                    TraceEvent::MigrateArrive {
                        job: 21,
                        from: 1,
                        to: 0,
                    },
                ),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let text = render_jsonl(&sample());
        assert_eq!(text.lines().count(), 16);
        assert!(text.contains("\"type\":\"decision\""));
        assert!(text.contains("\"scores\":{\"FCFS\":3.5,\"SJF\":1.25,\"LJF\":2}"));
        assert!(text.contains("\"verdict\":\"no-capacity\""));
        assert!(text.contains("\"type\":\"node_down\""));
        assert!(text.contains("\"reason\":\"node-loss\""));
        assert!(text.contains("\"delay_ms\":300000"));
        assert!(text.contains("\"action\":\"downgraded\""));
    }

    #[test]
    fn dropped_records_announce_themselves() {
        let mut snap = sample();
        snap.dropped = 42;
        let text = render_jsonl(&snap);
        assert!(text.starts_with("{\"seq\":null,\"type\":\"meta\",\"dropped\":42}"));
    }

    #[test]
    fn chrome_trace_is_wellformed_and_has_spans() {
        let text = render_chrome_trace(&sample());
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.trim_end().ends_with("]}"));
        // Two span-like records → two complete events.
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        // Everything else is an instant.
        assert_eq!(text.matches("\"ph\":\"i\"").count(), 14);
        assert!(text.contains("\"name\":\"plan:SJF\""));
        assert!(text.contains("\"name\":\"switch FCFS->SJF\""));
        assert!(text.contains("\"name\":\"node_down:n5\""));
        assert!(text.contains("\"name\":\"fault:node-loss\""));
        assert!(text.contains("\"name\":\"repair:downgraded\""));
        assert!(text.contains("\"name\":\"route:j20\""));
        assert!(text.contains("\"name\":\"migrate_depart:j21\""));
        assert!(text.contains("\"name\":\"migrate_arrive:j21\""));
        // Parses back as JSON (the parser doubles as a validator).
        let parsed = crate::parse::Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(crate::parse::Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 16);
    }

    #[test]
    fn non_finite_scores_become_null() {
        let snap = TraceSnapshot {
            records: vec![rec(
                0,
                TraceEvent::Decision {
                    old: "FCFS",
                    verdict: "FCFS",
                    rule: "argmin",
                    scores: vec![("FCFS", f64::INFINITY)],
                },
            )],
            dropped: 0,
        };
        let text = render_jsonl(&snap);
        assert!(text.contains("\"FCFS\":null"));
    }

    #[test]
    fn string_escaping_is_json_safe() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn file_sinks_write_both_formats() {
        let dir = std::env::temp_dir().join("dynp_obs_sink_test");
        let snap = sample();
        write_jsonl(&snap, &dir.join("t.jsonl")).unwrap();
        write_chrome_trace(&snap, &dir.join("t.trace.json")).unwrap();
        let jsonl = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 16);
        let chrome = std::fs::read_to_string(dir.join("t.trace.json")).unwrap();
        assert!(chrome.contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
