//! Trace sinks: JSONL (the machine-readable audit log) and the Chrome
//! trace-event format (`chrome://tracing` / Perfetto-loadable spans).
//!
//! Both render a record by walking its kind's declared field list
//! (`TraceEvent::write_fields`); the JSONL format is the contract
//! [`crate::parse`] reads back through the same list (pinned by golden
//! lines and round-trip tests).

use crate::event::{FieldWriter, TraceRecord};
use crate::tracer::TraceSnapshot;
use std::fmt::Write as _;
use std::io;
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

/// Appends each field as `,"key":value`.
struct JsonlFields<'a>(&'a mut String);

impl<L: AsRef<str>> FieldWriter<L> for JsonlFields<'_> {
    fn label(&mut self, key: &'static str, value: &L) {
        let _ = write!(self.0, ",\"{key}\":");
        push_str(self.0, value.as_ref());
    }

    fn u64(&mut self, key: &'static str, value: &u64) {
        let _ = write!(self.0, ",\"{key}\":{value}");
    }

    fn scores(&mut self, key: &'static str, value: &[(L, f64)]) {
        let _ = write!(self.0, ",\"{key}\":{{");
        for (i, (policy, score)) in value.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            push_str(self.0, policy.as_ref());
            self.0.push(':');
            push_f64(self.0, *score);
        }
        self.0.push('}');
    }
}

/// Renders one record as a single JSONL line (no trailing newline).
pub(crate) fn render_jsonl_line<L: AsRef<str>>(rec: &TraceRecord<L>) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"seq\":{},\"sim_ms\":{},\"wall_ns\":{},\"type\":\"{}\"",
        rec.seq,
        rec.sim.as_millis(),
        rec.wall_ns,
        rec.event.type_tag()
    );
    rec.event.write_fields(&mut JsonlFields(&mut out));
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

/// Writes `text` to `path`, creating the directories above it.
fn write_text(path: &Path, text: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, text)
}

/// Writes the snapshot as JSONL to `path`.
pub fn write_jsonl(snapshot: &TraceSnapshot, path: &Path) -> io::Result<()> {
    write_text(path, &render_jsonl(snapshot))
}

/// One Chrome event under construction: a field named in the kind's
/// `name` template fills its slot, `dur_ns` becomes the duration, and
/// every other field rides in `args` (the score vector stays in the
/// JSONL audit log).
struct ChromeFields {
    name: String,
    args: String,
    dur_ns: Option<u64>,
}

impl ChromeFields {
    fn place(&mut self, key: &str, text: &str, quoted: bool) {
        let slot = format!("{{{key}}}");
        if self.name.contains(&slot) {
            self.name = self.name.replace(&slot, text);
        } else if quoted {
            let _ = write!(self.args, ",\"{key}\":");
            push_str(&mut self.args, text);
        } else {
            let _ = write!(self.args, ",\"{key}\":{text}");
        }
    }
}

impl<L: AsRef<str>> FieldWriter<L> for ChromeFields {
    fn label(&mut self, key: &'static str, value: &L) {
        self.place(key, value.as_ref(), true);
    }

    fn u64(&mut self, key: &'static str, value: &u64) {
        if key == "dur_ns" {
            self.dur_ns = Some(*value);
        } else {
            self.place(key, &value.to_string(), false);
        }
    }

    fn scores(&mut self, _key: &'static str, _value: &[(L, f64)]) {}
}

/// Renders the snapshot in the Chrome trace-event format: a JSON object
/// with a `traceEvents` array, loadable in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
///
/// Span-like records (the kinds with a `dur_ns` field) become complete
/// (`"ph":"X"`) events on the wall-clock timeline with their duration;
/// everything else becomes an instant (`"ph":"i"`) event. Timestamps are
/// microseconds since tracer creation; the simulation time of each
/// record rides along in `args.sim_ms` so the two clocks can be
/// correlated.
pub fn render_chrome_trace(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, rec) in snapshot.records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let kind = rec.event.kind();
        let mut fields = ChromeFields {
            name: kind.chrome_name.to_owned(),
            args: String::new(),
            dur_ns: None,
        };
        rec.event.write_fields(&mut fields);
        out.push_str("{\"name\":");
        push_str(&mut out, &fields.name);
        let _ = write!(out, ",\"cat\":\"{}\"", kind.chrome_cat);
        let ts_us = rec.wall_ns as f64 / 1_000.0;
        let _ = match fields.dur_ns {
            Some(dur_ns) => write!(
                out,
                ",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{}",
                dur_ns as f64 / 1_000.0
            ),
            None => write!(
                out,
                ",\"ph\":\"i\",\"s\":\"{}\",\"ts\":{ts_us}",
                kind.chrome_scope
            ),
        };
        let _ = write!(
            out,
            ",\"pid\":1,\"tid\":1,\"args\":{{\"sim_ms\":{}{}}}}}",
            rec.sim.as_millis(),
            fields.args
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the snapshot as a Chrome trace to `path`.
pub fn write_chrome_trace(snapshot: &TraceSnapshot, path: &Path) -> io::Result<()> {
    write_text(path, &render_chrome_trace(snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Json;
    use crate::testing::{samples, GOLDEN_JSONL};

    #[test]
    fn jsonl_matches_the_golden_lines() {
        assert_eq!(render_jsonl(&samples()), GOLDEN_JSONL);
    }

    #[test]
    fn dropped_records_announce_themselves() {
        let mut snap = samples();
        snap.dropped = 42;
        let text = render_jsonl(&snap);
        assert!(text.starts_with("{\"seq\":null,\"type\":\"meta\",\"dropped\":42}"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_record() {
        let snap = samples();
        let text = render_chrome_trace(&snap);
        let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), snap.records.len());
        for (event, rec) in events.iter().zip(&snap.records) {
            // Span-like kinds are complete events, the rest instants.
            let span_like = rec.event.class() == crate::TraceClass::Span;
            let ph = event.get("ph").and_then(Json::as_str);
            assert_eq!(ph, Some(if span_like { "X" } else { "i" }), "{event:?}");
            assert_eq!(event.get("dur").is_some(), span_like);
            let scope = event.get("s").and_then(Json::as_str);
            assert_eq!(matches!(scope, Some("t" | "g")), !span_like, "{event:?}");
            let sim_ms = event.get("args").and_then(|a| a.get("sim_ms"));
            assert_eq!(sim_ms.and_then(Json::as_u64), Some(rec.sim.as_millis()));
        }
        // Template slots are filled from the fields; what a name does
        // not use rides in args.
        assert!(text.contains("\"name\":\"plan:SJF\""));
        assert!(text.contains("\"name\":\"switch FCFS->SJF\""));
        assert!(text.contains("\"name\":\"fault:node-loss\""));
        assert!(text.contains("\"name\":\"migrate_arrive:j21\""));
        assert!(text.contains("\"args\":{\"sim_ms\":4000,\"job\":11,\"attempt\":1}"));
        assert!(text.contains("\"old\":\"FCFS\",\"verdict\":\"SJF\",\"rule\":\"argmin\""));
        assert!(!text.contains("scores"));
    }

    #[test]
    fn non_finite_scores_become_null() {
        let mut snap = samples();
        snap.records[2].event = crate::TraceEvent::Decision {
            old: "FCFS",
            verdict: "FCFS",
            rule: "argmin",
            scores: vec![("FCFS", f64::INFINITY)],
        };
        assert!(render_jsonl(&snap).contains("\"FCFS\":null"));
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
        let snap = samples();
        write_jsonl(&snap, &dir.join("t.jsonl")).unwrap();
        write_chrome_trace(&snap, &dir.join("t.trace.json")).unwrap();
        let jsonl = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(jsonl, GOLDEN_JSONL);
        let chrome = std::fs::read_to_string(dir.join("t.trace.json")).unwrap();
        assert!(chrome.contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
