//! The newline-delimited JSON wire protocol.
//!
//! One JSON object per line in each direction; the codec is a thin
//! layer over the typed API, parsed with [`dynp_obs::parse::Json`] — the
//! parser the trace tooling uses, which bounds nesting — and read
//! through [`read_request_line`], which bounds length: a request line is
//! untrusted input.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"submit","width":4,"estimate_ms":60000,"actual_ms":30000,"user":7}
//! {"cmd":"cancel","job":3}
//! {"cmd":"status"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Replies (one per request, in request order per connection):
//!
//! ```text
//! {"ok":true,"job":3,"admitted_ms":12345}
//! {"ok":false,"error":"overload","reason":"queue_full"}
//! {"ok":false,"error":"invalid","reason":"width 0 ..."}
//! {"ok":true,"cancelled":3,"found":true}
//! {"ok":true,"now_ms":...,"waiting":...,"running":...,"completed":...,
//!  "lost":...,"accepted":...,"rejected":...,"free":...,"machine":...,
//!  "draining":false}
//! {"ok":true,"draining":true}
//! ```

use crate::api::{Reply, ServiceReport, SubmitError, SubmitSpec};
use dynp_des::SimDuration;
use dynp_obs::parse::Json;
use dynp_obs::sink;
use std::io::{self, BufRead, Read};

/// Longest request line a transport accepts, newline included (the
/// longest legitimate request is under 200 bytes).
pub(crate) const MAX_REQUEST_BYTES: usize = 4096;

/// Reads the next request line, `None` at end of input. A line over
/// `MAX_REQUEST_BYTES` is an `InvalidData` error after that many bytes,
/// however long the line goes on; the caller answers it and drops the
/// transport. Bytes that are not UTF-8 are replaced, so the line fails
/// to parse instead of failing to read.
pub fn read_request_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_REQUEST_BYTES as u64)
        .read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.len() == MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line longer than {MAX_REQUEST_BYTES} bytes"),
        ));
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// A parsed client request: one call on a
/// [`crate::daemon::ServiceHandle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(SubmitSpec),
    /// Cancel a waiting job.
    Cancel(u32),
    /// Query service state.
    Status,
    /// Begin graceful shutdown.
    Shutdown,
}

/// Parses one request line. Errors name the missing or malformed field
/// so clients can fix their request.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = Json::parse(line)?;
    let cmd = json
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field \"cmd\"")?;
    match cmd {
        "submit" => {
            // A field that is present must be an unsigned integer: it is
            // never defaulted or narrowed silently. Bounds are the
            // service's to check (`Job::try_new`).
            let opt = |key: &str| -> Result<Option<u64>, String> {
                let not_integer = || format!("field {key:?} is not an unsigned integer");
                json.get(key)
                    .map(|v| v.as_u64().ok_or_else(not_integer))
                    .transpose()
            };
            let need = |key: &str| -> Result<u64, String> {
                opt(key)?.ok_or_else(|| format!("submit needs integer field {key:?}"))
            };
            let narrow = |key: &str, v: u64| -> Result<u32, String> {
                u32::try_from(v).map_err(|_| format!("field {key:?} out of range"))
            };
            let width = narrow("width", need("width")?)?;
            let estimate = SimDuration::from_millis(need("estimate_ms")?);
            // The actual run time defaults to the estimate (a job that
            // uses its whole request).
            let actual = opt("actual_ms")?.map_or(estimate, SimDuration::from_millis);
            let user = narrow("user", opt("user")?.unwrap_or(0))?;
            Ok(Request::Submit(SubmitSpec {
                width,
                estimate,
                actual,
                user,
            }))
        }
        "cancel" => {
            let job = json
                .get("job")
                .and_then(Json::as_u64)
                .ok_or("cancel needs integer field \"job\"")?;
            let job = u32::try_from(job).map_err(|_| "field \"job\" out of range".to_string())?;
            Ok(Request::Cancel(job))
        }
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// Renders one reply line (no trailing newline).
pub fn render_reply(reply: &Reply) -> String {
    match reply {
        Reply::Accepted(t) => format!(
            "{{\"ok\":true,\"job\":{},\"admitted_ms\":{}}}",
            t.job,
            t.admitted_at.as_millis()
        ),
        Reply::Rejected(SubmitError::Overload(reason)) => format!(
            "{{\"ok\":false,\"error\":\"overload\",\"reason\":\"{}\"}}",
            reason.label()
        ),
        Reply::Rejected(SubmitError::Invalid(why)) => {
            let mut out = String::from("{\"ok\":false,\"error\":\"invalid\",\"reason\":");
            sink::push_str(&mut out, why);
            out.push('}');
            out
        }
        Reply::Cancelled { job, found } => {
            format!("{{\"ok\":true,\"cancelled\":{job},\"found\":{found}}}")
        }
        Reply::Status(s) => format!(
            "{{\"ok\":true,\"now_ms\":{},\"waiting\":{},\"running\":{},\"completed\":{},\
             \"lost\":{},\"accepted\":{},\"rejected\":{},\"free\":{},\"machine\":{},\
             \"draining\":{}}}",
            s.now.as_millis(),
            s.waiting,
            s.running,
            s.completed,
            s.lost,
            s.accepted,
            s.rejected,
            s.free_processors,
            s.machine_size,
            s.draining
        ),
        Reply::Draining => "{\"ok\":true,\"draining\":true}".to_string(),
    }
}

/// Renders the end-of-session summary line (no trailing newline) the
/// `daemon` bin prints at drain. The `replay` bin prints the same line
/// from a journal alone — with the rejection counters at zero, because
/// rejected submissions are deliberately not journaled — so the two can
/// be diffed field by field.
pub fn render_summary(report: &ServiceReport) -> String {
    let fingerprint = match report.fingerprint {
        Some(fp) => format!("\"{fp:032x}\""),
        None => "null".to_string(),
    };
    format!(
        "{{\"accepted\":{},\"completed\":{},\"lost\":{},\"rejected_queue_full\":{},\
         \"rejected_shutdown\":{},\"rejected_invalid\":{},\"rejected_user_quota\":{},\
         \"cancelled\":{},\"events\":{},\"sldwa\":{:.6},\"fingerprint\":{}}}",
        report.accepted,
        report.run.completed.len(),
        report.run.faults.lost,
        report.rejected_queue_full,
        report.rejected_shutdown,
        report.rejected_invalid,
        report.rejected_user_quota,
        report.cancelled,
        report.run.result.events,
        report.run.result.metrics.sldwa,
        fingerprint,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OverloadReason, ServiceStatus, Ticket};
    use dynp_des::SimTime;

    #[test]
    fn submit_round_trips() {
        let req = parse_request(
            r#"{"cmd":"submit","width":4,"estimate_ms":60000,"actual_ms":30000,"user":7}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Submit(SubmitSpec {
                width: 4,
                estimate: SimDuration::from_millis(60_000),
                actual: SimDuration::from_millis(30_000),
                user: 7,
            })
        );
    }

    #[test]
    fn submit_defaults_actual_to_estimate() {
        let req = parse_request(r#"{"cmd":"submit","width":1,"estimate_ms":5000}"#).unwrap();
        match req {
            Request::Submit(spec) => {
                assert_eq!(spec.actual, spec.estimate);
                assert_eq!(spec.user, 0);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn other_commands_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"cancel","job":3}"#).unwrap(),
            Request::Cancel(3)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn bad_requests_name_the_problem() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("fly"));
        assert!(parse_request(r#"{"cmd":"submit"}"#)
            .unwrap_err()
            .contains("width"));
        assert!(parse_request(r#"{"cmd":"cancel"}"#)
            .unwrap_err()
            .contains("job"));
        // A field that is there but no u32 / u64 is refused, never
        // defaulted or narrowed: user 2^32 + 7 is not user 7.
        let submit = |fields: &str| parse_request(&format!(r#"{{"cmd":"submit",{fields}}}"#));
        for (fields, field) in [
            (r#""width":4,"estimate_ms":5,"user":4294967303"#, "user"),
            (r#""width":4,"estimate_ms":5,"user":"7""#, "user"),
            (r#""width":4,"estimate_ms":5,"user":-1"#, "user"),
            (r#""width":4,"estimate_ms":5,"actual_ms":"3""#, "actual_ms"),
            (r#""width":4,"estimate_ms":5,"actual_ms":2.5"#, "actual_ms"),
            (r#""width":4,"estimate_ms":null"#, "estimate_ms"),
            (r#""width":4294967296,"estimate_ms":5"#, "width"),
        ] {
            let err = submit(fields).unwrap_err();
            assert!(err.contains(field), "{fields}: {err}");
        }
        // Bounds are the service's: the parser passes the numbers on.
        let over = submit(r#""width":0,"estimate_ms":18446744073709551615,"user":4294967295"#);
        assert_eq!(
            over,
            Ok(Request::Submit(SubmitSpec {
                width: 0,
                estimate: SimDuration::from_millis(u64::MAX),
                actual: SimDuration::from_millis(u64::MAX),
                user: u32::MAX,
            }))
        );
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        let err = parse_request(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let nested = format!("{{\"cmd\":{}1{}}}", "[".repeat(500), "]".repeat(500));
        assert!(parse_request(&nested).is_err());
    }

    #[test]
    fn request_lines_are_bounded() {
        let longest = "x".repeat(MAX_REQUEST_BYTES - 1);
        let input = format!("{{\"cmd\":\"status\"}}\n\n{longest}\n\u{e9}\n");
        let mut reader = io::Cursor::new([input.as_bytes(), &[0xff, b'\n', b'['][..]].concat());
        let mut next = || read_request_line(&mut reader).unwrap();
        assert_eq!(next().as_deref(), Some("{\"cmd\":\"status\"}\n"));
        assert_eq!(next().as_deref(), Some("\n"));
        assert_eq!(next().map(|l| l.len()), Some(MAX_REQUEST_BYTES));
        assert_eq!(next().as_deref(), Some("\u{e9}\n"));
        assert_eq!(next().as_deref(), Some("\u{fffd}\n"));
        assert_eq!(next().as_deref(), Some("["), "a last line needs no newline");
        assert_eq!(next(), None);

        // One byte over, and a newline-free megabyte: refused after
        // MAX_REQUEST_BYTES, the rest left unread.
        let over = "x".repeat(MAX_REQUEST_BYTES) + "\n";
        for input in [over, "[".repeat(1 << 20)] {
            let mut reader = io::Cursor::new(input.into_bytes());
            let err = read_request_line(&mut reader).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(reader.position(), MAX_REQUEST_BYTES as u64);
        }
    }

    #[test]
    fn reply_lines_parse_back() {
        let reason = "width 0 \"quoted\" back\\slash\nnewline \u{1}control";
        let cases = vec![
            render_reply(&Reply::Accepted(Ticket {
                job: 3,
                admitted_at: SimTime::from_millis(12_345),
            })),
            render_reply(&Reply::Rejected(SubmitError::Overload(
                OverloadReason::QueueFull,
            ))),
            render_reply(&Reply::Rejected(SubmitError::Invalid(reason.into()))),
            render_reply(&Reply::Cancelled {
                job: 9,
                found: true,
            }),
            render_reply(&Reply::Status(ServiceStatus::default())),
            render_reply(&Reply::Draining),
        ];
        for line in &cases {
            assert!(!line.contains('\n'), "a reply is one line: {line:?}");
            let json = Json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
            assert!(json.get("ok").is_some(), "no ok field in {line}");
        }
        // The shared `dynp-obs` escaper round-trips through its parser.
        let invalid = Json::parse(&cases[2]).unwrap();
        assert_eq!(invalid.get("reason").and_then(Json::as_str), Some(reason));
        let accepted = render_reply(&Reply::Accepted(Ticket {
            job: 3,
            admitted_at: SimTime::from_millis(12_345),
        }));
        let json = Json::parse(&accepted).unwrap();
        assert_eq!(json.get("job").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("admitted_ms").and_then(Json::as_u64), Some(12_345));
    }
}
