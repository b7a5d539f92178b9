//! # dynp-serve — real-time service mode
//!
//! Everything built below this crate runs under the batch DES driver;
//! this crate runs the *same* planning core as a long-running daemon
//! serving live traffic, making the simulator a digital twin of the
//! service (and vice versa):
//!
//! * [`spawn`] / [`recover`] — the daemon: the batch driver's
//!   `ShardCore` and scheduler on a [`dynp_des::WallClockSource`] (the
//!   DES engine under a wall clock, so recovery replays the journal on
//!   the very source that then goes live) behind one lock, a typed
//!   submission/query/cancel API whose calls run on the caller's thread,
//!   with bounded-queue backpressure and per-user quotas, a timer thread
//!   that fires completions on time, graceful drain on shutdown;
//! * [`ServiceHandle`], [`SubmitSpec`], [`Reply`] — the request/reply
//!   types shared by the in-process API and the wire protocol;
//! * [`parse_request`] / [`render_reply`] — the newline-delimited JSON
//!   codec (Unix socket or stdin transport, see the `daemon` bin);
//! * [`journal`] — the durable write-ahead log of accepted commands and
//!   the checkpoint store: typed, checksummed, rotated, compactable
//!   (see DESIGN.md §14);
//! * [`replay_session`] — journal replay: a recorded session replays
//!   bit-identically through the batch DES driver, cancellations
//!   included (the record/replay guarantee; see DESIGN.md §12 for why
//!   the stamp discipline makes this exact).
//!
//! Crash safety is the combination: service state is a fold of the
//! journal. Every accepted command is journaled (fsynced, by default)
//! before it changes anything or the client sees the acknowledgement,
//! then applied by the one function recovery applies it with;
//! [`recover`] rebuilds a killed daemon from the newest valid
//! checkpoint plus the journal suffix on the caller's thread, before the
//! timer thread starts, bit-identical to a daemon that was never killed.
//! [`replay_records`] is the independent oracle: the same
//! records through the batch driver, not through the daemon's apply.
//!
//! The `loadgen` bin drives a running daemon over its socket with an
//! open-loop workload — Zipfian user population, Poisson arrivals,
//! multi-worker fan-out — and reports sustained throughput and
//! admission-latency percentiles (p50/p99/p999), overall and per user.
//! The `replay` bin re-derives a daemon summary from a journal alone
//! (the CI crash-recovery job diffs the two).
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod api;
pub mod cli;
mod daemon;
pub mod journal;
mod proto;
mod session;

pub use api::{
    OverloadReason, QuotaConfig, Reply, ServiceConfig, ServiceReport, ServiceStatus, SubmitError,
    SubmitSpec, Ticket,
};
pub use daemon::{recover, spawn, RecoverError, ServiceHandle};
pub use dynp_sim::{parse_scheduler, render_scheduler};
pub use journal::{
    load_latest_checkpoint, read_journal, read_journal_header, repair_torn_tail, FsyncPolicy,
    JournalDir, JournalError, JournalHeader, JournalRecord, JournalWriter,
};
pub use proto::{parse_request, read_request_line, render_reply, render_summary, Request};
pub use session::{replay_records, replay_session, ReplayError};

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use dynp_rms::Policy;
    use dynp_sim::SchedulerSpec;

    fn config() -> ServiceConfig {
        let mut c = ServiceConfig::new(8, SchedulerSpec::Static(Policy::Fcfs));
        c.speedup = 1000; // sim seconds in wall milliseconds
        c
    }

    fn spec(width: u32, secs: u64) -> SubmitSpec {
        SubmitSpec {
            width,
            estimate: SimDuration::from_secs(secs),
            actual: SimDuration::from_secs(secs),
            user: 0,
        }
    }

    #[test]
    fn submissions_run_to_completion() {
        let (handle, join) = spawn(config()).unwrap();
        let t0 = handle.submit(spec(4, 2)).unwrap();
        let t1 = handle.submit(spec(4, 1)).unwrap();
        assert_eq!(t0.job, 0);
        assert_eq!(t1.job, 1);
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.run.completed.len(), 2);
        assert_eq!(report.run.faults.lost, 0);
    }

    #[test]
    fn invalid_submissions_are_typed() {
        let (handle, join) = spawn(config()).unwrap();
        let ms = SimDuration::from_millis;
        let bound = dynp_workload::job::MAX_JOB_MS;
        let with = |width, estimate, actual| SubmitSpec {
            width,
            estimate: ms(estimate),
            actual: ms(actual),
            user: 0,
        };
        // The gate answers every client, wire or in-process, naming the
        // field: widths off the machine, then durations past the job
        // bound — the first one of the repro that crashed the daemon, one
        // millisecond over, and an actual alone.
        let cases = [
            (with(0, 1000, 1000), "width 0 is outside 1..=8"),
            (with(9, 1000, 1000), "width 9 is outside 1..=8"),
            (with(4, u64::MAX, u64::MAX), "estimate_ms"),
            (with(4, bound + 1, bound), "estimate_ms"),
            (with(4, 5000, bound + 1), "actual_ms"),
        ];
        for (submit, field) in cases {
            match handle.submit(submit) {
                Err(SubmitError::Invalid(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("{submit:?}: expected Invalid, got {other:?}"),
            }
        }
        handle.submit(with(8, bound, bound)).unwrap();
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.rejected_invalid, cases.len() as u64);
        assert_eq!(report.accepted, 1);
    }

    #[test]
    fn bounded_queue_rejects_with_queue_full() {
        let mut c = config();
        c.max_queue = 2;
        let (handle, join) = spawn(c).unwrap();
        // The machine holds one 8-wide job; the rest wait. Queue bound 2
        // admits 3 in total (1 running + 2 waiting), then overloads.
        let mut accepted = 0u32;
        let mut overloaded = 0u32;
        for _ in 0..6 {
            match handle.submit(spec(8, 30)) {
                Ok(_) => accepted += 1,
                Err(SubmitError::Overload(OverloadReason::QueueFull)) => overloaded += 1,
                other => panic!("unexpected verdict: {other:?}"),
            }
        }
        assert_eq!(accepted, 3);
        assert_eq!(overloaded, 3);
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.rejected_queue_full, 3);
        assert_eq!(report.run.completed.len(), 3);
    }

    #[test]
    fn status_reports_live_state() {
        let (handle, join) = spawn(config()).unwrap();
        handle.submit(spec(8, 60)).unwrap();
        handle.submit(spec(8, 60)).unwrap();
        let status = handle.status().unwrap();
        assert_eq!(status.machine_size, 8);
        assert_eq!(status.running, 1);
        assert_eq!(status.waiting, 1);
        assert_eq!(status.accepted, 2);
        assert!(!status.draining);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn cancel_withdraws_waiting_jobs_only() {
        let (handle, join) = spawn(config()).unwrap();
        let running = handle.submit(spec(8, 60)).unwrap();
        let waiting = handle.submit(spec(8, 60)).unwrap();
        assert!(!handle.cancel(running.job), "running job must not cancel");
        assert!(handle.cancel(waiting.job));
        assert!(!handle.cancel(99), "unknown job must not cancel");
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.run.completed.len(), 1);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let (handle, join) = spawn(config()).unwrap();
        handle.submit(spec(2, 5)).unwrap();
        handle.shutdown();
        // The daemon may still be draining or already gone; either way
        // the verdict is the typed shutdown overload.
        match handle.submit(spec(2, 5)) {
            Err(SubmitError::Overload(OverloadReason::ShuttingDown)) => {}
            Ok(_) => panic!("accepted a submission after shutdown"),
            Err(other) => panic!("wrong error: {other:?}"),
        }
        let report = join.join().unwrap();
        assert_eq!(report.accepted, 1);
        assert_eq!(report.run.completed.len(), 1);
    }

    #[test]
    fn dropping_every_handle_drains_the_daemon() {
        let (handle, join) = spawn(config()).unwrap();
        handle.submit(spec(4, 3)).unwrap();
        drop(handle);
        let report = join.join().unwrap();
        assert_eq!(report.run.completed.len(), 1);
    }

    #[test]
    fn a_quiet_daemon_completes_jobs_on_time() {
        let mut c = config();
        c.tracer = dynp_obs::Tracer::enabled(dynp_obs::TraceLevel::All);
        let tracer = c.tracer.clone();
        let (handle, join) = spawn(c).unwrap();
        // One simulated second is one wall millisecond at this speedup.
        let ticket = handle.submit(spec(4, 1)).unwrap();
        let end = ticket.admitted_at.saturating_add(SimDuration::from_secs(1));
        // No other command follows: only the timer thread can fire the
        // completion, and it must fire at the job's end.
        let finished = || {
            tracer.snapshot().records.iter().any(|r| {
                matches!(
                    r.event,
                    dynp_obs::TraceEvent::SimEvent {
                        kind: "finish",
                        id: 0
                    }
                ) && r.sim == end
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "the job never completed"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.shutdown();
        assert_eq!(join.join().unwrap().run.completed.len(), 1);
    }

    #[test]
    fn summary_line_is_pinned() {
        let (handle, join) = spawn(config()).unwrap();
        handle.submit(spec(4, 1)).unwrap();
        handle.shutdown();
        let mut report = join.join().unwrap();
        report.rejected_queue_full = 2;
        report.rejected_shutdown = 3;
        report.rejected_invalid = 4;
        report.rejected_user_quota = 5;
        report.cancelled = 6;
        report.run.result.metrics.sldwa = 1.23456789;
        report.fingerprint = Some(0xabc);
        let expected = format!(
            "{{\"accepted\":1,\"completed\":1,\"lost\":0,\"rejected_queue_full\":2,\
             \"rejected_shutdown\":3,\"rejected_invalid\":4,\"rejected_user_quota\":5,\
             \"cancelled\":6,\"events\":{},\"sldwa\":1.234568,\
             \"fingerprint\":\"00000000000000000000000000000abc\"}}",
            report.run.result.events
        );
        assert_eq!(render_summary(&report), expected);
        report.fingerprint = None;
        assert!(render_summary(&report).ends_with(",\"fingerprint\":null}"));
    }

    #[test]
    fn rotate_trace_records_carry_the_sealed_segment_size() {
        let dir = std::env::temp_dir().join(format!("dynp-serve-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = config();
        c.journal = Some(dir.clone());
        c.fsync = FsyncPolicy::Never;
        c.rotate_bytes = 200;
        // One submission refills per 1000 wall ms at this speedup.
        c.quota = QuotaConfig {
            rate_mtok_per_sec: 1,
            burst_mtok: 20_000,
        };
        c.tracer = dynp_obs::Tracer::enabled(dynp_obs::TraceLevel::Decisions);
        let tracer = c.tracer.clone();
        let (handle, join) = spawn(c.clone()).unwrap();
        for _ in 0..20 {
            handle.submit(spec(1, 1)).unwrap();
        }
        let shed = (0..30)
            .filter(|_| handle.submit(spec(1, 1)).is_err())
            .count();
        assert!(shed > 0, "the spent bucket must shed user 0");
        handle.shutdown();
        join.join().unwrap();
        let (handle, join) = recover(c).unwrap();
        handle.shutdown();
        join.join().unwrap();

        let snapshot = tracer.snapshot();
        let mut rotations = 0;
        for rec in &snapshot.records {
            if let dynp_obs::TraceEvent::JournalRotated { segment, bytes } = rec.event {
                // `segment` is the newly opened one; the sealed file,
                // header included, is the one before it.
                let sealed = journal::segment_path(&dir, segment - 1);
                assert_eq!(bytes, std::fs::metadata(sealed).unwrap().len());
                rotations += 1;
            }
        }
        assert!(rotations >= 2, "tiny rotate_bytes must rotate: {rotations}");

        // The daemon's own trace — every durability kind in it — reads
        // back through the JSONL sink and parser.
        let text = dynp_obs::render_jsonl(&snapshot);
        let parsed = dynp_obs::parse_jsonl(&text).expect("service trace must parse");
        assert_eq!(parsed.len(), snapshot.records.len());
        for tag in ["checkpoint", "ckpt_load", "rotate", "quota"] {
            assert!(
                parsed.iter().any(|r| r.event.type_tag() == tag),
                "no {tag} record in:\n{text}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
