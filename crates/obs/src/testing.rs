//! Test support: the one list of sample records the format tests share.

use crate::event::{TraceEvent, TraceRecord};
use crate::tracer::TraceSnapshot;
use dynp_des::SimTime;

/// The JSONL rendering of [`samples`], captured from the commit before
/// the schema table replaced the per-kind render arms: the format
/// contract, byte for byte. (CI also feeds this file to `trace_report`.)
pub(crate) const GOLDEN_JSONL: &str = include_str!("../tests/fixtures/all_kinds.jsonl");

/// One record of every kind, in declaration order.
pub fn samples() -> TraceSnapshot {
    let events = vec![
        TraceEvent::SimEvent {
            kind: "arrive",
            id: 3,
        },
        TraceEvent::PlanBuilt {
            policy: "SJF",
            queue_depth: 4,
            profile_points: 9,
            workers: 2,
            dur_ns: 777,
        },
        TraceEvent::Decision {
            old: "FCFS",
            verdict: "SJF",
            rule: "argmin",
            scores: vec![("FCFS", 3.5), ("SJF", 1.25), ("LJF", 2.0)],
        },
        TraceEvent::PolicySwitch {
            from: "FCFS",
            to: "SJF",
        },
        TraceEvent::AdmissionVerdict {
            request: 2,
            verdict: "no-capacity",
        },
        TraceEvent::BackfillMove {
            job: 11,
            width: 2,
            overtaken: 1,
        },
        TraceEvent::Span {
            name: "step",
            dur_ns: 12_345,
        },
        TraceEvent::NodeDown { node: 5 },
        TraceEvent::NodeUp { node: 5 },
        TraceEvent::JobFault {
            job: 11,
            attempt: 1,
            reason: "node-loss",
        },
        TraceEvent::JobRetry {
            job: 11,
            attempt: 1,
            delay_ms: 300_000,
        },
        TraceEvent::JobLost {
            job: 12,
            attempts: 4,
        },
        TraceEvent::ReservationRepair {
            reservation: 3,
            action: "downgraded",
            width: 2,
        },
        TraceEvent::JobRouted {
            job: 20,
            from: 0,
            to: 2,
            transfer_ms: 1_500,
        },
        TraceEvent::MigrateDepart {
            job: 21,
            from: 1,
            to: 0,
        },
        TraceEvent::MigrateArrive {
            job: 21,
            from: 1,
            to: 0,
        },
        TraceEvent::CheckpointWritten {
            journal_seq: 64,
            bytes: 4_096,
        },
        TraceEvent::CheckpointLoaded {
            journal_seq: 64,
            replayed: 7,
        },
        TraceEvent::JournalRotated {
            segment: 2,
            bytes: 65_536,
        },
        TraceEvent::QuotaRejected {
            user: 0,
            queue_depth: 17,
        },
    ];
    for (i, event) in events.iter().enumerate() {
        // No wildcard arm: a new variant does not compile until it is
        // given its place here — add its sample above at that index.
        let nth = match event {
            TraceEvent::SimEvent { .. } => 0,
            TraceEvent::PlanBuilt { .. } => 1,
            TraceEvent::Decision { .. } => 2,
            TraceEvent::PolicySwitch { .. } => 3,
            TraceEvent::AdmissionVerdict { .. } => 4,
            TraceEvent::BackfillMove { .. } => 5,
            TraceEvent::Span { .. } => 6,
            TraceEvent::NodeDown { .. } => 7,
            TraceEvent::NodeUp { .. } => 8,
            TraceEvent::JobFault { .. } => 9,
            TraceEvent::JobRetry { .. } => 10,
            TraceEvent::JobLost { .. } => 11,
            TraceEvent::ReservationRepair { .. } => 12,
            TraceEvent::JobRouted { .. } => 13,
            TraceEvent::MigrateDepart { .. } => 14,
            TraceEvent::MigrateArrive { .. } => 15,
            TraceEvent::CheckpointWritten { .. } => 16,
            TraceEvent::CheckpointLoaded { .. } => 17,
            TraceEvent::JournalRotated { .. } => 18,
            TraceEvent::QuotaRejected { .. } => 19,
        };
        assert_eq!(nth, i, "samples out of declaration order");
    }
    TraceSnapshot {
        records: events
            .into_iter()
            .zip(0u64..)
            .map(|(event, seq)| TraceRecord {
                seq,
                // Two records per instant: the switch shares the
                // decision's, as `trace_report` requires of a real trace.
                sim: SimTime::from_secs(seq / 2),
                wall_ns: seq * 1_000,
                event,
            })
            .collect(),
        dropped: 0,
    }
}
