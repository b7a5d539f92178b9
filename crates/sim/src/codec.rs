//! Binary serialization of [`SimSnapshot`] — the explicit, versioned,
//! checksummed on-disk checkpoint format of the crash-safe service mode.
//!
//! PR 8 made the whole simulation state a *value* (`SimSnapshot`:
//! core + engine + scheduler). This module gives that value a durable
//! form: [`encode_snapshot`] frames it as
//!
//! ```text
//! "DYNPSNAP" | version u32 | payload len u32 | payload | crc32(payload)
//! ```
//!
//! with `payload = core | engine | feed cursors | scheduler`. Version 1
//! had no feed cursors — every exogenous event sat in the engine's heap —
//! and still decodes, as "nothing left to feed".
//!
//! and [`decode_snapshot`] verifies the magic, the version, and the
//! checksum before decoding a single payload field, so a torn or
//! bit-rotted checkpoint is a typed [`CodecError`] — never a panic, and
//! never a silently wrong state. Restoring a decoded snapshot into a
//! driver built from the same inputs reproduces the run bit-identically,
//! fingerprint included (pinned by the round-trip tests below).
//!
//! Every encoder here is exact: integers are stored verbatim and `f64`
//! statistics travel as IEEE-754 bit patterns, because recovery is
//! defined as *bit* identity with the never-killed run, not approximate
//! equality.

use crate::feed::FeedCursors;
use crate::runner::{ReservationReport, SimSnapshot};
use crate::shard::{CoreSnapshot, Event};
use dynp_des::{
    crc32, ByteReader, ByteWriter, CodecError, EngineSnapshot, SimDuration, SimTime,
    TimeWeightedCount,
};
use dynp_metrics::{FaultStats, ReservationStats};
use dynp_rms::{RejectReason, Reservation, RmsState, SchedulerSnapshot};
use dynp_workload::JobId;

/// Magic prefix of a serialized [`SimSnapshot`].
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"DYNPSNAP";
/// Current snapshot format version. Version 2 added the feed cursors;
/// version 1 is still read.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Appends one event, tag byte first.
pub(crate) fn encode_event(ev: &Event, w: &mut ByteWriter) {
    match *ev {
        Event::Arrive(id) => {
            w.u8(1);
            w.u32(id.0);
        }
        Event::Finish(id, attempt) => {
            w.u8(2);
            w.u32(id.0);
            w.u32(attempt);
        }
        Event::ResRequest(i) => {
            w.u8(3);
            w.u32(i);
        }
        Event::ResStart(i) => {
            w.u8(4);
            w.u32(i);
        }
        Event::ResEnd(i) => {
            w.u8(5);
            w.u32(i);
        }
        Event::ResCancel(i) => {
            w.u8(6);
            w.u32(i);
        }
        Event::NodeDown(n) => {
            w.u8(7);
            w.u32(n);
        }
        Event::NodeUp(n) => {
            w.u8(8);
            w.u32(n);
        }
        Event::Kill(id, attempt) => {
            w.u8(9);
            w.u32(id.0);
            w.u32(attempt);
        }
        Event::Resubmit(id) => {
            w.u8(10);
            w.u32(id.0);
        }
        Event::Depart(id, to) => {
            w.u8(11);
            w.u32(id.0);
            w.u32(to);
        }
        Event::MigrateIn(id, from) => {
            w.u8(12);
            w.u32(id.0);
            w.u32(from);
        }
        Event::CancelCmd(id) => {
            w.u8(13);
            w.u32(id.0);
        }
    }
}

/// Decodes one event written by [`encode_event`].
pub(crate) fn decode_event(r: &mut ByteReader<'_>) -> Result<Event, CodecError> {
    Ok(match r.u8()? {
        1 => Event::Arrive(JobId(r.u32()?)),
        2 => Event::Finish(JobId(r.u32()?), r.u32()?),
        3 => Event::ResRequest(r.u32()?),
        4 => Event::ResStart(r.u32()?),
        5 => Event::ResEnd(r.u32()?),
        6 => Event::ResCancel(r.u32()?),
        7 => Event::NodeDown(r.u32()?),
        8 => Event::NodeUp(r.u32()?),
        9 => Event::Kill(JobId(r.u32()?), r.u32()?),
        10 => Event::Resubmit(JobId(r.u32()?)),
        11 => Event::Depart(JobId(r.u32()?), r.u32()?),
        12 => Event::MigrateIn(JobId(r.u32()?), r.u32()?),
        13 => Event::CancelCmd(JobId(r.u32()?)),
        _ => return Err(CodecError::Invalid { what: "event tag" }),
    })
}

/// Appends an engine snapshot (clock, bookkeeping, pending entries).
pub fn encode_engine(snap: &EngineSnapshot<Event>, w: &mut ByteWriter) {
    w.u64(snap.now.as_millis());
    w.u64(snap.processed);
    w.u64(snap.next_seq);
    w.u32(snap.entries.len() as u32);
    for (t, seq, ev) in &snap.entries {
        w.u64(t.as_millis());
        w.u64(*seq);
        encode_event(ev, w);
    }
}

/// Decodes an engine snapshot written by [`encode_engine`].
pub fn decode_engine(r: &mut ByteReader<'_>) -> Result<EngineSnapshot<Event>, CodecError> {
    let now = SimTime::from_millis(r.u64()?);
    let processed = r.u64()?;
    let next_seq = r.u64()?;
    let n = r.u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let t = SimTime::from_millis(r.u64()?);
        let seq = r.u64()?;
        entries.push((t, seq, decode_event(r)?));
    }
    Ok(EngineSnapshot {
        now,
        processed,
        next_seq,
        entries,
    })
}

fn encode_fault_stats(s: &FaultStats, w: &mut ByteWriter) {
    w.u64(s.node_downs);
    w.u64(s.node_ups);
    w.u64(s.evictions);
    w.u64(s.crashes);
    w.u64(s.overruns);
    w.u64(s.retries);
    w.u64(s.lost);
    w.u64(s.down_node_allocations);
    w.u64(s.downtime_ms);
}

fn decode_fault_stats(r: &mut ByteReader<'_>) -> Result<FaultStats, CodecError> {
    Ok(FaultStats {
        node_downs: r.u64()?,
        node_ups: r.u64()?,
        evictions: r.u64()?,
        crashes: r.u64()?,
        overruns: r.u64()?,
        retries: r.u64()?,
        lost: r.u64()?,
        down_node_allocations: r.u64()?,
        downtime_ms: r.u64()?,
    })
}

fn encode_res_stats(s: &ReservationStats, w: &mut ByteWriter) {
    w.u64(s.requests);
    w.u64(s.admitted);
    w.u64(s.rejected_capacity);
    w.u64(s.rejected_guarantee);
    w.u64(s.rejected_invalid);
    w.u64(s.cancelled);
    w.u64(s.honored);
    w.u64(s.downgraded);
    w.u64(s.revoked);
    w.u64(s.requested_area_pms);
    w.u64(s.admitted_area_pms);
}

fn decode_res_stats(r: &mut ByteReader<'_>) -> Result<ReservationStats, CodecError> {
    Ok(ReservationStats {
        requests: r.u64()?,
        admitted: r.u64()?,
        rejected_capacity: r.u64()?,
        rejected_guarantee: r.u64()?,
        rejected_invalid: r.u64()?,
        cancelled: r.u64()?,
        honored: r.u64()?,
        downgraded: r.u64()?,
        revoked: r.u64()?,
        requested_area_pms: r.u64()?,
        admitted_area_pms: r.u64()?,
    })
}

fn encode_reservation(res: &Reservation, w: &mut ByteWriter) {
    w.u32(res.id);
    w.u64(res.start.as_millis());
    w.u64(res.duration.as_millis());
    w.u32(res.width);
}

fn decode_reservation(r: &mut ByteReader<'_>) -> Result<Reservation, CodecError> {
    Ok(Reservation {
        id: r.u32()?,
        start: SimTime::from_millis(r.u64()?),
        duration: SimDuration::from_millis(r.u64()?),
        width: r.u32()?,
    })
}

fn reject_tag(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::InvalidWidth => 1,
        RejectReason::InPast => 2,
        RejectReason::NoCapacity => 3,
        RejectReason::BreaksGuarantee => 4,
    }
}

fn reject_from_tag(tag: u8) -> Result<RejectReason, CodecError> {
    Ok(match tag {
        1 => RejectReason::InvalidWidth,
        2 => RejectReason::InPast,
        3 => RejectReason::NoCapacity,
        4 => RejectReason::BreaksGuarantee,
        _ => {
            return Err(CodecError::Invalid {
                what: "reject-reason tag",
            })
        }
    })
}

fn encode_report(report: &ReservationReport, w: &mut ByteWriter) {
    encode_res_stats(&report.stats, w);
    w.u32(report.honored.len() as u32);
    for res in &report.honored {
        encode_reservation(res, w);
    }
    w.u32(report.rejected.len() as u32);
    for (id, why) in &report.rejected {
        w.u32(*id);
        w.u8(reject_tag(*why));
    }
}

fn decode_report(r: &mut ByteReader<'_>) -> Result<ReservationReport, CodecError> {
    let stats = decode_res_stats(r)?;
    let n = r.u32()? as usize;
    let mut honored = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        honored.push(decode_reservation(r)?);
    }
    let n = r.u32()? as usize;
    let mut rejected = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = r.u32()?;
        rejected.push((id, reject_from_tag(r.u8()?)?));
    }
    Ok(ReservationReport {
        stats,
        honored,
        rejected,
    })
}

/// Appends the complete [`ShardCore`](crate::ShardCore) run state.
pub fn encode_core(snap: &CoreSnapshot, w: &mut ByteWriter) {
    snap.state.encode_into(w);
    w.u32(snap.attempts.len() as u32);
    for &a in &snap.attempts {
        w.u32(a);
    }
    encode_fault_stats(&snap.fstats, w);
    snap.queue_tw.encode_into(w);
    snap.busy_tw.encode_into(w);
    w.usize(snap.peak_queue);
    encode_report(&snap.report, w);
    w.u32(snap.admitted.len() as u32);
    for (res, cancelled) in &snap.admitted {
        encode_reservation(res, w);
        w.bool(*cancelled);
    }
    w.u64(snap.migrated_out);
    w.u64(snap.migrated_in);
}

/// Decodes a core snapshot written by [`encode_core`].
pub fn decode_core(r: &mut ByteReader<'_>) -> Result<CoreSnapshot, CodecError> {
    let state = RmsState::decode_from(r)?;
    let n = r.u32()? as usize;
    let mut attempts = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        attempts.push(r.u32()?);
    }
    let fstats = decode_fault_stats(r)?;
    let queue_tw = TimeWeightedCount::decode_from(r)?;
    let busy_tw = TimeWeightedCount::decode_from(r)?;
    let peak_queue = r.usize()?;
    let report = decode_report(r)?;
    let n = r.u32()? as usize;
    let mut admitted = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let res = decode_reservation(r)?;
        admitted.push((res, r.bool()?));
    }
    let migrated_out = r.u64()?;
    let migrated_in = r.u64()?;
    Ok(CoreSnapshot {
        state,
        attempts,
        fstats,
        queue_tw,
        busy_tw,
        peak_queue,
        report,
        admitted,
        migrated_out,
        migrated_in,
    })
}

/// Serializes a [`SimSnapshot`] into the framed, versioned, checksummed
/// on-disk form.
pub fn encode_snapshot(snap: &SimSnapshot) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    encode_core(&snap.core, &mut payload);
    encode_engine(&snap.engine, &mut payload);
    payload.u32(snap.feed.arrivals);
    payload.u32(snap.feed.requests);
    payload.u32(snap.feed.outages);
    snap.scheduler.encode_into(&mut payload);
    let payload = payload.into_bytes();

    let mut w = ByteWriter::new();
    w.raw(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.bytes(&payload);
    w.u32(crc32(&payload));
    w.into_bytes()
}

/// Deserializes a snapshot written by [`encode_snapshot`], verifying the
/// magic, version, and checksum before touching the payload. Whether the
/// feed cursors fit the streams of the run they are restored into is
/// [`ChaosDriver::try_restore`](crate::ChaosDriver::try_restore)'s check:
/// the streams are the driver's inputs, not part of the snapshot.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SimSnapshot, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.raw(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err(CodecError::Invalid {
            what: "snapshot magic",
        });
    }
    let version = r.u32()?;
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(CodecError::Invalid {
            what: "snapshot version",
        });
    }
    let payload = r.bytes()?;
    let sum = r.u32()?;
    if crc32(payload) != sum {
        return Err(CodecError::Invalid {
            what: "snapshot checksum",
        });
    }
    let mut p = ByteReader::new(payload);
    let core = decode_core(&mut p)?;
    let engine = decode_engine(&mut p)?;
    let feed = if version == 1 {
        FeedCursors::default()
    } else {
        FeedCursors {
            arrivals: p.u32()?,
            requests: p.u32()?,
            outages: p.u32()?,
        }
    };
    let scheduler = SchedulerSnapshot::decode_from(&mut p)?;
    if !p.is_exhausted() {
        return Err(CodecError::Invalid {
            what: "snapshot trailing bytes",
        });
    }
    Ok(SimSnapshot {
        core,
        engine,
        feed,
        scheduler,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ChaosDriver;
    use crate::spec::SchedulerSpec;
    use dynp_core::DeciderKind;
    use dynp_rms::AdmissionConfig;
    use dynp_workload::{FaultPlan, Job, JobSet, ReservationRequest};

    fn mid_run_snapshot() -> SimSnapshot {
        // A real mid-run state with waiting, running, and completed jobs,
        // admitted + rejected reservations, and pending events.
        let jobs: Vec<Job> = (0..60u32)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(i as u64 * 30),
                    (i % 11) + 1,
                    SimDuration::from_secs(300 + (i as u64 * 97) % 1_800),
                    SimDuration::from_secs(120 + (i as u64 * 53) % 900),
                )
            })
            .collect();
        let set = JobSet::new("codec-test", 32, jobs);
        let requests = vec![
            ReservationRequest {
                id: 0,
                submit: SimTime::from_secs(5),
                start: SimTime::from_secs(2_000),
                duration: SimDuration::from_secs(600),
                width: 8,
                cancel_at: None,
            },
            // Starts in the past — a typed rejection for the report.
            ReservationRequest {
                id: 1,
                submit: SimTime::from_secs(6),
                start: SimTime::from_secs(1),
                duration: SimDuration::from_secs(600),
                width: 8,
                cancel_at: None,
            },
        ];
        let faults = FaultPlan::none();
        let mut scheduler = SchedulerSpec::dynp(DeciderKind::Advanced).build();
        let mut driver = ChaosDriver::new(
            &set,
            scheduler.as_mut(),
            &requests,
            AdmissionConfig::default(),
            &faults,
            dynp_obs::Tracer::disabled(),
        );
        for _ in 0..80 {
            if driver.step().is_none() {
                break;
            }
        }
        driver.snapshot()
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let snap = mid_run_snapshot();
        let bytes = encode_snapshot(&snap);
        let restored = decode_snapshot(&bytes).unwrap();
        assert_eq!(restored, snap);
        assert_eq!(restored.fingerprint(), snap.fingerprint());
    }

    #[test]
    fn every_event_variant_round_trips() {
        let events = [
            Event::Arrive(JobId(7)),
            Event::Finish(JobId(8), 2),
            Event::ResRequest(3),
            Event::ResStart(4),
            Event::ResEnd(5),
            Event::ResCancel(6),
            Event::NodeDown(9),
            Event::NodeUp(10),
            Event::Kill(JobId(11), 3),
            Event::Resubmit(JobId(12)),
            Event::Depart(JobId(13), 1),
            Event::MigrateIn(JobId(14), 2),
            Event::CancelCmd(JobId(15)),
        ];
        let mut w = ByteWriter::new();
        for ev in &events {
            encode_event(ev, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for ev in &events {
            assert_eq!(decode_event(&mut r).unwrap(), *ev);
        }
        assert!(r.is_exhausted());
        let mut r = ByteReader::new(&[200]);
        assert_eq!(
            decode_event(&mut r),
            Err(CodecError::Invalid { what: "event tag" })
        );
    }

    #[test]
    fn corruption_is_detected_before_decoding() {
        let snap = mid_run_snapshot();
        let bytes = encode_snapshot(&snap);

        // A flipped payload byte fails the checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            decode_snapshot(&flipped),
            Err(CodecError::Invalid {
                what: "snapshot checksum"
            })
        );

        // A torn tail is typed truncation.
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 9]),
            Err(CodecError::Truncated { .. })
        ));

        // Wrong magic and unknown version are refused up front.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            decode_snapshot(&wrong_magic),
            Err(CodecError::Invalid {
                what: "snapshot magic"
            })
        );
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xEE;
        assert_eq!(
            decode_snapshot(&wrong_version),
            Err(CodecError::Invalid {
                what: "snapshot version"
            })
        );
    }
}
