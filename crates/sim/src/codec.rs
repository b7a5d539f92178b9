//! Binary layouts of the simulation state — [`Event`] and
//! [`CoreSnapshot`] — and of the snapshot file that frames a whole
//! [`SimSnapshot`]: the `DYNPSNAP` envelope of DESIGN §14 around
//! `core | engine | feed cursors | scheduler`. Version 1 had no feed
//! cursors — every exogenous event sat in the engine's heap — and still
//! decodes, as "nothing left to feed".
//!
//! [`decode_snapshot`] checks the magic, the version and the checksum
//! before it decodes a single payload field, so a torn or bit-rotted
//! checkpoint is a typed [`CodecError`] — never a panic, and never a
//! silently wrong state. Restoring a decoded snapshot into a driver built
//! from the same inputs reproduces the run bit-identically, fingerprint
//! included (pinned by the round-trip tests below).
//!
//! Every encoder here is exact: the state holds no floats, only
//! integers, and they are stored verbatim, because recovery is defined
//! as *bit* identity with the never-killed run, not approximate
//! equality. The decoders refuse what the bytes alone tell — tags,
//! counts, lengths — and [`decode_snapshot`] hands the decoded state to
//! [`check_state`].

use crate::check::check_state;
use crate::feed::FeedCursors;
use crate::runner::{ReservationReport, SimSnapshot};
use crate::shard::{CoreSnapshot, Event};
use dynp_des::{ByteReader, ByteWriter, CodecError, EngineSnapshot, TimeWeightedCount};
use dynp_metrics::{FaultStats, ReservationStats};
use dynp_rms::{RejectReason, Reservation, RmsState, SchedulerSnapshot};
use dynp_workload::JobId;

/// Magic prefix of a serialized [`SimSnapshot`].
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"DYNPSNAP";
/// Current snapshot format version. Version 2 added the feed cursors;
/// version 1 is still read.
pub const SNAPSHOT_VERSION: u32 = 2;

impl Event {
    /// Appends the event: a tag byte, then its one or two `u32` fields.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        let (tag, a, b) = match *self {
            Event::Arrive(id) => (1, id.0, None),
            Event::Finish(id, attempt) => (2, id.0, Some(attempt)),
            Event::ResRequest(i) => (3, i, None),
            Event::ResStart(i) => (4, i, None),
            Event::ResEnd(i) => (5, i, None),
            Event::ResCancel(i) => (6, i, None),
            Event::NodeDown(n) => (7, n, None),
            Event::NodeUp(n) => (8, n, None),
            Event::Kill(id, attempt) => (9, id.0, Some(attempt)),
            Event::Resubmit(id) => (10, id.0, None),
            Event::Depart(id, to) => (11, id.0, Some(to)),
            Event::MigrateIn(id, from) => (12, id.0, Some(from)),
            Event::CancelCmd(id) => (13, id.0, None),
        };
        w.u8(tag);
        w.u32(a);
        if let Some(b) = b {
            w.u32(b);
        }
    }

    /// Decodes one event written by [`Event::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Event, CodecError> {
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

impl CoreSnapshot {
    /// Appends the complete [`ShardCore`](crate::ShardCore) run state.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.state.encode_into(w);
        w.list(&self.attempts, |a, w| w.u32(*a));
        let f = &self.fstats;
        for v in [
            f.node_downs,
            f.node_ups,
            f.evictions,
            f.crashes,
            f.overruns,
            f.retries,
            f.lost,
            f.down_node_allocations,
            f.downtime_ms,
        ] {
            w.u64(v);
        }
        self.queue_tw.encode_into(w);
        self.busy_tw.encode_into(w);
        w.usize(self.peak_queue);
        let s = &self.report.stats;
        for v in [
            s.requests,
            s.admitted,
            s.rejected_capacity,
            s.rejected_guarantee,
            s.rejected_invalid,
            s.cancelled,
            s.honored,
            s.downgraded,
            s.revoked,
            s.requested_area_pms,
            s.admitted_area_pms,
        ] {
            w.u64(v);
        }
        w.list(&self.report.honored, Reservation::encode_into);
        w.list(&self.report.rejected, |&(id, why), w| {
            w.u32(id);
            w.u8(reject_tag(why));
        });
        w.list(&self.admitted, |(res, cancelled), w| {
            res.encode_into(w);
            w.bool(*cancelled);
        });
        w.u64(self.migrated_out);
        w.u64(self.migrated_in);
    }

    /// Decodes a core snapshot written by [`CoreSnapshot::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<CoreSnapshot, CodecError> {
        Ok(CoreSnapshot {
            state: RmsState::decode_from(r)?,
            attempts: r.list(|r| r.u32())?,
            fstats: FaultStats {
                node_downs: r.u64()?,
                node_ups: r.u64()?,
                evictions: r.u64()?,
                crashes: r.u64()?,
                overruns: r.u64()?,
                retries: r.u64()?,
                lost: r.u64()?,
                down_node_allocations: r.u64()?,
                downtime_ms: r.u64()?,
            },
            queue_tw: TimeWeightedCount::decode_from(r)?,
            busy_tw: TimeWeightedCount::decode_from(r)?,
            peak_queue: r.usize()?,
            report: ReservationReport {
                stats: ReservationStats {
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
                },
                honored: r.list(Reservation::decode_from)?,
                rejected: r.list(|r| Ok((r.u32()?, reject_from_tag(r.u8()?)?)))?,
            },
            admitted: r.list(|r| Ok((Reservation::decode_from(r)?, r.bool()?)))?,
            migrated_out: r.u64()?,
            migrated_in: r.u64()?,
        })
    }
}

/// Serializes a [`SimSnapshot`] into the framed, versioned, checksummed
/// on-disk form.
pub fn encode_snapshot(snap: &SimSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.magic(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.sealed(|w| {
        snap.core.encode_into(w);
        snap.engine.encode_into(w, Event::encode_into);
        w.u32(snap.feed.arrivals);
        w.u32(snap.feed.requests);
        w.u32(snap.feed.outages);
        snap.scheduler.encode_into(w);
    });
    w.into_bytes()
}

/// Deserializes a snapshot written by [`encode_snapshot`], verifying the
/// magic, version, and checksum before touching the payload, and the
/// decoded state with [`check_state`]: the feed's unfed arrivals are the
/// jobs it may lack. Whether the feed cursors fit the streams of the run
/// they are restored into is
/// [`ChaosDriver::try_restore`](crate::ChaosDriver::try_restore)'s check:
/// the streams are the driver's inputs, not part of the snapshot.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SimSnapshot, CodecError> {
    let mut r = ByteReader::new(bytes);
    let version = r.magic(SNAPSHOT_MAGIC, 1..=SNAPSHOT_VERSION)?;
    let mut p = r.sealed()?;
    let snap = SimSnapshot {
        core: CoreSnapshot::decode_from(&mut p)?,
        engine: EngineSnapshot::decode_from(&mut p, Event::decode_from)?,
        feed: match version {
            1 => FeedCursors::default(),
            _ => FeedCursors {
                arrivals: p.u32()?,
                requests: p.u32()?,
                outages: p.u32()?,
            },
        },
        scheduler: SchedulerSnapshot::decode_from(&mut p)?,
    };
    p.finish()?;
    check_state(&snap.core, &snap.engine, snap.feed.arrivals.into(), None)?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ChaosDriver;
    use crate::spec::SchedulerSpec;
    use dynp_core::DeciderKind;
    use dynp_des::{SimDuration, SimTime};
    use dynp_rms::AdmissionConfig;
    use dynp_workload::{FaultPlan, Job, JobSet, ReservationRequest};

    fn mid_run_snapshot() -> SimSnapshot {
        snapshot_after(80)
    }

    /// A real run state after `steps` events — 80 give waiting, running,
    /// and completed jobs, admitted + rejected reservations, and pending
    /// events. The first job arrives at 30 s, after the first request.
    fn snapshot_after(steps: usize) -> SimSnapshot {
        let jobs: Vec<Job> = (0..60u32)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(30 + i as u64 * 30),
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
        for _ in 0..steps {
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
    fn a_time_weight_past_the_clock_is_refused() {
        let with_weight_at = |snap: &SimSnapshot, t: SimTime| {
            let mut snap = snap.clone();
            snap.core.queue_tw = TimeWeightedCount::new(t, 0);
            decode_snapshot(&encode_snapshot(&snap))
        };
        let refused = Err(CodecError::Invalid {
            what: "time weight past the clock",
        });
        let mid = mid_run_snapshot();
        assert!(with_weight_at(&mid, mid.engine.now).is_ok());
        let past = mid.engine.now + SimDuration::from_millis(1);
        assert_eq!(with_weight_at(&mid, past), refused);

        // Nothing dispatched: the clock is still 0, the weights start at
        // the first request (5 s), and so does the first pending event.
        let root = snapshot_after(0);
        assert_eq!(root.engine.now, SimTime::ZERO);
        assert_eq!(decode_snapshot(&encode_snapshot(&root)).unwrap(), root);
        let first = SimTime::from_secs(5);
        assert!(with_weight_at(&root, first).is_ok());
        assert_eq!(
            with_weight_at(&root, first + SimDuration::from_millis(1)),
            refused
        );
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
            ev.encode_into(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for ev in &events {
            assert_eq!(Event::decode_from(&mut r).unwrap(), *ev);
        }
        assert!(r.is_exhausted());
        let mut r = ByteReader::new(&[200]);
        assert_eq!(
            Event::decode_from(&mut r),
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
        assert_eq!(decode_snapshot(&flipped), Err(CodecError::BadChecksum));

        // A torn tail is typed truncation.
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 9]),
            Err(CodecError::Truncated { .. })
        ));

        // Wrong magic and unknown version are refused up front.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_snapshot(&wrong_magic), Err(CodecError::BadMagic));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xEE;
        assert_eq!(
            decode_snapshot(&wrong_version),
            Err(CodecError::UnknownVersion { version: 0xEE })
        );
    }
}
