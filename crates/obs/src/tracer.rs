//! The tracer: a cheaply cloneable recording handle with a bounded ring
//! buffer and RAII span guards.

use crate::event::{TraceClass, TraceEvent, TraceLevel, TraceRecord};
use dynp_des::SimTime;
use std::collections::VecDeque;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The wall-clock source behind a tracer's `wall_ns` stamps.
///
/// The default source is monotonic time since the tracer's creation
/// ([`Tracer::enabled`]); deterministic tests inject a `ManualClock` so
/// stamps are exact values instead of elapsed real time.
pub(crate) trait TraceClock: Send + Sync {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The default clock: monotonic nanoseconds since construction.
struct MonotonicClock {
    epoch: Instant,
}

impl TraceClock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A manually-advanced clock for deterministic trace tests: reads return
/// exactly the last value stored, so `wall_ns` stamps can be asserted
/// byte-for-byte.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct ManualClock(AtomicU64);

#[cfg(test)]
impl ManualClock {
    /// A manual clock starting at `ns`.
    pub(crate) fn new(ns: u64) -> Arc<ManualClock> {
        Arc::new(ManualClock(AtomicU64::new(ns)))
    }

    /// Sets the clock to an absolute value.
    pub(crate) fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }

    /// Moves the clock forward by `ns`.
    pub(crate) fn advance_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
impl TraceClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default ring-buffer capacity: enough for a quick-mode run at
/// [`TraceLevel::All`] (a 2 500-job run emits ~40 k records) with a wide
/// margin, while bounding a paper-scale firehose to ~100 MB.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 20;

struct Ring {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

struct Inner {
    level: TraceLevel,
    clock: Arc<dyn TraceClock>,
    ring: Mutex<Ring>,
}

/// The recording handle threaded through schedulers, planners, the
/// admission controller and the simulation driver.
///
/// Cloning is cheap (an `Arc` bump or a `None` copy); all clones feed the
/// same ring buffer. The disabled tracer — [`Tracer::disabled`], also the
/// `Default` — holds no allocation at all, and every recording call on it
/// is a single branch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => write!(f, "Tracer(level={})", inner.level.name()),
        }
    }
}

impl Tracer {
    /// The no-op tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording at `level` into a ring buffer of 2²⁰ records
    /// (`DEFAULT_CAPACITY`).
    pub fn enabled(level: TraceLevel) -> Tracer {
        Tracer::with_capacity(level, DEFAULT_CAPACITY)
    }

    /// A tracer recording at `level` into a ring buffer of `capacity`
    /// records; on overflow the oldest record is dropped (and counted in
    /// [`TraceSnapshot::dropped`]).
    ///
    /// `level == Off` yields the disabled tracer.
    pub fn with_capacity(level: TraceLevel, capacity: usize) -> Tracer {
        Tracer::with_clock(
            level,
            capacity,
            Arc::new(MonotonicClock {
                epoch: Instant::now(),
            }),
        )
    }

    /// A tracer stamping records from the given [`TraceClock`] instead of
    /// a private monotonic epoch; deterministic tests pass a `ManualClock`.
    ///
    /// `level == Off` yields the disabled tracer.
    pub(crate) fn with_clock(
        level: TraceLevel,
        capacity: usize,
        clock: Arc<dyn TraceClock>,
    ) -> Tracer {
        if level == TraceLevel::Off || capacity == 0 {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Arc::new(Inner {
                level,
                clock,
                ring: Mutex::new(Ring {
                    buf: VecDeque::new(),
                    capacity,
                    seq: 0,
                    dropped: 0,
                }),
            })),
        }
    }

    /// True when any recording can happen at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when events of `class` are captured. Callers with non-trivial
    /// event construction cost (e.g. cloning a score vector) should gate
    /// on this before building the event.
    pub fn wants(&self, class: TraceClass) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => class.captured_at(inner.level),
        }
    }

    /// Records `event` at simulation instant `sim` (if the level captures
    /// its class), stamping it with the current wall clock.
    pub fn record(&self, sim: SimTime, event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        if !event.class().captured_at(inner.level) {
            return;
        }
        let wall_ns = inner.clock.now_ns();
        inner.push(sim, wall_ns, event);
    }

    /// Starts an RAII wall-clock span named `name` at simulation instant
    /// `sim`. Dropping the guard records a [`TraceEvent::Span`] whose
    /// `wall_ns` is the span start and whose duration is the guard's
    /// lifetime. On a disabled (or below-`Spans`) tracer the guard is
    /// inert and no clock is read.
    pub fn span(&self, sim: SimTime, name: &'static str) -> SpanGuard {
        let armed = match &self.inner {
            Some(inner) if TraceClass::Span.captured_at(inner.level) => Some(inner.clock.now_ns()),
            _ => None,
        };
        SpanGuard {
            inner: self.inner.clone(),
            name,
            sim,
            start: armed,
        }
    }

    /// Wall-clock nanoseconds since the tracer's creation; 0 when
    /// disabled. Used by callers that time a phase themselves (e.g. the
    /// per-policy plan loop) instead of going through a guard.
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.clock.now_ns())
    }

    /// Records a span-like event with an explicit start stamp (from
    /// [`Tracer::now_ns`]) — the event carries its own duration.
    pub fn record_at(&self, sim: SimTime, wall_start_ns: u64, event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        if !event.class().captured_at(inner.level) {
            return;
        }
        inner.push(sim, wall_start_ns, event);
    }

    /// Copies the recorded trace out (the buffer keeps recording).
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot::default(),
            Some(inner) => {
                let ring = inner.ring.lock().expect("tracer ring poisoned");
                TraceSnapshot {
                    records: ring.buf.iter().cloned().collect(),
                    dropped: ring.dropped,
                }
            }
        }
    }
}

impl Inner {
    fn push(&self, sim: SimTime, wall_ns: u64, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.seq;
        ring.seq += 1;
        ring.buf.push_back(TraceRecord {
            seq,
            sim,
            wall_ns,
            event,
        });
    }
}

/// An RAII guard measuring one wall-clock phase; see [`Tracer::span`].
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    name: &'static str,
    sim: SimTime,
    start: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(start_ns)) = (&self.inner, self.start) else {
            return;
        };
        let dur_ns = inner.clock.now_ns().saturating_sub(start_ns);
        inner.push(
            self.sim,
            start_ns,
            TraceEvent::Span {
                name: self.name,
                dur_ns,
            },
        );
    }
}

/// The recorded trace at one point in time.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Records in sequence order (oldest surviving first).
    pub records: Vec<TraceRecord>,
    /// Records lost to ring-buffer overflow before the snapshot.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert!(!tracer.wants(TraceClass::Decision));
        tracer.record(
            t(1),
            TraceEvent::PolicySwitch {
                from: "FCFS",
                to: "SJF",
            },
        );
        drop(tracer.span(t(1), "step"));
        let snap = tracer.snapshot();
        assert!(snap.records.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn off_level_is_disabled() {
        assert!(!Tracer::enabled(TraceLevel::Off).is_enabled());
        assert!(!Tracer::with_capacity(TraceLevel::All, 0).is_enabled());
    }

    #[test]
    fn level_gates_classes() {
        let tracer = Tracer::enabled(TraceLevel::Decisions);
        tracer.record(
            t(1),
            TraceEvent::PolicySwitch {
                from: "FCFS",
                to: "SJF",
            },
        );
        tracer.record(
            t(1),
            TraceEvent::SimEvent {
                kind: "arrive",
                id: 0,
            },
        );
        drop(tracer.span(t(1), "step")); // Span class: not captured
        let snap = tracer.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert!(matches!(
            snap.records[0].event,
            TraceEvent::PolicySwitch { .. }
        ));
    }

    #[test]
    fn spans_measure_and_stamp() {
        let tracer = Tracer::enabled(TraceLevel::Spans);
        {
            let _guard = tracer.span(t(5), "prepare");
            std::hint::black_box(42);
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.records.len(), 1);
        let rec = &snap.records[0];
        assert_eq!(rec.sim, t(5));
        match rec.event {
            TraceEvent::Span { name, dur_ns } => {
                assert_eq!(name, "prepare");
                // Duration is measured (may legitimately be 0 ns on a
                // coarse clock, but the record must exist).
                let _ = dur_ns;
            }
            ref other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tracer = Tracer::with_capacity(TraceLevel::All, 3);
        for i in 0..5 {
            tracer.record(
                t(i),
                TraceEvent::SimEvent {
                    kind: "arrive",
                    id: i,
                },
            );
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.dropped, 2);
        // Oldest surviving is seq 2; sequence numbers keep counting.
        assert_eq!(snap.records[0].seq, 2);
        assert_eq!(snap.records[2].seq, 4);
    }

    #[test]
    fn clones_share_one_buffer() {
        let tracer = Tracer::enabled(TraceLevel::Decisions);
        let clone = tracer.clone();
        clone.record(
            t(1),
            TraceEvent::AdmissionVerdict {
                request: 7,
                verdict: "admitted",
            },
        );
        assert_eq!(tracer.snapshot().records.len(), 1);
    }

    #[test]
    fn manual_clock_gives_exact_stamps() {
        let clock = ManualClock::new(100);
        let tracer = Tracer::with_clock(TraceLevel::All, 16, clock.clone());
        tracer.record(
            t(1),
            TraceEvent::SimEvent {
                kind: "arrive",
                id: 0,
            },
        );
        clock.advance_ns(50);
        {
            let _guard = tracer.span(t(2), "plan");
            clock.advance_ns(25);
        }
        clock.set_ns(1000);
        assert_eq!(tracer.now_ns(), 1000);
        let snap = tracer.snapshot();
        assert_eq!(snap.records[0].wall_ns, 100);
        match snap.records[1].event {
            TraceEvent::Span { name, dur_ns } => {
                assert_eq!(name, "plan");
                assert_eq!(dur_ns, 25);
                assert_eq!(snap.records[1].wall_ns, 150);
            }
            ref other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let tracer = Tracer::enabled(TraceLevel::All);
        for i in 0..10 {
            tracer.record(
                t(i),
                TraceEvent::SimEvent {
                    kind: "finish",
                    id: i,
                },
            );
        }
        let snap = tracer.snapshot();
        for w in snap.records.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].wall_ns <= w[1].wall_ns);
        }
    }
}
