//! The event loop: a clock plus a pending event set.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::queue::{BinaryHeapQueue, EventQueue, SEEDED_SEQ_LIMIT};
use crate::time::SimTime;

/// A discrete-event simulation engine.
///
/// The engine owns the simulation clock and the pending event set. Events
/// are any user type `E`; handlers receive `&mut Engine` so they can
/// schedule follow-up events. The clock only moves forward, jumping
/// directly to the timestamp of each dequeued event.
///
/// The queue backend defaults to [`BinaryHeapQueue`] but any
/// [`EventQueue`] works (see [`CalendarQueue`](crate::CalendarQueue)).
pub struct Engine<E, Q: EventQueue<E> = BinaryHeapQueue<E>> {
    queue: Q,
    now: SimTime,
    processed: u64,
    _marker: std::marker::PhantomData<E>,
}

impl<E> Engine<E, BinaryHeapQueue<E>> {
    /// Creates an engine with the default binary-heap queue, clock at zero.
    pub fn new() -> Self {
        Engine::with_queue(BinaryHeapQueue::new())
    }
}

impl<E> Default for Engine<E, BinaryHeapQueue<E>> {
    fn default() -> Self {
        Self::new()
    }
}

/// A value snapshot of an [`Engine`] over the default binary-heap queue.
///
/// Pending entries are stored in canonical `(time, seq)` order with their
/// exact sequence numbers, and `next_seq` carries the dynamic tie-break
/// counter — so a restored engine delivers every future event, including
/// ties against events pushed *after* the restore, bit-identically to the
/// snapshotted run. `Hash`/`Eq` make the snapshot usable directly as a
/// model-checker state fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineSnapshot<E> {
    /// Simulation clock at snapshot time.
    pub now: SimTime,
    /// Events processed so far (bookkeeping, not semantic state).
    pub processed: u64,
    /// Next dynamic sequence number the queue would assign.
    pub next_seq: u64,
    /// Pending entries sorted by `(time, seq)`.
    pub entries: Vec<(SimTime, u64, E)>,
}

impl<E> EngineSnapshot<E> {
    /// Appends the clock, the bookkeeping and every pending entry, each
    /// event by `event` (the event type's `encode_into`).
    pub fn encode_into(&self, w: &mut ByteWriter, event: impl Fn(&E, &mut ByteWriter)) {
        w.u64(self.now.as_millis());
        w.u64(self.processed);
        w.u64(self.next_seq);
        w.list(&self.entries, |(t, seq, ev), w| {
            w.u64(t.as_millis());
            w.u64(*seq);
            event(ev, w);
        });
    }

    /// Decodes a snapshot written by [`EngineSnapshot::encode_into`],
    /// refusing one no engine could have taken: a counter inside the
    /// seeded sequence space, or a pending timer before the clock, out of
    /// `(time, seq)` order or carrying a seq the counter has not issued.
    /// Restored, such a snapshot would run the clock backward.
    pub fn decode_from(
        r: &mut ByteReader<'_>,
        event: impl Fn(&mut ByteReader<'_>) -> Result<E, CodecError>,
    ) -> Result<Self, CodecError> {
        let snap = EngineSnapshot {
            now: SimTime::from_millis(r.u64()?),
            processed: r.u64()?,
            next_seq: r.u64()?,
            entries: r.list(|r| Ok((SimTime::from_millis(r.u64()?), r.u64()?, event(r)?)))?,
        };
        let invalid = |what| Err(CodecError::Invalid { what });
        if snap.next_seq < SEEDED_SEQ_LIMIT {
            return invalid("engine sequence counter");
        }
        let mut last = None;
        for &(t, seq, _) in &snap.entries {
            if t < snap.now {
                return invalid("engine timer before the clock");
            }
            if last >= Some((t, seq)) {
                return invalid("engine timer order");
            }
            if seq >= snap.next_seq {
                return invalid("engine timer sequence");
            }
            last = Some((t, seq));
        }
        Ok(snap)
    }
}

impl<E: Clone> Engine<E, BinaryHeapQueue<E>> {
    /// Captures the engine's full state as a value.
    pub fn snapshot(&self) -> EngineSnapshot<E> {
        EngineSnapshot {
            now: self.now,
            processed: self.processed,
            next_seq: self.queue.next_seq(),
            entries: self.queue.entries(),
        }
    }

    /// Restores the engine to a previously captured snapshot. The clock
    /// may move backward — that is the point.
    pub fn restore(&mut self, snap: &EngineSnapshot<E>) {
        self.now = snap.now;
        self.processed = snap.processed;
        self.queue = BinaryHeapQueue::from_entries(snap.entries.iter().cloned(), snap.next_seq);
    }

    /// The events tied at the earliest pending instant, cloned in FIFO
    /// (sequence-rank) order. Index `n` is what [`Engine::step_nth`]`(n)`
    /// would deliver; index 0 is the plain [`Engine::step`] choice.
    pub fn tied_events(&self) -> Vec<E> {
        self.queue
            .tied_head()
            .into_iter()
            .map(|(_, e)| e.clone())
            .collect()
    }

    /// Pops the `n`-th (by FIFO rank) event tied at the earliest pending
    /// instant, advancing the clock to its timestamp. The remaining tied
    /// events keep their ranks. `step_nth(0)` ≡ [`Engine::step`].
    pub fn step_nth(&mut self, n: usize) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop_nth_tied(n)?;
        debug_assert!(t >= self.now, "event queue returned a past event");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }
}

impl<E, Q: EventQueue<E>> Engine<E, Q> {
    /// Creates an engine over a caller-supplied queue backend.
    pub(crate) fn with_queue(queue: Q) -> Self {
        Engine {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past — a scheduling bug, not a runtime
    /// condition.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        self.queue.push(time, event);
    }

    /// Schedules `event` at `time` with an explicit tie-break `rank` that
    /// beats every dynamically scheduled event at the same instant (see
    /// [`EventQueue::push_seeded`]). Exogenous streams injected in chunks
    /// keep the FIFO position they would have had if seeded up front.
    ///
    /// # Panics
    /// Panics if `time` is in the past or `rank` is outside the seeded
    /// sequence space.
    pub fn schedule_seeded(&mut self, time: SimTime, rank: u64, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        self.queue.push_seeded(time, rank, event);
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` when the simulation has run dry.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue returned a past event");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Counts one dispatch that did not come from the queue — an external
    /// item stamped `t` — and moves the clock forward to `t`, never back.
    pub fn dispatch_external(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        self.processed += 1;
    }

    /// Runs until the queue is empty, invoking `handler` for every event.
    /// The handler may schedule further events.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, E)) {
        while let Some((_, e)) = self.step() {
            handler(self, e);
        }
    }

    /// Runs until the queue is empty or the clock passes `horizon`
    /// (exclusive). Events at or beyond the horizon stay in the queue and
    /// the clock is left at the last processed event.
    pub fn run_until(&mut self, horizon: SimTime, mut handler: impl FnMut(&mut Self, E)) {
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            let (_, e) = self.step().expect("peek said non-empty");
            handler(self, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::CalendarQueue;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Pong(u32),
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(10), Ev::Ping(1));
        eng.schedule_at(SimTime::from_secs(3), Ev::Ping(0));
        let mut times = Vec::new();
        eng.run(|e, _| times.push(e.now().as_millis()));
        assert_eq!(times, vec![3_000, 10_000]);
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Ping(3));
        let mut log = Vec::new();
        eng.run(|e, ev| match ev {
            Ev::Ping(n) => {
                log.push(format!("ping{n}@{}", e.now().as_millis()));
                let now = e.now();
                if n > 0 {
                    e.schedule_at(now + SimDuration::from_secs(2), Ev::Ping(n - 1));
                }
                e.schedule_at(now + SimDuration::from_secs(1), Ev::Pong(n));
            }
            Ev::Pong(n) => log.push(format!("pong{n}@{}", e.now().as_millis())),
        });
        assert_eq!(
            log,
            vec![
                "ping3@1000",
                "pong3@2000",
                "ping2@3000",
                "pong2@4000",
                "ping1@5000",
                "pong1@6000",
                "ping0@7000",
                "pong0@8000",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), Ev::Ping(0));
        eng.run(|e, _| {
            e.schedule_at(SimTime::from_secs(1), Ev::Ping(9));
        });
    }

    #[test]
    fn run_until_leaves_future_events_pending() {
        let mut eng: Engine<Ev> = Engine::new();
        for s in [1u64, 2, 3, 4, 5] {
            eng.schedule_at(SimTime::from_secs(s), Ev::Ping(s as u32));
        }
        let mut count = 0;
        eng.run_until(SimTime::from_secs(3), |_, _| count += 1);
        assert_eq!(count, 2); // events at 1s and 2s; 3s is exclusive
        assert_eq!(eng.pending(), 3);
        assert_eq!(eng.now(), SimTime::from_secs(2));
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_secs(7), i);
        }
        let mut order = Vec::new();
        eng.run(|_, i| order.push(i));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_seeded(SimTime::from_secs(4), 0, 100);
        for i in 0..5u32 {
            eng.schedule_at(SimTime::from_secs(4), i);
        }
        eng.schedule_at(SimTime::from_secs(1), 99);
        let _ = eng.step(); // consume the event at 1s
        let snap = eng.snapshot();

        let drain = |e: &mut Engine<u32>| {
            let mut out = Vec::new();
            while let Some((t, ev)) = e.step() {
                // A post-restore push must tie-break exactly as in the
                // original run: next_seq survives the snapshot.
                if ev == 99 {
                    e.schedule_at(SimTime::from_secs(4), 500);
                }
                out.push((t.as_millis(), ev));
            }
            out
        };
        let first = drain(&mut eng);
        assert_eq!(eng.pending(), 0);
        eng.restore(&snap);
        assert_eq!(eng.now(), snap.now);
        assert_eq!(eng.snapshot(), snap);
        let second = drain(&mut eng);
        assert_eq!(first, second);
    }

    #[test]
    fn step_nth_permutes_ties_but_preserves_the_set() {
        let build = || {
            let mut e: Engine<u32> = Engine::new();
            for i in 0..4u32 {
                e.schedule_at(SimTime::from_secs(2), i);
            }
            e.schedule_at(SimTime::from_secs(9), 42);
            e
        };
        let mut eng = build();
        assert_eq!(eng.tied_events(), vec![0, 1, 2, 3]);
        // Deliver rank 2 first, then drain FIFO.
        let (_, first) = eng.step_nth(2).unwrap();
        assert_eq!(first, 2);
        assert_eq!(eng.tied_events(), vec![0, 1, 3]);
        let mut rest = Vec::new();
        while let Some((_, ev)) = eng.step() {
            rest.push(ev);
        }
        assert_eq!(rest, vec![0, 1, 3, 42]);
        // Out-of-range index leaves the queue untouched.
        let mut eng = build();
        assert!(eng.step_nth(4).is_none());
        assert_eq!(eng.pending(), 5);
        assert_eq!(eng.step_nth(0).unwrap().1, 0);
    }

    #[test]
    fn engine_works_with_calendar_backend() {
        let mut eng: Engine<u32, CalendarQueue<u32>> = Engine::with_queue(CalendarQueue::new());
        for i in (0..100u32).rev() {
            eng.schedule_at(SimTime::from_millis(i as u64 * 10), i);
        }
        let mut order = Vec::new();
        eng.run(|_, i| order.push(i));
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }
}
