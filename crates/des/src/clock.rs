//! Clock abstraction: the same event-loop body driven by either the
//! virtual DES clock or the wall clock.
//!
//! The simulation driver ([`dynp-sim`'s shard core]) never cared *where*
//! events come from — it only reads the current time, handles the event,
//! and schedules follow-ups. [`EventClock`] captures exactly that contract,
//! and two sources implement it:
//!
//! * [`Engine`] — the existing discrete-event queue: time jumps directly
//!   to the next pending event (batch simulation, replay);
//! * [`WallClockSource`] — a live source: timer events fire when the wall
//!   clock reaches their instant, and *external* items (service
//!   submissions, control commands) are injected over a channel and
//!   stamped with the wall time at which they are dequeued.
//!
//! This is the digital-twin split: a daemon runs the driver on a
//! [`WallClockSource`]; replaying the daemon's recorded submissions on an
//! [`Engine`] reproduces the exact same schedule, because both sources
//! present the same `(time, event)` sequence to the same handler.
//!
//! ## Stamp discipline (the replay guarantee)
//!
//! The DES driver seeds exogenous arrivals *before* any dynamic event
//! exists, so at equal instants an arrival dispatches before a completion.
//! The wall source reproduces that order by construction: after a timer
//! event at `t` is dispatched, every later external item is stamped at
//! least `t + 1 ms`. An external item therefore never ties with an
//! already-dispatched timer, and sorting the recorded stamps (the replay)
//! yields exactly the live dispatch order.

use crate::engine::{Engine, EngineSnapshot};
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::time::{SimDuration, SimTime};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// The clock-and-scheduling contract the event-loop body runs against.
///
/// Implemented by the virtual-clock [`Engine`] and the live
/// [`WallClockSource`]; handlers written against this trait run unchanged
/// in batch simulation, replay, and daemon mode.
pub trait EventClock<E> {
    /// The current time (of the event being handled).
    fn now(&self) -> SimTime;

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past — a scheduling bug, not a runtime
    /// condition.
    fn schedule_at(&mut self, time: SimTime, event: E);

    /// Number of events dispatched so far.
    fn processed(&self) -> u64;

    /// Number of timer events still pending.
    fn pending(&self) -> usize;
}

impl<E, Q: EventQueue<E>> EventClock<E> for Engine<E, Q> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn schedule_at(&mut self, time: SimTime, event: E) {
        Engine::schedule_at(self, time, event)
    }

    fn processed(&self) -> u64 {
        Engine::processed(self)
    }

    fn pending(&self) -> usize {
        Engine::pending(self)
    }
}

/// One dispatch from a [`WallClockSource`]: either an internal timer
/// event (scheduled earlier via [`EventClock::schedule_at`]) or an
/// external item injected over the channel. The dispatch time is read
/// from the source's [`EventClock::now`].
#[derive(Debug, PartialEq, Eq)]
pub enum Tick<E, X> {
    /// A scheduled event whose instant the wall clock reached.
    Timer(E),
    /// An injected item, stamped at dequeue.
    External(X),
}

/// A live event source: timers fire at wall-clock instants, external
/// items arrive over an [`std::sync::mpsc`] channel.
///
/// Simulation time is wall time since construction, scaled by `speedup`
/// (sim milliseconds per wall millisecond) — `speedup > 1` runs
/// second-scale workloads in millisecond wall time, which keeps live
/// tests and smoke runs fast without changing any schedule arithmetic.
///
/// When every sender is dropped — or [`WallClockSource::begin_drain`] is
/// called — the source stops sleeping and fast-forwards through the
/// remaining timers in instant order, exactly like a DES engine running
/// dry. Stamps stay monotone throughout, so a drained run is still a
/// valid (replayable) event sequence.
pub struct WallClockSource<E, X> {
    timers: BinaryHeapQueue<E>,
    rx: Receiver<X>,
    epoch: Instant,
    /// Simulation instant the epoch corresponds to — zero for a fresh
    /// source, the recovered clock for a resumed one.
    base: SimTime,
    speedup: u64,
    now: SimTime,
    /// Earliest stamp the next external item may carry; bumped past every
    /// dispatched timer so externals never tie with a dispatched timer.
    min_external: SimTime,
    processed: u64,
    draining: bool,
}

impl<E, X> WallClockSource<E, X> {
    /// Creates a live source over `rx` with the given time scale
    /// (`speedup` sim milliseconds per wall millisecond; 0 is treated
    /// as 1).
    pub fn new(rx: Receiver<X>, speedup: u64) -> Self {
        WallClockSource {
            timers: BinaryHeapQueue::new(),
            rx,
            epoch: Instant::now(),
            base: SimTime::ZERO,
            speedup: speedup.max(1),
            now: SimTime::ZERO,
            min_external: SimTime::ZERO,
            processed: 0,
            draining: false,
        }
    }

    /// Resumes a live source from recovered state: the pending timers,
    /// clock, dynamic tie-break counter (`snap.next_seq` — it decides
    /// future equal-instant ordering, so it must survive a restart) and
    /// the external stamp floor. The wall clock is re-anchored so that
    /// "now" on the wall equals `snap.now` in simulation time; timers in
    /// the recovered future fire at their original instants.
    pub fn resume(
        rx: Receiver<X>,
        speedup: u64,
        snap: &EngineSnapshot<E>,
        min_external: SimTime,
    ) -> Self
    where
        E: Clone,
    {
        WallClockSource {
            timers: BinaryHeapQueue::from_entries(snap.entries.iter().cloned(), snap.next_seq),
            rx,
            epoch: Instant::now(),
            base: snap.now,
            speedup: speedup.max(1),
            now: snap.now,
            min_external: min_external.max(snap.now),
            processed: snap.processed,
            draining: false,
        }
    }

    /// Captures the timer queue and clock as an [`EngineSnapshot`] — the
    /// checkpointable half of the source (the channel and wall anchor are
    /// reconstructed by [`WallClockSource::resume`]).
    pub fn engine_snapshot(&self) -> EngineSnapshot<E>
    where
        E: Clone,
    {
        EngineSnapshot {
            now: self.now,
            processed: self.processed,
            next_seq: self.timers.next_seq(),
            entries: self.timers.entries(),
        }
    }

    /// The earliest stamp the next external item may carry (see the stamp
    /// discipline above). Checkpoints persist it so a resumed source
    /// stamps externals exactly as the uninterrupted one would.
    pub fn min_external(&self) -> SimTime {
        self.min_external
    }

    /// The wall clock mapped into simulation time.
    fn wall_now(&self) -> SimTime {
        self.base.saturating_add(SimDuration::from_millis(
            self.epoch.elapsed().as_millis() as u64 * self.speedup,
        ))
    }

    /// Wall-clock wait until simulation instant `t`, `None` when `t` is
    /// already due.
    fn wait_for(&self, t: SimTime) -> Option<Duration> {
        let target =
            Duration::from_millis(t.saturating_since(self.base).as_millis() / self.speedup);
        target
            .checked_sub(self.epoch.elapsed())
            .filter(|d| !d.is_zero())
    }

    /// Stops waiting on the wall clock: remaining timers dispatch
    /// immediately in instant order and the channel is no longer polled.
    /// Used for graceful shutdown — in-flight events drain at full speed.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Drains any externals still sitting in the channel (used after
    /// [`WallClockSource::begin_drain`] so late clients get an answer
    /// instead of a hang).
    pub fn drain_externals(&mut self) -> Vec<X> {
        let mut out = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(x) => out.push(x),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return out,
            }
        }
    }

    fn dispatch_timer(&mut self) -> Option<Tick<E, X>> {
        let (t, e) = self.timers.pop()?;
        self.now = self.now.max(t);
        self.min_external = self
            .min_external
            .max(t.saturating_add(SimDuration::from_millis(1)));
        self.processed += 1;
        Some(Tick::Timer(e))
    }

    fn dispatch_external(&mut self, x: X) -> Tick<E, X> {
        // Cap the stamp at the earliest pending timer: the channel wait
        // can race just past a timer's deadline, and an external stamped
        // *beyond* a not-yet-dispatched timer would force that timer to
        // fire late (handlers assert exact instants — a completion fires
        // at precisely its scheduled end). Capping is replay-exact: at
        // equal instants the DES replay dispatches seeded arrivals before
        // dynamic timers, which is precisely the live order here. The cap
        // never undercuts `min_external` — while the source is waiting on
        // the channel, every *dispatched* timer lies strictly before the
        // earliest pending one.
        let cap = self.timers.peek_time().unwrap_or(SimTime::MAX);
        self.now = self
            .wall_now()
            .min(cap)
            .max(self.min_external)
            .max(self.now);
        self.processed += 1;
        Tick::External(x)
    }

    /// Blocks until the next dispatch: the earliest pending timer once
    /// the wall clock reaches it, or an external item, whichever comes
    /// first. Returns `None` when the source has run dry (drain mode or
    /// all senders dropped, and no timers pending).
    pub fn next_tick(&mut self) -> Option<Tick<E, X>> {
        loop {
            if self.draining {
                return self.dispatch_timer();
            }
            match self.timers.peek_time() {
                Some(t) => match self.wait_for(t) {
                    // The timer is due; externals still in the channel are
                    // stamped later anyway, so timer-first is the live
                    // order AND the replay order.
                    None => return self.dispatch_timer(),
                    Some(wait) => match self.rx.recv_timeout(wait) {
                        Ok(x) => return Some(self.dispatch_external(x)),
                        Err(RecvTimeoutError::Timeout) => return self.dispatch_timer(),
                        Err(RecvTimeoutError::Disconnected) => self.draining = true,
                    },
                },
                None => match self.rx.recv() {
                    Ok(x) => return Some(self.dispatch_external(x)),
                    Err(_) => return None,
                },
            }
        }
    }
}

impl<E, X> EventClock<E> for WallClockSource<E, X> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        self.timers.push(time, event);
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn pending(&self) -> usize {
        self.timers.len()
    }
}

/// A virtual replay of a wall-clock session: pending timers plus a
/// journal of externally recorded `(stamp, item)` dispatches.
///
/// Recovery replays a journal suffix through the same driver loop the
/// live daemon ran, and must reproduce the live dispatch order exactly.
/// The live order is: a pending timer at `t` fires before any external
/// stamped after `t`, and an external stamped *at* `t` (the cap — see
/// [`WallClockSource`]) fired before that timer. So the replay loop is:
/// dispatch every pending timer strictly before the next journal stamp
/// ([`ReplaySource::pop_timer_before`]), then the external itself
/// ([`ReplaySource::note_external`]). Timers equal to the stamp stay
/// pending until after the external, which is precisely the live order.
///
/// After the journal runs dry the source either drains (pop with
/// `limit = None`) or converts back into a live
/// [`WallClockSource::resume`] via [`ReplaySource::into_snapshot`].
pub struct ReplaySource<E> {
    timers: BinaryHeapQueue<E>,
    now: SimTime,
    min_external: SimTime,
    processed: u64,
}

impl<E: Clone> ReplaySource<E> {
    /// A replay source over recovered timers and clock. `min_external`
    /// restores the stamp floor the checkpointed live source carried.
    pub fn from_snapshot(snap: &EngineSnapshot<E>, min_external: SimTime) -> Self {
        ReplaySource {
            timers: BinaryHeapQueue::from_entries(snap.entries.iter().cloned(), snap.next_seq),
            now: snap.now,
            min_external,
            processed: snap.processed,
        }
    }

    /// An empty replay source starting at time zero — the from-genesis
    /// replay of a complete journal.
    pub fn fresh() -> Self {
        ReplaySource {
            timers: BinaryHeapQueue::new(),
            now: SimTime::ZERO,
            min_external: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Pops the earliest pending timer if its instant lies strictly
    /// before `limit` (or unconditionally when `limit` is `None` — the
    /// drain phase after the journal's last record), advancing the clock
    /// and the external stamp floor exactly as the live source did.
    pub fn pop_timer_before(&mut self, limit: Option<SimTime>) -> Option<E> {
        let t = self.timers.peek_time()?;
        if let Some(limit) = limit {
            if t >= limit {
                return None;
            }
        }
        let (t, e) = self.timers.pop().expect("peek said non-empty");
        self.now = self.now.max(t);
        self.min_external = self
            .min_external
            .max(t.saturating_add(SimDuration::from_millis(1)));
        self.processed += 1;
        Some(e)
    }

    /// Advances the clock to a journaled external's recorded stamp and
    /// counts the dispatch. The caller then applies the external's effect
    /// (submit, cancel) against this source.
    pub fn note_external(&mut self, stamp: SimTime) {
        debug_assert!(stamp >= self.now, "journal stamps must be monotone");
        self.now = self.now.max(stamp);
        self.processed += 1;
    }

    /// Converts the replayed state back into the checkpointable form —
    /// the input to [`WallClockSource::resume`] when the daemon goes live
    /// again after recovery. Returns the engine half and the external
    /// stamp floor.
    pub fn into_snapshot(self) -> (EngineSnapshot<E>, SimTime) {
        (
            EngineSnapshot {
                now: self.now,
                processed: self.processed,
                next_seq: self.timers.next_seq(),
                entries: self.timers.entries(),
            },
            self.min_external,
        )
    }
}

impl<E: Clone> EventClock<E> for ReplaySource<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        self.timers.push(time, event);
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn pending(&self) -> usize {
        self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn engine_satisfies_the_clock_contract() {
        fn drive<C: EventClock<u32>>(clk: &mut C) {
            clk.schedule_at(SimTime::from_secs(1), 7);
            assert_eq!(clk.pending(), 1);
        }
        let mut eng: Engine<u32> = Engine::new();
        drive(&mut eng);
        let (t, e) = eng.step().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(1), 7));
    }

    #[test]
    fn timers_fire_in_instant_order_under_speedup() {
        let (_tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1000);
        // Sim seconds 2, 1, 3 → wall milliseconds; fires in 1, 2, 3 order.
        src.schedule_at(SimTime::from_secs(2), 2);
        src.schedule_at(SimTime::from_secs(1), 1);
        src.schedule_at(SimTime::from_secs(3), 3);
        let mut order = Vec::new();
        for _ in 0..3 {
            match src.next_tick().unwrap() {
                Tick::Timer(v) => {
                    assert!(src.now() >= SimTime::from_secs(v as u64));
                    order.push(v);
                }
                Tick::External(_) => panic!("no externals sent"),
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(src.processed(), 3);
    }

    #[test]
    fn externals_are_stamped_after_dispatched_timers() {
        let (tx, rx) = mpsc::channel::<&'static str>();
        let mut src: WallClockSource<u32, &'static str> = WallClockSource::new(rx, 1000);
        src.schedule_at(SimTime::from_millis(1), 9);
        assert!(matches!(src.next_tick(), Some(Tick::Timer(9))));
        let t_timer = src.now();
        tx.send("hello").unwrap();
        match src.next_tick().unwrap() {
            Tick::External(x) => {
                assert_eq!(x, "hello");
                // Strictly after the dispatched timer: never a tie.
                assert!(src.now() > t_timer);
            }
            Tick::Timer(_) => panic!("no timer pending"),
        }
    }

    #[test]
    fn external_interrupts_a_far_timer() {
        let (tx, rx) = mpsc::channel::<u8>();
        let mut src: WallClockSource<u32, u8> = WallClockSource::new(rx, 1);
        // 1000 sim seconds = 1000 wall seconds away at speedup 1.
        src.schedule_at(SimTime::from_secs(1000), 1);
        tx.send(42).unwrap();
        let start = Instant::now();
        assert!(matches!(src.next_tick(), Some(Tick::External(42))));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "slept to the timer"
        );
        assert_eq!(src.pending(), 1);
    }

    #[test]
    fn drain_fast_forwards_remaining_timers() {
        let (tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1);
        // Hours of sim time; drain must not sleep through them.
        for s in [7200u64, 3600, 10800] {
            src.schedule_at(SimTime::from_secs(s), s as u32);
        }
        src.begin_drain();
        let start = Instant::now();
        let mut order = Vec::new();
        while let Some(Tick::Timer(v)) = src.next_tick() {
            order.push(v);
        }
        assert_eq!(order, vec![3600, 7200, 10800]);
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(src.now(), SimTime::from_secs(10800));
        drop(tx);
    }

    #[test]
    fn dropped_senders_end_the_source() {
        let (tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1000);
        src.schedule_at(SimTime::from_secs(1), 5);
        drop(tx);
        assert!(matches!(src.next_tick(), Some(Tick::Timer(5))));
        assert!(src.next_tick().is_none());
    }

    #[test]
    fn stamps_are_monotone_across_mixed_dispatches() {
        let (tx, rx) = mpsc::channel::<u8>();
        let mut src: WallClockSource<u32, u8> = WallClockSource::new(rx, 1000);
        src.schedule_at(SimTime::from_millis(5), 0);
        src.schedule_at(SimTime::from_millis(50), 1);
        tx.send(0).unwrap();
        let mut last = SimTime::ZERO;
        for _ in 0..3 {
            let _ = src.next_tick().unwrap();
            assert!(src.now() >= last);
            last = src.now();
        }
    }

    #[test]
    fn external_stamps_never_pass_pending_timers() {
        // Race regression: the channel wait can return an external just
        // after a timer's wall deadline; the external's stamp must be
        // capped at that timer's instant, or the timer would fire "late"
        // (driver handlers assert exact completion instants). Each timer
        // carries its scheduled instant as payload, so a stamp overrun
        // shows up as a dispatch-time mismatch.
        let (tx, rx) = mpsc::channel::<u8>();
        let mut src: WallClockSource<u64, u8> = WallClockSource::new(rx, 100);
        let sender = std::thread::spawn(move || {
            for _ in 0..200 {
                if tx.send(1).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        src.schedule_at(SimTime::from_millis(3), 3);
        let mut timers = 0u32;
        while timers < 2000 {
            match src.next_tick() {
                Some(Tick::Timer(at_ms)) => {
                    assert_eq!(
                        src.now(),
                        SimTime::from_millis(at_ms),
                        "timer dispatched off its instant"
                    );
                    timers += 1;
                    let next = src.now().saturating_add(SimDuration::from_millis(3));
                    src.schedule_at(next, next.as_millis());
                }
                Some(Tick::External(_)) => {}
                None => break,
            }
        }
        sender.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn wall_source_rejects_past_schedules() {
        let (_tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1000);
        src.schedule_at(SimTime::from_millis(1), 0);
        let _ = src.next_tick();
        let past = SimTime::ZERO;
        src.schedule_at(past, 1);
    }

    #[test]
    fn replay_source_orders_timers_against_journal_stamps() {
        // Timers at 5 and 10; journal externals stamped 7 and 10. Live
        // order was: timer(5), ext(7), ext(10) — capped at the pending
        // timer, so dispatched before it — then timer(10).
        let mut src: ReplaySource<u32> = ReplaySource::fresh();
        src.schedule_at(SimTime::from_millis(5), 5);
        src.schedule_at(SimTime::from_millis(10), 10);
        let mut order: Vec<String> = Vec::new();
        for stamp_ms in [7u64, 10] {
            let stamp = SimTime::from_millis(stamp_ms);
            while let Some(t) = src.pop_timer_before(Some(stamp)) {
                order.push(format!("timer{t}@{}", src.now().as_millis()));
            }
            src.note_external(stamp);
            order.push(format!("ext@{}", src.now().as_millis()));
        }
        while let Some(t) = src.pop_timer_before(None) {
            order.push(format!("timer{t}@{}", src.now().as_millis()));
        }
        assert_eq!(order, vec!["timer5@5", "ext@7", "ext@10", "timer10@10"]);
        assert_eq!(src.processed(), 4);
        // The stamp floor advanced past the last dispatched timer.
        let (snap, min_external) = src.into_snapshot();
        assert_eq!(min_external, SimTime::from_millis(11));
        assert_eq!(snap.processed, 4);
        assert!(snap.entries.is_empty());
    }

    #[test]
    fn resumed_wall_source_continues_the_recovered_clock() {
        // Build a snapshot mid-run: one timer pending at sim 2.5 s,
        // clock at 2 s, and resume it at speedup 10 (50 ms of wall time
        // to the timer). The timer must fire at its original instant and
        // externals must stamp at/after the recovered floor.
        let snap = EngineSnapshot {
            now: SimTime::from_secs(2),
            processed: 3,
            next_seq: crate::queue::SEEDED_SEQ_LIMIT + 9,
            entries: vec![(
                SimTime::from_millis(2500),
                crate::queue::SEEDED_SEQ_LIMIT + 4,
                55u32,
            )],
        };
        let (tx, rx) = mpsc::channel::<&'static str>();
        let mut src: WallClockSource<u32, &'static str> =
            WallClockSource::resume(rx, 10, &snap, SimTime::from_millis(2001));
        assert_eq!(src.now(), SimTime::from_secs(2));
        assert_eq!(src.processed(), 3);
        assert_eq!(src.pending(), 1);
        tx.send("post-recovery").unwrap();
        match src.next_tick().unwrap() {
            Tick::External(x) => {
                assert_eq!(x, "post-recovery");
                // Stamped at/after the recovered floor, never past the
                // pending timer.
                assert!(src.now() >= SimTime::from_millis(2001));
                assert!(src.now() <= SimTime::from_millis(2500));
            }
            Tick::Timer(_) => panic!("timer fired before the queued external"),
        }
        assert!(matches!(src.next_tick(), Some(Tick::Timer(55))));
        assert_eq!(src.now(), SimTime::from_millis(2500));
        // The resumed snapshot round-trips.
        let snap2 = src.engine_snapshot();
        assert_eq!(snap2.next_seq, crate::queue::SEEDED_SEQ_LIMIT + 9);
        assert!(snap2.entries.is_empty());
        assert_eq!(src.min_external(), SimTime::from_millis(2501));
    }
}
