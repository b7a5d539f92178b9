//! The wall clock: an [`Engine`] whose timers fire when the wall clock
//! reaches them, beside a channel of external items.
//!
//! The simulation driver ([`dynp-sim`'s shard core]) handles every event
//! on an [`Engine`]: it reads the clock, changes its state, and schedules
//! follow-ups. A batch run steps the engine straight to its next event.
//! The daemon runs the *same* engine inside a [`WallClockSource`], which
//! adds only what a wall clock needs: the anchor that maps wall time to
//! simulation time, the sleep until the next timer is due, the channel
//! of *external* items (service submissions, control commands) stamped
//! with the wall time at which they are dequeued, the drain, and the two
//! stamp rules below. The pending timers, the clock and the dispatch
//! count are the engine's, so a checkpoint of the source is an
//! [`crate::EngineSnapshot`] and recovery replays on the source that
//! goes live afterwards.
//!
//! ## Stamp discipline (the replay guarantee)
//!
//! The DES driver seeds exogenous arrivals *before* any dynamic event
//! exists, so at equal instants an arrival dispatches before a completion.
//! The wall source reproduces that order by construction: after a timer
//! event at `t` is dispatched, every later external item is stamped at
//! least `t + 1 ms` (the *floor*), and never past the earliest pending
//! timer (the *cap*). An external item therefore never ties with an
//! already-dispatched timer, and sorting the recorded stamps (the replay)
//! yields exactly the live dispatch order.

use crate::engine::{Engine, EngineSnapshot};
use crate::time::{SimDuration, SimTime};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// One dispatch from a [`WallClockSource`]: either an internal timer
/// event (scheduled earlier on [`WallClockSource::engine_mut`]) or an
/// external item injected over the channel. The dispatch time is the
/// engine's [`Engine::now`].
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
/// Simulation time is wall time since the anchor, scaled by `speedup`
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
    engine: Engine<E>,
    rx: Receiver<X>,
    /// The wall instant at which the simulation clock read `base`.
    epoch: Instant,
    base: SimTime,
    speedup: u64,
    /// Earliest stamp the next external item may carry; bumped past every
    /// dispatched timer so externals never tie with a dispatched timer.
    min_external: SimTime,
    draining: bool,
}

impl<E, X> WallClockSource<E, X> {
    /// Creates a live source over `rx` with the given time scale
    /// (`speedup` sim milliseconds per wall millisecond; 0 is treated
    /// as 1), an empty engine and the clock at zero.
    pub fn new(rx: Receiver<X>, speedup: u64) -> Self {
        WallClockSource {
            engine: Engine::new(),
            rx,
            epoch: Instant::now(),
            base: SimTime::ZERO,
            speedup: speedup.max(1),
            min_external: SimTime::ZERO,
            draining: false,
        }
    }

    /// The engine: the clock, the pending timers and the dispatch count.
    pub fn engine(&self) -> &Engine<E> {
        &self.engine
    }

    /// The engine, for handlers that schedule follow-up timers.
    pub fn engine_mut(&mut self) -> &mut Engine<E> {
        &mut self.engine
    }

    /// The earliest stamp the next external item may carry (see the stamp
    /// discipline above). Checkpoints persist it so a restored source
    /// stamps externals exactly as the uninterrupted one would.
    pub fn min_external(&self) -> SimTime {
        self.min_external
    }

    /// Restores a checkpointed engine — the pending timers, the clock and
    /// the dynamic tie-break counter, which decides future equal-instant
    /// ordering — and the stamp floor it was written with. The wall clock
    /// is re-anchored at the restored instant, so timers in the recovered
    /// future fire at their original instants.
    pub fn restore(&mut self, snap: &EngineSnapshot<E>, min_external: SimTime)
    where
        E: Clone,
    {
        self.engine.restore(snap);
        self.min_external = min_external;
        self.anchor();
    }

    /// Replays one journaled external stamped `stamp` in the order the
    /// live source dispatched it: every timer strictly before the stamp
    /// runs through `handler` and moves the floor past itself, then the
    /// external is counted at its stamp. A timer *at* the stamp stays
    /// pending — live, the external was capped at that timer's instant and
    /// went first. The wall clock is re-anchored at the stamp, so the
    /// source goes live from the last replayed record. The caller then
    /// applies the external's effect on [`WallClockSource::engine_mut`].
    pub fn replay_external(&mut self, stamp: SimTime, mut handler: impl FnMut(&mut Engine<E>, E)) {
        let mut last_timer = None;
        self.engine.run_until(stamp, |eng, ev| {
            last_timer = Some(eng.now());
            handler(eng, ev);
        });
        if let Some(t) = last_timer {
            self.bump_floor(t);
        }
        self.engine.dispatch_external(stamp);
        self.anchor();
    }

    /// Maps "now" on the wall to the engine's clock.
    fn anchor(&mut self) {
        self.epoch = Instant::now();
        self.base = self.engine.now();
    }

    /// The wall clock mapped into simulation time.
    fn wall_now(&self) -> SimTime {
        self.base.saturating_add(SimDuration::from_millis(
            (self.epoch.elapsed().as_millis() as u64).saturating_mul(self.speedup),
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

    /// The floor: externals after a timer dispatched at `t` stamp at
    /// `t + 1 ms` or later. The live and the replay path both bump it here.
    fn bump_floor(&mut self, t: SimTime) {
        self.min_external = self
            .min_external
            .max(t.saturating_add(SimDuration::from_millis(1)));
    }

    fn dispatch_timer(&mut self) -> Option<Tick<E, X>> {
        let (t, e) = self.engine.step()?;
        self.bump_floor(t);
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
        let cap = self.engine.peek_time().unwrap_or(SimTime::MAX);
        self.engine
            .dispatch_external(self.wall_now().min(cap).max(self.min_external));
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
            match self.engine.peek_time() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn timers_fire_in_instant_order_under_speedup() {
        let (_tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1000);
        // Sim seconds 2, 1, 3 → wall milliseconds; fires in 1, 2, 3 order.
        src.engine_mut().schedule_at(SimTime::from_secs(2), 2);
        src.engine_mut().schedule_at(SimTime::from_secs(1), 1);
        src.engine_mut().schedule_at(SimTime::from_secs(3), 3);
        let mut order = Vec::new();
        for _ in 0..3 {
            match src.next_tick().unwrap() {
                Tick::Timer(v) => {
                    assert!(src.engine().now() >= SimTime::from_secs(v as u64));
                    order.push(v);
                }
                Tick::External(_) => panic!("no externals sent"),
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(src.engine().processed(), 3);
    }

    #[test]
    fn externals_are_stamped_after_dispatched_timers() {
        let (tx, rx) = mpsc::channel::<&'static str>();
        let mut src: WallClockSource<u32, &'static str> = WallClockSource::new(rx, 1000);
        src.engine_mut().schedule_at(SimTime::from_millis(1), 9);
        assert!(matches!(src.next_tick(), Some(Tick::Timer(9))));
        let t_timer = src.engine().now();
        tx.send("hello").unwrap();
        match src.next_tick().unwrap() {
            Tick::External(x) => {
                assert_eq!(x, "hello");
                // Strictly after the dispatched timer: never a tie.
                assert!(src.engine().now() > t_timer);
            }
            Tick::Timer(_) => panic!("no timer pending"),
        }
    }

    #[test]
    fn external_interrupts_a_far_timer() {
        let (tx, rx) = mpsc::channel::<u8>();
        let mut src: WallClockSource<u32, u8> = WallClockSource::new(rx, 1);
        // 1000 sim seconds = 1000 wall seconds away at speedup 1.
        src.engine_mut().schedule_at(SimTime::from_secs(1000), 1);
        tx.send(42).unwrap();
        let start = Instant::now();
        assert!(matches!(src.next_tick(), Some(Tick::External(42))));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "slept to the timer"
        );
        assert_eq!(src.engine().pending(), 1);
    }

    #[test]
    fn drain_fast_forwards_remaining_timers() {
        let (tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1);
        // Hours of sim time; drain must not sleep through them.
        for s in [7200u64, 3600, 10800] {
            src.engine_mut()
                .schedule_at(SimTime::from_secs(s), s as u32);
        }
        src.begin_drain();
        let start = Instant::now();
        let mut order = Vec::new();
        while let Some(Tick::Timer(v)) = src.next_tick() {
            order.push(v);
        }
        assert_eq!(order, vec![3600, 7200, 10800]);
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(src.engine().now(), SimTime::from_secs(10800));
        drop(tx);
    }

    #[test]
    fn dropped_senders_end_the_source() {
        let (tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1000);
        src.engine_mut().schedule_at(SimTime::from_secs(1), 5);
        drop(tx);
        assert!(matches!(src.next_tick(), Some(Tick::Timer(5))));
        assert!(src.next_tick().is_none());
    }

    #[test]
    fn stamps_are_monotone_across_mixed_dispatches() {
        let (tx, rx) = mpsc::channel::<u8>();
        let mut src: WallClockSource<u32, u8> = WallClockSource::new(rx, 1000);
        src.engine_mut().schedule_at(SimTime::from_millis(5), 0);
        src.engine_mut().schedule_at(SimTime::from_millis(50), 1);
        tx.send(0).unwrap();
        let mut last = SimTime::ZERO;
        for _ in 0..3 {
            let _ = src.next_tick().unwrap();
            assert!(src.engine().now() >= last);
            last = src.engine().now();
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
        src.engine_mut().schedule_at(SimTime::from_millis(3), 3);
        let mut timers = 0u32;
        while timers < 2000 {
            match src.next_tick() {
                Some(Tick::Timer(at_ms)) => {
                    let now = src.engine().now();
                    assert_eq!(
                        now,
                        SimTime::from_millis(at_ms),
                        "timer dispatched off its instant"
                    );
                    timers += 1;
                    let next = now.saturating_add(SimDuration::from_millis(3));
                    src.engine_mut().schedule_at(next, next.as_millis());
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
        src.engine_mut().schedule_at(SimTime::from_millis(1), 0);
        let _ = src.next_tick();
        let past = SimTime::ZERO;
        src.engine_mut().schedule_at(past, 1);
    }

    #[test]
    fn replayed_externals_order_against_pending_timers() {
        // Timers at 5 and 10; journal externals stamped 7 and 10. Live
        // order was: timer(5), ext(7), ext(10) — capped at the pending
        // timer, so dispatched before it — then timer(10).
        let (_tx, rx) = mpsc::channel::<()>();
        let mut src: WallClockSource<u32, ()> = WallClockSource::new(rx, 1000);
        src.engine_mut().schedule_at(SimTime::from_millis(5), 5);
        src.engine_mut().schedule_at(SimTime::from_millis(10), 10);
        let mut order: Vec<String> = Vec::new();
        for stamp_ms in [7u64, 10] {
            src.replay_external(SimTime::from_millis(stamp_ms), |eng, t| {
                order.push(format!("timer{t}@{}", eng.now().as_millis()));
            });
            order.push(format!("ext@{}", src.engine().now().as_millis()));
        }
        // The floor is past the timer at 5, not yet past the one at 10.
        assert_eq!(src.min_external(), SimTime::from_millis(6));
        src.begin_drain();
        while let Some(Tick::Timer(t)) = src.next_tick() {
            order.push(format!("timer{t}@{}", src.engine().now().as_millis()));
        }
        assert_eq!(order, vec!["timer5@5", "ext@7", "ext@10", "timer10@10"]);
        assert_eq!(src.engine().processed(), 4);
        // The stamp floor advanced past the last dispatched timer.
        assert_eq!(src.min_external(), SimTime::from_millis(11));
        assert_eq!(src.engine().pending(), 0);
    }

    #[test]
    fn restored_wall_source_continues_the_recovered_clock() {
        // Build a snapshot mid-run: one timer pending at sim 2.5 s,
        // clock at 2 s, and restore it at speedup 10 (50 ms of wall time
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
        let mut src: WallClockSource<u32, &'static str> = WallClockSource::new(rx, 10);
        src.restore(&snap, SimTime::from_millis(2001));
        assert_eq!(src.engine().now(), SimTime::from_secs(2));
        assert_eq!(src.engine().processed(), 3);
        assert_eq!(src.engine().pending(), 1);
        tx.send("post-recovery").unwrap();
        match src.next_tick().unwrap() {
            Tick::External(x) => {
                assert_eq!(x, "post-recovery");
                // Stamped at/after the recovered floor, never past the
                // pending timer.
                assert!(src.engine().now() >= SimTime::from_millis(2001));
                assert!(src.engine().now() <= SimTime::from_millis(2500));
            }
            Tick::Timer(_) => panic!("timer fired before the queued external"),
        }
        assert!(matches!(src.next_tick(), Some(Tick::Timer(55))));
        assert_eq!(src.engine().now(), SimTime::from_millis(2500));
        // The restored snapshot round-trips.
        let snap2 = src.engine().snapshot();
        assert_eq!(snap2.next_seq, crate::queue::SEEDED_SEQ_LIMIT + 9);
        assert!(snap2.entries.is_empty());
        assert_eq!(src.min_external(), SimTime::from_millis(2501));
    }
}
