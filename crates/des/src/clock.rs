//! The wall clock: an [`Engine`] whose timers fire when the wall clock
//! reaches them, between externals stamped with the wall time.
//!
//! The simulation driver ([`dynp-sim`'s shard core]) handles every event
//! on an [`Engine`]: it reads the clock, changes its state, and schedules
//! follow-ups. A batch run steps the engine straight to its next event.
//! The daemon runs the *same* engine inside a [`WallClockSource`], which
//! adds only what a wall clock needs: the anchor that maps wall time to
//! simulation time, the wait until the next timer is due, the stamp of
//! an *external* item (a service submission, a control command), the
//! drain, and the stamp rule below. The pending timers, the clock and
//! the dispatch count are the engine's, so a checkpoint of the source is
//! an [`crate::EngineSnapshot`] and recovery replays on the source that
//! goes live afterwards.
//!
//! A live external and a journaled one take the same step,
//! [`WallClockSource::replay_external`]: every timer strictly before the
//! stamp runs, then the external is counted at the stamp. Live, the
//! stamp is [`WallClockSource::live_stamp`]; in recovery it is the
//! journal's.
//!
//! ## Stamp discipline (the replay guarantee)
//!
//! The DES driver seeds exogenous arrivals *before* any dynamic event
//! exists, so at equal instants an arrival dispatches before a completion.
//! The wall source reproduces that order by construction: after a timer
//! event at `t` is dispatched, every later external item is stamped at
//! least `t + 1 ms` (the *floor*), and no timer is left pending before an
//! external's stamp, because the step that counts the external runs
//! those timers first. An external therefore never ties with an
//! already-dispatched timer, a timer at its very instant goes after it,
//! and sorting the recorded stamps (the replay) yields exactly the live
//! dispatch order.

use crate::engine::{Engine, EngineSnapshot};
use crate::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// A live event source: timers fire at wall-clock instants, externals are
/// stamped with the wall clock.
///
/// Simulation time is wall time since the anchor, scaled by `speedup`
/// (sim milliseconds per wall millisecond) — `speedup > 1` runs
/// second-scale workloads in millisecond wall time, which keeps live
/// tests and smoke runs fast without changing any schedule arithmetic.
///
/// The source never waits itself: [`WallClockSource::run_due`] says how
/// long its caller may sleep, and [`WallClockSource::drain`] fast-forwards
/// through the remaining timers in instant order, exactly like a DES
/// engine running dry. Stamps stay monotone throughout, so a drained run
/// is still a valid (replayable) event sequence.
pub struct WallClockSource<E> {
    engine: Engine<E>,
    /// The wall instant at which the simulation clock read `base`.
    epoch: Instant,
    base: SimTime,
    speedup: u64,
    /// Earliest stamp the next external item may carry; bumped past every
    /// dispatched timer so externals never tie with a dispatched timer.
    min_external: SimTime,
}

impl<E> WallClockSource<E> {
    /// Creates a live source with the given time scale (`speedup` sim
    /// milliseconds per wall millisecond; 0 is treated as 1), an empty
    /// engine and the clock at zero.
    pub fn new(speedup: u64) -> Self {
        WallClockSource {
            engine: Engine::new(),
            epoch: Instant::now(),
            base: SimTime::ZERO,
            speedup: speedup.max(1),
            min_external: SimTime::ZERO,
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
    /// stays where it was until [`WallClockSource::anchor`].
    pub fn restore(&mut self, snap: &EngineSnapshot<E>, min_external: SimTime)
    where
        E: Clone,
    {
        self.engine.restore(snap);
        self.min_external = min_external;
    }

    /// Dispatches one external stamped `stamp` in the order the live
    /// source dispatches it: every timer strictly before the stamp runs
    /// through `handler` and moves the floor past itself, then the
    /// external is counted at its stamp. A timer *at* the stamp stays
    /// pending and goes after the external. The caller then applies the
    /// external's effect on [`WallClockSource::engine_mut`].
    pub fn replay_external(&mut self, stamp: SimTime, mut handler: impl FnMut(&mut Engine<E>, E)) {
        while self.engine.peek_time().is_some_and(|t| t < stamp) {
            self.fire(&mut handler);
        }
        self.engine.dispatch_external(stamp);
    }

    /// The stamp of an external arriving now: the wall clock, never
    /// below the floor. Handing it to [`WallClockSource::replay_external`]
    /// leaves no pending timer before it.
    pub fn live_stamp(&self) -> SimTime {
        self.wall_now().max(self.min_external)
    }

    /// Maps "now" on the wall to the engine's clock, so timers in the
    /// future fire at their instants. Recovery calls it once, when the
    /// journal has been replayed. A live external must not: the wall
    /// clock reads whole milliseconds, and re-anchoring at every command
    /// would drop the fraction each time.
    pub fn anchor(&mut self) {
        self.epoch = Instant::now();
        self.base = self.engine.now();
    }

    /// Runs, through `handler`, every timer whose instant the wall clock
    /// has reached. Returns the wall time until the next pending timer is
    /// due, or `None` when no timer is pending.
    pub fn run_due(&mut self, mut handler: impl FnMut(&mut Engine<E>, E)) -> Option<Duration> {
        loop {
            let wait = self.wait_for(self.engine.peek_time()?);
            if wait.is_some() {
                return wait;
            }
            self.fire(&mut handler);
        }
    }

    /// Runs every remaining timer at once, in instant order, without
    /// waiting on the wall clock: the graceful shutdown, where in-flight
    /// events drain at full speed.
    pub fn drain(&mut self, mut handler: impl FnMut(&mut Engine<E>, E)) {
        while self.fire(&mut handler) {}
    }

    /// Dispatches the earliest pending timer and moves the floor past it;
    /// false when none is pending.
    fn fire(&mut self, handler: &mut impl FnMut(&mut Engine<E>, E)) -> bool {
        let Some((t, e)) = self.engine.step() else {
            return false;
        };
        self.min_external = self
            .min_external
            .max(t.saturating_add(SimDuration::from_millis(1)));
        handler(&mut self.engine, e);
        true
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs due timers, sleeping as `run_due` says, until none is pending.
    fn run_out<E>(src: &mut WallClockSource<E>, mut handler: impl FnMut(&mut Engine<E>, E)) {
        while let Some(wait) = src.run_due(&mut handler) {
            std::thread::sleep(wait);
        }
    }

    /// A live external: stamped now, then dispatched after every timer
    /// before its stamp, which `handler` runs. Returns the stamp.
    fn live<E>(src: &mut WallClockSource<E>, handler: impl FnMut(&mut Engine<E>, E)) -> SimTime {
        let stamp = src.live_stamp();
        src.replay_external(stamp, handler);
        assert_eq!(
            src.engine().now(),
            stamp,
            "an external moves the clock to its stamp"
        );
        stamp
    }

    #[test]
    fn timers_fire_in_instant_order_under_speedup() {
        let start = Instant::now();
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
        // Sim seconds 2, 1, 3 → wall milliseconds; fires in 1, 2, 3 order.
        src.engine_mut().schedule_at(SimTime::from_secs(2), 2);
        src.engine_mut().schedule_at(SimTime::from_secs(1), 1);
        src.engine_mut().schedule_at(SimTime::from_secs(3), 3);
        let mut order = Vec::new();
        run_out(&mut src, |eng, v| {
            assert_eq!(eng.now(), SimTime::from_secs(v as u64));
            order.push(v);
        });
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(src.engine().processed(), 3);
        assert!(start.elapsed() >= Duration::from_millis(3), "fired early");
    }

    #[test]
    fn externals_are_stamped_after_dispatched_timers() {
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
        src.engine_mut().schedule_at(SimTime::from_millis(1), 9);
        let mut fired = Vec::new();
        run_out(&mut src, |_, v| fired.push(v));
        assert_eq!(fired, vec![9]);
        let t_timer = src.engine().now();
        // Strictly after the dispatched timer: never a tie.
        assert!(live(&mut src, |_, _| panic!("no timer pending")) > t_timer);
    }

    #[test]
    fn a_live_external_does_not_wait_for_a_far_timer() {
        let mut src: WallClockSource<u32> = WallClockSource::new(1);
        // 1000 sim seconds = 1000 wall seconds away at speedup 1.
        src.engine_mut().schedule_at(SimTime::from_secs(1000), 1);
        assert!(src.run_due(|_, _| panic!("not due")).unwrap() > Duration::from_secs(900));
        let stamp = live(&mut src, |_, _| panic!("the timer ran before its instant"));
        assert!(stamp < SimTime::from_secs(1000));
        assert_eq!(src.engine().pending(), 1);
    }

    #[test]
    fn timers_before_a_stamp_run_first() {
        // Timers at 1 and 2 ms are due under speedup 1000 once the wall
        // has moved a millisecond; a live external runs them, in order,
        // before it counts itself.
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
        src.engine_mut().schedule_at(SimTime::from_millis(2), 2);
        src.engine_mut().schedule_at(SimTime::from_millis(1), 1);
        std::thread::sleep(Duration::from_millis(2));
        let mut order = Vec::new();
        let stamp = live(&mut src, |eng, v| order.push((v, eng.now().as_millis())));
        assert_eq!(order, vec![(1, 1), (2, 2)]);
        assert!(stamp >= SimTime::from_millis(3));
        assert_eq!(src.min_external(), SimTime::from_millis(3));
        assert_eq!(src.engine().processed(), 3);
    }

    #[test]
    fn drain_fast_forwards_remaining_timers() {
        let mut src: WallClockSource<u32> = WallClockSource::new(1);
        // Hours of sim time; drain must not sleep through them.
        for s in [7200u64, 3600, 10800] {
            src.engine_mut()
                .schedule_at(SimTime::from_secs(s), s as u32);
        }
        let start = Instant::now();
        let mut order = Vec::new();
        src.drain(|_, v| order.push(v));
        assert_eq!(order, vec![3600, 7200, 10800]);
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(src.engine().now(), SimTime::from_secs(10800));
        assert_eq!(src.min_external(), SimTime::from_millis(10_800_001));
    }

    #[test]
    fn a_timer_at_the_stamp_stays_pending() {
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
        src.engine_mut().schedule_at(SimTime::from_millis(7), 7);
        src.replay_external(SimTime::from_millis(7), |_, _| panic!("ran at the stamp"));
        assert_eq!(src.engine().pending(), 1);
        // The floor moves only past a dispatched timer.
        assert_eq!(src.min_external(), SimTime::ZERO);
        let mut fired = Vec::new();
        src.drain(|eng, v| fired.push((v, eng.now().as_millis())));
        assert_eq!(fired, vec![(7, 7)]);
    }

    #[test]
    fn stamps_are_monotone_across_mixed_dispatches() {
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
        src.engine_mut().schedule_at(SimTime::from_millis(5), 0);
        src.engine_mut().schedule_at(SimTime::from_millis(50), 1);
        let mut last = SimTime::ZERO;
        for i in 0..40 {
            if i % 2 == 0 {
                live(&mut src, |_, _| {});
            } else {
                let _ = src.run_due(|_, _| {});
            }
            assert!(src.engine().now() >= last);
            last = src.engine().now();
            std::thread::sleep(Duration::from_micros(300));
        }
    }

    #[test]
    fn timers_fire_at_their_instants_between_live_externals() {
        // Each timer carries its scheduled instant as payload and
        // schedules the next one 3 ms later; live externals every 0.3 ms
        // of wall time run whatever lies before their stamps. A timer
        // dispatched off its instant, or left pending before a stamp,
        // would break the live ≡ replay order.
        let mut src: WallClockSource<u64> = WallClockSource::new(100);
        src.engine_mut().schedule_at(SimTime::from_millis(3), 3);
        let mut timers = 0u32;
        let mut on_timer = |eng: &mut Engine<u64>, at_ms: u64| {
            let now = eng.now();
            assert_eq!(
                now,
                SimTime::from_millis(at_ms),
                "timer dispatched off its instant"
            );
            timers += 1;
            let next = now.saturating_add(SimDuration::from_millis(3));
            eng.schedule_at(next, next.as_millis());
        };
        for _ in 0..200 {
            let stamp = live(&mut src, &mut on_timer);
            assert!(src.engine().peek_time().unwrap() >= stamp);
            let _ = src.run_due(&mut on_timer);
            std::thread::sleep(Duration::from_micros(300));
        }
        assert!(timers > 0);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn wall_source_rejects_past_schedules() {
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
        src.engine_mut().schedule_at(SimTime::from_millis(1), 0);
        run_out(&mut src, |_, _| {});
        let past = SimTime::ZERO;
        src.engine_mut().schedule_at(past, 1);
    }

    #[test]
    fn replayed_externals_order_against_pending_timers() {
        // Timers at 5 and 10; journal externals stamped 7 and 10. Live
        // order was: timer(5), ext(7), ext(10) — a timer at the stamp
        // goes after the external — then timer(10).
        let mut src: WallClockSource<u32> = WallClockSource::new(1000);
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
        src.drain(|eng, t| order.push(format!("timer{t}@{}", eng.now().as_millis())));
        assert_eq!(order, vec!["timer5@5", "ext@7", "ext@10", "timer10@10"]);
        assert_eq!(src.engine().processed(), 4);
        // The stamp floor advanced past the last dispatched timer.
        assert_eq!(src.min_external(), SimTime::from_millis(11));
        assert_eq!(src.engine().pending(), 0);
    }

    #[test]
    fn restored_wall_source_continues_the_recovered_clock() {
        // Build a snapshot mid-run: one timer pending at sim 2.5 s,
        // clock at 2 s, and restore it at speedup 1 (500 ms of wall time
        // to the timer). Externals must stamp at/after the recovered
        // floor, and the timer must fire at its original instant.
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
        let mut src: WallClockSource<u32> = WallClockSource::new(1);
        src.restore(&snap, SimTime::from_millis(2001));
        src.anchor();
        assert_eq!(src.engine().now(), SimTime::from_secs(2));
        assert_eq!(src.engine().processed(), 3);
        assert_eq!(src.engine().pending(), 1);
        let stamp = live(&mut src, |_, _| panic!("timer fired before the external"));
        assert!(stamp >= SimTime::from_millis(2001));
        assert!(stamp < SimTime::from_millis(2500));
        let mut fired = Vec::new();
        src.drain(|eng, v| fired.push((v, eng.now())));
        assert_eq!(fired, vec![(55, SimTime::from_millis(2500))]);
        // The restored snapshot round-trips.
        let snap2 = src.engine().snapshot();
        assert_eq!(snap2.next_seq, crate::queue::SEEDED_SEQ_LIMIT + 9);
        assert!(snap2.entries.is_empty());
        assert_eq!(src.min_external(), SimTime::from_millis(2501));
    }

    #[test]
    fn live_dispatch_keeps_the_wall_anchor() {
        // 200 live externals about 0.25 ms apart at speedup 1000. The
        // wall clock reads whole milliseconds since the anchor, so a
        // source that re-anchored at every external would never see a
        // millisecond pass and its clock would stand still.
        let speedup = 1000;
        let mut src: WallClockSource<u32> = WallClockSource::new(speedup);
        let start = Instant::now();
        let mut wall = Duration::ZERO;
        for _ in 0..200 {
            std::thread::sleep(Duration::from_micros(250));
            wall = start.elapsed();
            live(&mut src, |_, _| {});
        }
        let floor_ms = (wall.as_micros() as u64).saturating_sub(1000) * speedup / 1000;
        assert!(
            src.engine().now() >= SimTime::from_millis(floor_ms),
            "{:?} of wall time moved the clock to {:?} only",
            wall,
            src.engine().now()
        );
    }
}
