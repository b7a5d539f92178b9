//! Measuring the layers from outside.
//!
//! Two instruments, neither of which touches the program:
//!
//! * [`Probe`] wraps the `dyn Scheduler` handed to `simulate_chaos`. In
//!   every run it counts replans and pauses a long pass for host-speed
//!   samples (see [`crate::hostspeed`]); in a traced run it also times
//!   every `replan` call, which splits a pass into *replan* and the
//!   driver residual with nothing left over.
//! * [`self_times`] turns the records of the program's existing
//!   `dynp_obs::Tracer` (spans `event`, `replan`, `prepare`, `admission`
//!   and the per-policy `PlanBuilt` timings) into self time per span
//!   name: a span's duration minus the part its children cover.

use crate::hostspeed::{self, Section, Spent, Stopwatch};
use dynp_des::SimTime;
use dynp_obs::{TraceEvent, TraceRecord, Tracer};
use dynp_rms::{Policy, ReplanReason, RmsState, Schedule, Scheduler, SchedulerSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// How many replans pass between two looks at the clock. At the
/// shallowest queue a replan takes ~0.4 µs, so one clock read per 64
/// costs under 0.1 %.
const CLOCK_STRIDE: u64 = 64;

/// The timing wrapper around the scheduler under test.
pub struct Probe<'a> {
    inner: &'a mut dyn Scheduler,
    time_replans: bool,
    sample_in_pass: bool,
    /// `replan` calls seen.
    pub replans: u64,
    /// Wall nanoseconds inside `replan` (traced runs only).
    pub replan_ns: u64,
    last_sample: Instant,
    /// What the in-pass speed samples of the current section cost.
    paused: Spent,
    speeds: Vec<f64>,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`; `time_replans` turns on per-call timing.
    pub fn new(inner: &'a mut dyn Scheduler, time_replans: bool) -> Probe<'a> {
        Probe {
            inner,
            time_replans,
            sample_in_pass: true,
            replans: 0,
            replan_ns: 0,
            last_sample: Instant::now(),
            paused: Spent::default(),
            speeds: Vec::new(),
        }
    }

    /// Leaves the host-speed samples to the section's two ends. A pass
    /// under the program's tracer needs this: a sample taken between two
    /// replans would sit inside the driver's `event` span.
    pub fn without_in_pass_samples(mut self) -> Probe<'a> {
        self.sample_in_pass = false;
        self
    }

    /// Runs `work` (which must drive this probe) as one timed section:
    /// bracketed by speed samples, with the in-pass samples folded in and
    /// their pauses taken out of the section's own time.
    pub fn section<T>(&mut self, work: impl FnOnce(&mut Probe<'a>) -> T) -> (T, Section) {
        self.speeds.clear();
        self.paused = Spent::default();
        let before = hostspeed::sample();
        let watch = Stopwatch::start();
        self.last_sample = Instant::now();
        let out = work(self);
        let spent = watch.stop() - self.paused;
        let mut speeds = std::mem::take(&mut self.speeds);
        speeds.push(before);
        speeds.push(hostspeed::sample());
        (out, Section::new(spent, speeds))
    }

    fn maybe_sample(&mut self) {
        if self.last_sample.elapsed().as_nanos() < hostspeed::RESAMPLE_EVERY_NS {
            return;
        }
        let watch = Stopwatch::start();
        self.speeds.push(hostspeed::sample());
        self.paused += watch.stop();
        self.last_sample = Instant::now();
    }
}

impl Scheduler for Probe<'_> {
    fn replan(&mut self, state: &RmsState, now: SimTime, reason: ReplanReason) -> Schedule {
        self.replans += 1;
        if self.sample_in_pass && self.replans.is_multiple_of(CLOCK_STRIDE) {
            self.maybe_sample();
        }
        if !self.time_replans {
            return self.inner.replan(state, now, reason);
        }
        let t = Instant::now();
        let schedule = self.inner.replan(state, now, reason);
        self.replan_ns += t.elapsed().as_nanos() as u64;
        schedule
    }

    fn active_policy(&self) -> Policy {
        self.inner.active_policy()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn snapshot(&self) -> Option<SchedulerSnapshot> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &SchedulerSnapshot) {
        self.inner.restore(snap);
    }
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The name a record is aggregated under: RAII spans keep theirs, every
/// per-policy `PlanBuilt` timing counts as `plan`. Other records carry no
/// duration.
fn span_of(rec: &TraceRecord) -> Option<(&'static str, u64, u64)> {
    match rec.event {
        TraceEvent::Span { name, dur_ns } => Some((name, rec.wall_ns, dur_ns)),
        TraceEvent::PlanBuilt { dur_ns, .. } => Some(("plan", rec.wall_ns, dur_ns)),
        _ => None,
    }
}

/// Self time per span name over a recorded trace.
///
/// A span's children are the spans lying inside its interval; its self
/// time is its duration minus the *union* of their intervals (plan spans
/// of one fan-out overlap each other when they ran on two workers, and
/// two seconds of overlapped planning cover one second of the parent).
pub fn self_times(records: &[TraceRecord]) -> BTreeMap<&'static str, SpanTotal> {
    let mut spans: Vec<(&'static str, u64, u64)> = records.iter().filter_map(span_of).collect();
    // Parents before children: earlier start first, longer first on ties.
    spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));

    struct Open {
        name: &'static str,
        end: u64,
        dur: u64,
        /// Union of the direct children's intervals so far.
        covered: u64,
        /// Right edge of that union.
        covered_to: u64,
    }
    let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    let mut stack: Vec<Open> = Vec::new();
    let close = |open: Open, totals: &mut BTreeMap<&'static str, SpanTotal>| {
        let t = totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += open.dur;
        t.self_ns += open.dur.saturating_sub(open.covered);
    };
    for (name, start, dur) in spans {
        let end = start + dur;
        // The parent is the innermost open span that contains this one;
        // a span that merely overlaps the top of the stack (two plan
        // passes on two workers) is its sibling, not its child.
        while stack.last().is_some_and(|top| end > top.end) {
            let done = stack.pop().expect("checked non-empty");
            close(done, &mut totals);
        }
        if let Some(parent) = stack.last_mut() {
            let from = start.max(parent.covered_to);
            if end > from {
                parent.covered += end - from;
                parent.covered_to = end;
            }
        }
        stack.push(Open {
            name,
            end,
            dur,
            covered: 0,
            covered_to: start,
        });
    }
    while let Some(done) = stack.pop() {
        close(done, &mut totals);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, name: &'static str, start: u64, dur: u64) -> TraceRecord {
        TraceRecord {
            seq,
            sim: SimTime::ZERO,
            wall_ns: start,
            event: TraceEvent::Span { name, dur_ns: dur },
        }
    }

    fn plan(seq: u64, start: u64, dur: u64) -> TraceRecord {
        TraceRecord {
            seq,
            sim: SimTime::ZERO,
            wall_ns: start,
            event: TraceEvent::PlanBuilt {
                policy: "FCFS",
                queue_depth: 1,
                profile_points: 1,
                workers: 2,
                dur_ns: dur,
            },
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // event [0,100) ⊃ replan [10,90) ⊃ prepare [20,30), plans [40,70)
        // and [50,80) overlapping on two workers (union [40,80) = 40).
        // RAII guards record on drop, so children precede parents in
        // sequence order — the aggregation must not depend on it.
        let trace = vec![
            span(0, "prepare", 20, 10),
            plan(1, 40, 30),
            plan(2, 50, 30),
            span(3, "replan", 10, 80),
            span(4, "event", 0, 100),
            span(5, "event", 100, 7),
        ];
        let t = self_times(&trace);
        assert_eq!(
            t["event"],
            SpanTotal {
                count: 2,
                total_ns: 107,
                self_ns: 27
            }
        );
        assert_eq!(
            t["replan"],
            SpanTotal {
                count: 1,
                total_ns: 80,
                self_ns: 30
            }
        );
        assert_eq!(t["prepare"].self_ns, 10);
        assert_eq!(
            t["plan"],
            SpanTotal {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        // Self times of a tree sum to the root's duration, except where
        // children overlapped (20 ns of double-covered planning).
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 107 + 20);
    }

    #[test]
    fn records_without_a_duration_are_ignored() {
        let trace = vec![TraceRecord {
            seq: 0,
            sim: SimTime::ZERO,
            wall_ns: 5,
            event: TraceEvent::PolicySwitch {
                from: "FCFS",
                to: "SJF",
            },
        }];
        assert!(self_times(&trace).is_empty());
    }
}
