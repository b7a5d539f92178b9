//! The earliest-fit planner: builds a full schedule for a queue in
//! policy order.
//!
//! The planner walks the ordered queue and gives each job the earliest
//! start time at which its width fits for its whole estimated run time,
//! given the running jobs and all previously placed queue jobs. Because
//! a later (lower-priority) job may slot into a gap *before* an earlier
//! job's reservation, "backfilling is done implicitly" — no separate
//! backfill pass exists, exactly as in planning-based systems like CCS.
//!
//! The paper's self-tuning step builds "a full schedule for every
//! policy" at every event. [`Planner::plan_retained_batch`] produces
//! those schedules without always rebuilding them: a submission changes
//! one position of each policy order, and everything planned ahead of it
//! on an unchanged base stays where it is. Nor does it always finish
//! them: told what a plan costs ([`Prune`]), it stops the pass of a
//! policy whose plan can no longer be as cheap as the best complete one.
//! Nor does it plan twice what two orders agree on: a pass starts from
//! the plan of the prefix its order shares with a queue planned before
//! it.

use crate::naive::NaiveProfile;
use crate::profile::Profile;
use crate::schedule::{PlannedJob, Schedule};
use crate::state::RunningJob;
use dynp_des::{SimDuration, SimTime};
use dynp_workload::Job;

/// Planning logic with a shared, per-event base profile.
///
/// At every scheduling event the base profile — running-job reservations
/// plus fixed reservation windows — is identical for every candidate
/// policy; only the queue order differs. [`Planner::prepare`] builds
/// that base once with an endpoint sweep, and each planning pass copies
/// it into the policy's working profile with one `memcpy` before placing
/// the queue. The dynP self-tuning step plans once per policy per event,
/// so this turns P profile rebuilds per event into one build plus P
/// cheap restores.
///
/// # Retained plans
///
/// [`Planner::plan_retained_batch`] goes one step further: it keeps each
/// policy's working profile and schedule from one event to the next, and
/// when the new base leaves them valid it re-places only the queue
/// suffix behind the first changed position. The invariant a retained
/// slot satisfies:
///
/// > a slot's profile equals the current base plus the rectangles of its
/// > schedule, as a function on `[now, ∞)`.
///
/// The schedule may be the plan of a *prefix* of the queue: a pass
/// stopped by [`Prune`] leaves the jobs it placed, in queue order, and
/// nothing else. The invariant does not care, and the next pass picks
/// the plan up where it stopped — or, if it has lost again, leaves it
/// there ([`Planner::retained_excess`] tells the two kinds of slot
/// apart).
///
/// Three comparisons guard it, and anything they do not establish takes
/// the full pass (the event's [`ReplanReason`](crate::ReplanReason) is
/// never consulted):
///
/// 1. the freshly prepared base is the same function on `[now, ∞)`,
///    capacity included, as the base the slots were planned on *plus
///    the rectangle of every job that left the queue since*, each
///    `[t₀, t₀ + estimate) × width` with `t₀` the instant of the last
///    call — this rejects completions, early finishes, the pad of an
///    overdue job, node faults, reservation starts, ends and cancels,
///    and a queue job that was cancelled or migrated instead of started;
/// 2. the slot's first `k` entries are the first `k` jobs of the policy
///    order, id by id, each planned at `start >= now` (an over-wide job
///    skipped among them shifts the ids and fails the comparison), `k`
///    being what the caller reports unchanged, cut to the entries the
///    slot holds;
/// 3. every job that left the queue is one of the slot's entries,
///    planned to start at `t₀` — it started where the plan put it.
///    Those entries leave the schedule (their rectangles are now part
///    of the base); a slot that does not hold them all keeps nothing.
///    The caller reports each order's `k` with the departed jobs taken
///    out of the order it last reported.
///
/// Guard 3 makes the slot's profile `R + rects(P)`, with `R` the old
/// base and `P` its schedule, equal to `F + rects(P ∖ departed)`, with
/// `F` the folded base of comparison 1. Take a kept entry placed before
/// a departed job `D` in the old order: with `D` moved into the base it
/// still fits where it is, because `D` was placed beside it, and it
/// cannot fit earlier, because capacity only shrank. An entry placed
/// after `D` sees the same profile as before. So, given (1)–(3), a
/// fresh pass would place the `k` kept jobs exactly where they are: by
/// induction each sees the same function on `[now, ∞)`, its old answer
/// was at or past `now`, and nothing earlier fitted then or fits now.
/// The pass therefore cuts the profile back to the base plus the kept
/// entries — releasing the rectangles of entries `k..` in reverse, or,
/// when fewer entries are kept than released, restoring the base and
/// allocating the kept ones at their starts — re-seeds the dominance
/// memo from the kept entries (so the suffix scans start where a fresh
/// pass's would) and places only `queue[k..]`.
///
/// # Shared prefixes
///
/// The policy orders of one event often agree for a long way (FCFS and
/// LJF on a backlog of equally long jobs, all of them when every waiting
/// job has one estimate). Before the passes run, each queue is given a
/// *donor*: the queue planned before it whose order shares the longest
/// prefix with its own, by job id, when that prefix is longer than what
/// the queue keeps of its own. At the recipient's turn the donor's
/// finished slot — profile and entries — is copied into the recipient's,
/// which is then a retained plan on the current base, and its pass keeps
/// the shared prefix exactly as it keeps its own: it releases the
/// donor's entries behind the cut, checks the kept ones under
/// comparison 2 and places the rest. A donor that stopped before the cut
/// hands over what it placed; an identical order keeps everything and
/// places nothing. Same base and same jobs in the same order give the
/// same placements, so nothing else is needed. Passes share only here,
/// and only on one thread: below `RETAIN_MIN_DEPTH` even comparing the
/// orders costs more than it saves (DESIGN §10).
///
/// [`Planner::plan_with_reservations`] keeps the original one-shot
/// signature (prepare + plan in one call) and produces bit-identical
/// schedules to [`ReferencePlanner`], the retained from-scratch
/// implementation.
#[derive(Debug)]
pub struct Planner {
    /// Shared base: running jobs + reservations as of `prepared_at`.
    base: Profile,
    /// Instant [`Planner::prepare`] was last called at.
    prepared_at: SimTime,
    /// Scratch span list handed to the sweep (reused, no per-event
    /// allocation).
    spans: Vec<(SimTime, SimTime, u32)>,
    /// Scratch endpoint buffer for the sweep.
    events: Vec<(SimTime, i64)>,
    /// Working state per queue of a batch (per candidate policy),
    /// created on first use and persistent across events so planning
    /// allocates nothing steady-state. Single-queue entry points use
    /// slot 0.
    slots: Vec<Slot>,
    /// How many leading slots hold a plan retained by
    /// [`Planner::plan_retained_batch`]; 0 after any other planning pass
    /// (they use the slots' profiles as scratch).
    retained: usize,
    /// The base the retained plans were planned on, compared against
    /// each new base once the departed jobs' rectangles are folded into
    /// it (comparison 1). Created by the first retained pass.
    retained_base: Option<Profile>,
    /// Instant of the last [`Planner::plan_retained_batch`] call: where
    /// the jobs its plans started at lie in the next call's folded base.
    /// Not `retained_base`'s origin when that call found the base
    /// unchanged.
    retained_at: SimTime,
    /// This call's prefix per queue that the passes may keep; kept
    /// across events so planning allocates nothing steady-state.
    keeps: Vec<usize>,
    /// Retained plans that jobs leaving the queue did not void (guard 3).
    folded: u64,
    /// Per slot, whether [`Prune`] stopped its retained pass early, and
    /// how often the rest bound has. Beside the slots rather than in
    /// them, and sized by the first pass that runs through
    /// [`Planner::run_passes`]: `size_of::<Slot>()` decides the peak RSS
    /// of runs that never retain a plan (DESIGN §10).
    stopped: Vec<Stopped>,
    /// This event's share plan ([`plan_shares`]); kept across events so
    /// planning allocates nothing steady-state.
    hands: Vec<Hand>,
    /// Queue jobs passes took from a donor's plan instead of placing.
    shared: u64,
    /// Observability tracer (disabled by default); [`Planner::prepare`]
    /// is measured as a `"prepare"` wall-clock span.
    tracer: dynp_obs::Tracer,
}

/// One queue's working profile, and the schedule its last retained pass
/// left behind.
#[derive(Debug)]
struct Slot {
    profile: Profile,
    schedule: Schedule,
    counts: SlotCounts,
}

/// The [`PlanCounters`] one queue's passes write. Per slot, because
/// fan-out workers plan their slots in parallel.
#[derive(Clone, Copy, Debug, Default)]
struct SlotCounts {
    passes: u64,
    suffix_passes: u64,
    jobs: u64,
    kept: u64,
    pruned: u64,
}

/// What [`Planner::plan_retained_batch`] did, summed over the policies:
/// how often the suffix path ran, how much [`Prune`] left unplaced, how
/// often the rest bound stopped a pass, how much was shared and how
/// often a plan outlived the jobs it started.
/// Diagnostic: tests assert the paths are not vacuous, and DESIGN §10
/// records the shares.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Per-policy passes through [`Planner::plan_retained_batch`].
    pub passes: u64,
    /// Those that kept a prefix and re-placed only the suffix.
    pub suffix_passes: u64,
    /// Queue jobs those passes were handed.
    pub jobs: u64,
    /// Queue jobs the suffix passes kept in place instead of re-placing.
    pub kept: u64,
    /// Queue jobs never placed: what lay behind the point where a pass
    /// stopped because its plan had lost.
    pub pruned: u64,
    /// Passes that stopped on the bound of the jobs they had not placed,
    /// with the excess of those they had still under the limit.
    pub rest_stops: u64,
    /// Queue jobs passes took from the plan of another queue whose order
    /// shares them, instead of placing them.
    pub shared: u64,
    /// Retained plans that kept their prefix across jobs leaving the
    /// queue: each departed job had started where the plan put it, and
    /// its rectangle moved into the base.
    pub folded: u64,
}

/// How a pass under [`Prune`] weighs the time a job waits beyond the
/// earliest start any plan could give it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayWeight {
    /// By the job's width: processor-seconds of waiting.
    Width,
    /// Every job alike: seconds of waiting.
    Unit,
    /// By the reciprocal of the job's estimate: waiting in run times.
    PerEstimate,
}

impl DelayWeight {
    /// The weighted delay of `job` planned at `start` when it could have
    /// started at `floor <= start`.
    #[inline]
    pub fn delay(self, job: &Job, floor: SimTime, start: SimTime) -> f64 {
        // Through `i64`, which converts in one instruction and holds
        // any span of simulated time.
        let ms = (start - floor).as_millis() as i64 as f64;
        match self {
            DelayWeight::Width => job.width as f64 * ms * 1e-3,
            DelayWeight::Unit => ms * 1e-3,
            DelayWeight::PerEstimate => ms / job.estimate.as_millis() as i64 as f64,
        }
    }

    /// The excess of `schedule` planned at `now`: the delay of each of
    /// its jobs beyond `max(now, submit)`, summed in schedule order —
    /// what a pass under [`Prune`] has run up when it has placed exactly
    /// these jobs.
    #[cfg(test)]
    pub(crate) fn excess(self, schedule: &Schedule, now: SimTime) -> f64 {
        let part = |e: &PlannedJob| self.excess_of(e, now);
        schedule.entries.iter().map(part).sum()
    }

    /// What one entry of a schedule planned at `now` adds to its excess:
    /// its delay beyond `max(now, submit)`.
    #[inline]
    pub fn excess_of(self, entry: &PlannedJob, now: SimTime) -> f64 {
        self.delay(&entry.job, now.max(entry.job.submit), entry.start)
    }
}

/// Lets [`Planner::plan_retained_batch`] stop planning a queue whose plan
/// has already lost.
///
/// The cost of a plan grows with the delay of each of its jobs. Every
/// queue of a batch holds the same jobs, so what the cost would be with
/// each job at its earliest conceivable start `max(now, submit)` is the
/// same for all of them, and what tells two plans apart is their
/// *excess* over it, `Σ weight.delay(job, max(now, submit), start)`. No
/// term of that sum is negative, so the excess of the jobs a pass has
/// placed so far is a lower bound on the excess of its finished plan —
/// and under [`DelayWeight::Width`] the jobs it has not placed have a
/// lower bound of their own (`rest_bound`), which lets a pass stop after
/// a handful of placements where the placed jobs alone would carry it
/// through most of the queue.
pub struct Prune<'a> {
    /// How a job's delay counts.
    pub weight: DelayWeight,
    /// Whether to plan queue `i` first, and completely.
    pub first: &'a (dyn Fn(usize) -> bool + Sync),
    /// Called once, when the `first` queues are planned and their
    /// [`Planner::retained_schedule`]s final: the excess past which a
    /// plan has lost. Every other pass stops placing once its lower
    /// bound is greater; `∞` stops none.
    pub limit: &'a mut dyn FnMut(&Planner) -> f64,
}

/// The stop rule of one pass under [`Prune`], and the excess it has run
/// up so far.
struct Tally {
    weight: DelayWeight,
    limit: f64,
    /// Of the jobs placed.
    excess: f64,
    /// What [`rest_bound`] added for the jobs not placed, when that is
    /// what stopped the pass; 0 otherwise.
    rest: f64,
    /// How the queue's pass before this one ended.
    last: Stopped,
}

/// What the last pass under [`Prune`] left of one queue's plan.
#[derive(Clone, Copy, Debug, Default)]
struct Stopped {
    /// `None`: the slot's schedule is complete. Of a pass stopped early,
    /// the lower bound on the finished plan's excess that stopped it.
    excess: Option<f64>,
    /// Whether that bound counted jobs the pass had not placed.
    by_rest: bool,
    /// Passes of this queue that [`rest_bound`] has stopped so far.
    rest_stops: u64,
}

/// One queue of an event's share plan: queue `to` starts from queue
/// `from`'s finished plan, whose order shares its first `cut` jobs.
#[derive(Clone, Copy, Debug)]
struct Hand {
    from: usize,
    cut: usize,
    to: usize,
}

/// Gives each queue its donor for one event: of the queues planned before
/// it — those `first` selects, then the others, in index order within
/// each group — the one whose order shares the longest prefix with its
/// own, by job id, if that prefix is longer than the `own(i)` jobs the
/// queue keeps without it. Leaves the result in `hands`.
fn plan_shares(
    hands: &mut Vec<Hand>,
    queues: &[Vec<Job>],
    first: &dyn Fn(usize) -> bool,
    own: impl Fn(usize) -> usize,
) {
    hands.clear();
    let n = queues.len();
    let order = || {
        let rest = (0..n).filter(move |&i| !first(i));
        (0..n).filter(move |&i| first(i)).chain(rest)
    };
    for (planned, to) in order().enumerate() {
        let mut best = Hand {
            from: to,
            cut: own(to),
            to,
        };
        for from in order().take(planned) {
            let common = queues[to].iter().zip(&queues[from]);
            let cut = common.take_while(|(a, b)| a.id == b.id).count();
            if cut > best.cut {
                (best.from, best.cut) = (from, cut);
            }
        }
        if best.from != to {
            hands.push(best);
        }
    }
}

/// Slot `to`, and slot `from` beside it when that is another one.
fn slot_and_donor(slots: &mut [Slot], to: usize, from: usize) -> (&mut Slot, Option<&Slot>) {
    if from < to {
        let (before, rest) = slots.split_at_mut(to);
        (&mut rest[0], Some(&before[from]))
    } else if from > to {
        let (rest, after) = slots.split_at_mut(from);
        (&mut rest[to], Some(&after[0]))
    } else {
        (&mut slots[to], None)
    }
}

/// Wall-clock observability of one per-policy planning pass inside
/// [`Planner::plan_prepared_batch`]: when the pass started (tracer
/// epoch-relative) and how long it ran. Zeroed when tracing is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanTiming {
    /// Start of the pass, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration of the pass in nanoseconds.
    pub dur_ns: u64,
}

/// Queue depth below which [`Planner::plan_prepared_batch`] stays
/// sequential regardless of the requested worker count: per-policy
/// planning passes at shallow depths finish in microseconds, so thread
/// hand-off would cost more than it saves. Callers sum the candidate
/// queue depths and compare against this.
pub const PARALLEL_MIN_DEPTH: usize = 512;

/// Queue depth below which callers should plan with
/// [`Planner::plan_prepared_batch`] rather than
/// [`Planner::plan_retained_batch`]: comparing bases, checking the kept
/// prefix and copying the winning schedule cost more than a pass over a
/// few dozen jobs saves.
pub const RETAIN_MIN_DEPTH: usize = 64;

/// Padding added after a running job's estimated end when the estimate
/// has already elapsed at planning time: the job still physically holds
/// its processors until its completion *event* is processed, so the plan
/// must not hand them out at the current instant.
pub(crate) const RUNNING_PAD: SimDuration = SimDuration::from_millis(1);

/// Places `queue` (already in policy order) job by job on `profile`,
/// appending to `out`: each job gets the earliest feasible start
/// ≥ max(now, submit). With a `tally` it stops in front of the first job
/// that would be placed with the excess already past the limit. Returns
/// how many jobs of `queue` that leaves unplaced.
fn place(
    profile: &mut Profile,
    now: SimTime,
    queue: &[Job],
    out: &mut Schedule,
    mut tally: Option<&mut Tally>,
) -> usize {
    // A pass that may stop after a handful of jobs grows the buffer as
    // it goes: a stopped slot holds no capacity for the rest of a deep
    // queue.
    if tally.is_none() {
        out.entries.reserve(queue.len());
    }
    for (i, job) in queue.iter().enumerate() {
        if tally.as_ref().is_some_and(|t| t.excess > t.limit) {
            return queue.len() - i;
        }
        // A job wider than the (possibly degraded) machine has no
        // feasible start at any time: leave it out of the plan — it
        // stays waiting until node repair restores enough capacity.
        if job.width > profile.capacity() {
            continue;
        }
        let earliest = now.max(job.submit);
        let start = profile.allocate_earliest(earliest, job.estimate, job.width);
        if let Some(tally) = &mut tally {
            tally.excess += tally.weight.delay(job, earliest, start);
        }
        out.entries.push(PlannedJob { job: *job, start });
    }
    0
}

/// Duration classes of [`rest_bound`]: an estimate in milliseconds by its
/// top four significant bits, so a class's upper edge is at most 12.5 %
/// above any estimate in it. Values under 16 are their own class.
const CLASSES: usize = 16 + 8 * 60;

fn class_of(ms: u64) -> usize {
    let shift = (64 - ms.leading_zeros()).saturating_sub(4);
    8 * shift as usize + (ms >> shift) as usize
}

/// No estimate of class `c` is longer than this many milliseconds.
fn class_edge(c: usize) -> f64 {
    if c < 16 {
        return c as f64;
    }
    (9 + (c & 7)) as f64 * (1u64 << ((c >> 3) - 1)) as f64
}

/// A lower bound on the [`DelayWeight::Width`] excess the jobs of `rest`
/// add to any plan that places them on `profile` from `now` on.
///
/// A job placed at `start` is busy around `start + estimate / 2`, so
/// `width · (start − now + estimate / 2)` is `1 / estimate` times the
/// first moment `∫ (t − now) · x(t) dt` of its rectangle `x`. Rectangles
/// that fit the profile are one way of pouring each job's area into the
/// free capacity; the cheapest way, with the areas free to take any
/// shape, pours them shortest estimate first, each as early as the
/// capacity left by the shorter ones allows. Taking `1 / estimate` down to
/// the reciprocal of the class edge only lowers the cost of every
/// pouring, and makes the jobs of a class one area: the optimum is then
/// one walk over the profile against a histogram of area per class.
/// Take from it the `estimate / 2` parts and the delays that start at
/// `submit`, not at `now`, and what is left bounds `Σ width · (start −
/// max(now, submit))` from below. A job wider than the machine is in no
/// plan and in no bound.
fn rest_bound(profile: &Profile, now: SimTime, rest: &[Job]) -> f64 {
    let (times, frees) = profile.segments_from(now);
    let ms = |d: SimDuration| d.as_millis() as i64 as f64;
    // Area in width · ms, per class and in all, and the delays that are
    // nobody's fault.
    let mut class_area = [0.0f64; CLASSES];
    let (mut area, mut floors) = (0.0, 0.0);
    for job in rest {
        if job.width > profile.capacity() {
            continue;
        }
        let width = job.width as f64;
        let job_area = width * ms(job.estimate);
        class_area[class_of(job.estimate.as_millis())] += job_area;
        area += job_area;
        floors += width * ms(job.submit.saturating_since(now)); // 0 once submitted
    }
    let mut moment = 0.0;
    // The capacity is used up to `at` ms past `now`, inside segment `k`.
    let (mut k, mut at) = (0, 0.0);
    for (c, &poured) in class_area.iter().enumerate() {
        let mut left = poured;
        if left == 0.0 {
            continue;
        }
        let per_ms = 1.0 / class_edge(c);
        loop {
            let free = frees[k] as f64;
            // The final segment has the whole machine free for ever.
            let end = times.get(k + 1).map_or(f64::INFINITY, |&t| ms(t - now));
            let room = (free * (end - at)).max(0.0);
            if left <= room {
                let span = left / free;
                moment += per_ms * left * (at + 0.5 * span);
                at += span;
                break;
            }
            moment += per_ms * room * 0.5 * (at + end);
            left -= room;
            (k, at) = (k + 1, end);
        }
    }
    (moment - 0.5 * area - floors).max(0.0) * 1e-3
}

/// [`place`] under a `tally` that also asks [`rest_bound`] whether what
/// is placed and what is not are together past the limit: before placing
/// anything if `ask`, and, when the bound stopped the queue's last pass,
/// again between stretches of the queue that end at 8, 32, 128, … jobs.
/// `place`'s loop is the shallow path's too, and even a branch never
/// taken costs it (DESIGN §10), hence a wrapper.
fn place_bounded(
    profile: &mut Profile,
    now: SimTime,
    queue: &[Job],
    out: &mut Schedule,
    tally: &mut Tally,
    mut ask: bool,
) -> usize {
    let (mut from, mut to) = (0, 8);
    loop {
        // The answer can save no more than placing the rest, and the
        // walk reads all of the profile.
        let unplaced = queue.len() - from;
        if ask && tally.excess <= tally.limit && unplaced > profile.segments_from(now).0.len() {
            let rest = rest_bound(profile, now, &queue[from..]);
            if tally.excess + rest > tally.limit {
                tally.rest = rest;
                return unplaced;
            }
        }
        let end = if tally.last.by_rest { to } else { queue.len() };
        let stretch = &queue[from..end.min(queue.len())];
        from += stretch.len();
        let left = place(profile, now, stretch, out, Some(tally));
        if left > 0 || from == queue.len() {
            return queue.len() - from + left;
        }
        (ask, to) = (true, 4 * to);
    }
}

/// The from-scratch planning pass: restores `profile` to the `base`
/// watermark and plans all of `queue` into `out`.
fn plan_full(
    base: &Profile,
    profile: &mut Profile,
    now: SimTime,
    queue: &[Job],
    out: &mut Schedule,
) {
    profile.restore_from(base);
    out.entries.clear();
    place(profile, now, queue, out, None);
}

/// Runs one planning pass, on the tracer's wall clock when span tracing
/// is on.
fn timed<T>(tracer: &dynp_obs::Tracer, pass: impl FnOnce() -> T) -> (PlanTiming, T) {
    if !tracer.wants(dynp_obs::TraceClass::Span) {
        return (PlanTiming::default(), pass());
    }
    let start_ns = tracer.now_ns();
    let out = pass();
    let dur_ns = tracer.now_ns().saturating_sub(start_ns);
    (PlanTiming { start_ns, dur_ns }, out)
}

impl Slot {
    fn new() -> Self {
        Slot {
            profile: Profile::new(1, SimTime::ZERO),
            schedule: Schedule::default(),
            counts: SlotCounts::default(),
        }
    }

    /// The per-policy planning pass: leaves in `schedule` the plan of
    /// `queue` on `base` — of all of it, or under a `tally` of the prefix
    /// in front of the job where the pass stopped — and in `profile` the
    /// base narrowed by it. Returns how many entries it kept and how many
    /// queue jobs it left unplaced. With `keep > 0` the caller vouches
    /// that `profile` and `schedule` are a retained plan on a base equal
    /// to `base` from `now` on, and that `queue[..keep]` is unchanged
    /// since — or that they are this event's plan of another queue whose
    /// order starts with `queue[..keep]`; the pass then keeps those
    /// entries if it can. The placements depend only on `(base, now,
    /// queue)` and where they stop on those and the tally's limit, which
    /// is what makes the fan-out deterministic regardless of worker
    /// assignment.
    fn plan(
        &mut self,
        base: &Profile,
        now: SimTime,
        queue: &[Job],
        keep: usize,
        mut tally: Option<&mut Tally>,
    ) -> (usize, usize) {
        let kept = self.keep_prefix(base, now, queue, keep, tally.as_deref_mut());
        if kept == 0 {
            if let Some(tally) = &mut tally {
                tally.excess = 0.0;
            }
            self.profile.restore_from(base);
            self.schedule.entries.clear();
        }
        let (profile, rest, out) = (&mut self.profile, &queue[kept..], &mut self.schedule);
        let left = match tally {
            // Whether the jobs a pass leaves unplaced put it past the
            // limit is worth asking where the answer has been yes: the
            // verdict on a queue seldom changes from one event to the
            // next (DESIGN §10 has the table). A stopped plan picked up
            // from its prefix asks once, at once — that is how a queue
            // gets its first yes — and a queue the bound stopped last
            // time keeps asking as it places. `Unit` and `PerEstimate`
            // stop on the excess of the jobs placed alone: the fluid
            // problem pours their jobs by `width · estimate` and
            // `width · estimate²`, keys of up to 110 bits where an
            // estimate has 40, and no workload or experiment plans deep
            // queues under them.
            Some(tally) if tally.weight == DelayWeight::Width => {
                let resumes = kept > 0 && tally.last.excess.is_some();
                if resumes || tally.last.by_rest {
                    place_bounded(profile, now, rest, out, tally, resumes)
                } else {
                    place(profile, now, rest, out, Some(tally))
                }
            }
            tally => place(profile, now, rest, out, tally),
        };
        (kept, left)
    }

    /// Cuts the retained plan back to its first `keep` entries — or to
    /// all it holds, when a stopped pass left fewer: checks the kept ones
    /// against the queue (comparison 2 of the type docs), cuts the
    /// profile back to `base` plus them ([`cut_back`]), and replays them
    /// into the dominance memo and the `tally`. Returns how many it kept;
    /// 0, with the profile untouched, when there is nothing to keep or
    /// the entries do not match.
    fn keep_prefix(
        &mut self,
        base: &Profile,
        now: SimTime,
        queue: &[Job],
        keep: usize,
        mut tally: Option<&mut Tally>,
    ) -> usize {
        let entries = &mut self.schedule.entries;
        let keep = keep.min(entries.len());
        if keep == 0 || keep > queue.len() {
            return 0;
        }
        let (kept, rest) = entries.split_at(keep);
        if kept
            .iter()
            .zip(queue)
            .any(|(e, job)| e.job.id != job.id || e.start < now)
        {
            return 0;
        }
        cut_back(&mut self.profile, base, kept, rest, kept.len() < rest.len());
        for e in kept {
            let earliest = now.max(e.job.submit);
            self.profile
                .remember_fit(earliest, e.job.estimate, e.job.width, e.start);
            if let Some(tally) = &mut tally {
                tally.excess += tally.weight.delay(&e.job, earliest, e.start);
            }
        }
        entries.truncate(keep);
        keep
    }

    /// Guard 3 of the type docs: takes out of the schedule the entries
    /// of `departed` jobs planned to start `at`, and returns whether
    /// every departed job was one. The slot's profile keeps their
    /// rectangles, which the folded base now holds. On `false` the slot
    /// keeps nothing, so what is left of its schedule does not matter.
    fn fold_started(&mut self, departed: &[Job], at: SimTime) -> bool {
        let entries = &mut self.schedule.entries;
        let held = entries.len();
        entries.retain(|e| e.start != at || departed.iter().all(|d| d.id != e.job.id));
        held - entries.len() == departed.len()
    }
}

/// Cuts a retained `profile` — `base` plus the rectangles of `kept` and
/// of `rest`, as a function on `[now, ∞)` — back to `base` plus those of
/// `kept`: with `rebuild`, by restoring `base` and allocating `kept` at
/// their starts (at or past `now`), else by releasing `rest` in reverse.
/// Either leaves the same function on `[now, ∞)`. Releasing an entry,
/// with its coalescing, costs about what placing it does, so the caller
/// rebuilds when fewer entries are kept than released.
fn cut_back(
    profile: &mut Profile,
    base: &Profile,
    kept: &[PlannedJob],
    rest: &[PlannedJob],
    rebuild: bool,
) {
    if rebuild {
        profile.restore_from(base);
        for e in kept {
            profile.allocate(e.start, e.job.estimate, e.job.width);
        }
    } else {
        for e in rest.iter().rev() {
            profile.release(e.start, e.job.estimate, e.job.width);
        }
    }
}

impl Planner {
    /// Creates a planner.
    pub fn new() -> Self {
        Planner {
            base: Profile::new(1, SimTime::ZERO),
            prepared_at: SimTime::ZERO,
            spans: Vec::new(),
            events: Vec::new(),
            slots: Vec::new(),
            retained: 0,
            retained_base: None,
            retained_at: SimTime::ZERO,
            keeps: Vec::new(),
            folded: 0,
            stopped: Vec::new(),
            hands: Vec::new(),
            shared: 0,
            tracer: dynp_obs::Tracer::disabled(),
        }
    }

    /// Installs an observability tracer; each [`Planner::prepare`] (the
    /// per-event base-profile rebuild) is then measured as a `"prepare"`
    /// wall-clock span.
    pub fn set_tracer(&mut self, tracer: dynp_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Builds the shared base profile for one scheduling event: the
    /// machine as narrowed by `running` jobs (blocked to their estimated
    /// end, at least marginally past `now` — see `RUNNING_PAD`) and by
    /// the active `reservations` (clipped to `[now + RUNNING_PAD, end)`).
    ///
    /// The reservation clip starts one pad *past* `now`, not at `now`: a
    /// job whose completion event is still queued at the current instant
    /// physically holds its processors for the pad, and an ongoing
    /// full-width window must not double-book them. The pad instant is
    /// too short for any queue job to exploit, so schedules are
    /// unaffected.
    ///
    /// Subsequent [`Planner::plan_prepared`] calls plan against this
    /// base until `prepare` is called again.
    pub fn prepare(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        reservations: &[crate::reservation::Reservation],
    ) {
        let _span = self.tracer.span(now, "prepare");
        self.spans.clear();
        for r in running {
            let end = r.estimated_end().max(now + RUNNING_PAD);
            self.spans.push((now, end, r.job.width));
        }
        for res in reservations {
            if !res.active_at(now) {
                continue;
            }
            self.spans
                .push((res.start.max(now + RUNNING_PAD), res.end(), res.width));
        }
        self.base
            .rebuild_from_spans(machine_size, now, &self.spans, &mut self.events);
        self.prepared_at = now;
    }

    /// Number of points in the prepared base profile — what every
    /// per-policy pass copies before it places its first job, and where
    /// every fit sweep starts. Reported per plan in trace events.
    pub fn base_points(&self) -> usize {
        self.base.len()
    }

    /// True when the prepared base profile can absorb a *new* reservation
    /// window `[start, start + duration)` of `width` processors without
    /// overcommitting the machine against running jobs and the already
    /// admitted reservations. This is the capacity half of the admission
    /// feasibility check (see [`crate::admission`]); it reads the base
    /// profile without mutating it, so the prepared state stays valid for
    /// subsequent [`Planner::plan_prepared`] calls.
    ///
    /// Call [`Planner::prepare`] first; the window is evaluated as it
    /// would be blocked out by the next `prepare` (clipped to start no
    /// earlier than one pad past the prepare instant).
    pub(crate) fn window_fits(&self, start: SimTime, duration: SimDuration, width: u32) -> bool {
        if width == 0 || width > self.base.capacity() {
            return false;
        }
        let end = start + duration;
        let from = start.max(self.prepared_at + RUNNING_PAD);
        if end <= from {
            // Nothing left of the window: trivially absorbable.
            return true;
        }
        self.base.earliest_fit(from, end - from, width) == from
    }

    /// Plans `queue` (already in policy order) against the prepared base:
    /// restores the working profile to the watermark, then gives each
    /// job the earliest feasible start ≥ max(now, submit).
    ///
    /// Call [`Planner::prepare`] first; planning against a stale base is
    /// not checked.
    pub fn plan_prepared(&mut self, queue: &[Job]) -> Schedule {
        let mut schedule = Schedule::default();
        self.plan_prepared_into(queue, &mut schedule);
        schedule
    }

    /// [`Planner::plan_prepared`] into a caller-owned schedule, reusing
    /// its entry buffer (the self-tuning step keeps one schedule per
    /// candidate policy alive across events).
    pub(crate) fn plan_prepared_into(&mut self, queue: &[Job], out: &mut Schedule) {
        self.claim_scratch(1);
        let scratch = &mut self.slots[0].profile;
        plan_full(&self.base, scratch, self.prepared_at, queue, out);
    }

    /// Makes the first `n` slots' working profiles scratch for passes
    /// that keep nothing: whatever plans the slots retained are dropped.
    fn claim_scratch(&mut self, n: usize) {
        self.grow_slots(n);
        self.retained = 0;
    }

    fn grow_slots(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(Slot::new());
        }
    }

    /// Runs [`Slot::plan`] for every queue `i` that `select`s on slot
    /// `i`, sequentially or split into contiguous runs across
    /// `std::thread::scope` workers. `keep` is the per-queue prefix to
    /// try to keep (`None`: full passes), `bound` the weight and limit of a
    /// [`Tally`] per pass (`None`: complete passes). `hands` is the share
    /// plan ([`plan_shares`]) the caller made for this event, or empty:
    /// passes on one thread follow it, and a recipient's pass starts
    /// from a copy of its donor's finished slot with the cut as its keep.
    /// Returns the worker count actually used.
    #[allow(clippy::too_many_arguments)]
    fn run_passes(
        &mut self,
        queues: &[Vec<Job>],
        keep: Option<&[usize]>,
        bound: Option<(DelayWeight, f64)>,
        select: &(dyn Fn(usize) -> bool + Sync),
        hands: &[Hand],
        timings: &mut [PlanTiming],
        workers: usize,
    ) -> usize {
        let n = queues.len();
        self.stopped.resize(n, Stopped::default());
        let (base, now, tracer) = (&self.base, self.prepared_at, &self.tracer);
        // Returns how many jobs the pass took from the `donor`.
        let pass = |i: usize,
                    keep: usize,
                    slot: &mut Slot,
                    donor: Option<&Slot>,
                    timing: &mut PlanTiming,
                    stopped: &mut Stopped| {
            let mut tally = bound.map(|(weight, limit)| Tally {
                weight,
                limit,
                excess: 0.0,
                rest: 0.0,
                last: *stopped,
            });
            let (kept, left);
            (*timing, (kept, left)) = timed(tracer, || {
                if let Some(donor) = donor {
                    slot.profile.restore_from(&donor.profile);
                    slot.schedule.entries.clone_from(&donor.schedule.entries);
                }
                slot.plan(base, now, &queues[i], keep, tally.as_mut())
            });
            slot.counts.pruned += left as u64;
            let tally = tally.filter(|_| left > 0);
            stopped.excess = tally.as_ref().map(|t| t.excess + t.rest);
            stopped.by_rest = tally.is_some_and(|t| t.rest > 0.0);
            stopped.rest_stops += stopped.by_rest as u64;
            if donor.is_some() {
                return kept as u64;
            }
            if kept > 0 {
                slot.counts.suffix_passes += 1;
                slot.counts.kept += kept as u64;
            }
            0
        };
        let keep = |i: usize| keep.map_or(0, |k| k[i]);
        let selected = (0..n).filter(|&i| select(i)).count();
        let workers = workers.clamp(1, selected.max(1));
        if workers <= 1 {
            for i in (0..n).filter(|&i| select(i)) {
                let hand = hands.iter().find(|h| h.to == i);
                let (from, keep) = hand.map_or((i, keep(i)), |h| (h.from, h.cut));
                let (slot, donor) = slot_and_donor(&mut self.slots[..n], i, from);
                self.shared += pass(i, keep, slot, donor, &mut timings[i], &mut self.stopped[i]);
            }
            return 1;
        }
        let per = n.div_ceil(workers);
        let slots = &mut self.slots[..n];
        let stopped = &mut self.stopped[..n];
        std::thread::scope(|s| {
            let runs = slots
                .chunks_mut(per)
                .zip(timings.chunks_mut(per))
                .zip(stopped.chunks_mut(per));
            for (run, ((slots, timings), stopped)) in runs.enumerate() {
                let (pass, keep) = (&pass, &keep);
                s.spawn(move || {
                    let passes = slots.iter_mut().zip(timings).zip(stopped);
                    for (j, ((slot, timing), stopped)) in passes.enumerate() {
                        let i = run * per + j;
                        if select(i) {
                            pass(i, keep(i), slot, None, timing, stopped);
                        }
                    }
                });
            }
        });
        workers
    }

    /// Plans every queue in `queues` against the prepared base, from
    /// scratch — the per-policy fan-out of the self-tuning step, and the
    /// entry without retention. With `workers <= 1` (or a single queue)
    /// this is exactly a `Planner::plan_prepared_into` loop on one
    /// working profile; otherwise the queues are split into contiguous
    /// runs across `std::thread::scope` workers, each pass narrowing its
    /// own queue's working profile. Returns the worker count actually
    /// used.
    ///
    /// Every queue's schedule depends only on the shared immutable base
    /// and its own queue order, and results land in the caller's `outs`
    /// slot for that queue — so schedules are bit-identical for every
    /// worker count, and the merge order is the caller's policy order by
    /// construction. `timings[i]` records the wall clock of pass `i`
    /// when span tracing is enabled (zeroed otherwise).
    pub fn plan_prepared_batch(
        &mut self,
        queues: &[Vec<Job>],
        outs: &mut [Schedule],
        timings: &mut [PlanTiming],
        workers: usize,
    ) -> usize {
        let n = queues.len();
        assert_eq!(n, outs.len(), "one output schedule per queue");
        assert_eq!(n, timings.len(), "one timing slot per queue");
        if workers <= 1 || n <= 1 {
            self.claim_scratch(1);
            let scratch = &mut self.slots[0].profile;
            let (base, now, tracer) = (&self.base, self.prepared_at, &self.tracer);
            for ((queue, out), timing) in queues.iter().zip(outs).zip(timings) {
                (*timing, ()) = timed(tracer, || plan_full(base, scratch, now, queue, out));
            }
            return 1;
        }
        self.claim_scratch(n);
        let lend = |slots: &mut [Slot], outs: &mut [Schedule]| {
            for (slot, out) in slots.iter_mut().zip(outs) {
                std::mem::swap(&mut slot.schedule, out);
            }
        };
        // The passes fill the caller's buffers, lent to the slots.
        lend(&mut self.slots, outs);
        let used = self.run_passes(queues, None, None, &|_| true, &[], timings, workers);
        lend(&mut self.slots, outs);
        used
    }

    /// Like [`Planner::plan_prepared_batch`], but the schedules stay in
    /// the planner ([`Planner::retained_schedule`]) together with their
    /// working profiles, and the next call re-places only what changed:
    /// `departed` holds the jobs that left the queue since the previous
    /// call, and `first_changed[i]` is how many leading jobs of
    /// `queues[i]` are the same, in the same order, as in the previous
    /// call's with the departed jobs taken out (0 when unknown). See the
    /// type docs for the invariant and the comparisons that guard it;
    /// every job a pass places, it places where
    /// [`Planner::plan_prepared_batch`] does.
    ///
    /// Without `prune` every pass is complete. With it the `first`
    /// queues are planned completely, then the limit is taken, then the
    /// other queues are planned until they are done or have lost; the
    /// limit is fixed before those passes start. On one worker a pass
    /// may start from the plan of the prefix its order shares with a
    /// queue planned before it (see the type docs); that changes what a
    /// stopped plan holds, never what a pass places.
    pub fn plan_retained_batch(
        &mut self,
        queues: &[Vec<Job>],
        first_changed: &[usize],
        departed: &[Job],
        prune: Option<Prune<'_>>,
        timings: &mut [PlanTiming],
        workers: usize,
    ) -> usize {
        let n = queues.len();
        assert_eq!(n, first_changed.len(), "one kept-prefix length per queue");
        assert_eq!(n, timings.len(), "one timing slot per queue");
        self.grow_slots(n);
        let now = self.prepared_at;
        // Comparison 1 of the type docs, once for all slots, then guard 3
        // per slot.
        let same_base = self.retained == n && self.fold_departed(departed, now);
        let mut keeps = std::mem::take(&mut self.keeps);
        keeps.clear();
        if same_base {
            keeps.extend_from_slice(first_changed);
            if !departed.is_empty() {
                let at = self.retained_at;
                for (keep, slot) in keeps.iter_mut().zip(&mut self.slots) {
                    if slot.fold_started(departed, at) {
                        self.folded += 1;
                    } else {
                        *keep = 0;
                    }
                }
            }
        }
        self.retained_at = now;
        let keep = same_base.then_some(&keeps[..]);
        // Taken out for the passes, and put back: the buffer persists.
        let mut hands = std::mem::take(&mut self.hands);
        if workers <= 1 {
            let all = |_: usize| true;
            let first = prune
                .as_ref()
                .map_or(&all as &dyn Fn(usize) -> bool, |p| p.first);
            let slots = &self.slots;
            let own = |i: usize| keep.map_or(0, |k| k[i].min(slots[i].schedule.len()));
            plan_shares(&mut hands, queues, first, own);
        } else {
            // Passes on several threads cannot wait for each other.
            hands.clear();
        }
        // From here on the slots hold this call's plans (`prune.limit`
        // reads the finished ones).
        self.retained = n;
        let all = &|_| true;
        let used = match prune {
            None => self.run_passes(queues, keep, None, all, &hands, timings, workers),
            Some(Prune {
                weight,
                first,
                limit,
            }) => {
                let before = self.run_passes(queues, keep, None, first, &hands, timings, workers);
                let bound = Some((weight, limit(self)));
                let rest = &|i| !first(i);
                let after = self.run_passes(queues, keep, bound, rest, &hands, timings, workers);
                before.max(after)
            }
        };
        self.hands = hands;
        self.keeps = keeps;
        for (slot, queue) in self.slots.iter_mut().zip(queues) {
            slot.counts.passes += 1;
            slot.counts.jobs += queue.len() as u64;
        }
        if !same_base {
            self.retained_base
                .get_or_insert_with(|| Profile::new(1, SimTime::ZERO))
                .restore_from(&self.base);
        }
        used
    }

    /// Comparison 1 of the type docs: folds into the retained base the
    /// rectangle of each `departed` job, as started at the last call's
    /// instant, and compares the result with the prepared base from
    /// `now` on; a rectangle that does not fit refuses the fold. Where
    /// they differ, the caller replaces the retained base with the
    /// prepared one.
    fn fold_departed(&mut self, departed: &[Job], now: SimTime) -> bool {
        let Some(planned_on) = &mut self.retained_base else {
            return false;
        };
        let at = self.retained_at;
        for job in departed {
            let fits = job.width <= planned_on.capacity()
                && planned_on.earliest_fit(at, job.estimate, job.width) == at;
            if !fits {
                return false;
            }
            planned_on.allocate(at, job.estimate, job.width);
        }
        planned_on.same_from(&self.base, now)
    }

    /// The schedule [`Planner::plan_retained_batch`] last planned for
    /// queue `i` — the plan of a prefix of the queue when
    /// [`Planner::retained_excess`] is `Some`.
    pub fn retained_schedule(&self, i: usize) -> &Schedule {
        debug_assert!(i < self.retained, "no retained plan for queue {i}");
        &self.slots[i].schedule
    }

    /// `None` when [`Planner::retained_schedule`]`(i)` plans all of queue
    /// `i`; when [`Prune`] stopped the pass, the excess of the jobs it
    /// had placed plus, under [`DelayWeight::Width`], a lower bound on
    /// what the others must add — more than the limit, and no more than
    /// the excess of the plan it did not finish.
    pub fn retained_excess(&self, i: usize) -> Option<f64> {
        debug_assert!(i < self.retained, "no retained plan for queue {i}");
        self.stopped[i].excess
    }

    /// Forgets the retained plans: the next
    /// [`Planner::plan_retained_batch`] plans every queue in full. For
    /// callers whose `first_changed` bookkeeping lost track (a restored
    /// snapshot, an event planned elsewhere).
    pub fn drop_retained(&mut self) {
        self.retained = 0;
    }

    /// The planner's [`PlanCounters`], assembled from where each count is
    /// kept.
    #[doc(hidden)]
    pub fn counters(&self) -> PlanCounters {
        let mut sum = PlanCounters {
            rest_stops: self.stopped.iter().map(|s| s.rest_stops).sum(),
            shared: self.shared,
            folded: self.folded,
            ..PlanCounters::default()
        };
        for slot in &self.slots {
            sum.passes += slot.counts.passes;
            sum.suffix_passes += slot.counts.suffix_passes;
            sum.jobs += slot.counts.jobs;
            sum.kept += slot.counts.kept;
            sum.pruned += slot.counts.pruned;
        }
        sum
    }

    /// Builds the full schedule for `queue` (already in policy order) at
    /// time `now`, around the reservations of `running` jobs.
    ///
    /// Every queue job gets the earliest feasible start ≥ `now`; running
    /// jobs reserve their width until their estimated end (at least
    /// marginally past `now`, see the `RUNNING_PAD` constant).
    #[cfg(test)]
    pub(crate) fn plan(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        queue: &[Job],
    ) -> Schedule {
        self.plan_with_reservations(machine_size, now, running, &[], queue)
    }

    /// Builds the full schedule for `queue` (already in policy order) at
    /// time `now`, around the reservations of `running` jobs and the fixed
    /// [`Reservation`](crate::reservation::Reservation) windows: the
    /// planner treats each active reservation's processors as unavailable
    /// over its interval, and queue jobs backfill around them.
    pub fn plan_with_reservations(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        reservations: &[crate::reservation::Reservation],
        queue: &[Job],
    ) -> Schedule {
        self.prepare(machine_size, now, running, reservations);
        let schedule = self.plan_prepared(queue);
        debug_assert!(
            schedule.validate(machine_size, running, now).is_ok(),
            "planner produced invalid schedule: {:?}",
            schedule.validate(machine_size, running, now)
        );
        schedule
    }
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

/// The retained from-scratch planner: rebuilds the whole profile with
/// one allocate per running job and reservation on every call — exactly
/// the algorithm [`Planner`] used before the shared-base refactor — on
/// [`NaiveProfile`], so it shares neither the sweep, the memo, the undo
/// path nor the storage layout with the production planner.
///
/// It exists as the correctness oracle (property tests assert its
/// schedules are bit-identical to the incremental path's) and as what
/// the benchmark's `rms.reference.*` rows measure. It is not used on any
/// production path.
#[derive(Debug)]
pub struct ReferencePlanner {
    profile: NaiveProfile,
}

impl ReferencePlanner {
    /// Creates a reference planner.
    pub fn new() -> Self {
        ReferencePlanner {
            profile: NaiveProfile::new(1, SimTime::ZERO),
        }
    }

    /// From-scratch counterpart of [`Planner::plan_with_reservations`]
    /// without reservation windows.
    pub fn plan(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        queue: &[Job],
    ) -> Schedule {
        self.plan_with_reservations(machine_size, now, running, &[], queue)
    }

    /// From-scratch counterpart of [`Planner::plan_with_reservations`].
    pub fn plan_with_reservations(
        &mut self,
        machine_size: u32,
        now: SimTime,
        running: &[RunningJob],
        reservations: &[crate::reservation::Reservation],
        queue: &[Job],
    ) -> Schedule {
        self.profile.reset(machine_size, now);
        for r in running {
            let end = r.estimated_end().max(now + RUNNING_PAD);
            self.profile.allocate(now, end - now, r.job.width);
        }
        for res in reservations {
            if !res.active_at(now) {
                continue;
            }
            // Clip windows that already began past the running-job pad
            // (same rule as `Planner::prepare`). An active window ends
            // past `now`, so at or past its clip.
            let start = res.start.max(now + RUNNING_PAD);
            self.profile.allocate(start, res.end() - start, res.width);
        }
        let mut entries = Vec::with_capacity(queue.len());
        for job in queue {
            // Same over-wide rule as the incremental path: unplaceable
            // jobs stay out of the plan (bit-identity requires the two
            // planners to skip identically).
            if job.width > machine_size {
                continue;
            }
            let earliest = now.max(job.submit);
            let start = self
                .profile
                .allocate_earliest(earliest, job.estimate, job.width);
            entries.push(PlannedJob { job: *job, start });
        }
        let schedule = Schedule { entries };
        debug_assert!(
            schedule.validate(machine_size, running, now).is_ok(),
            "reference planner produced invalid schedule: {:?}",
            schedule.validate(machine_size, running, now)
        );
        schedule
    }
}

impl Default for ReferencePlanner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use dynp_workload::JobId;
    use proptest::prelude::*;

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(est_s),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_queue_gives_empty_schedule() {
        let mut p = Planner::new();
        let s = p.plan(8, t(100), &[], &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn jobs_fill_the_idle_machine_immediately() {
        let mut p = Planner::new();
        let q = [j(0, 0, 4, 100), j(1, 0, 4, 50)];
        let s = p.plan(8, t(0), &[], &q);
        assert_eq!(s.entries[0].start, t(0));
        assert_eq!(s.entries[1].start, t(0));
    }

    #[test]
    fn queue_order_decides_who_waits() {
        let mut p = Planner::new();
        // Machine of 4: two width-3 jobs cannot overlap.
        let q = [j(0, 0, 3, 100), j(1, 0, 3, 50)];
        let s = p.plan(4, t(0), &[], &q);
        assert_eq!(s.entries[0].start, t(0));
        assert_eq!(s.entries[1].start, t(100)); // after job 0's estimate
    }

    #[test]
    fn implicit_backfilling_slots_small_jobs_into_gaps() {
        let mut p = Planner::new();
        // Running: 3 of 4 processors busy until t=100.
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        // Queue order: wide job first (must wait), narrow short job second.
        let q = [j(0, 0, 4, 50), j(1, 0, 1, 80)];
        let s = p.plan(4, t(0), &running, &q);
        assert_eq!(s.entries[0].start, t(100), "wide job waits for the machine");
        // The narrow job fits the single free processor *now* and ends
        // before the wide job's reservation: implicit backfill.
        assert_eq!(s.entries[1].start, t(0));
    }

    #[test]
    fn backfill_never_delays_higher_priority_reservations() {
        let mut p = Planner::new();
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        // Narrow but LONG job: running to t=120 on the free processor
        // would not delay the wide job (width 4 needs all processors at
        // t=100; 1 + 3(running) = 4 > 4 - job0 must wait for it? No:
        // job1 uses 1 proc until 120, so at t=100 only 3 free -> the
        // wide job is pushed to t=120. The planner places queue jobs in
        // order, so job0 reserves [100,150) FIRST and job1 must not
        // overlap it: earliest slot for job1 is t=150.
        let q = [j(0, 0, 4, 50), j(1, 0, 1, 120)];
        let s = p.plan(4, t(0), &running, &q);
        assert_eq!(s.entries[0].start, t(100));
        assert_eq!(s.entries[1].start, t(150));
    }

    #[test]
    fn running_jobs_block_their_width_until_estimated_end() {
        let mut p = Planner::new();
        let running = [
            RunningJob {
                job: j(8, 0, 2, 100),
                start: t(0),
            },
            RunningJob {
                job: j(9, 0, 2, 200),
                start: t(0),
            },
        ];
        let q = [j(0, 0, 3, 10)];
        let s = p.plan(4, t(50), &running, &q);
        // 0 free until 100, 2 free until 200, 4 free after.
        assert_eq!(s.entries[0].start, t(200));
    }

    #[test]
    fn overdue_running_job_blocks_the_present_instant() {
        let mut p = Planner::new();
        // Job started at 0 with estimate 100; we plan exactly at t=100
        // (its completion event has not been processed yet).
        let running = [RunningJob {
            job: j(9, 0, 4, 100),
            start: t(0),
        }];
        let q = [j(0, 0, 4, 10)];
        let s = p.plan(4, t(100), &running, &q);
        // The pad keeps the current instant blocked.
        assert!(s.entries[0].start > t(100));
        assert!(s.entries[0].start <= t(101));
    }

    #[test]
    fn planner_is_reusable_across_policies() {
        let mut p = Planner::new();
        let mut q = vec![j(0, 0, 2, 100), j(1, 1, 2, 10)];
        Policy::Sjf.sort_queue(&mut q);
        let sjf = p.plan(2, t(1), &[], &q);
        assert_eq!(sjf.entries[0].job.id, JobId(1));
        Policy::Ljf.sort_queue(&mut q);
        let ljf = p.plan(2, t(1), &[], &q);
        assert_eq!(ljf.entries[0].job.id, JobId(0));
        assert_eq!(ljf.entries[1].start, t(101));
    }

    #[test]
    fn one_prepare_serves_many_policy_passes() {
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        let mut q = vec![j(0, 0, 4, 50), j(1, 2, 1, 80)];
        let mut incremental = Planner::new();
        incremental.prepare(4, t(10), &running, &[]);
        let mut reference = ReferencePlanner::new();
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::Ljf] {
            policy.sort_queue(&mut q);
            let fast = incremental.plan_prepared(&q);
            let slow = reference.plan(4, t(10), &running, &q);
            assert_eq!(fast.entries, slow.entries, "{policy:?} diverged");
        }
    }

    #[test]
    fn over_wide_jobs_are_left_out_of_the_plan() {
        // Machine degraded to 3 usable processors: the width-4 job has no
        // feasible start and must stay waiting, while the narrow job
        // plans normally. Both planners skip it identically.
        let q = [j(0, 0, 4, 100), j(1, 0, 2, 50)];
        let mut p = Planner::new();
        let s = p.plan(3, t(0), &[], &q);
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries[0].job.id, JobId(1));
        assert_eq!(s.entries[0].start, t(0));
        let mut r = ReferencePlanner::new();
        let s2 = r.plan(3, t(0), &[], &q);
        assert_eq!(s.entries, s2.entries);
    }

    #[test]
    fn batch_planning_matches_sequential_for_every_worker_count() {
        let running = [RunningJob {
            job: j(9, 0, 3, 100),
            start: t(0),
        }];
        // Three differently ordered queues, like the self-tuning step's
        // per-policy orders.
        let base: Vec<Job> = (0..40)
            .map(|i| j(i, i as u64 % 7, 1 + i % 4, 10 + (i as u64 * 13) % 300))
            .collect();
        let mut queues = vec![base.clone(), base.clone(), base];
        Policy::Sjf.sort_queue(&mut queues[1]);
        Policy::Ljf.sort_queue(&mut queues[2]);

        let mut p = Planner::new();
        p.prepare(8, t(5), &running, &[]);
        let expected: Vec<Schedule> = queues.iter().map(|q| p.plan_prepared(q)).collect();
        for workers in [1usize, 2, 3, 8] {
            let mut outs = vec![Schedule::default(); 3];
            let mut timings = vec![PlanTiming::default(); 3];
            let used = p.plan_prepared_batch(&queues, &mut outs, &mut timings, workers);
            assert!(used >= 1 && used <= workers.max(1));
            for (got, want) in outs.iter().zip(&expected) {
                assert_eq!(got.entries, want.entries, "workers={workers} diverged");
            }
            // Tracing is off: timings must stay zeroed.
            assert!(timings.iter().all(|tm| *tm == PlanTiming::default()));
        }
    }

    #[test]
    fn plan_prepared_into_reuses_the_buffer() {
        let mut p = Planner::new();
        p.prepare(8, t(0), &[], &[]);
        let mut out = Schedule::default();
        p.plan_prepared_into(&[j(0, 0, 4, 10)], &mut out);
        assert_eq!(out.len(), 1);
        let q2 = [j(1, 0, 2, 5), j(2, 0, 2, 5)];
        p.plan_prepared_into(&q2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out.entries[0].job.id, JobId(1));
        assert_eq!(p.plan_prepared(&q2).entries, out.entries);
    }

    /// The three paper policies' orders of `jobs`.
    fn policy_orders(jobs: &[Job]) -> Vec<Vec<Job>> {
        Policy::BASIC
            .iter()
            .map(|p| {
                let mut q = jobs.to_vec();
                p.sort_queue(&mut q);
                q
            })
            .collect()
    }

    /// Inserts `job` into every order the way the self-tuning scheduler
    /// does, lowering each `first_changed` to the insertion point.
    fn submit(orders: &mut [Vec<Job>], first_changed: &mut [usize], job: Job) {
        for ((policy, order), first) in Policy::BASIC.iter().zip(orders).zip(first_changed) {
            let pos = order
                .binary_search_by(|probe| policy.cmp_jobs(probe, &job))
                .unwrap_err();
            order.insert(pos, job);
            *first = (*first).min(pos);
        }
    }

    /// Takes `job` out of every order the way the self-tuning scheduler
    /// does, lowering each `first_changed` that reached past it.
    fn leave(orders: &mut [Vec<Job>], first_changed: &mut [usize], job: Job) {
        for (order, first) in orders.iter_mut().zip(first_changed) {
            let pos = order
                .iter()
                .position(|q| q.id == job.id)
                .expect("job is waiting");
            order.remove(pos);
            if pos < *first {
                *first -= 1;
            }
        }
    }

    /// Plans `orders` through the retained entry and checks every
    /// schedule against a from-scratch plan of the same (base, queue).
    fn assert_retained_matches_fresh(
        p: &mut Planner,
        orders: &[Vec<Job>],
        first_changed: &[usize],
        workers: usize,
    ) {
        let placed = assert_pruned_matches_fresh(p, orders, first_changed, None, workers);
        for (placed, order) in placed.iter().zip(orders) {
            let fits = order.iter().filter(|job| job.width <= p.base.capacity());
            assert_eq!(*placed, fits.count(), "an unbounded pass stopped early");
        }
    }

    /// Plans `orders` through the retained entry — with `bound =
    /// (first, share)` under a [`Prune`] that plans queue `first` first
    /// and stops the others at `share` of its excess — and checks every
    /// schedule against a from-scratch plan of the same (base, queue):
    /// all of it where the pass was complete, the prefix it holds where
    /// it stopped — and there the excess it reports: of the jobs placed
    /// when those are past the limit, else no more than the excess of the
    /// finished plan. Returns how many jobs each schedule holds.
    fn assert_pruned_matches_fresh(
        p: &mut Planner,
        orders: &[Vec<Job>],
        first_changed: &[usize],
        bound: Option<(usize, f64)>,
        workers: usize,
    ) -> Vec<usize> {
        assert_departed_matches_fresh(p, orders, first_changed, &[], bound, workers)
    }

    /// [`assert_pruned_matches_fresh`] after the `departed` jobs left the
    /// queue.
    fn assert_departed_matches_fresh(
        p: &mut Planner,
        orders: &[Vec<Job>],
        first_changed: &[usize],
        departed: &[Job],
        bound: Option<(usize, f64)>,
        workers: usize,
    ) -> Vec<usize> {
        let now = p.prepared_at;
        let mut timings = vec![PlanTiming::default(); orders.len()];
        let mut limit = f64::INFINITY;
        let (first, share) = bound.unwrap_or((usize::MAX, 0.0));
        let is_first = |i| i == first;
        let mut take_limit = |p: &Planner| {
            assert!(p.retained_excess(first).is_none());
            limit = share * DelayWeight::Width.excess(p.retained_schedule(first), now);
            limit
        };
        p.plan_retained_batch(
            orders,
            first_changed,
            departed,
            bound.map(|_| Prune {
                weight: DelayWeight::Width,
                first: &is_first,
                limit: &mut take_limit,
            }),
            &mut timings,
            workers,
        );
        let mut fresh = Planner::new();
        fresh.base.restore_from(&p.base);
        fresh.prepared_at = now;
        let mut placed = Vec::new();
        for (i, order) in orders.iter().enumerate() {
            let (got, want) = (p.retained_schedule(i), fresh.plan_prepared(order));
            placed.push(got.len());
            match p.retained_excess(i) {
                None => assert_eq!(got.entries, want.entries, "queue {i} diverged"),
                Some(excess) => {
                    assert_eq!(got.entries, want.entries[..got.len()], "queue {i} diverged");
                    assert!(excess > limit, "queue {i} stopped at {excess} <= {limit}");
                    let placed = DelayWeight::Width.excess(got, now);
                    if placed > limit {
                        assert_eq!(excess, placed, "queue {i}");
                        continue;
                    }
                    // Stopped by what it had not placed: the bound lies
                    // between the part and the whole.
                    let finished = DelayWeight::Width.excess(&want, now);
                    assert!(placed < excess, "queue {i}: {placed} !< {excess}");
                    assert!(
                        excess <= finished * (1.0 + 1e-9),
                        "queue {i}: {excess} > {finished}"
                    );
                }
            }
        }
        placed
    }

    #[test]
    fn a_submission_re_places_only_the_suffix_behind_it() {
        // The machine is full until t=100, so every plan lies ahead of
        // the submission instants below.
        let running = [RunningJob {
            job: j(99, 0, 4, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..12)
            .map(|i| j(i, i as u64, 1 + i % 4, 20 + (i as u64 * 37) % 200))
            .collect();
        let mut orders = policy_orders(&jobs);
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &[0; 3], 1);
        assert_eq!(p.counters().suffix_passes, 0, "nothing to keep yet");

        // A later submission on the same base: FCFS keeps all 12, and
        // SJF and LJF between them keep 12 more (the new job splits the
        // duration order; estimates are distinct).
        let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
        submit(&mut orders, &mut first, j(12, 13, 2, 90));
        p.prepare(4, t(13), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &first, 1);
        let counts = p.counters();
        assert_eq!(counts.suffix_passes, 3);
        assert_eq!(counts.kept, 24);

        // Nothing changed at all: everything is kept, nothing is placed.
        let first: Vec<usize> = orders.iter().map(Vec::len).collect();
        p.prepare(4, t(13), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &first, 1);
        assert_eq!(p.counters().kept, 24 + 39);
    }

    #[test]
    fn a_start_as_planned_keeps_the_plans_that_started_it() {
        // Three of four processors busy until t=100: the first plan
        // starts some narrow jobs at once, beside the running one.
        let mut running = vec![RunningJob {
            job: j(99, 0, 3, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..12)
            .map(|i| j(i, i as u64, 1 + i % 4, 20 + (i as u64 * 37) % 200))
            .collect();
        let mut orders = policy_orders(&jobs);
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &[0; 3], 1);
        // The event loop starts what the FCFS plan starts now.
        let due: Vec<Job> = p.slots[0].schedule.due(t(12)).map(|e| e.job).collect();
        assert!(!due.is_empty());
        let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
        for &job in &due {
            leave(&mut orders, &mut first, job);
            running.push(RunningJob { job, start: t(12) });
        }
        // A later event on the base those starts left behind: every plan
        // that started the same jobs keeps its prefix.
        p.prepare(4, t(20), &running, &[]);
        assert_departed_matches_fresh(&mut p, &orders, &first, &due, None, 1);
        let counts = p.counters();
        assert!(counts.folded >= 1, "{counts:?}");
        assert_eq!(counts.suffix_passes, counts.folded);
        assert!(counts.kept > 0, "{counts:?}");

        // A job cancelled instead of started leaves its rectangle out of
        // the base: nothing folds.
        let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
        let gone = orders[0][0];
        leave(&mut orders, &mut first, gone);
        p.prepare(4, t(20), &running, &[]);
        assert_departed_matches_fresh(&mut p, &orders, &first, &[gone], None, 1);
        assert_eq!(p.counters().folded, counts.folded);
        assert_eq!(p.counters().suffix_passes, counts.suffix_passes);
    }

    #[test]
    fn both_ways_of_cutting_a_plan_back_leave_one_function() {
        let running = [RunningJob {
            job: j(99, 0, 3, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..12)
            .map(|i| j(i, i as u64, 1 + i % 4, 20 + (i as u64 * 37) % 200))
            .collect();
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        let base = &p.base;
        let mut slot = Slot::new();
        slot.plan(base, t(12), &jobs, 0, None);
        let entries = &slot.schedule.entries;
        for keep in 0..=entries.len() {
            let (kept, rest) = entries.split_at(keep);
            let cut = |rebuild| {
                let mut profile = slot.profile.clone();
                cut_back(&mut profile, base, kept, rest, rebuild);
                profile
            };
            let (rebuilt, released) = (cut(true), cut(false));
            assert!(rebuilt.same_from(&released, t(12)), "keep {keep}");
            // Both are the base narrowed by a fresh plan of the kept jobs.
            let mut fresh = Slot::new();
            fresh.plan(base, t(12), &jobs[..keep], 0, None);
            assert_eq!(fresh.schedule.entries, kept);
            assert!(fresh.profile.same_from(&rebuilt, t(12)), "keep {keep}");
        }
    }

    #[test]
    fn a_changed_base_takes_the_full_pass_whatever_the_caller_claims() {
        let mut running = vec![RunningJob {
            job: j(99, 0, 3, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..8).map(|i| j(i, 0, 2, 50 + i as u64)).collect();
        let orders = policy_orders(&jobs);
        let all: Vec<usize> = orders.iter().map(Vec::len).collect();
        let mut p = Planner::new();
        p.prepare(4, t(10), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        // The running job ends early: same queue, different base.
        running.clear();
        p.prepare(4, t(20), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        // Degraded capacity alone is a different base too.
        p.prepare(3, t(20), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        // An overdue running job's pad moves with `now`.
        running.push(RunningJob {
            job: j(98, 0, 1, 5),
            start: t(0),
        });
        p.prepare(4, t(30), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        p.prepare(4, t(31), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 0);
        // Same instant, same base: now the claim is taken up.
        p.prepare(4, t(31), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 3);
    }

    #[test]
    fn kept_entries_must_match_the_queue_and_lie_ahead() {
        // Width-4 job 0 is over-wide on a machine degraded to 3 and is
        // skipped, so the entries run one ahead of the FCFS order: the
        // id comparison refuses the prefix.
        let jobs = [j(0, 0, 4, 100), j(1, 1, 2, 50), j(2, 2, 1, 70)];
        let mut orders = policy_orders(&jobs);
        let mut p = Planner::new();
        p.prepare(3, t(5), &[], &[]);
        assert_retained_matches_fresh(&mut p, &orders, &[0; 3], 1);
        let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
        submit(&mut orders, &mut first, j(3, 6, 1, 60));
        p.prepare(3, t(5), &[], &[]);
        assert_retained_matches_fresh(&mut p, &orders, &first, 1);
        // SJF keeps [1] and LJF keeps nothing ahead of the over-wide
        // job; FCFS (over-wide job first) falls back.
        assert_eq!(p.counters().suffix_passes, 1);

        // Entries planned before `now` (the caller never started them)
        // are not kept either: the idle machine's base is the same
        // function at every instant, the plans are not.
        let orders = policy_orders(&jobs[1..]);
        let all: Vec<usize> = orders.iter().map(Vec::len).collect();
        let mut p = Planner::new();
        p.prepare(4, t(5), &[], &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        p.prepare(4, t(6), &[], &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 0);
    }

    #[test]
    fn other_planning_passes_drop_the_retained_plans() {
        let jobs: Vec<Job> = (0..6).map(|i| j(i, 0, 2, 50 + i as u64)).collect();
        let orders = policy_orders(&jobs);
        let all: Vec<usize> = orders.iter().map(Vec::len).collect();
        let mut p = Planner::new();
        p.prepare(4, t(0), &[], &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        // Slot 0's profile is this pass's scratch.
        let _ = p.plan_prepared(&orders[1]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 0);
        p.drop_retained();
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 0);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 3);
    }

    /// Twelve jobs behind a full machine, FCFS planned first: SJF and
    /// LJF run up half of FCFS's excess long before their last job.
    fn pruned_setup() -> (Planner, Vec<RunningJob>, Vec<Vec<Job>>) {
        let running = vec![RunningJob {
            job: j(99, 0, 4, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..12)
            .map(|i| j(i, i as u64, 1 + i % 4, 20 + (i as u64 * 37) % 200))
            .collect();
        let orders = policy_orders(&jobs);
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &[0; 3], Some((0, 0.5)), 1);
        assert_eq!(placed[0], 12, "the first queue is planned completely");
        assert!(placed[1] < 12 && placed[2] < 12, "{placed:?}");
        assert!(placed[1] > 1 && placed[2] > 1, "{placed:?}");
        let pruned = (12 - placed[1]) + (12 - placed[2]);
        assert_eq!(p.counters().pruned, pruned as u64);
        (p, running, orders)
    }

    #[test]
    fn a_stopped_plan_is_kept_up_to_a_submission_ahead_of_or_behind_the_cut() {
        let (mut p, running, mut orders) = pruned_setup();
        let before: Vec<usize> = (0..3).map(|i| p.retained_schedule(i).len()).collect();
        let pruned = p.counters().pruned;
        // The shortest job of all: position 0 of the SJF order, ahead of
        // where that pass stopped, and the last of the LJF order, behind
        // where that one did.
        let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
        submit(&mut orders, &mut first, j(12, 13, 2, 5));
        assert_eq!((first[1], first[2]), (0, 12));
        p.prepare(4, t(13), &running, &[]);
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &first, Some((0, 0.5)), 1);
        assert_eq!(placed[0], 13);
        // LJF kept what it held and, still past the limit, placed
        // nothing; FCFS kept its twelve and placed the new job; SJF had
        // nothing in front of the new job to keep.
        assert_eq!(placed[2], before[2]);
        let counts = p.counters();
        assert_eq!(counts.suffix_passes, 2);
        assert_eq!(counts.kept, (12 + before[2]) as u64);
        assert!(counts.pruned > pruned);
    }

    #[test]
    fn a_stopped_plan_that_must_be_complete_is_finished_from_its_prefix() {
        let (mut p, running, orders) = pruned_setup();
        let held = p.retained_schedule(2).len();
        // Nothing changed but which queue is planned first: LJF now.
        let all: Vec<usize> = orders.iter().map(Vec::len).collect();
        p.prepare(4, t(12), &running, &[]);
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &all, Some((2, 0.5)), 1);
        assert_eq!(placed[2], 12);
        // All three passes kept what their slots held; LJF's went on
        // from there.
        let counts = p.counters();
        assert_eq!(counts.suffix_passes, 3);
        assert!(counts.kept >= (12 + held) as u64);
        // And without a bound every plan is finished.
        p.prepare(4, t(12), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &all, 1);
        assert_eq!(p.counters().suffix_passes, 6);
    }

    #[test]
    fn an_over_wide_job_ahead_of_the_cut_takes_the_full_pass() {
        // Degraded to three processors, the width-4 jobs (ids 3, 7, 11)
        // are in no plan: the entries of every slot run ahead of its
        // order from the first of them on.
        let jobs: Vec<Job> = (0..12)
            .map(|i| j(i, i as u64, 1 + i % 4, 20 + (i as u64 * 37) % 200))
            .collect();
        let orders = policy_orders(&jobs);
        let all: Vec<usize> = orders.iter().map(Vec::len).collect();
        let running = [RunningJob {
            job: j(99, 0, 3, 100),
            start: t(0),
        }];
        let mut p = Planner::new();
        p.prepare(3, t(12), &running, &[]);
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &[0; 3], Some((0, 0.5)), 1);
        assert_eq!(placed[0], 9);
        assert!(p.counters().pruned > 0, "{placed:?}");
        // Claiming everything unchanged, each slot is cut to what it
        // holds, and the id comparison refuses it at the skipped job.
        p.prepare(3, t(12), &running, &[]);
        let again = assert_pruned_matches_fresh(&mut p, &orders, &all, Some((0, 0.5)), 1);
        assert_eq!(again, placed);
        assert_eq!(p.counters().suffix_passes, 0);
    }

    /// The ids of each order.
    fn ids(orders: &[Vec<Job>]) -> Vec<Vec<u32>> {
        orders
            .iter()
            .map(|order| order.iter().map(|job| job.id.0).collect())
            .collect()
    }

    #[test]
    fn identical_orders_are_copied_not_planned() {
        // One estimate for all: SJF's and LJF's orders are FCFS's, and
        // behind a full machine every job waits.
        let running = [RunningJob {
            job: j(99, 0, 4, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..12).map(|i| j(i, i as u64, 1 + i % 4, 50)).collect();
        let orders = policy_orders(&jobs);
        assert!(ids(&orders).iter().all(|order| *order == ids(&orders)[0]));
        // A limit of 0 stops every pass that places anything: SJF and
        // LJF are FCFS's complete plan nonetheless — copied, not planned.
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &[0; 3], Some((0, 0.0)), 1);
        assert_eq!(placed, [12, 12, 12]);
        assert_eq!(p.counters().shared, 24);
        assert_eq!(p.counters().pruned, 0);
        // Planned on two threads, nothing is shared and both stop.
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &[0; 3], Some((0, 0.0)), 2);
        assert!(placed[1] < 12 && placed[2] < 12, "{placed:?}");
        assert_eq!(p.counters().shared, 0);
    }

    /// Four wide jobs of 500 s submitted first, then six short ones;
    /// queue 0 plans the short ones first, queues 1 and 2 the long ones,
    /// in the same order, and then go separate ways.
    fn long_jobs_first() -> (Vec<RunningJob>, Vec<Vec<Job>>) {
        let running = vec![RunningJob {
            job: j(99, 0, 4, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..10)
            .map(|i| match i {
                0..4 => j(i, i as u64, 4, 500),
                _ => j(i, i as u64, 1 + i % 2, 10 + i as u64),
            })
            .collect();
        let order = |ids: [usize; 10]| ids.iter().map(|&i| jobs[i]).collect();
        let orders = vec![
            order([4, 5, 6, 7, 8, 9, 0, 1, 2, 3]),
            order([0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
            order([0, 1, 2, 3, 9, 8, 7, 6, 5, 4]),
        ];
        (running, orders)
    }

    #[test]
    fn a_donor_stopped_before_the_cut_hands_over_what_it_placed() {
        let (running, orders) = long_jobs_first();
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        // Queue 1 has lost within its long jobs, before the cut at 4.
        let placed = assert_pruned_matches_fresh(&mut p, &orders, &[0; 3], Some((0, 0.2)), 1);
        assert!(placed[1] < 4, "{placed:?}");
        // Queue 2 started from those and, past the limit, placed no more.
        assert_eq!(placed[2], placed[1]);
        assert_eq!(p.counters().shared, placed[1] as u64);
        assert!(p.retained_excess(2).is_some());
    }

    #[test]
    fn a_recipient_keeps_its_own_plan_when_that_is_longer() {
        let (running, mut orders) = long_jobs_first();
        let mut p = Planner::new();
        p.prepare(4, t(12), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &[0; 3], 1);
        assert_eq!(p.counters().shared, 4);
        // A job every queue plans last: queue 2 keeps its ten of its own
        // rather than queue 1's four.
        let late = j(10, 12, 1, 5);
        for order in &mut orders {
            order.push(late);
        }
        p.prepare(4, t(12), &running, &[]);
        assert_retained_matches_fresh(&mut p, &orders, &[10; 3], 1);
        assert_eq!(p.counters().shared, 4);
        assert_eq!(p.counters().kept, 30);
    }

    #[test]
    fn a_recipient_hands_on_what_it_was_handed() {
        let jobs: Vec<Job> = (0..7).map(|i| j(i, i as u64, 2, 30 + i as u64)).collect();
        let order = |ids: [usize; 7]| ids.iter().map(|&i| jobs[i]).collect();
        let orders = vec![
            order([0, 1, 2, 3, 4, 5, 6]),
            order([0, 1, 2, 6, 5, 4, 3]),
            order([0, 1, 2, 6, 5, 3, 4]),
        ];
        // Queue 1 starts from queue 0's first three, queue 2 from queue
        // 1's first five — two of them queue 1's own.
        let mut p = Planner::new();
        p.prepare(4, t(7), &[], &[]);
        assert_retained_matches_fresh(&mut p, &orders, &[0; 3], 1);
        assert_eq!(p.counters().shared, 3 + 5);
        assert_eq!(p.counters().suffix_passes, 0);
    }

    #[test]
    fn slot_size_is_pinned() {
        // `chaos` retains no plan, and its peak RSS still jumped by 17 %
        // for two more words here (DESIGN §10): what a pass leaves
        // behind goes into `Planner::stopped`, not into the slot.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Slot>(), 1144);
    }

    /// Longer estimates fall in later classes, and none past its class's
    /// edge or more than an eighth short of it.
    #[test]
    fn duration_classes_are_monotone_and_edged_from_above() {
        let mut last = 0;
        for ms in (0..4096u64).chain((12..64).flat_map(|b| [(1 << b) - 1, 1 << b, (1 << b) + 1])) {
            let c = class_of(ms);
            assert!(c >= last && c < CLASSES, "{ms}: class {c} after {last}");
            assert!(class_edge(c) >= ms as f64, "{ms}: edge {}", class_edge(c));
            assert!(class_edge(c) <= 1.125 * ms as f64 || ms < 16, "{ms}");
            last = c;
        }
        assert_eq!(class_of(u64::MAX), CLASSES - 1);
    }

    #[test]
    fn rest_bound_is_exact_for_equal_jobs_on_one_processor() {
        // Five 15 ms jobs (a class of its own) one after the other: the
        // rectangles are the fluid optimum, 15 ms · (0 + 1 + 2 + 3 + 4).
        let queue: Vec<Job> = (0..5)
            .map(|i| {
                let est = SimDuration::from_millis(15);
                Job::new(JobId(i), t(0), 1, est, est)
            })
            .collect();
        let mut profile = Profile::new(1, t(10));
        let bound = rest_bound(&profile, t(10), &queue);
        assert!((bound - 0.150).abs() < 1e-12, "{bound}");
        // With two of them placed the other three wait 30, 45 and 60 ms.
        let mut plan = Schedule::default();
        place(&mut profile, t(10), &queue[..2], &mut plan, None);
        let bound = rest_bound(&profile, t(10), &queue[2..]);
        assert!((bound - 0.135).abs() < 1e-12, "{bound}");
        // Not yet submitted, a job's delay counts from its submission.
        let later = Job::new(JobId(9), t(11), 1, queue[0].estimate, queue[0].estimate);
        assert_eq!(rest_bound(&profile, t(10), &[later]), 0.0);
    }

    /// Sixty jobs behind a full machine, SJF planned first: what stops
    /// the other two, event after event.
    #[test]
    fn the_rest_bound_stops_a_resumed_plan_and_then_fresh_ones_early() {
        let running = [RunningJob {
            job: j(999, 0, 8, 100),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..60)
            .map(|i| j(i, i as u64 % 10, 1 + i % 5, 20 + (i as u64 * 137) % 900))
            .collect();
        let orders = policy_orders(&jobs);
        let all: Vec<usize> = orders.iter().map(Vec::len).collect();
        let mut p = Planner::new();
        p.prepare(8, t(10), &running, &[]);
        // Nothing is known about these queues: FCFS and LJF place until
        // the jobs placed are past the limit, a third of SJF's excess.
        let first = assert_pruned_matches_fresh(&mut p, &orders, &[0; 3], Some((1, 0.3)), 1);
        assert!(first[0] < 60 && first[2] < 60, "{first:?}");
        assert_eq!(p.counters().rest_stops, 0);
        // The same queues on the same base under a limit three times as
        // high: the jobs they hold are under it now, so both ask at once
        // — and what they never placed keeps them stopped.
        p.prepare(8, t(10), &running, &[]);
        let resumed = assert_pruned_matches_fresh(&mut p, &orders, &all, Some((1, 1.0)), 1);
        assert_eq!(resumed, first);
        assert_eq!(p.counters().rest_stops, 2);
        // The running job is given longer: a new base, fresh passes —
        // which ask as they go now, and LJF's stops after one stretch.
        let running = [RunningJob {
            job: j(999, 0, 8, 120),
            start: t(0),
        }];
        p.prepare(8, t(11), &running, &[]);
        let fresh = assert_pruned_matches_fresh(&mut p, &orders, &all, Some((1, 1.0)), 1);
        assert_eq!((fresh[1], fresh[2]), (60, 8), "{fresh:?}");
        assert_eq!(p.counters().rest_stops, 3);
        // Planned first, a queue is planned completely.
        p.prepare(8, t(11), &running, &[]);
        let turned = assert_pruned_matches_fresh(&mut p, &orders, &all, Some((0, 1.0)), 1);
        assert_eq!(turned[0], 60);
    }

    mod reservations {
        use super::*;
        use crate::reservation::ReservationBook;

        #[test]
        fn jobs_plan_around_a_reservation() {
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 4);
            let mut p = Planner::new();
            // Machine 4 fully reserved over [100, 200): a long job must
            // either finish before 100 or start at 200.
            let q = [j(0, 0, 2, 150)];
            let s = p.plan_with_reservations(4, t(0), &[], book.all(), &q);
            assert_eq!(s.entries[0].start, t(200));
        }

        #[test]
        fn short_jobs_backfill_before_the_reservation() {
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 4);
            let mut p = Planner::new();
            let q = [j(0, 0, 4, 100), j(1, 0, 4, 50)];
            let s = p.plan_with_reservations(4, t(0), &[], book.all(), &q);
            // First job exactly fills [0, 100); second must wait out the
            // reservation.
            assert_eq!(s.entries[0].start, t(0));
            assert_eq!(s.entries[1].start, t(200));
        }

        #[test]
        fn partial_reservation_leaves_remaining_width_usable() {
            let mut book = ReservationBook::new();
            book.add(t(0), SimDuration::from_secs(1_000), 3);
            let mut p = Planner::new();
            let q = [j(0, 0, 1, 500), j(1, 0, 2, 500)];
            let s = p.plan_with_reservations(4, t(0), &[], book.all(), &q);
            assert_eq!(s.entries[0].start, t(0)); // 1 proc free alongside
            assert_eq!(s.entries[1].start, t(1_000)); // width 2 must wait
        }

        #[test]
        fn expired_and_started_windows_are_clipped() {
            let mut book = ReservationBook::new();
            book.add(t(0), SimDuration::from_secs(50), 4); // over by now
            book.add(t(80), SimDuration::from_secs(40), 4); // started, ends 120
            let mut p = Planner::new();
            let now = t(100);
            let q = [j(0, 0, 4, 10)];
            let s = p.plan_with_reservations(4, now, &[], book.all(), &q);
            // Only the live remainder [100, 120) blocks.
            assert_eq!(s.entries[0].start, t(120));
        }

        #[test]
        fn plan_is_plan_with_empty_reservations() {
            let mut p = Planner::new();
            let q = [j(0, 0, 2, 100), j(1, 0, 2, 50)];
            let a = p.plan(4, t(0), &[], &q);
            let b = p.plan_with_reservations(4, t(0), &[], &[], &q);
            assert_eq!(a.entries, b.entries);
        }

        #[test]
        fn overdue_running_job_coexists_with_full_width_window() {
            // A job estimated to end exactly at `now` still holds its
            // processors (completion event pending), while a full-width
            // window opens at `now`. The pad clip keeps the base profile
            // feasible instead of panicking on overcommit.
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 4);
            let running = [RunningJob {
                job: j(9, 0, 1, 100),
                start: t(0),
            }];
            let mut p = Planner::new();
            let q = [j(0, 0, 2, 10)];
            let s = p.plan_with_reservations(4, t(100), &running, book.all(), &q);
            // The queue job must clear both the pad and the window.
            assert_eq!(s.entries[0].start, t(200));
            let mut r = ReferencePlanner::new();
            let s2 = r.plan_with_reservations(4, t(100), &running, book.all(), &q);
            assert_eq!(s.entries, s2.entries);
        }

        #[test]
        fn window_fits_checks_capacity_against_the_base() {
            let mut book = ReservationBook::new();
            book.add(t(100), SimDuration::from_secs(100), 3);
            let mut p = Planner::new();
            p.prepare(4, t(0), &[], book.all());
            // One processor is left over [100, 200).
            assert!(p.window_fits(t(100), SimDuration::from_secs(100), 1));
            assert!(!p.window_fits(t(100), SimDuration::from_secs(100), 2));
            // Disjoint window: full machine available.
            assert!(p.window_fits(t(200), SimDuration::from_secs(50), 4));
            // Overlapping the tail only.
            assert!(!p.window_fits(t(150), SimDuration::from_secs(100), 2));
            // Degenerate widths.
            assert!(!p.window_fits(t(300), SimDuration::from_secs(10), 0));
            assert!(!p.window_fits(t(300), SimDuration::from_secs(10), 5));
            // A window already over at the prepare instant absorbs trivially.
            p.prepare(4, t(500), &[], book.all());
            assert!(p.window_fits(t(100), SimDuration::from_secs(100), 4));
        }

        #[test]
        fn window_fits_accounts_for_running_jobs() {
            let running = [RunningJob {
                job: j(9, 0, 3, 100),
                start: t(0),
            }];
            let mut p = Planner::new();
            p.prepare(4, t(0), &running, &[]);
            assert!(p.window_fits(t(0), SimDuration::from_secs(50), 1));
            assert!(!p.window_fits(t(0), SimDuration::from_secs(50), 2));
            assert!(p.window_fits(t(100), SimDuration::from_secs(50), 4));
        }
    }

    proptest! {
        /// For any queue and running set, the planner's schedule passes
        /// full validation (no overcommit, no past starts).
        #[test]
        fn planned_schedules_always_validate(
            widths in proptest::collection::vec(1u32..8, 1..40),
            ests in proptest::collection::vec(1u64..500, 1..40),
            submits in proptest::collection::vec(0u64..100, 1..40),
            n_running in 0usize..4,
        ) {
            let n = widths.len().min(ests.len()).min(submits.len());
            let machine = 8u32;
            let now = t(100);
            let mut running = Vec::new();
            let mut used = 0u32;
            for i in 0..n_running.min(n) {
                let w = widths[i].min(machine - used);
                if w == 0 { break; }
                used += w;
                running.push(RunningJob {
                    job: j(1000 + i as u32, 0, w, ests[i] + 150),
                    start: t(50),
                });
            }
            let queue: Vec<Job> = (0..n)
                .map(|i| j(i as u32, submits[i], widths[i], ests[i]))
                .collect();
            let mut p = Planner::new();
            let s = p.plan(machine, now, &running, &queue);
            prop_assert_eq!(s.len(), n);
            prop_assert!(s.validate(machine, &running, now).is_ok(),
                         "{:?}", s.validate(machine, &running, now));
        }

        /// FCFS planning is monotone for equal-width jobs: a job never
        /// starts before an identical job submitted earlier.
        #[test]
        fn fcfs_equal_jobs_start_in_order(
            n in 2usize..30,
            width in 1u32..4,
            est in 1u64..100,
        ) {
            let queue: Vec<Job> = (0..n)
                .map(|i| j(i as u32, i as u64, width, est))
                .collect();
            let mut p = Planner::new();
            let s = p.plan(4, t(100), &[], &queue);
            for w in s.entries.windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
        }

        /// Equivalence oracle: the shared-base planner and the retained
        /// from-scratch reference produce bit-identical schedules for
        /// every policy order of a random queue over random running
        /// jobs — including repeated plan_prepared calls against one
        /// prepare.
        #[test]
        fn incremental_planner_matches_reference(
            widths in proptest::collection::vec(1u32..8, 1..40),
            ests in proptest::collection::vec(1u64..500, 1..40),
            submits in proptest::collection::vec(0u64..100, 1..40),
            n_running in 0usize..5,
            now_s in 0u64..200,
            // Degraded capacities (node outages shrink the plannable
            // machine): widths up to 7 make some jobs over-wide, which
            // both planners must skip identically.
            machine in 2u32..9,
        ) {
            let n = widths.len().min(ests.len()).min(submits.len());
            let now = t(now_s);
            let mut running = Vec::new();
            let mut used = 0u32;
            for i in 0..n_running.min(n) {
                let w = widths[i].min(machine - used);
                if w == 0 { break; }
                used += w;
                running.push(RunningJob {
                    // Estimates straddle `now` so some running jobs are
                    // overdue (exercising RUNNING_PAD) and some are not.
                    job: j(1000 + i as u32, 0, w, ests[i]),
                    start: t(now_s.saturating_sub(50)),
                });
            }
            let mut queue: Vec<Job> = (0..n)
                .map(|i| j(i as u32, submits[i], widths[i], ests[i]))
                .collect();
            let mut incremental = Planner::new();
            incremental.prepare(machine, now, &running, &[]);
            let mut reference = ReferencePlanner::new();
            for policy in Policy::ALL {
                policy.sort_queue(&mut queue);
                let fast = incremental.plan_prepared(&queue);
                let slow = reference.plan(machine, now, &running, &queue);
                prop_assert_eq!(&fast.entries, &slow.entries,
                                "{:?} diverged from reference", policy);
                // The one-shot wrapper takes the same incremental path.
                let wrapped = Planner::new().plan(machine, now, &running, &queue);
                prop_assert_eq!(&wrapped.entries, &slow.entries);
            }
        }

        /// The rest bound against the truth, everywhere a pass could ask:
        /// on any base (running jobs, reservation windows, a machine
        /// degraded below some widths), for the policy orders and for
        /// arbitrary ones, with jobs not yet submitted among them, the
        /// bound on `queue[i..]` over the profile that holds `queue[..i]`
        /// is no more than the excess those jobs have in the finished
        /// plan — up to the rounding of the sums it is a difference of.
        #[test]
        fn rest_bound_never_exceeds_the_excess_of_the_finished_suffix(
            raw in proptest::collection::vec((1u32..10, 1u64..3_000_000, 0u64..150), 1..50),
            raw_running in proptest::collection::vec((1u32..4, 1u64..400), 0..4),
            windows in proptest::collection::vec((0u64..300, 1u64..300, 1u32..4), 0..3),
            machine in 6u32..10,
            order in 0usize..5,
            salt in 1u64..1_000,
        ) {
            let now = t(100);
            let ms = SimDuration::from_millis;
            let mut queue: Vec<Job> = raw
                .iter()
                .enumerate()
                .map(|(i, &(width, est, submit))| Job::new(JobId(i as u32), t(submit), width, ms(est), ms(est)))
                .collect();
            match Policy::BASIC.get(order) {
                Some(policy) => policy.sort_queue(&mut queue),
                None => queue.sort_by_key(|job| (job.id.0 as u64 + 1).wrapping_mul(salt) % 101),
            }
            // At most three of the six to nine processors are running
            // jobs, at most three more a window's: never overcommitted.
            let running: Vec<RunningJob> = raw_running
                .iter()
                .take(3)
                .enumerate()
                .map(|(i, &(_, est))| RunningJob { job: j(1000 + i as u32, 0, 1, est), start: t(40) })
                .collect();
            let mut book = crate::reservation::ReservationBook::new();
            let mut from = 100;
            for &(gap, len, width) in &windows {
                book.add(t(from + gap), SimDuration::from_secs(len), width);
                from += gap + len;
            }
            let mut p = Planner::new();
            p.prepare(machine, now, &running, book.all());
            let mut profile = p.base.clone();
            let mut plan = Schedule::default();
            let mut bounds = Vec::new();
            for (i, job) in queue.iter().enumerate() {
                bounds.push((plan.len(), rest_bound(&profile, now, &queue[i..]), &queue[i..]));
                place(&mut profile, now, std::slice::from_ref(job), &mut plan, None);
            }
            prop_assert_eq!(&plan.entries, &p.plan_prepared(&queue).entries);
            for (placed, bound, rest) in bounds {
                let suffix = Schedule { entries: plan.entries[placed..].to_vec() };
                let truth = DelayWeight::Width.excess(&suffix, now);
                let sums: f64 = rest.iter().map(|job| job.estimated_area()).sum::<f64>() + truth;
                prop_assert!(bound >= 0.0 && bound <= truth + 1e-9 * sums,
                             "{} jobs placed: {} > {}", placed, bound, truth);
            }
        }

        /// The retained entry against from-scratch plans over a random
        /// event stream: submissions (the suffix path), cancels, starts
        /// anywhere and starts where a retained plan put them (the fold),
        /// time passing, running jobs ending, and capacity dropping below
        /// some queue widths — with the caller's `first_changed` and
        /// departed jobs kept the way the self-tuning scheduler keeps
        /// them, and passes stopped at random limits between complete
        /// ones.
        /// Whatever the stream, every schedule equals a fresh plan as
        /// far as it goes, and goes all the way unless it was stopped.
        #[test]
        fn retained_plans_match_fresh_plans_over_any_event_stream(
            events in proptest::collection::vec(
                (0u8..11, 1u32..8, 1u64..400, 0u64..30),
                1..60,
            ),
            workers in 1usize..4,
            // Which queue is planned first (3: none, complete passes),
            // and the share of its excess at which the others stop.
            bounds in proptest::collection::vec((0usize..4, 0.0f64..1.5), 60..61),
        ) {
            let mut now = 100u64;
            let mut capacity = 8u32;
            let mut running: Vec<RunningJob> = Vec::new();
            let mut orders = policy_orders(&[]);
            let mut next_id = 0u32;
            let mut p = Planner::new();
            for ((kind, width, est, dt), bound) in events.into_iter().zip(bounds) {
                let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
                let mut departed = Vec::new();
                let used: u32 = running.iter().map(|r| r.job.width).sum();
                match kind {
                    // Submissions dominate, as in a burst.
                    0..=4 => {
                        submit(&mut orders, &mut first, j(next_id, now - dt.min(now), width, est));
                        next_id += 1;
                    }
                    5 => now += dt,
                    6 if !orders[0].is_empty() => {
                        // A job leaves the queue: cancelled, or started
                        // wherever its plans put it.
                        let gone = orders[0][dt as usize % orders[0].len()];
                        leave(&mut orders, &mut first, gone);
                        departed.push(gone);
                        if dt % 2 == 0 && used + gone.width <= 6 {
                            running.push(RunningJob { job: gone, start: t(now) });
                        }
                    }
                    // The jobs one retained plan starts now start, as the
                    // event loop starts them (while the machine degraded
                    // to six processors could still hold them).
                    9 if p.retained == orders.len() => {
                        let plan = &p.retained_schedule(dt as usize % orders.len()).entries;
                        let mut used = used;
                        for e in plan.iter().filter(|e| e.start == t(now)) {
                            if used + e.job.width <= 6 {
                                used += e.job.width;
                                departed.push(e.job);
                                running.push(RunningJob { job: e.job, start: t(now) });
                            }
                        }
                        for &gone in &departed {
                            leave(&mut orders, &mut first, gone);
                        }
                    }
                    7 if !running.is_empty() => {
                        running.remove(dt as usize % running.len());
                    }
                    8 => capacity = if capacity == 8 { 6 } else { 8 },
                    _ => {}
                }
                p.prepare(capacity, t(now), &running, &[]);
                let bound = Some(bound).filter(|&(first, _)| first < 3);
                assert_departed_matches_fresh(&mut p, &orders, &first, &departed, bound, workers);
                let mut reference = ReferencePlanner::new();
                for (i, order) in orders.iter().enumerate() {
                    let fresh = reference.plan(capacity, t(now), &running, order);
                    let held = p.retained_schedule(i).len();
                    prop_assert_eq!(&p.retained_schedule(i).entries[..], &fresh.entries[..held]);
                }
            }
        }

        /// Shared prefixes against fresh plans. Estimates come from a set
        /// of three or four values, as the trace models round them, so
        /// the policy orders agree for long stretches; the base has
        /// running jobs, reservation windows, a machine degraded below
        /// some widths (an over-wide job in a shared prefix) and jobs
        /// submitted after `now`; beside the three policy orders runs one
        /// that follows one of them for a while and then goes its own
        /// way; a first queue and a limit, or none. Two events on one
        /// base, the second after a submission, so that what a queue
        /// keeps of its own competes with what it is handed. Every
        /// schedule equals a fresh plan as far as it goes, and goes all
        /// the way unless it stopped past the limit on a bound between
        /// its placed jobs' excess and the finished plan's — on one
        /// thread, and on two and eight, where nothing is shared and the
        /// complete plans are the same.
        #[test]
        fn shared_prefixes_plan_what_fresh_passes_plan(
            raw in proptest::collection::vec((1u32..10, 0usize..4, 0u64..150), 1..50),
            (values, kinds) in (proptest::collection::vec(1u64..3_000_000, 4..5), 3usize..5),
            raw_running in proptest::collection::vec(1u64..400, 0..4),
            windows in proptest::collection::vec((0u64..300, 1u64..300, 1u32..4), 0..3),
            machine in 6u32..10,
            (follow, along, salt) in (0usize..3, 0usize..50, 1u64..1_000),
            bound in (0usize..5, 0.0f64..1.5),
            (late_width, late_value) in (1u32..10, 0usize..4),
        ) {
            let now = t(100);
            let ms = SimDuration::from_millis;
            let job = |id: usize, width: u32, value: usize, submit: u64| {
                let est = ms(values[value % kinds]);
                Job::new(JobId(id as u32), t(submit), width, est, est)
            };
            let jobs: Vec<Job> = raw
                .iter()
                .enumerate()
                .map(|(i, &(width, value, submit))| job(i, width, value, submit))
                .collect();
            let mut orders = policy_orders(&jobs);
            let mut forced = orders[follow].clone();
            let along = along.min(forced.len());
            forced[along..].sort_by_key(|job| (job.id.0 as u64 + 1).wrapping_mul(salt) % 101);
            orders.push(forced);
            let running: Vec<RunningJob> = raw_running
                .iter()
                .take(3)
                .enumerate()
                .map(|(i, &est)| RunningJob { job: j(1000 + i as u32, 0, 1, est), start: t(40) })
                .collect();
            let mut book = crate::reservation::ReservationBook::new();
            let mut from = 100;
            for &(gap, len, width) in &windows {
                book.add(t(from + gap), SimDuration::from_secs(len), width);
                from += gap + len;
            }
            // The second event's orders: one more job, last in FCFS.
            let mut later = orders.clone();
            let mut first: Vec<usize> = later.iter().map(Vec::len).collect();
            let late = job(jobs.len(), late_width, late_value, 100);
            submit(&mut later[..3], &mut first[..3], late);
            later[3].push(late);
            let bound = Some(bound).filter(|&(first, _)| first < 4);
            let mut complete: Vec<Vec<Option<Vec<PlannedJob>>>> = Vec::new();
            for workers in [1, 2, 8] {
                let mut p = Planner::new();
                for (orders, first) in [(&orders, &[0; 4][..]), (&later, &first[..])] {
                    p.prepare(machine, now, &running, book.all());
                    assert_pruned_matches_fresh(&mut p, orders, first, bound, workers);
                }
                prop_assert!(workers == 1 || p.counters().shared == 0);
                complete.push(
                    (0..4)
                        .map(|i| p.retained_excess(i).map_or(Some(p.retained_schedule(i).entries.clone()), |_| None))
                        .collect(),
                );
            }
            for plans in &complete[1..] {
                for (a, b) in plans.iter().zip(&complete[0]) {
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert_eq!(a, b);
                    }
                }
            }
        }
    }
}
