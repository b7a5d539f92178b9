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
/// # Rejoining the old plan
///
/// A complete pass — one without a [`Prune`] tally, not handed a donor's
/// plan — whose slot holds a complete plan on the same capacity, folded
/// under guard 3 (at a changed base too, when every departed rectangle
/// folded), may stop placing where its plan rejoins the old one. It
/// aligns each placement by job with the old entry of the same job and
/// keeps Δ, the free processors of its partial profile `P_new` less
/// those of the old plan's partial profile `P_old` (the folded base plus
/// the aligned old entries): the base difference, then the signed
/// rectangles of every pair that differs and of every job the old plan
/// does not hold. Let `w` and `d` be the least width and estimate among
/// the jobs still to place. Where, at every instant Δ is not 0, each of
/// `P_new` and `P_old` has fewer than `w` processors free, or a run of at
/// least `w` free around the instant, clipped at `now`, that is finite
/// and shorter than `d`, no job still to place can be placed over such
/// an instant in either profile: it sees the same windows in both, its
/// placement narrows both alike, and the condition holds for the next
/// one. The old entries left, all at or past `now` (so their old answers
/// stand with `after = now`, as under comparison 2), are then what the
/// pass would place, and the pass keeps them: its profile becomes the
/// old final profile plus Δ. Under guard 3 the departed jobs' rectangles
/// move no old placement, as in the fold, so `P_old` may hold them all
/// from the start. The splice changes where the loop stops, never what
/// a job is given; a debug build re-places every spliced tail to check.
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
    /// Per slot, what lets its complete pass rejoin its old plan; sized
    /// by the first retained call.
    rejoins: Vec<Rejoin>,
    /// This call's Δ between the prepared base and the folded one, when
    /// every departed rectangle folded and they differ at few instants.
    base_diff: Vec<(SimTime, i64)>,
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

/// What lets a complete pass rejoin the complete plan it replaces (type
/// docs, "Rejoining the old plan"). One per slot, beside the slots
/// rather than in them, and created by the first retained call: runs
/// that never retain a plan allocate none.
#[derive(Debug)]
struct Rejoin {
    /// Whether this call's pass of the slot may rejoin its plan.
    armed: bool,
    /// While the pass runs, the old plan's final profile; scratch
    /// between passes.
    old: Profile,
    /// Δ: free processors of the pass's partial profile less those of
    /// the old plan's, as endpoint events `(instant, change)` in the
    /// order they came: Δ at `t` sums the changes at or before `t`.
    events: Vec<(SimTime, i64)>,
    /// The old start of each entry the pass wrote, from the kept prefix
    /// on; `SimTime::MAX` for one the old plan does not hold.
    olds: Vec<SimTime>,
    /// Δ as a step function, sorted out of `events` for each test
    /// ([`step_function`]).
    steps: Vec<(SimTime, i64)>,
    /// Scratch for [`Profile::add_steps`].
    points: Vec<(SimTime, u32)>,
    /// The least width and estimate of the queue from each position on
    /// ([`fill_mins`]); filled by a pass's first test.
    mins: Vec<(u32, SimDuration)>,
    /// Queue jobs passes took from the old plan instead of placing.
    spliced: u64,
}

/// Past this many endpoint events in Δ a pass stops testing whether it
/// can rejoin the old plan: it has parted from it too far to come back
/// cheaply.
const DIFF_LIMIT: usize = 512;

/// Nor does it insert more than this many entries the old plan does
/// not hold: each shifts the old entries behind it.
const INSERT_LIMIT: usize = 4;

/// A pass tests whether it can rejoin the old plan only after this many
/// agreeing placements in a row: while placements still part from the
/// old ones, a test seldom passes, and it costs dozens of placements
/// (DESIGN §10 has the measurements).
const STREAK: usize = 32;

/// After a test that fails, the next waits for as many more agreeing
/// placements as the last wait, twice over, up to this many.
const GAP_CAP: usize = 64;

/// A pass that keeps more entries than it releases copies the old
/// profile aside only when the old tail holds at least a
/// `1 / COPY_SHARE` part of as many entries as the profile has points:
/// the copy must be cheaper than what a splice can save.
const COPY_SHARE: usize = 32;

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
    /// Queue jobs complete passes took from the tail of the plan they
    /// replaced, once no job left to place could tell the two apart,
    /// instead of placing them.
    pub spliced: u64,
}

/// How a pass under [`Prune`] weighs the time a job waits beyond the
/// earliest start any plan could give it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayWeight {
    /// By the job's width: processor-seconds of waiting.
    Width,
    /// Every job alike: seconds of waiting.
    Unit,
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
    /// The jobs every queue of the batch holds, summed for that bound.
    pub backlog: &'a Backlog,
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
struct Tally<'a> {
    weight: DelayWeight,
    limit: f64,
    backlog: &'a Backlog,
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

/// Area in width · ms, per duration class of [`rest_bound`] and in all.
/// Integers, so that adding and taking away jobs in any order, or
/// summing the same jobs another way, gives the same bits; below 2⁵³
/// each converts to `f64` exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Areas {
    class: [u128; CLASSES],
    total: u128,
}

impl Areas {
    const ZERO: Areas = Areas {
        class: [0; CLASSES],
        total: 0,
    };

    /// `job`'s class, and its area.
    fn part(job: &Job) -> (usize, u128) {
        let ms = job.estimate.as_millis();
        (class_of(ms), job.width as u128 * ms as u128)
    }

    fn add(&mut self, job: &Job) {
        let (c, area) = Areas::part(job);
        self.class[c] += area;
        self.total += area;
    }

    fn remove(&mut self, job: &Job) {
        let (c, area) = Areas::part(job);
        self.class[c] -= area;
        self.total -= area;
    }
}

/// The jobs every queue of a batch holds, summed once for the bound a
/// [`Prune`] puts on the jobs a pass has not placed: their area per
/// duration class and in all, the widest of them and the latest
/// submission. The first two are exact; the last two only bound the
/// jobs from above, because a job leaving lowers neither. Its caller
/// keeps it beside the queues — adding each job that enters, removing
/// each that leaves, rebuilding when it rebuilds them — so that a pass
/// asking what its unplaced jobs owe sums the few it has placed, not the
/// many it has not.
#[derive(Debug)]
pub struct Backlog {
    areas: Box<Areas>,
    widest: u32,
    latest: SimTime,
}

impl Backlog {
    /// The backlog of `jobs`.
    pub fn new(jobs: &[Job]) -> Self {
        let mut backlog = Backlog {
            areas: Box::new(Areas::ZERO),
            widest: 0,
            latest: SimTime::ZERO,
        };
        backlog.rebuild(jobs);
        backlog
    }

    /// Makes this the backlog of `jobs`, reusing the allocation.
    pub fn rebuild(&mut self, jobs: &[Job]) {
        *self.areas = Areas::ZERO;
        (self.widest, self.latest) = (0, SimTime::ZERO);
        for job in jobs {
            self.add(job);
        }
    }

    /// Counts a job that entered the queues.
    pub fn add(&mut self, job: &Job) {
        self.areas.add(job);
        self.widest = self.widest.max(job.width);
        self.latest = self.latest.max(job.submit);
    }

    /// Takes out a job that left the queues; it must have been added.
    pub fn remove(&mut self, job: &Job) {
        self.areas.remove(job);
    }

    /// Whether this is a backlog of `jobs`: their areas exactly, bounds
    /// no tighter than theirs. For callers checking what they keep.
    #[doc(hidden)]
    pub fn is_of(&self, jobs: &[Job]) -> bool {
        let exact = Backlog::new(jobs);
        *self.areas == *exact.areas && self.widest >= exact.widest && self.latest >= exact.latest
    }

    /// The areas of the jobs held less those of `placed`, where that is
    /// what the rest bound pours: when no job held is wider than
    /// `capacity` or submitted after `now`.
    fn less(&self, placed: &[Job], capacity: u32, now: SimTime) -> Option<Areas> {
        if self.widest > capacity || self.latest > now {
            return None;
        }
        let mut areas = *self.areas;
        for job in placed {
            areas.remove(job);
        }
        Some(areas)
    }
}

/// What [`rest_bound`] pours for the jobs of `rest`, summed one by one:
/// the areas of those `capacity` can hold, and beside them the delays
/// that are nobody's fault, `Σ width · (submit − now)` in width · ms
/// over the jobs not yet submitted.
fn walk_rest(capacity: u32, now: SimTime, rest: &[Job]) -> (Areas, u128) {
    let (mut areas, mut floors) = (Areas::ZERO, 0);
    for job in rest.iter().filter(|job| job.width <= capacity) {
        areas.add(job);
        floors += job.width as u128 * job.submit.saturating_since(now).as_millis() as u128;
    }
    (areas, floors)
}

/// [`walk_rest`] of `queue[from..]`, read off the `backlog` of all of
/// `queue` less `queue[..from]` where that side is the shorter one and
/// the backlog may stand for the rest. Both give the same integers.
fn rest_areas(
    capacity: u32,
    now: SimTime,
    queue: &[Job],
    from: usize,
    backlog: &Backlog,
) -> (Areas, u128) {
    debug_assert!(backlog.is_of(queue), "the backlog is not of the queue");
    let (placed, rest) = queue.split_at(from);
    if placed.len() < rest.len() {
        if let Some(areas) = backlog.less(placed, capacity, now) {
            return (areas, 0);
        }
    }
    walk_rest(capacity, now, rest)
}

/// A lower bound on the [`DelayWeight::Width`] excess the jobs of
/// `queue[from..]` add to any plan that places them on `profile` from
/// `now` on, with `backlog` the [`Backlog`] of all of `queue`.
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
fn rest_bound(
    profile: &Profile,
    now: SimTime,
    queue: &[Job],
    from: usize,
    backlog: &Backlog,
) -> f64 {
    let (areas, floors) = rest_areas(profile.capacity(), now, queue, from, backlog);
    pour(profile, now, &areas, floors)
}

/// The walk of [`rest_bound`]: pours `areas` into the free capacity of
/// `profile` from `now` on, shortest class first, and takes the
/// half-areas and the `floors` from the moment.
fn pour(profile: &Profile, now: SimTime, areas: &Areas, floors: u128) -> f64 {
    let (times, frees) = profile.segments_from(now);
    let ms = |d: SimDuration| d.as_millis() as i64 as f64;
    let mut moment = 0.0;
    // The capacity is used up to `at` ms past `now`, inside segment `k`.
    let (mut k, mut at) = (0, 0.0);
    for (c, &poured) in areas.class.iter().enumerate() {
        if poured == 0 {
            continue;
        }
        let mut left = poured as f64;
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
    (moment - 0.5 * areas.total as f64 - floors as f64).max(0.0) * 1e-3
}

/// [`place`] of `queue[kept..]` under a `tally` that also asks
/// [`rest_bound`] whether what is placed and what is not are together
/// past the limit: before placing anything if `ask`, and, when the bound
/// stopped the queue's last pass, again between stretches of the queue
/// that end at 8, 32, 128, … jobs past `kept`. `place`'s loop is the
/// shallow path's too, and even a branch never taken costs it (DESIGN
/// §10), hence a wrapper.
fn place_bounded(
    profile: &mut Profile,
    now: SimTime,
    queue: &[Job],
    kept: usize,
    out: &mut Schedule,
    tally: &mut Tally,
    mut ask: bool,
) -> usize {
    let (mut from, mut to) = (kept, kept + 8);
    loop {
        // The answer can save no more than placing the rest, and the
        // walk reads all of the profile.
        let unplaced = queue.len() - from;
        if ask && tally.excess <= tally.limit && unplaced > profile.segments_from(now).0.len() {
            let rest = rest_bound(profile, now, queue, from, tally.backlog);
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
        (ask, to) = (true, kept + 4 * (to - kept));
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

impl Rejoin {
    fn new() -> Self {
        Rejoin {
            armed: false,
            old: Profile::new(1, SimTime::ZERO),
            events: Vec::new(),
            olds: Vec::new(),
            steps: Vec::new(),
            points: Vec::new(),
            mins: Vec::new(),
            spliced: 0,
        }
    }
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
    ///
    /// With a `rejoin` a complete pass may stop where no job left to
    /// place can tell its plan from the slot's old one, and take the old
    /// tail: the caller vouches that the slot holds a complete plan that
    /// is valid on the folded base and that `base_diff` is Δ between
    /// the two bases.
    fn plan(
        &mut self,
        base: &Profile,
        now: SimTime,
        queue: &[Job],
        keep: usize,
        mut tally: Option<&mut Tally>,
        rejoin: Option<(&mut Rejoin, &[(SimTime, i64)])>,
    ) -> (usize, usize) {
        if let Some((rejoin, base_diff)) = rejoin.filter(|_| tally.is_none()) {
            if let Some(kept) = self.plan_rejoining(base, now, queue, keep, rejoin, base_diff) {
                return (kept, 0);
            }
        }
        let kept = self.keep_prefix(base, now, queue, keep, tally.as_deref_mut());
        if kept == 0 {
            if let Some(tally) = &mut tally {
                tally.excess = 0.0;
            }
            self.profile.restore_from(base);
            self.schedule.entries.clear();
        }
        let (profile, out) = (&mut self.profile, &mut self.schedule);
        let rest = &queue[kept..];
        let left = match tally {
            // Whether the jobs a pass leaves unplaced put it past the
            // limit is worth asking where the answer has been yes: the
            // verdict on a queue seldom changes from one event to the
            // next (DESIGN §10 has the table). A stopped plan picked up
            // from its prefix asks once, at once — that is how a queue
            // gets its first yes — and a queue the bound stopped last
            // time keeps asking as it places. `Unit` stops on the
            // excess of the jobs placed alone: the fluid problem would
            // pour its jobs by `width · estimate`, and no workload or
            // experiment plans deep queues under it.
            Some(tally) if tally.weight == DelayWeight::Width => {
                let resumes = kept > 0 && tally.last.excess.is_some();
                if resumes || tally.last.by_rest {
                    place_bounded(profile, now, queue, kept, out, tally, resumes)
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
        let keep = self.matching_prefix(now, queue, keep);
        if keep == 0 {
            return 0;
        }
        let entries = &mut self.schedule.entries;
        let (kept, rest) = entries.split_at(keep);
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

    /// Comparison 2 of the type docs: how many of the first `keep`
    /// entries the slot may keep — all of them, cut to what it holds,
    /// when each is the job at its position of `queue` and starts at or
    /// past `now`, else none.
    fn matching_prefix(&self, now: SimTime, queue: &[Job], keep: usize) -> usize {
        let entries = &self.schedule.entries;
        let keep = keep.min(entries.len());
        if keep > queue.len() {
            return 0;
        }
        let kept = &entries[..keep];
        let matches = kept.iter().zip(queue);
        if matches
            .into_iter()
            .any(|(e, job)| e.job.id != job.id || e.start < now)
        {
            return 0;
        }
        keep
    }

    /// [`Slot::plan`] of a complete pass that may rejoin the slot's old
    /// plan: keeps the prefix [`Slot::keep_prefix`] would, puts the old
    /// final profile aside in `rejoin`, and places the rest of `queue`
    /// while it tracks Δ from `base_diff` on ([`Slot::place_rejoining`]).
    /// Returns how many entries it kept, or `None`, with nothing
    /// touched, where copying the profile aside would cost more than
    /// a splice can save.
    fn plan_rejoining(
        &mut self,
        base: &Profile,
        now: SimTime,
        queue: &[Job],
        keep: usize,
        rejoin: &mut Rejoin,
        base_diff: &[(SimTime, i64)],
    ) -> Option<usize> {
        let kept = self.matching_prefix(now, queue, keep);
        let entries = &self.schedule.entries;
        let (prefix, tail) = entries.split_at(kept);
        if prefix.len() < tail.len() {
            // `cut_back`'s rebuild, on a profile swapped in for the old.
            std::mem::swap(&mut self.profile, &mut rejoin.old);
            self.profile.restore_from(base);
            for e in prefix {
                self.profile.allocate(e.start, e.job.estimate, e.job.width);
            }
        } else if tail.len() * COPY_SHARE >= self.profile.len() && !tail.is_empty() {
            rejoin.old.restore_from(&self.profile);
            cut_back(&mut self.profile, base, prefix, tail, false);
        } else {
            return None;
        }
        for e in prefix {
            let earliest = now.max(e.job.submit);
            self.profile
                .remember_fit(earliest, e.job.estimate, e.job.width, e.start);
        }
        rejoin.events.clear();
        rejoin.events.extend(changes(base_diff));
        self.place_rejoining(now, queue, kept, rejoin);
        Some(kept)
    }

    /// Places `queue[kept..]` as [`place`] does, over the old plan's
    /// entries from `kept` on, and aligns each placement by job with
    /// the old entry of the same job, keeping the old start. After a
    /// stretch of agreeing placements, with back-off, it brings Δ up to
    /// date — the signed rectangles of each pair that differs, and of
    /// each job the old plan does not hold — and asks [`unreachable`]
    /// whether a job left to place could be placed over an instant of Δ,
    /// unless the witness of the last no still stands. Where none can,
    /// and the old entries left are the jobs left, at or past `now`, it
    /// keeps those entries and makes the profile the old final one plus
    /// Δ.
    fn place_rejoining(&mut self, now: SimTime, queue: &[Job], kept: usize, rejoin: &mut Rejoin) {
        let (profile, entries) = (&mut self.profile, &mut self.schedule.entries);
        let capacity = profile.capacity();
        let (events, olds) = (&mut rejoin.events, &mut rejoin.olds);
        olds.clear();
        // Entries `..written` are the pass's, `olds` the old starts of
        // those from `kept` on (`SimTime::MAX`: none); the old entries
        // not yet aligned are `read..`. Δ holds the pairs up to `scanned`.
        let (mut written, mut read, mut scanned) = (kept, kept, kept);
        let (mut tracking, mut inserted) = (true, 0);
        // How many more old entries must be aligned before the tail can
        // match the queue.
        let mut hold = 0;
        // The last no's witness span (none: an empty one), and the least
        // width and estimate it was found for.
        const NONE: (SimTime, SimTime) = (SimTime::MAX, SimTime::ZERO);
        let (mut witness, mut found_for) = (NONE, (0, SimDuration::ZERO));
        let meets = |e: &PlannedJob, (from, to): (SimTime, SimTime)| {
            (e.start < to) & (e.start + e.job.estimate > from)
        };
        // Agreeing placements so far and in a row, the count at which to
        // test next, and the back-off.
        let (mut agreed, mut streak, mut next_test, mut gap) = (0, 0, 1, 1);
        let mut mins_filled = false;
        for (at, job) in queue.iter().enumerate().skip(kept) {
            if job.width > capacity {
                continue;
            }
            let earliest = now.max(job.submit);
            let start = profile.allocate_earliest(earliest, job.estimate, job.width);
            let new = PlannedJob { job: *job, start };
            let mut agrees = false;
            match entries.get(read).filter(|_| tracking) {
                // Nothing here branches on whether the two agree: the
                // next placement would wait for it.
                Some(old) if old.job.id == job.id => {
                    agrees = old.start == start;
                    olds.push(old.start);
                    read += 1;
                    hold -= (hold > 0) as usize;
                    // Δ counts rectangles: the old one must be the job's.
                    tracking = old.job.width == job.width && old.job.estimate == job.estimate;
                }
                // A job the old plan does not hold here: its entry goes
                // in front of the old ones.
                Some(_) if written == read && inserted < INSERT_LIMIT => {
                    entries.insert(written, new);
                    olds.push(SimTime::MAX);
                    (written, read, inserted) = (written + 1, read + 1, inserted + 1);
                    continue;
                }
                _ => tracking = false,
            }
            if written < entries.len() {
                entries[written] = new;
            } else {
                entries.push(new);
            }
            written += 1;
            agreed += agrees as usize;
            streak = (streak + 1) * agrees as usize;
            if agreed < next_test || hold > 0 || streak < STREAK || !tracking {
                continue;
            }
            // Δ and the witness, up to date.
            let fresh = entries[scanned..written]
                .iter()
                .zip(&olds[scanned - kept..]);
            for (e, &old_start) in fresh {
                let old = PlannedJob {
                    job: e.job,
                    start: old_start,
                };
                let differs = old_start != e.start;
                let held = differs && old_start != SimTime::MAX;
                if held {
                    push_rect(events, now, &old, 1);
                }
                if differs {
                    push_rect(events, now, e, -1);
                }
                if meets(e, witness) || (held && meets(&old, witness)) {
                    witness = NONE;
                }
            }
            scanned = written;
            if events.len() > DIFF_LIMIT {
                tracking = false;
                continue;
            }
            if !mins_filled {
                fill_mins(&mut rejoin.mins, queue, capacity);
                mins_filled = true;
            }
            let least = rejoin.mins[queue.len() - (at + 1)];
            if least.0 == u32::MAX || (witness != NONE && found_for == least) {
                continue;
            }
            step_function(events, &mut rejoin.steps);
            // What the test sorted, the next one need not sort again.
            events.clear();
            events.extend(changes(&rejoin.steps));
            if let Err(span) = unreachable(profile, now, &rejoin.steps, least.0, least.1) {
                (witness, found_for) = (span, least);
                (next_test, gap) = (agreed + gap, (2 * gap).min(GAP_CAP));
                continue;
            }
            // The old entries left must be the jobs left, at or past
            // `now`; where they part, no test passes before that entry is
            // aligned.
            let mut old_tail = entries[read..].iter();
            let mut jobs_left = queue[at + 1..].iter().filter(|job| job.width <= capacity);
            let mut taken = 0;
            let matched = loop {
                match (old_tail.next(), jobs_left.next()) {
                    (None, None) => break true,
                    (Some(e), Some(job)) if e.job == *job && e.start >= now => taken += 1,
                    _ => break false,
                }
            };
            if !matched {
                hold = taken + 1;
                continue;
            }
            // The splice: while the pass tracks, the two cursors meet.
            debug_assert_eq!(
                written, read,
                "the old tail is not behind the pass's entries"
            );
            #[cfg(debug_assertions)]
            let at_splice = profile.clone();
            rejoin.old.add_steps(&rejoin.steps, &mut rejoin.points);
            std::mem::swap(profile, &mut rejoin.old);
            rejoin.spliced += taken as u64;
            #[cfg(debug_assertions)]
            {
                let mut fresh = at_splice;
                let mut tail = Schedule::default();
                place(&mut fresh, now, &queue[at + 1..], &mut tail, None);
                assert_eq!(
                    tail.entries,
                    entries[written..],
                    "a spliced tail is not the pass's"
                );
                assert!(
                    fresh.same_from(profile, now),
                    "a spliced profile is not the pass's"
                );
            }
            return;
        }
        entries.truncate(written);
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

/// Adds to Δ, kept as endpoint events in `events`, the rectangle of
/// `entry` on `[now, ∞)` with the sign `sign`: +1 for the old plan's,
/// which Δ counts free in the pass's profile, −1 for the pass's own.
fn push_rect(events: &mut Vec<(SimTime, i64)>, now: SimTime, entry: &PlannedJob, sign: i64) {
    let end = entry.start + entry.job.estimate;
    if end > now {
        let width = sign * entry.job.width as i64;
        events.push((entry.start.max(now), width));
        events.push((end, -width));
    }
}

/// The endpoint events of the step function `steps`: `(instant, change)`.
fn changes(steps: &[(SimTime, i64)]) -> impl Iterator<Item = (SimTime, i64)> + '_ {
    steps.iter().scan(0, |last, &(t, value)| {
        Some((t, value - std::mem::replace(last, value)))
    })
}

/// Leaves in `steps` the step function of the endpoint events `events`,
/// all at or past one instant: `(from, value)` in time order, each value
/// different from the one before it, the first from 0, and the last 0.
fn step_function(events: &[(SimTime, i64)], steps: &mut Vec<(SimTime, i64)>) {
    steps.clear();
    steps.extend_from_slice(events);
    steps.sort_unstable_by_key(|&(t, _)| t);
    // Sum the changes at each instant into the value from it on.
    let (mut value, mut len) = (0, 0);
    for i in 0..steps.len() {
        let (t, change) = steps[i];
        value += change;
        if len > 0 && steps[len - 1].0 == t {
            steps[len - 1].1 = value;
        } else {
            steps[len] = (t, value);
            len += 1;
        }
    }
    steps.truncate(len);
    let mut last = 0;
    steps.retain(|&(_, value)| std::mem::replace(&mut last, value) != value);
}

/// Whether no job at least `width` wide and `duration` long can be
/// placed over an instant where Δ, as `steps`, is not 0, in `profile`
/// (the pass's) or in `profile` less Δ (the old plan's): at each such
/// instant each of them has fewer than `width` processors free, or a
/// run of at least `width` free around it, clipped at `now`, that is
/// finite and shorter than `duration`. Δ's nonzero stretches less than
/// two durations apart are looked at together ([`window_clear`]). Where
/// the answer is no, the error is a witness: a span of at least
/// `duration`, holding an instant of Δ, over which one of the profiles
/// has `width` free. Until a rectangle placed in either profile meets
/// it, or the least width or estimate grows, the answer stays no.
fn unreachable(
    profile: &Profile,
    now: SimTime,
    steps: &[(SimTime, i64)],
    width: u32,
    duration: SimDuration,
) -> Result<(), (SimTime, SimTime)> {
    let reach = duration.as_millis();
    // Latest first: that is where the frontier of the plan, and with it
    // most of the runs that never end, lies.
    let mut close = steps.len();
    while close > 0 {
        // `steps[end]` is the 0 that ends a stretch; `steps[open]` opens
        // the first stretch joined to it.
        let end = close - 1;
        let mut k = end;
        let open = loop {
            k -= 1;
            while k > 0 && steps[k - 1].1 != 0 {
                k -= 1;
            }
            match k.checked_sub(1) {
                Some(before)
                    if steps[k].0.as_millis() - steps[before].0.as_millis()
                        < reach.saturating_mul(2) =>
                {
                    k = before
                }
                _ => break k,
            }
        };
        let lo = SimTime::from_millis(steps[open].0.as_millis().saturating_sub(reach)).max(now);
        let hi = steps[end].0.saturating_add(duration);
        window_clear(profile, now, steps, lo, hi, width, duration)?;
        close = open;
    }
    Ok(())
}

/// [`unreachable`] over the window `[lo, hi)` around a group of Δ's
/// stretches, which lies at least `duration` past `lo` — or `lo` is
/// `now` — and ends `duration` before `hi`. One walk over the break
/// points of `profile` and of Δ follows, in each of the two profiles,
/// the run of `free >= width` the walk is in and whether it holds an
/// instant of Δ; such a run fails the test once it is `duration` long.
/// A run open at `lo > now` began before it, so at least `duration`
/// before any instant of Δ in the window; one open at `hi` runs on for
/// at least `duration` past any.
fn window_clear(
    profile: &Profile,
    now: SimTime,
    steps: &[(SimTime, i64)],
    lo: SimTime,
    hi: SimTime,
    width: u32,
    duration: SimDuration,
) -> Result<(), (SimTime, SimTime)> {
    let (times, frees) = profile.segments_from(lo);
    let (mut k, mut free) = (1, frees[0] as i64);
    let mut s = steps.partition_point(|&(t, _)| t <= lo);
    let mut diff = s.checked_sub(1).map_or(0, |last| steps[last].1);
    // Per profile, the pass's and the old plan's: where the run holding
    // `t` started, and whether it holds an instant of Δ.
    let mut runs: [Option<(SimTime, bool)>; 2] = [None; 2];
    let mut t = lo;
    // A run open at `lo > now` counts from the beginning of time, and
    // its witness from `lo`.
    let witness = |start: SimTime, end: SimTime| Err((start.max(lo), end));
    loop {
        for (run, free) in runs.iter_mut().zip([free, free - diff]) {
            if free >= width as i64 {
                let began = if t == lo && lo > now {
                    SimTime::ZERO
                } else {
                    t
                };
                let (start, touched) = run.get_or_insert((began, false));
                *touched |= diff != 0;
                if *touched && t.saturating_since(*start) >= duration {
                    // The run holds `t` too.
                    return witness(*start, t + SimDuration::from_millis(1));
                }
            } else if let Some((start, touched)) = run.take() {
                if touched && t.saturating_since(start) >= duration {
                    return witness(start, t);
                }
            }
        }
        let next_point = times.get(k).copied();
        let next_step = steps.get(s).map(|&(t, _)| t);
        t = match (next_point, next_step) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        if t >= hi {
            break;
        }
        if next_point == Some(t) {
            free = frees[k] as i64;
            k += 1;
        }
        if next_step == Some(t) {
            diff = steps[s].1;
            s += 1;
        }
    }
    match runs.iter().flatten().find(|(_, touched)| *touched) {
        Some(&(start, _)) => witness(start, hi),
        None => Ok(()),
    }
}

/// Fills `mins` with the least width and estimate of the jobs a machine
/// of `capacity` can hold among `queue[i..]`, at `mins[queue.len() −
/// i]`; `(u32::MAX, SimDuration::MAX)` where there are none.
fn fill_mins(mins: &mut Vec<(u32, SimDuration)>, queue: &[Job], capacity: u32) {
    mins.clear();
    let none = (u32::MAX, SimDuration::MAX);
    mins.push(none);
    let least = queue.iter().rev().scan(none, |(width, estimate), job| {
        if job.width <= capacity {
            (*width, *estimate) = ((*width).min(job.width), (*estimate).min(job.estimate));
        }
        Some((*width, *estimate))
    });
    mins.extend(least);
}

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
            rejoins: Vec::new(),
            base_diff: Vec::new(),
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
        for rejoin in &mut self.rejoins {
            rejoin.armed = false;
        }
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
        bound: Option<(DelayWeight, f64, &Backlog)>,
        select: &(dyn Fn(usize) -> bool + Sync),
        hands: &[Hand],
        timings: &mut [PlanTiming],
        workers: usize,
    ) -> usize {
        let n = queues.len();
        self.stopped.resize(n, Stopped::default());
        let (base, now, tracer) = (&self.base, self.prepared_at, &self.tracer);
        let base_diff = &self.base_diff[..];
        // Returns how many jobs the pass took from the `donor`.
        let pass = |i: usize,
                    keep: usize,
                    slot: &mut Slot,
                    donor: Option<&Slot>,
                    rejoin: Option<&mut Rejoin>,
                    timing: &mut PlanTiming,
                    stopped: &mut Stopped| {
            // A complete pass of its own plan, armed for this call.
            let rejoin = rejoin
                .filter(|r| r.armed && bound.is_none() && donor.is_none())
                .map(|r| (r, base_diff));
            let mut tally = bound.map(|(weight, limit, backlog)| Tally {
                weight,
                limit,
                backlog,
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
                slot.plan(base, now, &queues[i], keep, tally.as_mut(), rejoin)
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
        // Only retained calls create them.
        let rejoins = self.rejoins.get_mut(..n).unwrap_or_default();
        if workers <= 1 {
            for i in (0..n).filter(|&i| select(i)) {
                let hand = hands.iter().find(|h| h.to == i);
                let (from, keep) = hand.map_or((i, keep(i)), |h| (h.from, h.cut));
                let (slot, donor) = slot_and_donor(&mut self.slots[..n], i, from);
                let (rejoin, timing) = (rejoins.get_mut(i), &mut timings[i]);
                self.shared += pass(i, keep, slot, donor, rejoin, timing, &mut self.stopped[i]);
            }
            return 1;
        }
        let per = n.div_ceil(workers);
        let slots = &mut self.slots[..n];
        let stopped = &mut self.stopped[..n];
        let mut rejoins = rejoins.chunks_mut(per);
        std::thread::scope(|s| {
            let runs = slots
                .chunks_mut(per)
                .zip(timings.chunks_mut(per))
                .zip(stopped.chunks_mut(per));
            for (run, ((slots, timings), stopped)) in runs.enumerate() {
                let (pass, keep) = (&pass, &keep);
                let mut rejoins = rejoins.next().unwrap_or_default().iter_mut();
                s.spawn(move || {
                    let passes = slots.iter_mut().zip(timings).zip(stopped);
                    for (j, ((slot, timing), stopped)) in passes.enumerate() {
                        let i = run * per + j;
                        let rejoin = rejoins.next();
                        if select(i) {
                            pass(i, keep(i), slot, None, rejoin, timing, stopped);
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
        while self.rejoins.len() < n {
            self.rejoins.push(Rejoin::new());
        }
        let now = self.prepared_at;
        // Comparison 1 of the type docs, once for all slots, then guard 3
        // per slot.
        let fold = (self.retained == n)
            .then(|| self.fold_departed(departed, now))
            .flatten();
        let same_base = fold == Some(true);
        // Δ between the bases, where complete passes may rejoin.
        self.base_diff.clear();
        let rejoin = match (fold, &self.retained_base) {
            (Some(true), _) => true,
            (Some(false), Some(folded)) => {
                folded.diff_into(&self.base, now, DIFF_LIMIT, &mut self.base_diff)
            }
            _ => false,
        };
        let mut keeps = std::mem::take(&mut self.keeps);
        keeps.clear();
        if same_base {
            keeps.extend_from_slice(first_changed);
        }
        for (i, slot) in self.slots[..n].iter_mut().enumerate() {
            let complete = rejoin && self.stopped[i].excess.is_none();
            self.rejoins[i].armed = false;
            if !same_base && !complete {
                continue;
            }
            // Guard 3, which keeping a prefix and rejoining both need.
            let held = departed.is_empty() || slot.fold_started(departed, self.retained_at);
            if same_base && !departed.is_empty() {
                if held {
                    self.folded += 1;
                } else {
                    keeps[i] = 0;
                }
            }
            self.rejoins[i].armed = complete && held;
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
                backlog,
                first,
                limit,
            }) => {
                let before = self.run_passes(queues, keep, None, first, &hands, timings, workers);
                let bound = Some((weight, limit(self), backlog));
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
    /// instant, and says whether the result is the prepared base from
    /// `now` on; `None` when there is no retained base or a rectangle
    /// does not fit, which refuses the fold. Where they differ, the
    /// caller replaces the retained base with the prepared one.
    fn fold_departed(&mut self, departed: &[Job], now: SimTime) -> Option<bool> {
        let planned_on = self.retained_base.as_mut()?;
        let at = self.retained_at;
        for job in departed {
            let fits = job.width <= planned_on.capacity()
                && planned_on.earliest_fit(at, job.estimate, job.width) == at;
            if !fits {
                return None;
            }
            planned_on.allocate(at, job.estimate, job.width);
        }
        Some(planned_on.same_from(&self.base, now))
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
            spliced: self.rejoins.iter().map(|r| r.spliced).sum(),
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
        let backlog = Backlog::new(&orders[0]);
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
                backlog: &backlog,
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
        slot.plan(base, t(12), &jobs, 0, None, None);
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
            fresh.plan(base, t(12), &jobs[..keep], 0, None, None);
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

    /// Plans `orders` at `now` on `machine` around `running` through the
    /// retained entry, complete passes on one thread, checks every
    /// schedule against the [`ReferencePlanner`], and returns how many
    /// jobs the passes took from the plans they replaced.
    fn spliced_by(
        p: &mut Planner,
        (machine, now, running): (u32, SimTime, &[RunningJob]),
        orders: &[Vec<Job>],
        first_changed: &[usize],
    ) -> u64 {
        let before = p.counters().spliced;
        p.prepare(machine, now, running, &[]);
        assert_retained_matches_fresh(p, orders, first_changed, 1);
        let mut reference = ReferencePlanner::new();
        for (i, order) in orders.iter().enumerate() {
            let want = reference.plan(machine, now, running, order);
            assert_eq!(p.retained_schedule(i).entries, want.entries, "queue {i}");
        }
        p.counters().spliced - before
    }

    /// The machine of four held by two jobs of two processors until 100
    /// and until `second`, and `jobs` waiting behind them, planned once
    /// at 0; then the first running job finishes at 90, ten seconds
    /// early. Returns how many jobs the pass at 90 spliced.
    fn after_an_early_completion(second: u64, jobs: &[Job]) -> u64 {
        let running = |both: bool| {
            let ends = if both {
                &[100, second][..]
            } else {
                &[second][..]
            };
            let jobs = ends.iter().enumerate();
            jobs.map(|(i, &end)| RunningJob {
                job: j(900 + i as u32, 0, 2, end),
                start: t(0),
            })
            .collect::<Vec<_>>()
        };
        let orders = vec![jobs.to_vec()];
        let mut p = Planner::new();
        assert_eq!(
            spliced_by(&mut p, (4, t(0), &running(true)), &orders, &[0]),
            0
        );
        let mut second_only = running(false);
        second_only[0].job.id = JobId(901);
        spliced_by(&mut p, (4, t(90), &second_only), &orders, &[0])
    }

    #[test]
    fn a_difference_narrower_than_every_job_left_is_spliced() {
        // Two processors come free over [90, 100), while two more stay
        // held until 200: no job of three fits beside them, so every
        // placement agrees, and the first test splices what is left.
        let jobs: Vec<Job> = (0..40).map(|i| j(i, 0, 3 + i % 2, 30)).collect();
        let spliced = after_an_early_completion(200, &jobs);
        assert_eq!(spliced as usize, jobs.len() - STREAK);
    }

    #[test]
    fn an_early_completion_shorter_than_every_estimate_is_spliced() {
        // The whole machine is planned from 100 on, first for a job of
        // four: the ten seconds two processors come free are shorter
        // than any job of two, which therefore all stay where they were.
        let mut jobs = vec![j(0, 0, 4, 50)];
        jobs.extend((1..41).map(|i| j(i, 0, 2, 20 + i as u64 % 3)));
        let spliced = after_an_early_completion(100, &jobs);
        assert_eq!(spliced as usize, jobs.len() - STREAK);
    }

    /// Forty jobs of `width` and 10 s, one after the other on a machine
    /// of `machine` beside a running job of `machine − width`, planned
    /// at 0; then a job of `width` and 100 s, submitted for 500 and put
    /// first. It lands where the old plan has `width` free from 400 to
    /// `held` (the running job's end): every placement agrees, and the
    /// pass must not splice, because in the old profile the new job's
    /// instants lie in a run a job left could take.
    fn a_job_where_the_old_plan_has_room(machine: u32, width: u32, held: u64) -> u64 {
        let running = [RunningJob {
            job: j(900, 0, machine - width, held),
            start: t(0),
        }];
        let jobs: Vec<Job> = (0..40).map(|i| j(i, 0, width, 10)).collect();
        let mut p = Planner::new();
        assert_eq!(
            spliced_by(
                &mut p,
                (machine, t(0), &running),
                std::slice::from_ref(&jobs),
                &[0]
            ),
            0
        );
        let mut order = vec![j(40, 500, width, 100)];
        order.extend(jobs);
        spliced_by(&mut p, (machine, t(0), &running), &[order], &[0])
    }

    #[test]
    fn a_difference_the_old_profile_leaves_room_around_is_not_spliced() {
        // Only the old profile has a long run there: [400, 1000).
        assert_eq!(a_job_where_the_old_plan_has_room(4, 2, 1_000), 0);
    }

    #[test]
    fn a_run_into_the_final_segment_is_not_spliced() {
        // Forty jobs of four and 10 s end at 400, then the plan holds
        // one more, L, from 400. A job of 5 s put first but submitted for
        // 400 takes [400, 405): where the old profile is free for ever,
        // though for less than any estimate left before the new job's
        // instants end — and L must move to 405.
        let late = |id, est| j(id, 400, 4, est);
        let mut jobs: Vec<Job> = (0..40).map(|i| j(i, 0, 4, 10)).collect();
        jobs.push(late(40, 10));
        let mut p = Planner::new();
        let first = spliced_by(&mut p, (4, t(0), &[]), std::slice::from_ref(&jobs), &[0]);
        assert_eq!(first, 0);
        let mut order = vec![late(41, 5)];
        order.extend(jobs);
        assert_eq!(spliced_by(&mut p, (4, t(0), &[]), &[order], &[0]), 0);
    }

    /// Complete passes over packed machines against the reference, event
    /// after event: submissions (most of them, from four estimates, so
    /// placements often agree with the old ones), cancels, starts where
    /// a plan put them, early completions, capacity drops and reservation
    /// windows. A debug build re-places every spliced tail as well. Run
    /// as a plain test over `PROPTEST_CASES` cases (64 by default) so
    /// that it can ask, at the end, that the cases spliced at all.
    #[test]
    fn spliced_tails_are_what_the_pass_would_place() {
        use crate::reservation::ReservationBook;
        use proptest::test_runner::TestRng;
        let cases = ProptestConfig::default().cases;
        let mut rng = TestRng::from_name("spliced_tails_are_what_the_pass_would_place");
        let events = proptest::collection::vec((0u8..14, 1u32..5, 0usize..4, 0u64..30), 40..140);
        let mut spliced = 0;
        for case in 0..cases {
            let mut now = 100u64;
            let mut capacity = 8u32;
            let mut running: Vec<RunningJob> = Vec::new();
            let mut book = ReservationBook::new();
            let mut orders = policy_orders(&[]);
            let mut next_id = 0u32;
            let mut p = Planner::new();
            for (kind, width, est, dt) in events.new_value(&mut rng) {
                let mut first: Vec<usize> = orders.iter().map(Vec::len).collect();
                let mut departed = Vec::new();
                let used: u32 = running.iter().map(|r| r.job.width).sum();
                match kind {
                    0..=6 => {
                        let est = [40, 90, 300, 1_000][est];
                        submit(
                            &mut orders,
                            &mut first,
                            j(next_id, now - dt.min(now), width, est),
                        );
                        next_id += 1;
                    }
                    7 => now += dt,
                    8 if !orders[0].is_empty() => {
                        let gone = orders[0][dt as usize % orders[0].len()];
                        leave(&mut orders, &mut first, gone);
                        departed.push(gone);
                    }
                    // Starts as the active plan has them, while the
                    // running jobs hold at most four processors.
                    9 | 10 if p.retained == orders.len() => {
                        let plan = &p.retained_schedule(dt as usize % orders.len()).entries;
                        let mut used = used;
                        for e in plan.iter().filter(|e| e.start == t(now)) {
                            if used + e.job.width <= 4 {
                                used += e.job.width;
                                departed.push(e.job);
                                running.push(RunningJob {
                                    job: e.job,
                                    start: t(now),
                                });
                            }
                        }
                        for &gone in &departed {
                            leave(&mut orders, &mut first, gone);
                        }
                    }
                    // A running job ends, at or before its estimate.
                    11 if !running.is_empty() => {
                        running.remove(dt as usize % running.len());
                    }
                    12 => capacity = if capacity == 8 { 6 } else { 8 },
                    // One window of one or two processors at a time.
                    13 if book.all().iter().all(|r| r.end() <= t(now)) => {
                        let width = 1 + width % 2;
                        book.add(
                            t(now + dt),
                            SimDuration::from_secs(est as u64 * 50 + 20),
                            width,
                        );
                    }
                    _ => {}
                }
                p.prepare(capacity, t(now), &running, book.all());
                assert_departed_matches_fresh(&mut p, &orders, &first, &departed, None, 1);
                let mut reference = ReferencePlanner::new();
                for (i, order) in orders.iter().enumerate() {
                    let want = reference.plan_with_reservations(
                        capacity,
                        t(now),
                        &running,
                        book.all(),
                        order,
                    );
                    assert_eq!(
                        p.retained_schedule(i).entries,
                        want.entries,
                        "case {case}, queue {i}"
                    );
                }
            }
            spliced += p.counters().spliced;
        }
        assert!(spliced > 0, "{cases} cases spliced nothing");
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
        let backlog = Backlog::new(&queue);
        let bound = rest_bound(&profile, t(10), &queue, 0, &backlog);
        assert!((bound - 0.150).abs() < 1e-12, "{bound}");
        // With two of them placed the other three wait 30, 45 and 60 ms.
        let mut plan = Schedule::default();
        place(&mut profile, t(10), &queue[..2], &mut plan, None);
        let bound = rest_bound(&profile, t(10), &queue, 2, &backlog);
        assert!((bound - 0.135).abs() < 1e-12, "{bound}");
        // Not yet submitted, a job's delay counts from its submission.
        let later = [Job::new(
            JobId(9),
            t(11),
            1,
            queue[0].estimate,
            queue[0].estimate,
        )];
        assert_eq!(
            rest_bound(&profile, t(10), &later, 0, &Backlog::new(&later)),
            0.0
        );
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
            let backlog = Backlog::new(&queue);
            for (i, job) in queue.iter().enumerate() {
                bounds.push((plan.len(), rest_bound(&profile, now, &queue, i, &backlog), &queue[i..]));
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

        /// The rest bound read off a backlog is the one the direct walk
        /// gives, bit for bit: for every `from` of random queues, on a
        /// machine that may be narrower than the widest job, with jobs
        /// submitted after `now` or not, and with widths and estimates
        /// large enough that the areas pass 2⁵³, where `f64` sums would
        /// round. Whenever the backlog may stand for the rest, the
        /// integers it leaves are the walk's.
        #[test]
        fn the_rest_bound_from_a_backlog_is_the_direct_walk(
            raw in proptest::collection::vec((1u32..1 << 22, 1u64..1 << 35, 0u64..2, 0u64..1_000), 1..60),
            narrow in 0u32..3,
            spans in proptest::collection::vec((0u64..1 << 36, 1u64..1 << 36, 0u32..1 << 20), 0..8),
        ) {
            let now = t(1_000);
            let ms = SimDuration::from_millis;
            // Every job submitted by `now`, or some after it.
            let late = raw.iter().any(|&(_, _, after, _)| after == 1);
            let queue: Vec<Job> = raw
                .iter()
                .enumerate()
                .map(|(i, &(width, est, after, at))| {
                    let submit = if after == 1 { now + ms(at + 1) } else { t(at) };
                    Job::new(JobId(i as u32), submit, width, ms(est), ms(est))
                })
                .collect();
            let widest = queue.iter().map(|job| job.width).max().expect("a job");
            // As wide as the widest job, or narrower than it.
            let capacity = widest.saturating_sub(narrow * (widest / 3)).max(1);
            let mut profile = Profile::new(capacity, now);
            for &(start, len, width) in &spans {
                let width = width % capacity + 1;
                let at = profile.earliest_fit(now + ms(start), ms(len), width);
                profile.allocate(at, ms(len), width);
            }
            let backlog = Backlog::new(&queue);
            let mut read_off = 0;
            for from in 0..=queue.len() {
                let walked = walk_rest(capacity, now, &queue[from..]);
                if let Some(areas) = backlog.less(&queue[..from], capacity, now) {
                    prop_assert_eq!((areas, 0), walked);
                    read_off += 1;
                }
                prop_assert_eq!(rest_areas(capacity, now, &queue, from, &backlog), walked);
                let (areas, floors) = walked;
                prop_assert_eq!(
                    rest_bound(&profile, now, &queue, from, &backlog).to_bits(),
                    pour(&profile, now, &areas, floors).to_bits()
                );
            }
            prop_assert_eq!(read_off > 0, !late && capacity >= widest);
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
