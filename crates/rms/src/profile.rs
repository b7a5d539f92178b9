//! The free-capacity profile: how many processors are free at every
//! future instant.
//!
//! A profile is a piecewise-constant function of time. The planner
//! queries it with [`Profile::earliest_fit`] and narrows it with
//! [`Profile::allocate`] / `Profile::allocate_earliest`.
//!
//! # Representation
//!
//! Two parallel vectors in time order — `times[i]` is a break point,
//! `frees[i]` the processors free from it to the next — and nothing else
//! about the function. Struct-of-arrays because the fit sweep reads a
//! free value at every step and a time only while it bounds a window,
//! and because `Profile::restore_from`, once per policy per event, is
//! then two flat `memcpy`s.
//!
//! [`Profile::earliest_fit`] finds the segment containing `after`, then
//! runs a single forward sweep that alternates *verifying* the candidate
//! start (scanning its window for a segment with `free < width`; if the
//! window closes first, the candidate settles) and *seeking* the next
//! segment with `free >= width` behind a blocker (the next candidate).
//! On planner workloads those runs are a handful of points long — the
//! profile alternates tight and free segments at exactly the widths
//! being placed — so a tree or a paged index has nothing to skip: a
//! 64-point chunk index with min/max summaries used to sit here, and
//! every smaller page size measured faster than the last, down to none
//! (DESIGN §10 has the sweep). What does go sublinear is the query
//! *stream*, through the dominance memo of `Profile::allocate_earliest`:
//! most placements start the sweep at a memoised answer, and the memo
//! keeps where that answer's break point lay, so finding the segment is
//! a gallop of a few points from there rather than a binary search over
//! the whole profile. A query without a memo hit binary-searches.
//!
//! Updates reuse the fit's indices and `Vec::insert` the missing break
//! points. List scheduling places most jobs at the frontier of the plan,
//! so the shifted tail is short however deep the profile: measured to
//! planner depth 4 096 and peak queue 3 492; a workload with 10⁵-deep
//! queues owes a benchmark row before any paging returns behind this
//! same API.
//!
//! [`NaiveProfile`](crate::naive::NaiveProfile) is the independent
//! oracle: the same function kept array-of-structs with no memo, no
//! fused sweep and no `release`, compared with this one operation by
//! operation in the property tests below and through the whole scheduler
//! by the `ReferencePlanner`. The earliest fit is unique, so the two
//! agree bit for bit even where their probe orders differ.
//!
//! Invariants (checked in debug builds and by property tests): the two
//! vectors have one length, at least 1; times increase strictly;
//! `free <= capacity` everywhere; the final point's free value is the
//! full capacity (every reservation ends eventually).

use dynp_des::{SimDuration, SimTime};

/// One break point: `free` processors are available from `time` until the
/// next point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ProfilePoint {
    /// Start of the segment.
    pub(crate) time: SimTime,
    /// Free processors throughout the segment.
    pub(crate) free: u32,
}

/// One entry of the per-width-class dominance memo (see
/// [`Profile::allocate_earliest`]): the last query answered for the
/// class, as the lower bound it proves for later, harder queries.
/// `width == 0` marks an empty slot. 32 bytes: the memo is part of every
/// profile, and profile size is part of the RSS budget (DESIGN §10).
#[derive(Clone, Copy, Debug)]
struct MemoSlot {
    width: u32,
    /// At most the position of the break point at `answer`, or
    /// [`UNKNOWN_INDEX`]. Break points are only inserted while the memo
    /// is live — everything that removes one clears it first — so the
    /// point at `answer` can only have moved right of where it was.
    index: u32,
    duration: SimDuration,
    /// The slot only says "no fit in `[after, answer)`", so it bounds
    /// later queries constrained to start at or after `after`, not
    /// earlier ones.
    after: SimTime,
    answer: SimTime,
}

/// [`MemoSlot::index`] of a slot that does not know where its answer
/// lies: one seeded by [`Profile::remember_fit`].
const UNKNOWN_INDEX: u32 = u32::MAX;

const MEMO_EMPTY: MemoSlot = MemoSlot {
    width: 0,
    index: UNKNOWN_INDEX,
    duration: SimDuration::ZERO,
    after: SimTime::ZERO,
    answer: SimTime::ZERO,
};

/// Piecewise-constant free-capacity timeline (layout: module docs).
#[derive(Clone)]
pub struct Profile {
    capacity: u32,
    /// Break-point instants, strictly increasing.
    times: Vec<SimTime>,
    /// Free processors from the matching instant to the next.
    frees: Vec<u32>,
    /// Per width class (`ilog2(width)`): the last
    /// [`Profile::allocate_earliest`] query and its answer. Cleared
    /// whenever the profile is rebuilt, restored or widened by
    /// [`Profile::release`].
    memo: [MemoSlot; 32],
    /// False while every memo slot is empty, so back-to-back releases
    /// clear the memo once, not once per rectangle.
    memo_live: bool,
}

impl Profile {
    /// Creates a profile with all `capacity` processors free from
    /// `origin` onwards.
    pub(crate) fn new(capacity: u32, origin: SimTime) -> Self {
        assert!(capacity >= 1, "profile needs at least one processor");
        Profile {
            capacity,
            times: vec![origin],
            frees: vec![capacity],
            memo: [MEMO_EMPTY; 32],
            memo_live: false,
        }
    }

    /// Resets to the fully-free state at `origin`, reusing the
    /// allocations — the planner rebuilds the profile at every event.
    pub(crate) fn reset(&mut self, capacity: u32, origin: SimTime) {
        assert!(capacity >= 1, "profile needs at least one processor");
        self.capacity = capacity;
        self.clear_memo();
        self.times.clear();
        self.times.push(origin);
        self.frees.clear();
        self.frees.push(capacity);
    }

    /// Rebuilds the whole profile from `(start, end, width)` spans in one
    /// endpoint sweep: O((S + R) log R) for R spans producing S points,
    /// instead of the O(R·P) of repeated [`Profile::allocate`] calls.
    /// Spans starting before `origin` are clipped to it; empty and
    /// zero-width spans are ignored. `events` is caller-provided scratch
    /// so the per-event hot path allocates nothing. The result is the
    /// minimal representation of the function the allocate loop builds.
    ///
    /// # Panics
    /// Panics if the spans overcommit the machine at any instant (as the
    /// allocate loop does) or if `capacity` is zero.
    pub(crate) fn rebuild_from_spans(
        &mut self,
        capacity: u32,
        origin: SimTime,
        spans: &[(SimTime, SimTime, u32)],
        events: &mut Vec<(SimTime, i64)>,
    ) {
        self.reset(capacity, origin);
        events.clear();
        for &(start, end, width) in spans {
            let start = start.max(origin);
            if width == 0 || end <= start {
                continue;
            }
            events.push((start, width as i64));
            events.push((end, -(width as i64)));
        }
        events.sort_unstable_by_key(|&(time, _)| time);
        let mut used: i64 = 0;
        for instant in events.chunk_by(|a, b| a.0 == b.0) {
            let time = instant[0].0;
            let delta: i64 = instant.iter().map(|&(_, delta)| delta).sum();
            if delta == 0 {
                continue;
            }
            used += delta;
            assert!(
                (0..=capacity as i64).contains(&used),
                "overcommit: {used} processors reserved at {time:?}, capacity {capacity}"
            );
            let free = capacity - used as u32;
            // Append (or coalesce into) the last point.
            let last = self.times.len() - 1;
            if self.times[last] == time {
                self.frees[last] = free;
            } else {
                self.times.push(time);
                self.frees.push(free);
            }
        }
        self.assert_invariants();
    }

    /// Makes this profile a copy of `base` without reallocating: the
    /// planner builds the running-jobs base once per event and every
    /// policy's planning pass starts from a restored copy.
    pub(crate) fn restore_from(&mut self, base: &Profile) {
        self.capacity = base.capacity;
        self.times.clear();
        self.times.extend_from_slice(&base.times);
        self.frees.clear();
        self.frees.extend_from_slice(&base.frees);
        // More capacity than after the last pass: the bounds are void.
        self.clear_memo();
    }

    /// Total processors of the machine.
    pub(crate) fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of break points.
    pub(crate) fn len(&self) -> usize {
        self.times.len()
    }

    /// The break points in time order. Allocates; not for hot paths.
    pub(crate) fn to_points(&self) -> Vec<ProfilePoint> {
        self.iter_points().collect()
    }

    /// Iterates the break points in time order.
    pub(crate) fn iter_points(&self) -> impl Iterator<Item = ProfilePoint> + '_ {
        self.points_from(0)
    }

    fn points_from(&self, i: usize) -> impl Iterator<Item = ProfilePoint> + '_ {
        let pairs = self.times[i..].iter().zip(&self.frees[i..]);
        pairs.map(|(&time, &free)| ProfilePoint { time, free })
    }

    /// Start of the profile (its first break point).
    pub(crate) fn origin(&self) -> SimTime {
        self.times[0]
    }

    /// Free processors at instant `t` (clamped to the origin on the left).
    #[cfg(test)]
    pub(crate) fn free_at(&self, t: SimTime) -> u32 {
        self.frees[self.seg_index(t)]
    }

    /// Index of the segment containing `t`: the last point with
    /// `time <= t`, or 0 for earlier instants.
    fn seg_index(&self, t: SimTime) -> usize {
        self.times
            .partition_point(|&time| time <= t)
            .saturating_sub(1)
    }

    /// [`Profile::seg_index`] for a `t` whose segment is point `i` or
    /// one after it: gallops right from `i`, so it costs the logarithm
    /// of how far the segment lies past `i`, not of the profile's size.
    fn seg_index_from(&self, i: usize, t: SimTime) -> usize {
        let times = &self.times[i..];
        debug_assert!(times[0] <= t, "the hint lies past {t:?}");
        // `times[lo] <= t`; `hi` is the point count or a point past `t`.
        let (mut lo, mut step) = (0, 1);
        let hi = loop {
            let probe = lo + step;
            if probe >= times.len() || times[probe] > t {
                break probe.min(times.len());
            }
            (lo, step) = (probe, 2 * step);
        };
        i + lo + times[lo + 1..hi].partition_point(|&time| time <= t)
    }

    /// The function on `[t, ∞)` as its two vectors, from the segment
    /// containing `t` on: read-only, for walks that fill the free
    /// capacity without reserving it. The final segment never ends and
    /// has the full capacity free.
    pub(crate) fn segments_from(&self, t: SimTime) -> (&[SimTime], &[u32]) {
        let i = self.seg_index(t);
        (&self.times[i..], &self.frees[i..])
    }

    /// Empties the dominance memo of [`Profile::allocate_earliest`].
    pub(crate) fn clear_memo(&mut self) {
        if self.memo_live {
            self.memo = [MEMO_EMPTY; 32];
            self.memo_live = false;
        }
    }

    /// The earliest fit as `(s, e, start)`: `s` indexes the segment
    /// containing `start` and `e` the first point at or past the end of
    /// the window (the point count if it runs past the horizon) — they
    /// seed [`Profile::carve`], so [`Profile::allocate_earliest`] never
    /// searches for either end of its rectangle again. With a `hint`,
    /// the caller vouches that the segment containing `after` is that
    /// point or one after it, and the search gallops from there.
    fn fit_pos(
        &self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
        hint: Option<usize>,
    ) -> (usize, usize, SimTime) {
        assert!(
            width <= self.capacity,
            "job width {width} exceeds capacity {}",
            self.capacity
        );
        let mut start = after.max(self.origin());
        if width == 0 || duration.is_zero() {
            // Trivial fit; callers skip the carve, so the indices are unused.
            return (0, 0, start);
        }
        let times = self.times.as_slice();
        let frees = &self.frees[..times.len()];
        let mut s = match hint {
            Some(i) => {
                let hinted = self.seg_index_from(i, start);
                debug_assert_eq!(hinted, self.seg_index(start), "hint past the segment");
                hinted
            }
            None => self.seg_index(start),
        };
        let mut end = start + duration;
        let mut k = s;
        loop {
            // Verifying: no blocker before the window's end or the horizon?
            while k < times.len() && times[k] < end && frees[k] >= width {
                k += 1;
            }
            if k == times.len() || times[k] >= end {
                return (s, k, start);
            }
            // Seeking: the fully free final segment stops it at the latest.
            while frees[k] < width {
                k += 1;
            }
            s = k;
            start = times[k];
            end = start + duration;
        }
    }

    /// The earliest instant `t >= after` at which `width` processors stay
    /// free for the whole span `[t, t + duration)`. Always succeeds
    /// because the profile returns to full capacity after its last break
    /// point.
    ///
    /// # Panics
    /// Panics if `width` exceeds the machine capacity.
    pub(crate) fn earliest_fit(
        &self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> SimTime {
        self.fit_pos(after, duration, width, None).2
    }

    /// The profile as a step function on `[t, ∞)`: its value at `t`, then
    /// every later instant the value changes at. Redundant break points
    /// (allocation never coalesces) are dropped, so two profiles holding
    /// the same function yield the same steps.
    fn steps_from(&self, t: SimTime) -> impl Iterator<Item = ProfilePoint> + '_ {
        let i = self.seg_index(t);
        let free = self.frees[i];
        let mut prev = None;
        std::iter::once(ProfilePoint { time: t, free })
            .chain(self.points_from(i + 1))
            .filter(move |p| prev.replace(p.free) != Some(p.free))
    }

    /// True when `self` and `other` have the same capacity and are the
    /// same function of time on `[t, ∞)`, whatever their break-point
    /// representations and whatever they hold before `t`.
    pub(crate) fn same_from(&self, other: &Profile, t: SimTime) -> bool {
        self.capacity == other.capacity && self.steps_from(t).eq(other.steps_from(t))
    }

    /// Appends to `out` the difference `other − self` in free processors
    /// on `[t, ∞)` as a step function, `(instant, difference from it
    /// on)`: each value differs from the one before it, the first from
    /// 0, and the last is 0. One merged walk, as [`Profile::same_from`]
    /// makes. Returns `false` when the capacities differ, or when the
    /// difference changes at more than `limit` instants, leaving `out`
    /// holding a part.
    pub(crate) fn diff_into(
        &self,
        other: &Profile,
        t: SimTime,
        limit: usize,
        out: &mut Vec<(SimTime, i64)>,
    ) -> bool {
        if self.capacity != other.capacity {
            return false;
        }
        let (mut mine, mut theirs) = (
            self.steps_from(t).peekable(),
            other.steps_from(t).peekable(),
        );
        let (mut free, mut other_free, mut last) = (0i64, 0i64, 0i64);
        loop {
            let at = match (mine.peek(), theirs.peek()) {
                (None, None) => return true,
                (Some(a), Some(b)) => a.time.min(b.time),
                (Some(a), None) => a.time,
                (None, Some(b)) => b.time,
            };
            if let Some(p) = mine.next_if(|p| p.time == at) {
                free = p.free as i64;
            }
            if let Some(p) = theirs.next_if(|p| p.time == at) {
                other_free = p.free as i64;
            }
            if other_free - free != last {
                if out.len() == limit {
                    return false;
                }
                last = other_free - free;
                out.push((at, last));
            }
        }
    }

    /// Adds to the free processors the step function `steps`, in the
    /// form [`Profile::diff_into`] gives, whose first instant is at or
    /// past the origin. One merged walk over the break points the steps
    /// span, written back with one splice per vector: a rectangle at a
    /// time would shift the points behind it once per edge. `scratch`
    /// holds the merged points. Clears the dominance memo.
    ///
    /// # Panics
    /// Panics if the sum is negative or past the capacity anywhere.
    pub(crate) fn add_steps(
        &mut self,
        steps: &[(SimTime, i64)],
        scratch: &mut Vec<(SimTime, u32)>,
    ) {
        let (Some(&(first, _)), Some(&(last, _))) = (steps.first(), steps.last()) else {
            return;
        };
        assert!(first >= self.origin(), "steps before profile origin");
        self.clear_memo();
        let from = self.seg_index(first);
        let to = self.times.partition_point(|&time| time <= last);
        scratch.clear();
        let (mut k, mut s) = (from, 0);
        let (mut free, mut diff) = (self.frees[from] as i64, 0);
        let mut at = self.times[from];
        if first == at {
            (diff, s) = (steps[0].1, 1);
        }
        loop {
            let sum = free + diff;
            assert!(
                (0..=self.capacity as i64).contains(&sum),
                "steps take the free processors at {at:?} to {sum} of {}",
                self.capacity
            );
            if scratch.last().is_none_or(|&(_, last)| last as i64 != sum) {
                scratch.push((at, sum as u32));
            }
            let next_point = self.times[..to].get(k + 1).copied();
            let next_step = steps.get(s).map(|&(t, _)| t);
            at = match (next_point, next_step) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next_point == Some(at) {
                k += 1;
                free = self.frees[k] as i64;
            }
            if next_step == Some(at) {
                diff = steps[s].1;
                s += 1;
            }
        }
        self.times
            .splice(from..to, scratch.iter().map(|&(time, _)| time));
        self.frees
            .splice(from..to, scratch.iter().map(|&(_, free)| free));
        self.assert_invariants();
    }

    /// Carves `width` processors out of `[start, end)`, given the index
    /// `s` of the segment containing `start` and the index `e` of the
    /// first point at or past `end` (the point count if there is none).
    /// Returns the index of the point at `start`. Panics if any covered
    /// segment has fewer than `width` free.
    fn carve(
        &mut self,
        mut s: usize,
        mut e: usize,
        start: SimTime,
        end: SimTime,
        width: u32,
    ) -> usize {
        debug_assert!(self.times[s] <= start && s < e, "s does not contain start");
        // A new point continues the segment it splits. `end` first, so
        // `s` still indexes the segment containing `start`.
        if e == self.times.len() || self.times[e] != end {
            self.times.insert(e, end);
            self.frees.insert(e, self.frees[e - 1]);
        }
        if self.times[s] != start {
            (s, e) = (s + 1, e + 1);
            self.times.insert(s, start);
            self.frees.insert(s, self.frees[s - 1]);
        }
        for (f, time) in self.frees[s..e].iter_mut().zip(&self.times[s..e]) {
            assert!(
                *f >= width,
                "overcommit: segment at {time:?} has {f} free, needs {width}"
            );
            *f -= width;
        }
        s
    }

    /// Ensures a break point exists exactly at `t >= origin` (splitting
    /// the containing segment) and returns its index.
    fn split_at(&mut self, t: SimTime) -> usize {
        let i = self.seg_index(t);
        if self.times[i] == t {
            return i;
        }
        self.times.insert(i + 1, t);
        self.frees.insert(i + 1, self.frees[i]);
        i + 1
    }

    /// Removes the break point at `i` when it no longer changes the
    /// function (same free value as its predecessor).
    fn coalesce(&mut self, i: usize) {
        if i > 0 && self.frees[i - 1] == self.frees[i] {
            self.times.remove(i);
            self.frees.remove(i);
        }
    }

    /// Reserves `width` processors over `[start, start + duration)`.
    /// Zero-length reservations are no-ops.
    ///
    /// # Panics
    /// Panics if any overlapped segment has fewer than `width` free
    /// processors (callers find slots with [`Profile::earliest_fit`]
    /// first) or if `start` precedes the profile origin.
    pub(crate) fn allocate(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "allocation before profile origin");
        let end = start + duration;
        let s = self.seg_index(start);
        let e = s + self.times[s..].partition_point(|&time| time < end);
        self.carve(s, e, start, end, width);
        self.assert_invariants();
    }

    /// Gives back a rectangle reserved by [`Profile::allocate`] or
    /// `Profile::allocate_earliest` with the same arguments: the exact
    /// inverse as a function of time, in any order. Break points the
    /// rectangle no longer needs are coalesced away. Widening invalidates
    /// the dominance memo, which is cleared; `remember_fit` re-seeds it.
    ///
    /// # Panics
    /// Panics if `width` processors are not reserved throughout the
    /// rectangle or if `start` precedes the profile origin.
    pub(crate) fn release(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "release before profile origin");
        assert!(width <= self.capacity, "release wider than the machine");
        self.clear_memo();
        // An earlier release may have coalesced either boundary away.
        let s = self.split_at(start);
        let e = self.split_at(start + duration);
        let capacity = self.capacity;
        for (f, time) in self.frees[s..e].iter_mut().zip(&self.times[s..e]) {
            assert!(
                capacity - *f >= width,
                "over-release: segment at {time:?} has {f} of {capacity} free, returning {width}"
            );
            *f += width;
        }
        // `end` first: removing it leaves the earlier point in place.
        self.coalesce(e);
        self.coalesce(s);
        self.assert_invariants();
    }

    /// Finds the earliest fit and allocates it in one step; returns the
    /// chosen start time. Equivalent to [`Profile::earliest_fit`]
    /// followed by [`Profile::allocate`] — this is the planner's hot
    /// path (once per queued job per policy per event).
    ///
    /// Successive calls are accelerated by a per-width-class *dominance
    /// memo*. Earliest-fit is monotone two ways: a query with larger
    /// width or duration can never fit earlier than an easier one, and
    /// allocation only ever narrows the profile, so an answer can only
    /// move later. Therefore the answer `a` of a previous `(w, d)` query
    /// is a sound scan lower bound for any later `(w', d')` query with
    /// `w' >= w` and `d' >= d`. One slot per `ilog2(width)` class keeps
    /// the last query; a planning pass places many same-width jobs (and
    /// SJF/LJF passes walk duration monotonically), so most queries scan
    /// only near the frontier and a deep pass's quadratic rescans become
    /// near-linear. The memo never changes an answer, only where the scan
    /// starts.
    ///
    /// A memoised answer proves only that `[slot.after, slot.answer)`
    /// holds no fit for the slot's query, so a later query may use it
    /// only if it, too, must start no earlier (`after >= slot.after`) —
    /// otherwise the skipped prefix could hide a legitimate earlier fit.
    pub(crate) fn allocate_earliest(
        &mut self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> SimTime {
        if duration.is_zero() || width == 0 {
            return self.fit_pos(after, duration, width, None).2;
        }
        let slot = self.memo[(31 - width.leading_zeros()) as usize];
        let (mut from, mut hint) = (after, None);
        if slot.width != 0
            && width >= slot.width
            && duration >= slot.duration
            && after >= slot.after
            && slot.answer >= after
        {
            from = slot.answer;
            hint = Some(slot.index as usize).filter(|_| slot.index != UNKNOWN_INDEX);
        }
        let (s, e, start) = self.fit_pos(from, duration, width, hint);
        let at = self.carve(s, e, start, start + duration, width);
        // The slot records `after`, not `from`: on a hit the old slot
        // already proved `[after, from)` fit-free for this (dominating)
        // query, and the scan just proved `[from, start)`.
        let index = u32::try_from(at).unwrap_or(UNKNOWN_INDEX);
        self.remember(after, duration, width, start, index);
        self.assert_invariants();
        start
    }

    /// Records in the dominance memo that `allocate_earliest(after,
    /// duration, width)` answered `answer`. After [`Profile::release`]
    /// cleared the memo, replaying the placements still held, in their
    /// original order, leaves it as a fresh pass over them would have.
    /// The caller vouches that no `width × duration` fit starts in
    /// `[after, answer)` on the profile as it is now. The slot does not
    /// learn where `answer` lies: the next hit searches for it.
    pub(crate) fn remember_fit(
        &mut self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
        answer: SimTime,
    ) {
        if duration.is_zero() || width == 0 {
            return;
        }
        self.remember(after, duration, width, answer, UNKNOWN_INDEX);
    }

    fn remember(
        &mut self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
        answer: SimTime,
        index: u32,
    ) {
        self.memo[(31 - width.leading_zeros()) as usize] = MemoSlot {
            width,
            index,
            duration,
            after,
            answer,
        };
        self.memo_live = true;
    }

    /// Debug-build check of the invariants in the module docs.
    fn assert_invariants(&self) {
        let (times, frees, capacity) = (&self.times, &self.frees, Some(&self.capacity));
        debug_assert_eq!(times.len(), frees.len(), "ragged vectors");
        debug_assert!(times.is_sorted_by(|a, b| a < b), "times not increasing");
        debug_assert!(frees.iter().max() <= capacity, "free exceeds capacity");
        debug_assert_eq!(frees.last(), capacity, "horizon not fully free");
    }
}

impl std::fmt::Debug for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profile")
            .field("capacity", &self.capacity)
            .field("points", &self.to_points())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveProfile;
    use proptest::prelude::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn fresh_profile_is_fully_free() {
        let p = Profile::new(16, t(100));
        assert_eq!(p.free_at(t(100)), 16);
        assert_eq!(p.free_at(t(1_000_000)), 16);
        assert_eq!(p.earliest_fit(t(100), d(3_600), 16), t(100));
    }

    #[test]
    fn allocate_carves_a_rectangle() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(10), d(20), 4);
        assert_eq!(p.free_at(t(0)), 10);
        assert_eq!(p.free_at(t(10)), 6);
        assert_eq!(p.free_at(t(29)), 6);
        assert_eq!(p.free_at(t(30)), 10);
    }

    #[test]
    fn overlapping_allocations_stack() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 3);
        p.allocate(t(50), d(100), 3);
        assert_eq!(p.free_at(t(0)), 7);
        assert_eq!(p.free_at(t(50)), 4);
        assert_eq!(p.free_at(t(100)), 7);
        assert_eq!(p.free_at(t(150)), 10);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn allocate_panics_on_overcommit() {
        let mut p = Profile::new(4, t(0));
        p.allocate(t(0), d(10), 3);
        p.allocate(t(5), d(10), 3);
    }

    #[test]
    fn earliest_fit_skips_busy_window() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 8); // only 2 free until t=100
        assert_eq!(p.earliest_fit(t(0), d(10), 2), t(0));
        assert_eq!(p.earliest_fit(t(0), d(10), 3), t(100));
    }

    #[test]
    fn earliest_fit_finds_gap_between_reservations() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(50), 8);
        p.allocate(t(100), d(50), 8);
        // 2 free in [0,50) and [100,150); 10 free in [50,100).
        assert_eq!(p.earliest_fit(t(0), d(50), 5), t(50));
        // Needs 60s with width 5: the [50,100) gap is too short; must wait
        // until t=150.
        assert_eq!(p.earliest_fit(t(0), d(60), 5), t(150));
        // Width 2 fits immediately even across the busy windows.
        assert_eq!(p.earliest_fit(t(0), d(200), 2), t(0));
    }

    #[test]
    fn earliest_fit_respects_after_bound() {
        let p = Profile::new(10, t(0));
        assert_eq!(p.earliest_fit(t(500), d(10), 10), t(500));
    }

    #[test]
    fn earliest_fit_starts_mid_segment() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 5);
        // after = 30 lands inside the [0,100) segment with 5 free.
        assert_eq!(p.earliest_fit(t(30), d(10), 5), t(30));
        assert_eq!(p.earliest_fit(t(30), d(10), 6), t(100));
    }

    #[test]
    fn zero_duration_and_zero_width_are_trivial() {
        let mut p = Profile::new(4, t(0));
        assert_eq!(p.earliest_fit(t(7), SimDuration::ZERO, 4), t(7));
        p.allocate(t(7), SimDuration::ZERO, 4); // no-op
        assert_eq!(p.free_at(t(7)), 4);
        assert_eq!(p.earliest_fit(t(7), d(10), 0), t(7));
    }

    #[test]
    fn reset_reuses_the_buffer() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(10), 10);
        p.reset(20, t(5));
        assert_eq!(p.capacity(), 20);
        assert_eq!(p.free_at(t(5)), 20);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn earliest_fit_rejects_oversized_width() {
        let p = Profile::new(4, t(0));
        let _ = p.earliest_fit(t(0), d(1), 5);
    }

    #[test]
    fn sweep_rebuild_matches_allocate_loop() {
        let spans = [
            (t(0), t(100), 3u32),
            (t(50), t(150), 2),
            (t(100), t(200), 4),
            (t(300), t(310), 8),
        ];
        let mut by_alloc = Profile::new(8, t(0));
        for &(s, e, w) in &spans {
            by_alloc.allocate(s, e.saturating_since(s), w);
        }
        let mut by_sweep = Profile::new(1, t(99));
        let mut scratch = Vec::new();
        by_sweep.rebuild_from_spans(8, t(0), &spans, &mut scratch);
        // Identical as piecewise functions (representations may differ
        // only in redundant points, and the sweep emits none).
        for probe in 0..400 {
            assert_eq!(
                by_sweep.free_at(t(probe)),
                by_alloc.free_at(t(probe)),
                "free differs at t={probe}"
            );
        }
        assert_eq!(by_sweep.capacity(), 8);
    }

    #[test]
    fn sweep_rebuild_clips_to_origin_and_skips_empty_spans() {
        let mut p = Profile::new(1, t(0));
        let mut scratch = Vec::new();
        p.rebuild_from_spans(
            4,
            t(100),
            &[
                (t(0), t(150), 2),   // started before origin: clipped
                (t(0), t(50), 4),    // entirely past: dropped
                (t(120), t(120), 4), // empty: dropped
                (t(130), t(140), 0), // zero width: dropped
            ],
            &mut scratch,
        );
        assert_eq!(p.origin(), t(100));
        assert_eq!(p.free_at(t(100)), 2);
        assert_eq!(p.free_at(t(149)), 2);
        assert_eq!(p.free_at(t(150)), 4);
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn sweep_rebuild_panics_on_overcommit() {
        let mut p = Profile::new(1, t(0));
        let mut scratch = Vec::new();
        p.rebuild_from_spans(4, t(0), &[(t(0), t(10), 3), (t(5), t(15), 3)], &mut scratch);
    }

    #[test]
    fn restore_from_copies_without_affecting_the_base() {
        let mut base = Profile::new(8, t(0));
        base.allocate(t(10), d(20), 5);
        let mut work = Profile::new(1, t(999));
        work.restore_from(&base);
        assert_eq!(work.capacity(), 8);
        assert_eq!(work.to_points(), base.to_points());
        // Narrowing the copy leaves the base untouched.
        work.allocate(t(10), d(20), 3);
        assert_eq!(work.free_at(t(15)), 0);
        assert_eq!(base.free_at(t(15)), 3);
        // A second restore really is a reset to the watermark.
        work.restore_from(&base);
        assert_eq!(work.free_at(t(15)), 3);
    }

    /// A profile far deeper than the property tests generate (801
    /// points): every fit sweeps hundreds of alternating tight and free
    /// segments.
    #[test]
    fn deep_profile_spans_many_chunks_and_answers_like_the_oracle() {
        let capacity = 64;
        let mut p = Profile::new(capacity, t(0));
        let mut oracle = NaiveProfile::new(capacity, t(0));
        // A comb of busy teeth: [20k, 20k+10) at width 63 — only 1 free.
        for k in 0..400u64 {
            p.allocate(t(20 * k), d(10), 63);
            oracle.allocate(t(20 * k), d(10), 63);
        }
        assert_eq!(p.to_points(), oracle.points());
        for (after, dur, w) in [
            (0u64, 5u64, 1u32),
            (0, 5, 2),
            (0, 15, 2),
            (3, 7, 2),
            (3, 7, 63),
            (1_000, 9, 40),
            (3_999, 11, 64),
            (7_990, 10, 2),
            (8_005, 4, 2),
            (9_000, 1_000, 64),
        ] {
            assert_eq!(
                p.earliest_fit(t(after), d(dur), w),
                oracle.earliest_fit(t(after), d(dur), w),
                "fit differs for after={after} dur={dur} w={w}"
            );
            assert_eq!(p.free_at(t(after)), oracle.free_at(t(after)));
        }
    }

    #[test]
    fn memo_slot_is_four_words() {
        // Every profile holds 32 of them; slot size is part of the RSS
        // budget (DESIGN §10).
        assert_eq!(std::mem::size_of::<MemoSlot>(), 32);
    }

    /// `allocate_earliest` on both profiles, answer for answer, then
    /// point for point.
    fn place_both(p: &mut Profile, oracle: &mut NaiveProfile, after: u64, dur: u64, w: u32) {
        let got = p.allocate_earliest(t(after), d(dur), w);
        let want = oracle.allocate_earliest(t(after), d(dur), w);
        assert_eq!(got, want, "after={after} dur={dur} w={w}");
        assert_eq!(p.to_points(), oracle.points());
    }

    /// The memo slot of `width`'s class.
    fn slot_of(p: &Profile, width: u32) -> MemoSlot {
        p.memo[(31 - width.leading_zeros()) as usize]
    }

    #[test]
    fn a_hint_left_behind_by_earlier_break_points_still_finds_the_answer() {
        // Full but for a 10 s hole at [50, 60), then free from 100.
        let mut p = Profile::new(16, t(0));
        let mut oracle = NaiveProfile::new(16, t(0));
        for (start, dur) in [(0, 50), (60, 40)] {
            p.allocate(t(start), d(dur), 16);
            oracle.allocate(t(start), d(dur), 16);
        }
        // Width 1 for 20 s misses the hole: answer 100, remembered at
        // its point.
        place_both(&mut p, &mut oracle, 0, 20, 1);
        let remembered = slot_of(&p, 1);
        assert_eq!(p.times[remembered.index as usize], t(100));
        // Three other classes fill the hole and carve four points ahead
        // of it (53, 52, then 51 and 57): the remembered index now lies
        // four short of 100.
        place_both(&mut p, &mut oracle, 0, 3, 8);
        place_both(&mut p, &mut oracle, 0, 2, 4);
        place_both(&mut p, &mut oracle, 51, 6, 2);
        assert_eq!(
            slot_of(&p, 1).index,
            remembered.index,
            "another class kept it"
        );
        let moved = p
            .times
            .iter()
            .position(|&time| time == t(100))
            .expect("point at 100");
        assert_eq!(moved, remembered.index as usize + 4);
        // The first class hits again, from the stale index, and again.
        place_both(&mut p, &mut oracle, 0, 20, 1);
        place_both(&mut p, &mut oracle, 10, 25, 1);
        place_both(&mut p, &mut oracle, 10, 25, 1);
        let hit = slot_of(&p, 1);
        assert_eq!(p.times[hit.index as usize], hit.answer);
    }

    #[test]
    fn a_replayed_memo_knows_no_index_and_a_cleared_one_holds_nothing() {
        let mut p = Profile::new(8, t(0));
        let mut oracle = NaiveProfile::new(8, t(0));
        let jobs = [
            (0, 30, 3),
            (0, 20, 5),
            (5, 40, 2),
            (5, 10, 6),
            (0, 30, 3),
            (20, 15, 1),
        ];
        let starts: Vec<SimTime> = jobs
            .iter()
            .map(|&(after, dur, w)| p.allocate_earliest(t(after), d(dur), w))
            .collect();
        // Release the last three: the memo is cleared before any point
        // goes.
        for (&(_, dur, w), &start) in jobs[3..].iter().zip(&starts[3..]).rev() {
            p.release(start, d(dur), w);
            assert!(!p.memo_live && p.memo.iter().all(|slot| slot.width == 0));
        }
        // Replaying the kept three re-seeds the memo without positions.
        for (&(after, dur, w), &start) in jobs[..3].iter().zip(&starts) {
            assert_eq!(oracle.allocate_earliest(t(after), d(dur), w), start);
            p.remember_fit(t(after), d(dur), w, start);
            assert_eq!(slot_of(&p, w).index, UNKNOWN_INDEX);
        }
        // Hits on those slots search from the origin, and learn where
        // their answers lie.
        for &(after, dur, w) in &[(0, 30, 3), (5, 40, 2), (0, 20, 5), (0, 35, 3)] {
            place_both(&mut p, &mut oracle, after, dur, w);
            let slot = slot_of(&p, w);
            assert_eq!(p.times[slot.index as usize], slot.answer);
        }
        // A restore clears the memo too; what follows matches the oracle
        // restored the same way.
        let (base, oracle_base) = (Profile::new(8, t(0)), NaiveProfile::new(8, t(0)));
        p.restore_from(&base);
        oracle.restore_from(&oracle_base);
        assert!(!p.memo_live && p.memo.iter().all(|slot| slot.width == 0));
        for &(after, dur, w) in &jobs {
            place_both(&mut p, &mut oracle, after, dur, w);
        }
    }

    /// The break points that change the function: what two
    /// representations of one profile must agree on.
    fn steps(points: &[ProfilePoint]) -> Vec<ProfilePoint> {
        let mut out: Vec<ProfilePoint> = Vec::new();
        for &p in points {
            if out.last().map(|q| q.free) != Some(p.free) {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn release_undoes_a_lone_rectangle() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(10), d(20), 4);
        p.release(t(10), d(20), 4);
        assert_eq!(p.to_points(), Profile::new(10, t(0)).to_points());
        // Degenerate rectangles are no-ops, as in `allocate`.
        p.release(t(10), SimDuration::ZERO, 4);
        p.release(t(10), d(20), 0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn release_panics_on_a_rectangle_that_was_never_reserved() {
        let mut p = Profile::new(4, t(0));
        p.allocate(t(0), d(10), 1);
        p.release(t(0), d(10), 2);
    }

    #[test]
    fn release_keeps_a_boundary_shared_with_another_rectangle() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(10), d(10), 3); // [10, 20)
        p.allocate(t(20), d(10), 5); // [20, 30): shares the point at 20
        p.release(t(20), d(10), 5);
        assert_eq!(p.free_at(t(19)), 7);
        assert_eq!(p.free_at(t(20)), 10, "the first rectangle still ends at 20");
        assert_eq!(p.len(), 3);
        p.release(t(10), d(10), 3);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn release_reinserts_a_boundary_an_earlier_release_coalesced_away() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(10), d(10), 3); // X = [10, 20)
        p.allocate(t(20), d(10), 3); // Y = [20, 30): 20 stops changing the function
        p.allocate(t(20), d(5), 2); //  Z = [20, 25): ... and changes it again
        p.release(t(20), d(5), 2);
        // Releasing Z took the point at 20 with it: X and Y now read as
        // one rectangle [10, 30).
        assert_eq!(
            p.to_points().iter().map(|q| q.time).collect::<Vec<_>>(),
            [t(0), t(10), t(30)]
        );
        // Y's start has no break point any more; the release splits there.
        p.release(t(20), d(10), 3);
        assert_eq!(p.free_at(t(19)), 7);
        assert_eq!(p.free_at(t(20)), 10);
        p.release(t(10), d(10), 3);
        assert_eq!(p.len(), 1);
    }

    /// A profile cycled between deep and shallow never grows past its
    /// deepest cycle: the suffix replanner does exactly this at every
    /// submission.
    #[test]
    fn emptied_chunks_are_reused_across_release_allocate_cycles() {
        let capacity = 8;
        let teeth = 80u64; // 161 points at the deepest
        let mut p = Profile::new(capacity, t(0));
        // Vector capacities once the deepest comb has been cut.
        let mut deepest = None;
        for cycle in 0..10_000u64 {
            // Vary how deep the comb is cut from cycle to cycle.
            let n = 1 + (cycle * 37) % teeth;
            for k in 0..n {
                p.allocate(t(20 * k), d(10), 7);
            }
            for k in (0..n).rev() {
                p.release(t(20 * k), d(10), 7);
            }
            assert_eq!(p.len(), 1, "cycle {cycle} left points behind");
            let held = (p.times.capacity(), p.frees.capacity());
            if n == teeth {
                deepest.get_or_insert(held);
            }
            if let Some(deepest) = deepest {
                assert_eq!(held, deepest, "storage grew in cycle {cycle}");
            }
        }
        assert!(deepest.is_some(), "the deepest comb was never cut");
    }

    proptest! {
        /// Random allocate_earliest sequences never violate profile
        /// invariants and always place each reservation at a feasible,
        /// minimal start.
        #[test]
        fn allocate_earliest_is_sound(
            jobs in proptest::collection::vec(
                (1u32..8, 1u64..500, 0u64..300), // (width, duration s, after s)
                1..60,
            )
        ) {
            let capacity = 8;
            let mut p = Profile::new(capacity, t(0));
            // Shadow model: sample free capacity on a 1s grid.
            let mut placed: Vec<(u64, u64, u32)> = Vec::new(); // (start, end, width)
            for (w, dur, after) in jobs {
                let start = p.earliest_fit(t(after), d(dur), w);
                p.allocate(start, d(dur), w);
                let s = start.as_millis() / 1000;
                placed.push((s, s + dur, w));
                prop_assert!(s >= after);
            }
            // No instant may be overcommitted (check at all event edges).
            let mut edges: Vec<u64> = placed.iter().flat_map(|&(s, e, _)| [s, e]).collect();
            edges.sort_unstable();
            edges.dedup();
            for &edge in &edges {
                let used: u32 = placed
                    .iter()
                    .filter(|&&(s, e, _)| s <= edge && edge < e)
                    .map(|&(_, _, w)| w)
                    .sum();
                prop_assert!(used <= capacity, "overcommit at {edge}: {used}");
                // Cross-check the profile agrees with the shadow model.
                prop_assert_eq!(p.free_at(t(edge)), capacity - used);
            }
        }

        /// earliest_fit returns the *minimal* feasible start: starting the
        /// same job one segment earlier must be infeasible.
        #[test]
        fn earliest_fit_is_minimal(
            pre in proptest::collection::vec((1u32..8, 1u64..200, 0u64..200), 0..20),
            w in 1u32..8,
            dur in 1u64..200,
            after in 0u64..100,
        ) {
            let mut p = Profile::new(8, t(0));
            for (pw, pdur, pafter) in pre {
                let s = p.earliest_fit(t(pafter), d(pdur), pw);
                p.allocate(s, d(pdur), pw);
            }
            let start = p.earliest_fit(t(after), d(dur), w);
            prop_assert!(start >= t(after));
            // Feasible at `start`: every second within has enough room.
            let s0 = start.as_millis() / 1000;
            for off in 0..dur {
                prop_assert!(p.free_at(t(s0 + off)) >= w);
            }
            // Minimal: any earlier start in [after, start) hits a blocked
            // instant within its window.
            let mut probe = after;
            while probe < s0 {
                let blocked = (0..dur).any(|off| p.free_at(t(probe + off)) < w);
                prop_assert!(blocked, "start {probe} would also fit (earliest was {s0})");
                probe += 1;
            }
        }

        /// The endpoint sweep builds the same piecewise function as the
        /// allocate loop, for any non-overcommitting span set — and every
        /// earliest_fit query answers identically on both.
        #[test]
        fn sweep_equals_allocate_loop(
            raw in proptest::collection::vec((1u32..5, 0u64..300, 1u64..200), 0..25),
            queries in proptest::collection::vec((1u32..9, 0u64..400, 1u64..150), 1..10),
        ) {
            let capacity = 16u32;
            // Keep the span set feasible by stacking greedily: place each
            // span at its requested time only if it still fits there.
            let mut by_alloc = Profile::new(capacity, t(0));
            let mut spans: Vec<(SimTime, SimTime, u32)> = Vec::new();
            for (w, start, dur) in raw {
                let fits = (start..start + dur).all(|sec| by_alloc.free_at(t(sec)) >= w);
                if fits {
                    by_alloc.allocate(t(start), d(dur), w);
                    spans.push((t(start), t(start + dur), w));
                }
            }
            let mut by_sweep = Profile::new(1, t(7));
            let mut scratch = Vec::new();
            by_sweep.rebuild_from_spans(capacity, t(0), &spans, &mut scratch);
            for sec in 0..600 {
                prop_assert_eq!(by_sweep.free_at(t(sec)), by_alloc.free_at(t(sec)));
            }
            for (w, after, dur) in queries {
                prop_assert_eq!(
                    by_sweep.earliest_fit(t(after), d(dur), w),
                    by_alloc.earliest_fit(t(after), d(dur), w)
                );
            }
        }

        /// The production profile against the linear-scan oracle:
        /// long random interleavings of allocate_earliest / allocate /
        /// earliest_fit / free_at / restore_from agree bit-for-bit on
        /// every answer and on the full point list. Sequences run up to
        /// 300 ops on a tight horizon, so fits sweep well past ~100 points.
        #[test]
        fn indexed_profile_matches_naive_oracle(
            ops in proptest::collection::vec(
                (0u8..5, 1u32..17, 0u64..4_000, 1u64..700),
                1..300,
            ),
            origin in 0u64..50,
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(origin));
            let mut oracle = NaiveProfile::new(capacity, t(origin));
            // Watermark bases for restore_from, captured mid-sequence.
            let mut base = Profile::new(capacity, t(origin));
            let mut oracle_base = NaiveProfile::new(capacity, t(origin));
            for (kind, w, after, dur) in ops {
                match kind {
                    0 | 1 => {
                        // allocate_earliest is the planner hot path — give
                        // it double weight.
                        let a = p.allocate_earliest(t(after), d(dur), w);
                        let b = oracle.allocate_earliest(t(after), d(dur), w);
                        prop_assert_eq!(a, b, "allocate_earliest diverged");
                    }
                    2 => {
                        let a = p.earliest_fit(t(after), d(dur), w);
                        let b = oracle.earliest_fit(t(after), d(dur), w);
                        prop_assert_eq!(a, b, "earliest_fit diverged");
                        // Allocate at the agreed fit so states keep evolving.
                        p.allocate(a, d(dur), w);
                        oracle.allocate(a, d(dur), w);
                    }
                    3 => {
                        prop_assert_eq!(p.free_at(t(after)), oracle.free_at(t(after)));
                        // Capture the current state as the new watermark.
                        base.restore_from(&p);
                        oracle_base.restore_from(&oracle);
                    }
                    _ => {
                        // Roll both back to the watermark.
                        p.restore_from(&base);
                        oracle.restore_from(&oracle_base);
                    }
                }
                prop_assert_eq!(p.capacity(), oracle.capacity());
                prop_assert_eq!(p.len(), oracle.points().len());
            }
            prop_assert_eq!(p.to_points(), oracle.points().to_vec());
        }

        /// Boundary-instant windows: fits queried exactly at break
        /// points, one tick before and after, with zero-width /
        /// zero-duration / full-capacity extremes — production and naive
        /// answers match everywhere.
        #[test]
        fn indexed_fit_matches_naive_at_boundaries(
            spans in proptest::collection::vec((1u32..9, 0u64..500, 1u64..120), 1..40),
            durs in proptest::collection::vec(1u64..200, 1..6),
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(0));
            let mut oracle = NaiveProfile::new(capacity, t(0));
            for &(w, start, dur) in &spans {
                let s = oracle.earliest_fit(t(start), d(dur), w);
                oracle.allocate(s, d(dur), w);
                let s2 = p.earliest_fit(t(start), d(dur), w);
                prop_assert_eq!(s2, s);
                p.allocate(s, d(dur), w);
            }
            // Probe exactly at every break point and ±1s around it.
            let probes: Vec<u64> = oracle
                .points()
                .iter()
                .flat_map(|pt| {
                    let s = pt.time.as_millis() / 1000;
                    [s.saturating_sub(1), s, s + 1]
                })
                .collect();
            for &probe in &probes {
                prop_assert_eq!(p.free_at(t(probe)), oracle.free_at(t(probe)));
                for &dur in &durs {
                    for w in [0u32, 1, 8, capacity] {
                        prop_assert_eq!(
                            p.earliest_fit(t(probe), d(dur), w),
                            oracle.earliest_fit(t(probe), d(dur), w),
                            "diverged at probe={} dur={} w={}", probe, dur, w
                        );
                    }
                    prop_assert_eq!(
                        p.earliest_fit(t(probe), SimDuration::ZERO, capacity),
                        oracle.earliest_fit(t(probe), SimDuration::ZERO, capacity)
                    );
                }
            }
        }

        /// rebuild_from_spans parity: sweeping the same span set into a
        /// production and a naive profile yields identical point lists.
        #[test]
        fn indexed_sweep_matches_naive_sweep(
            raw in proptest::collection::vec((1u32..5, 0u64..2_000, 1u64..300), 0..120),
            origin in 0u64..100,
        ) {
            let capacity = 16u32;
            // Greedily keep the span set feasible.
            let mut feas = NaiveProfile::new(capacity, t(0));
            let mut spans: Vec<(SimTime, SimTime, u32)> = Vec::new();
            for (w, start, dur) in raw {
                let fits = (start..start + dur).all(|sec| feas.free_at(t(sec)) >= w);
                if fits {
                    feas.allocate(t(start), d(dur), w);
                    spans.push((t(start), t(start + dur), w));
                }
            }
            let mut scratch = Vec::new();
            let mut p = Profile::new(1, t(3));
            p.rebuild_from_spans(capacity, t(origin), &spans, &mut scratch);
            let mut oracle = NaiveProfile::new(1, t(3));
            oracle.rebuild_from_spans(capacity, t(origin), &spans, &mut scratch);
            prop_assert_eq!(p.to_points(), oracle.points().to_vec());
        }

        /// The undo primitive against the linear-scan oracle: place N
        /// jobs, release the last M in reverse, and the profile must be
        /// the function a fresh profile holding the first N - M is, give
        /// the same `earliest_fit` answers, and — with the memo re-seeded
        /// from the kept placements, as the suffix replanner does — place
        /// further jobs exactly where the oracle does. The tight horizon
        /// makes rectangles share boundaries.
        #[test]
        fn release_restores_the_profile_of_the_kept_prefix(
            jobs in proptest::collection::vec((1u32..17, 0u64..600, 1u64..400), 1..250),
            keep_permille in 0usize..1001,
            more in proptest::collection::vec((1u32..17, 0u64..600, 1u64..400), 0..40),
            queries in proptest::collection::vec((1u32..17, 0u64..3_000, 1u64..400), 1..12),
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(0));
            let starts: Vec<SimTime> = jobs
                .iter()
                .map(|&(w, after, dur)| p.allocate_earliest(t(after), d(dur), w))
                .collect();
            let keep = jobs.len() * keep_permille / 1000;
            for (&(w, _, dur), &start) in jobs[keep..].iter().zip(&starts[keep..]).rev() {
                p.release(start, d(dur), w);
            }
            let mut oracle = NaiveProfile::new(capacity, t(0));
            for (&(w, after, dur), &start) in jobs[..keep].iter().zip(&starts) {
                prop_assert_eq!(oracle.allocate_earliest(t(after), d(dur), w), start);
                p.remember_fit(t(after), d(dur), w, start);
            }
            prop_assert_eq!(steps(&p.to_points()), steps(oracle.points()));
            for &(w, after, dur) in &queries {
                prop_assert_eq!(
                    p.earliest_fit(t(after), d(dur), w),
                    oracle.earliest_fit(t(after), d(dur), w)
                );
            }
            for &(w, after, dur) in &more {
                prop_assert_eq!(
                    p.allocate_earliest(t(after), d(dur), w),
                    oracle.allocate_earliest(t(after), d(dur), w)
                );
            }
            prop_assert_eq!(steps(&p.to_points()), steps(oracle.points()));
        }

        /// `same_from` compares functions, not representations, and only
        /// from the given instant on.
        #[test]
        fn same_from_ignores_history_and_redundant_points(
            spans in proptest::collection::vec((1u32..5, 0u64..300, 1u64..200), 0..25),
            cut in 0u64..400,
        ) {
            let capacity = 128u32; // room for every span at once
            let mut whole = Profile::new(capacity, t(0));
            let mut clipped = Profile::new(capacity, t(cut));
            for &(w, start, dur) in &spans {
                whole.allocate(t(start), d(dur), w);
                // The same rectangle as seen from `cut`.
                if start + dur > cut {
                    let s = start.max(cut);
                    clipped.allocate(t(s), d(start + dur - s), w);
                }
            }
            prop_assert!(whole.same_from(&clipped, t(cut)));
            prop_assert!(clipped.same_from(&whole, t(cut)));
            // One more processor taken anywhere at or after `cut` shows.
            let at = cut + 500;
            clipped.allocate(t(at), d(1), 1);
            prop_assert!(!whole.same_from(&clipped, t(cut)));
            prop_assert!(whole.same_from(&clipped, t(at + 1)));
        }

        /// Release in any order, not only the suffix-in-reverse the
        /// planner does: give back an arbitrary subset of the placed
        /// rectangles in an arbitrary order, and what is left is the
        /// function an allocate-only profile of the kept rectangles is —
        /// and answers `earliest_fit` like the oracle holding them.
        #[test]
        fn release_of_any_subset_in_any_order_leaves_the_kept_rectangles(
            jobs in proptest::collection::vec(
                // (width, after s, duration s, released?, release-order key)
                (1u32..17, 0u64..600, 1u64..400, 0u8..2, 0u32..1_000_000),
                1..150,
            ),
            queries in proptest::collection::vec((1u32..17, 0u64..3_000, 1u64..400), 1..12),
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(0));
            let mut kept = Profile::new(capacity, t(0));
            let mut oracle = NaiveProfile::new(capacity, t(0));
            let mut released: Vec<(u32, SimTime, u64, u32)> = Vec::new();
            for &(w, after, dur, gone, key) in &jobs {
                let start = p.allocate_earliest(t(after), d(dur), w);
                if gone == 1 {
                    released.push((key, start, dur, w));
                } else {
                    kept.allocate(start, d(dur), w);
                    oracle.allocate(start, d(dur), w);
                }
            }
            released.sort_unstable();
            for &(_, start, dur, w) in &released {
                p.release(start, d(dur), w);
            }
            prop_assert!(p.same_from(&kept, t(0)));
            prop_assert_eq!(steps(&p.to_points()), steps(oracle.points()));
            for &(w, after, dur) in &queries {
                prop_assert_eq!(
                    p.earliest_fit(t(after), d(dur), w),
                    oracle.earliest_fit(t(after), d(dur), w)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A stream as deep as the deepest benchmark queue: at least
        /// 2 000 `allocate_earliest` calls on one profile (up to ~4 000
        /// points; the other properties stop near 160), shaped like
        /// planner passes — runs sorted by duration like SJF and LJF, or
        /// unsorted with few distinct estimates like FCFS, so the memo
        /// both hits and misses; narrow runs that backfill and wide ones
        /// that queue up; `after` at the origin, behind the frontier, or
        /// on it. Start for start and point for point against the oracle.
        #[test]
        fn deep_planner_shaped_stream_matches_naive_oracle(
            runs in proptest::collection::vec(
                (
                    0u8..3, // duration order: ascending, descending, as drawn
                    0u8..3, // after: origin, behind the frontier, on it
                    0u8..2, // narrow widths only?
                    proptest::collection::vec((1u32..65, 1u64..40), 40..72),
                ),
                50..56,
            ),
        ) {
            let capacity = 64u32;
            let mut p = Profile::new(capacity, t(0));
            let mut oracle = NaiveProfile::new(capacity, t(0));
            let mut calls = 0;
            for (order, after_mode, narrow, mut jobs) in runs {
                match order {
                    0 => jobs.sort_by_key(|&(_, dur)| dur),
                    1 => jobs.sort_by_key(|&(_, dur)| std::cmp::Reverse(dur)),
                    _ => jobs.iter_mut().for_each(|(_, dur)| *dur = 1 + *dur % 4),
                }
                let frontier = oracle.points().last().expect("origin point").time;
                let after = match after_mode {
                    0 => t(0),
                    1 => t(frontier.as_millis() / 2_000),
                    _ => frontier,
                };
                for (w, dur) in jobs {
                    let w = if narrow == 1 { 1 + (w - 1) % 8 } else { w };
                    let dur = d(dur * 300);
                    prop_assert_eq!(
                        p.allocate_earliest(after, dur, w),
                        oracle.allocate_earliest(after, dur, w),
                        "call {} diverged", calls
                    );
                    calls += 1;
                }
                prop_assert_eq!(p.to_points(), oracle.points().to_vec());
            }
            prop_assert!(calls >= 2_000 && p.len() > 1_000, "{} calls, {} points", calls, p.len());
        }
    }
}
