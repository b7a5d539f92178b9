//! The oracle free-capacity profile: one sorted vector of
//! `(time, free)` points, scanned linearly, with no dominance memo, no
//! fused fit sweep and no `release`. It shares no code with the
//! production [`Profile`](crate::Profile) and exists for two jobs:
//!
//! * it is the property-test oracle [`Profile`](crate::Profile) is
//!   checked against operation by operation;
//! * it is the profile of the `ReferencePlanner`, which carries that
//!   check through the whole scheduler (reference mode ≡ incremental)
//!   and is what the benchmark's `rms.reference.*` rows measure.
//!
//! Same invariants as [`Profile`](crate::Profile): strictly increasing
//! times, `0 <= free <= capacity`, full capacity at the horizon.

use crate::profile::ProfilePoint;
use dynp_des::{SimDuration, SimTime};

/// Piecewise-constant free-capacity timeline as a sorted point vector,
/// scanned linearly.
#[derive(Clone, Debug)]
pub struct NaiveProfile {
    points: Vec<ProfilePoint>,
    capacity: u32,
}

impl NaiveProfile {
    /// Creates a profile with all `capacity` processors free from
    /// `origin` onwards.
    pub fn new(capacity: u32, origin: SimTime) -> Self {
        assert!(capacity >= 1, "profile needs at least one processor");
        NaiveProfile {
            points: vec![ProfilePoint {
                time: origin,
                free: capacity,
            }],
            capacity,
        }
    }

    /// Resets to the fully-free state at `origin`, reusing the
    /// allocation — the planner rebuilds the profile at every event.
    pub fn reset(&mut self, capacity: u32, origin: SimTime) {
        assert!(capacity >= 1);
        self.points.clear();
        self.points.push(ProfilePoint {
            time: origin,
            free: capacity,
        });
        self.capacity = capacity;
    }

    /// Rebuilds the whole profile from `(start, end, width)` spans in one
    /// endpoint sweep; see `Profile::rebuild_from_spans` for the contract
    /// (identical here).
    ///
    /// # Panics
    /// Panics if the spans overcommit the machine at any instant or if
    /// `capacity` is zero.
    #[cfg(test)]
    pub(crate) fn rebuild_from_spans(
        &mut self,
        capacity: u32,
        origin: SimTime,
        spans: &[(SimTime, SimTime, u32)],
        events: &mut Vec<(SimTime, i64)>,
    ) {
        assert!(capacity >= 1, "profile needs at least one processor");
        self.capacity = capacity;
        self.points.clear();
        self.points.push(ProfilePoint {
            time: origin,
            free: capacity,
        });
        events.clear();
        for &(start, end, width) in spans {
            if width == 0 {
                continue;
            }
            let start = start.max(origin);
            if end <= start {
                continue;
            }
            events.push((start, width as i64));
            events.push((end, -(width as i64)));
        }
        events.sort_unstable_by_key(|&(time, _)| time);
        let mut used: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let time = events[i].0;
            let mut delta = 0i64;
            while i < events.len() && events[i].0 == time {
                delta += events[i].1;
                i += 1;
            }
            if delta == 0 {
                continue;
            }
            used += delta;
            assert!(
                (0..=capacity as i64).contains(&used),
                "overcommit: {used} processors reserved at {time:?}, capacity {capacity}"
            );
            let free = capacity - used as u32;
            let last = self.points.last_mut().expect("origin point present");
            if last.time == time {
                last.free = free;
            } else {
                self.points.push(ProfilePoint { time, free });
            }
        }
        self.assert_invariants();
    }

    /// Makes this profile a copy of `base` without reallocating (one
    /// `memcpy` of the point list).
    #[cfg(test)]
    pub(crate) fn restore_from(&mut self, base: &NaiveProfile) {
        self.capacity = base.capacity;
        self.points.clear();
        self.points.extend_from_slice(&base.points);
    }

    /// Total processors of the machine.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The break points (for inspection and the equivalence tests).
    pub fn points(&self) -> &[ProfilePoint] {
        &self.points
    }

    /// Start of the profile (its first break point).
    pub fn origin(&self) -> SimTime {
        self.points[0].time
    }

    /// Free processors at instant `t` (clamped to the origin on the left).
    #[cfg(test)]
    pub(crate) fn free_at(&self, t: SimTime) -> u32 {
        self.points[self.seg_index(t)].free
    }

    /// Index of the segment containing `t` (the last point with
    /// `time <= t`, or segment 0 for earlier instants).
    fn seg_index(&self, t: SimTime) -> usize {
        self.points
            .partition_point(|p| p.time <= t)
            .saturating_sub(1)
    }

    /// Ensures a break point exists exactly at `t` (splitting the
    /// containing segment) and returns its index. `t` must not precede
    /// the origin.
    fn split_at(&mut self, t: SimTime) -> usize {
        debug_assert!(t >= self.origin(), "split before profile origin");
        let i = self.seg_index(t);
        if self.points[i].time == t {
            return i;
        }
        let free = self.points[i].free;
        self.points.insert(i + 1, ProfilePoint { time: t, free });
        i + 1
    }

    /// Reserves `width` processors over `[start, start + duration)`.
    /// Zero-length reservations are no-ops.
    ///
    /// # Panics
    /// Panics if any overlapped segment has fewer than `width` free
    /// processors or if `start` precedes the profile origin.
    pub fn allocate(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "allocation before profile origin");
        let end = start + duration;
        let s = self.split_at(start);
        let e = self.split_at(end);
        for p in &mut self.points[s..e] {
            assert!(
                p.free >= width,
                "overcommit: segment at {:?} has {} free, needs {width}",
                p.time,
                p.free
            );
            p.free -= width;
        }
        self.assert_invariants();
    }

    /// The earliest instant `t >= after` at which `width` processors stay
    /// free for the whole span `[t, t + duration)`, by linear scan.
    ///
    /// # Panics
    /// Panics if `width` exceeds the machine capacity.
    pub fn earliest_fit(&self, after: SimTime, duration: SimDuration, width: u32) -> SimTime {
        self.earliest_fit_indexed(after, duration, width).0
    }

    /// [`NaiveProfile::earliest_fit`] plus the index of the segment
    /// containing the returned instant.
    fn earliest_fit_indexed(
        &self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> (SimTime, usize) {
        assert!(
            width <= self.capacity,
            "job width {width} exceeds capacity {}",
            self.capacity
        );
        let mut candidate = after.max(self.origin());
        let mut i = self.seg_index(candidate);
        if width == 0 || duration.is_zero() {
            return (candidate, i);
        }
        'outer: loop {
            let end = candidate + duration;
            // Scan segments overlapping [candidate, end) for a blocker.
            let mut j = i;
            while j < self.points.len() && self.points[j].time < end {
                if self.points[j].free < width {
                    let seg_end = self.points.get(j + 1).map_or(SimTime::MAX, |p| p.time);
                    if seg_end > candidate {
                        // Blocked: jump past this segment to the next
                        // instant with enough capacity.
                        let mut k = j + 1;
                        while k < self.points.len() && self.points[k].free < width {
                            k += 1;
                        }
                        debug_assert!(k < self.points.len(), "profile must end at full capacity");
                        candidate = self.points[k].time;
                        i = k;
                        continue 'outer;
                    }
                }
                j += 1;
            }
            return (candidate, i);
        }
    }

    /// Finds the earliest fit and allocates it in one step; returns the
    /// chosen start time. Equivalent to [`NaiveProfile::earliest_fit`]
    /// followed by [`NaiveProfile::allocate`], but reuses the fit's
    /// segment index and inserts both new break points with a single tail
    /// shift instead of two `Vec::insert`s.
    pub(crate) fn allocate_earliest(
        &mut self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> SimTime {
        let (start, s_seg) = self.earliest_fit_indexed(after, duration, width);
        if duration.is_zero() || width == 0 {
            return start;
        }
        debug_assert!(self.points[s_seg].time <= start);
        let end = start + duration;

        // First segment index whose point time is >= end, scanning
        // forward from the fit segment (the span rarely covers many).
        let mut e_seg = s_seg;
        while e_seg < self.points.len() && self.points[e_seg].time < end {
            e_seg += 1;
        }
        // Break points to materialize: one at `start` (unless a point
        // sits there already), one at `end` (ditto). Their free values
        // are those of the segments they split.
        let need_s = self.points[s_seg].time != start;
        let need_e = e_seg >= self.points.len() || self.points[e_seg].time != end;
        let free_at_end = self.points[e_seg - 1].free;
        let grow = usize::from(need_s) + usize::from(need_e);
        let old_len = self.points.len();
        if grow > 0 {
            self.points.resize(
                old_len + grow,
                ProfilePoint {
                    time: SimTime::MAX,
                    free: self.capacity,
                },
            );
            // One shift of the tail [e_seg..] by the full growth, then —
            // when both points are new — one shift of the covered middle
            // (s_seg+1..e_seg) by one.
            self.points.copy_within(e_seg..old_len, e_seg + grow);
            if need_e {
                self.points[e_seg + usize::from(need_s)] = ProfilePoint {
                    time: end,
                    free: free_at_end,
                };
            }
            if need_s {
                self.points.copy_within(s_seg + 1..e_seg, s_seg + 2);
                self.points[s_seg + 1] = ProfilePoint {
                    time: start,
                    free: self.points[s_seg].free,
                };
            }
        }
        // Narrow every segment covering [start, end).
        let first = s_seg + usize::from(need_s);
        let last = e_seg + usize::from(need_s);
        for p in &mut self.points[first..last] {
            assert!(
                p.free >= width,
                "overcommit: segment at {:?} has {} free, needs {width}",
                p.time,
                p.free
            );
            p.free -= width;
        }
        self.assert_invariants();
        start
    }

    /// Debug-build invariant check: strictly increasing times, free in
    /// range, full capacity at the horizon.
    fn assert_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.points.windows(2).all(|w| w[0].time < w[1].time),
                "profile times not strictly increasing"
            );
            assert!(
                self.points.iter().all(|p| p.free <= self.capacity),
                "free exceeds capacity"
            );
            assert_eq!(
                self.points.last().unwrap().free,
                self.capacity,
                "profile must end at full capacity"
            );
        }
    }
}
