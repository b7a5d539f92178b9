//! The free-capacity profile: how many processors are free at every
//! future instant.
//!
//! A profile is a piecewise-constant function of time. The planner
//! queries it with [`Profile::earliest_fit`] and narrows it with
//! [`Profile::allocate`] / [`Profile::allocate_earliest`].
//!
//! # Capacity-indexed representation
//!
//! The break points are stored in fixed-size *chunks* (a paged sorted
//! array). Three flat arrays, indexed by chunk position, summarise each
//! chunk: its first point's time (`first_time`, the binary-search key)
//! and the minimum / maximum `free` over its segments (`min_free` /
//! `max_free`). [`Profile::earliest_fit`] answers "first instant ≥ t
//! where `width` processors stay free for `duration`" with a fused
//! two-state sweep: a single forward pass that alternates between
//! *verifying* the current candidate start (scanning for a segment with
//! `free < width` inside the window — if the window closes first, the
//! candidate settles) and *seeking* the next segment with
//! `free >= width` after a blocker (the next candidate). The summary
//! arrays let either state skip a whole chunk in O(1): a verify skips
//! chunks with `min_free >= width` (and settles as soon as
//! `first_time >= end`), a seek skips chunks with `max_free < width`.
//!
//! The summaries are deliberately plain arrays rather than a search
//! tree: measured scan dynamics on planner workloads show verify/seek
//! runs of only a handful of points (the profile alternates tight and
//! free segments at exactly the widths being placed), so tree descents
//! or finger structures cannot amortise — while a forward sweep over
//! contiguous 4-byte entries lets hardware prefetch do the work, and
//! every update stays O(1) per touched chunk.
//!
//! What *does* go sublinear is the query stream, via a **dominance
//! memo** on [`Profile::allocate_earliest`] (see its doc comment):
//! earliest-fit is monotone in width and duration, and a planning pass
//! only narrows the profile, so the answer to a previous query is a
//! sound scan lower bound for any later query it dominates. Policy
//! passes sort by duration (SJF/LJF) or carry long runs of duplicate
//! estimates, so most queries start their scan where the previous one
//! answered instead of at `now` — turning the pass's quadratic rescans
//! into near-linear work at deep queues.
//!
//! The update path reuses the fit's position: [`Profile::allocate_earliest`]
//! threads the (chunk, index) of the found segment straight into a
//! single forward walk that inserts the two break points, decrements the
//! covered segments, and refreshes summaries as it goes — a fully
//! covered chunk shifts its summary by `width` without rescanning its
//! points. Chunk splits append the upper half to the arena (no
//! kilobyte-sized memmove of sibling chunks) and shift only the small
//! per-chunk array entries. `restore_from` stays a flat `memcpy` of the
//! chunk storage and summary arrays, preserving the shared-base-profile
//! watermark-restore trick of the incremental planner. A profile that
//! fits one chunk degenerates to the plain linear scan, so small
//! profiles pay (almost) nothing for the index.
//!
//! [`Profile::release`] undoes an allocation: the same walk with the
//! sign flipped, then the rectangle's two boundary points are coalesced
//! away when they no longer change the function, and a chunk emptied
//! that way hands its arena slot to a free list the next split draws
//! from. The planner uses it to take back the tail of a retained plan
//! and re-place only that (see `Planner::plan_retained_batch`).
//!
//! The linear-scan implementation this replaced is retained verbatim as
//! [`NaiveProfile`](crate::naive::NaiveProfile) — the property-test
//! oracle and the `ReferencePlanner`'s profile, so measured speedups
//! compare against the real pre-index algorithm. `earliest_fit`'s answer
//! is the unique minimal feasible start, so the two implementations
//! agree bit-for-bit even where their probe orders differ.
//!
//! Invariants (checked in debug builds and by property tests):
//! * point times are strictly increasing;
//! * `0 <= free <= capacity` everywhere;
//! * the final point's free value equals the full capacity (every
//!   reservation ends eventually);
//! * every chunk holds at least one point; `first_time[c]` equals the
//!   chunk's first point time, and `min_free[c]` / `max_free[c]` equal
//!   the min/max free over its points.

use dynp_des::{SimDuration, SimTime};

/// One break point: `free` processors are available from `time` until the
/// next point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfilePoint {
    /// Start of the segment.
    pub time: SimTime,
    /// Free processors throughout the segment.
    pub free: u32,
}

/// Points per chunk: small enough that an in-chunk scan stays within a
/// few cache lines, large enough that the summary arrays stay short.
const CHUNK_CAP: usize = 64;

/// One page of the point list, stored struct-of-arrays: the fit probes
/// scan only free values (contiguous 4-byte lanes the compiler can
/// vectorise) and touch a time only at a hit, instead of dragging
/// 16-byte (time, free) pairs through the cache on every step. The
/// chunk's capacity summary lives in the profile's flat `min_free` /
/// `max_free` arrays, keyed by chunk *position*, so whole-chunk skips
/// touch contiguous memory too.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Number of valid entries in `times` / `frees`.
    len: u32,
    /// Break-point instants, strictly increasing.
    times: [SimTime; CHUNK_CAP],
    /// Free processors from the matching instant to the next.
    frees: [u32; CHUNK_CAP],
}

impl Chunk {
    fn of(pt: ProfilePoint) -> Self {
        let mut ch = Chunk {
            len: 1,
            times: [SimTime::ZERO; CHUNK_CAP],
            frees: [0; CHUNK_CAP],
        };
        ch.times[0] = pt.time;
        ch.frees[0] = pt.free;
        ch
    }

    fn times(&self) -> &[SimTime] {
        &self.times[..self.len as usize]
    }

    fn frees(&self) -> &[u32] {
        &self.frees[..self.len as usize]
    }

    fn point(&self, i: usize) -> ProfilePoint {
        ProfilePoint {
            time: self.times[i],
            free: self.frees[i],
        }
    }
}

/// One entry of the per-width-class dominance memo (see
/// [`Profile::allocate_earliest`]): the last query answered for the
/// class, as the lower bound it proves for later, harder queries.
/// `width == 0` marks an empty slot.
#[derive(Clone, Copy, Debug)]
struct MemoSlot {
    width: u32,
    duration: SimDuration,
    /// Start of the interval the slot's scan proved free of fits: the
    /// memo only says "no fit in `[after, answer)`", so it bounds later
    /// queries constrained to start at or after `after`, not earlier
    /// ones.
    after: SimTime,
    answer: SimTime,
}

const MEMO_EMPTY: MemoSlot = MemoSlot {
    width: 0,
    duration: SimDuration::ZERO,
    after: SimTime::ZERO,
    answer: SimTime::ZERO,
};

/// Piecewise-constant free-capacity timeline, indexed by capacity (see
/// the module docs for the chunk + summary-array layout).
#[derive(Clone)]
pub struct Profile {
    capacity: u32,
    /// Total break points across all chunks.
    n_points: usize,
    /// Chunk storage; `order` gives the time order. Chunk splits append
    /// here so a split never moves kilobytes of sibling chunks.
    arena: Vec<Chunk>,
    /// Arena indices of the live chunks, in time order.
    order: Vec<u32>,
    /// Per chunk position: time of the chunk's first point — the
    /// binary-search key for `seg_pos` and the gap test of the
    /// allocation walk.
    first_time: Vec<SimTime>,
    /// Per chunk position: minimum `free` over the chunk's points.
    min_free: Vec<u32>,
    /// Per chunk position: maximum `free` over the chunk's points.
    max_free: Vec<u32>,
    /// Per width class (`ilog2(width)`): the last
    /// [`Profile::allocate_earliest`] query and its answer. Valid as a
    /// scan lower bound for any later query that dominates it, because
    /// allocation only narrows the profile (see `allocate_earliest`).
    /// Cleared whenever the profile is rebuilt, restored or widened by
    /// [`Profile::release`].
    memo: [MemoSlot; 32],
    /// False while every memo slot is empty, so back-to-back releases
    /// clear the memo once, not once per rectangle.
    memo_live: bool,
    /// Arena slots of chunks a release emptied, handed out again before
    /// the arena grows.
    free_chunks: Vec<u32>,
}

impl Profile {
    /// Creates a profile with all `capacity` processors free from
    /// `origin` onwards.
    pub fn new(capacity: u32, origin: SimTime) -> Self {
        assert!(capacity >= 1, "profile needs at least one processor");
        let mut p = Profile {
            capacity,
            n_points: 0,
            arena: Vec::new(),
            order: Vec::new(),
            first_time: Vec::new(),
            min_free: Vec::new(),
            max_free: Vec::new(),
            memo: [MEMO_EMPTY; 32],
            memo_live: false,
            free_chunks: Vec::new(),
        };
        p.init_single(capacity, origin);
        p
    }

    /// Resets to the fully-free state at `origin`, reusing the
    /// allocations — the planner rebuilds the profile at every event.
    pub fn reset(&mut self, capacity: u32, origin: SimTime) {
        assert!(capacity >= 1);
        self.init_single(capacity, origin);
    }

    fn init_single(&mut self, capacity: u32, origin: SimTime) {
        self.capacity = capacity;
        self.n_points = 1;
        self.clear_memo();
        self.arena.clear();
        self.free_chunks.clear();
        self.arena.push(Chunk::of(ProfilePoint {
            time: origin,
            free: capacity,
        }));
        self.order.clear();
        self.order.push(0);
        self.first_time.clear();
        self.first_time.push(origin);
        self.min_free.clear();
        self.min_free.push(capacity);
        self.max_free.clear();
        self.max_free.push(capacity);
    }

    /// Rebuilds the whole profile from `(start, end, width)` spans in one
    /// endpoint sweep: O((S + R) log R) for R spans producing S points,
    /// instead of the O(R·P) of repeated [`Profile::allocate`] calls.
    /// Spans starting before `origin` are clipped to it; empty and
    /// zero-width spans are ignored. `events` is caller-provided scratch
    /// so the per-event hot path allocates nothing.
    ///
    /// The resulting profile is the canonical minimal representation of
    /// the same piecewise-constant function the allocate-loop produces,
    /// so every [`Profile::earliest_fit`] answer — and therefore every
    /// schedule planned on top — is identical.
    ///
    /// # Panics
    /// Panics if the spans overcommit the machine at any instant (the
    /// same condition on which the allocate-loop panics) or if
    /// `capacity` is zero.
    pub fn rebuild_from_spans(
        &mut self,
        capacity: u32,
        origin: SimTime,
        spans: &[(SimTime, SimTime, u32)],
        events: &mut Vec<(SimTime, i64)>,
    ) {
        assert!(capacity >= 1, "profile needs at least one processor");
        self.init_single(capacity, origin);
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
            // Append (or coalesce into) the last point.
            let last_id = *self.order.last().expect("origin chunk present") as usize;
            let ch = &mut self.arena[last_id];
            let len = ch.len as usize;
            if ch.times[len - 1] == time {
                ch.frees[len - 1] = free;
            } else if len < CHUNK_CAP {
                ch.times[len] = time;
                ch.frees[len] = free;
                ch.len += 1;
                self.n_points += 1;
            } else {
                let id = self.store_chunk(Chunk::of(ProfilePoint { time, free }));
                self.order.push(id);
                self.first_time.push(time);
                self.min_free.push(0);
                self.max_free.push(0);
                self.n_points += 1;
            }
        }
        for c in 0..self.n_chunks() {
            self.refresh_summary(c);
        }
        self.assert_invariants();
    }

    /// Makes this profile a copy of `base` without reallocating (flat
    /// `memcpy`s of the chunk storage, order and summary arrays). This is
    /// the per-policy "restore to watermark" step: the planner builds the
    /// running-jobs base once per event and every policy's planning pass
    /// starts from a restored copy instead of rebuilding it.
    pub fn restore_from(&mut self, base: &Profile) {
        self.capacity = base.capacity;
        self.n_points = base.n_points;
        self.arena.clear();
        self.arena.extend_from_slice(&base.arena);
        self.order.clear();
        self.order.extend_from_slice(&base.order);
        self.first_time.clear();
        self.first_time.extend_from_slice(&base.first_time);
        self.min_free.clear();
        self.min_free.extend_from_slice(&base.min_free);
        self.max_free.clear();
        self.max_free.extend_from_slice(&base.max_free);
        self.free_chunks.clear();
        self.free_chunks.extend_from_slice(&base.free_chunks);
        // The restored state has more capacity than this profile had
        // after its last pass, so memoised bounds no longer hold.
        self.clear_memo();
    }

    /// Total processors of the machine.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of break points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// A profile always has at least its origin point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The break points in time order (for inspection, plotting and the
    /// property-test oracles). Allocates; not for hot paths.
    pub fn to_points(&self) -> Vec<ProfilePoint> {
        self.iter_points().collect()
    }

    /// Iterates the break points in time order.
    pub fn iter_points(&self) -> impl Iterator<Item = ProfilePoint> + '_ {
        self.order.iter().flat_map(move |&id| {
            let ch = &self.arena[id as usize];
            ch.times()
                .iter()
                .zip(ch.frees())
                .map(|(&time, &free)| ProfilePoint { time, free })
        })
    }

    /// Start of the profile (its first break point).
    pub fn origin(&self) -> SimTime {
        self.first_time[0]
    }

    /// Free processors at instant `t` (clamped to the origin on the
    /// left). Two binary searches: chunk first-times, then in-chunk.
    pub fn free_at(&self, t: SimTime) -> u32 {
        let (c, i) = self.seg_pos(t);
        self.chunk(c).frees[i]
    }

    fn chunk(&self, c: usize) -> &Chunk {
        &self.arena[self.order[c] as usize]
    }

    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        &mut self.arena[self.order[c] as usize]
    }

    fn n_chunks(&self) -> usize {
        self.order.len()
    }

    /// (chunk position, in-chunk index) of the segment containing `t`:
    /// the last point with `time <= t`, or `(0, 0)` for earlier instants.
    fn seg_pos(&self, t: SimTime) -> (usize, usize) {
        let c = self
            .first_time
            .partition_point(|&ft| ft <= t)
            .saturating_sub(1);
        let ch = self.chunk(c);
        let i = ch
            .times()
            .partition_point(|&time| time <= t)
            .saturating_sub(1);
        (c, i)
    }

    /// Recomputes the summary-array entry of chunk position `c` from its
    /// points (one vectorisable min/max sweep over at most `CHUNK_CAP`
    /// 4-byte entries).
    fn refresh_summary(&mut self, c: usize) {
        let ch = &self.arena[self.order[c] as usize];
        let mut lo = u32::MAX;
        let mut hi = 0;
        for &f in ch.frees() {
            lo = lo.min(f);
            hi = hi.max(f);
        }
        self.min_free[c] = lo;
        self.max_free[c] = hi;
    }

    /// Stores `chunk` in the arena — in a slot a release emptied, if
    /// there is one — and returns its arena index.
    fn store_chunk(&mut self, chunk: Chunk) -> u32 {
        match self.free_chunks.pop() {
            Some(id) => {
                self.arena[id as usize] = chunk;
                id
            }
            None => {
                self.arena.push(chunk);
                self.arena.len() as u32 - 1
            }
        }
    }

    fn clear_memo(&mut self) {
        if self.memo_live {
            self.memo = [MEMO_EMPTY; 32];
            self.memo_live = false;
        }
    }

    // ------------------------------------------------------------------
    // Queries.

    /// The earliest fit together with the (chunk, index) of the segment
    /// containing it — the position seeds the allocation walk so
    /// [`Profile::allocate_earliest`] never re-searches for its start.
    ///
    /// One forward sweep alternating the blocker and jump probes of the
    /// module docs. A clean chunk (`min_free >= width`) needs no point
    /// access at all: if any of its points reaches past the window's
    /// close, the next scanned point's time check settles the window,
    /// because times increase strictly across chunks.
    fn fit_pos(
        &self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> (usize, usize, SimTime) {
        assert!(
            width <= self.capacity,
            "job width {width} exceeds capacity {}",
            self.capacity
        );
        let candidate = after.max(self.origin());
        if width == 0 || duration.is_zero() {
            // Trivial fit at the bound; callers skip the allocation walk,
            // so the position is unused.
            return (0, 0, candidate);
        }
        let n = self.n_chunks();
        let (mut c, mut i) = self.seg_pos(candidate);
        // Segment containing the current candidate.
        let (mut sc, mut si) = (c, i);
        let mut candidate = candidate;
        let mut end = candidate.saturating_add(duration);
        // The sweep alternates two states without re-deriving chunk
        // context: *verifying* (scanning the candidate window for a
        // blocker, i.e. free < width) and *seeking* (scanning past a
        // blocker for the next segment with free >= width, the next
        // candidate). Only free values are scanned — pure 4-byte sweeps
        // the compiler can vectorise; a hit's time decides between
        // "blocker" and "window settled", which is sound because times
        // increase strictly: a point skipped on free alone that lay past
        // `end` forces every later point past `end` too, so the next
        // low-free hit's time check still settles the window.
        let mut seeking = false;
        loop {
            if c >= n {
                // Horizon. Seeking cannot run past it: the final segment
                // is fully free, so a next candidate always exists.
                debug_assert!(!seeking, "seek ran past the horizon");
                return (sc, si, candidate);
            }
            // Whole-chunk skips via the contiguous summary arrays.
            if seeking {
                if self.max_free[c] < width {
                    c += 1;
                    i = 0;
                    continue;
                }
            } else {
                if self.first_time[c] >= end {
                    return (sc, si, candidate);
                }
                if self.min_free[c] >= width {
                    c += 1;
                    i = 0;
                    continue;
                }
            }
            let ch = self.chunk(c);
            let len = ch.len as usize;
            let frees = &ch.frees[..len];
            let mut k = i;
            while k < len {
                if seeking {
                    while k < len && frees[k] < width {
                        k += 1;
                    }
                    if k >= len {
                        break;
                    }
                    candidate = ch.times[k];
                    end = candidate.saturating_add(duration);
                    sc = c;
                    si = k;
                    seeking = false;
                } else {
                    while k < len && frees[k] >= width {
                        k += 1;
                    }
                    if k >= len {
                        break;
                    }
                    if ch.times[k] >= end {
                        return (sc, si, candidate);
                    }
                    seeking = true;
                }
                k += 1;
            }
            c += 1;
            i = 0;
        }
    }

    /// The earliest instant `t >= after` at which `width` processors stay
    /// free for the whole span `[t, t + duration)`.
    ///
    /// Always succeeds because the profile returns to full capacity after
    /// its last break point. The answer is the unique minimal feasible
    /// start, so it is bit-identical to the retained linear scan's.
    ///
    /// # Panics
    /// Panics if `width` exceeds the machine capacity.
    pub fn earliest_fit(&self, after: SimTime, duration: SimDuration, width: u32) -> SimTime {
        self.fit_pos(after, duration, width).2
    }

    /// The profile as a step function on `[t, ∞)`: its value at `t`, then
    /// every later instant the value changes at. Redundant break points
    /// (allocation never coalesces) are dropped, so two profiles holding
    /// the same function yield the same steps.
    fn steps_from(&self, t: SimTime) -> impl Iterator<Item = ProfilePoint> + '_ {
        let first = ProfilePoint {
            time: t,
            free: self.free_at(t),
        };
        let mut prev = None;
        std::iter::once(first)
            .chain(self.iter_points().filter(move |p| p.time > t))
            .filter(move |p| prev.replace(p.free) != Some(p.free))
    }

    /// True when `self` and `other` have the same capacity and are the
    /// same function of time on `[t, ∞)`, whatever their break-point
    /// representations and whatever they hold before `t`.
    pub(crate) fn same_from(&self, other: &Profile, t: SimTime) -> bool {
        self.capacity == other.capacity && self.steps_from(t).eq(other.steps_from(t))
    }

    // ------------------------------------------------------------------
    // Updates.

    /// Inserts `pt` at in-chunk index `i` of chunk position `c`
    /// (`0 <= i <= len`), splitting the chunk first when full. Returns
    /// the final (chunk position, in-chunk index) of the inserted point.
    /// The target chunk's summary is left stale for the caller to
    /// refresh (split siblings are refreshed in `split_chunk`).
    fn insert_point(&mut self, mut c: usize, mut i: usize, pt: ProfilePoint) -> (usize, usize) {
        const HALF: usize = CHUNK_CAP / 2;
        if self.chunk(c).len as usize == CHUNK_CAP {
            self.split_chunk(c);
            if i > HALF {
                c += 1;
                i -= HALF;
            }
        }
        let ch = self.chunk_mut(c);
        let len = ch.len as usize;
        debug_assert!(i <= len && len < CHUNK_CAP);
        ch.times.copy_within(i..len, i + 1);
        ch.frees.copy_within(i..len, i + 1);
        ch.times[i] = pt.time;
        ch.frees[i] = pt.free;
        ch.len += 1;
        self.n_points += 1;
        if i == 0 {
            self.first_time[c] = pt.time;
        }
        (c, i)
    }

    /// Splits the full chunk at position `c` into two half chunks. The
    /// upper half is appended to the arena (no kilobyte-sized memmove of
    /// sibling chunks); only the 4-byte order and summary entries shift,
    /// and both halves' summaries are refreshed here.
    fn split_chunk(&mut self, c: usize) {
        const HALF: usize = CHUNK_CAP / 2;
        let id = self.order[c] as usize;
        let mut hi = Chunk {
            len: (CHUNK_CAP - HALF) as u32,
            times: [SimTime::ZERO; CHUNK_CAP],
            frees: [0; CHUNK_CAP],
        };
        hi.times[..CHUNK_CAP - HALF].copy_from_slice(&self.arena[id].times[HALF..]);
        hi.frees[..CHUNK_CAP - HALF].copy_from_slice(&self.arena[id].frees[HALF..]);
        let hi_first = hi.times[0];
        self.arena[id].len = HALF as u32;
        let new_id = self.store_chunk(hi);
        self.order.insert(c + 1, new_id);
        self.first_time.insert(c + 1, hi_first);
        self.min_free.insert(c + 1, 0);
        self.max_free.insert(c + 1, 0);
        self.refresh_summary(c);
        self.refresh_summary(c + 1);
    }

    /// Carves `width` processors out of `[start, end)` — or, with
    /// `RELEASE`, adds them back — given the position `(c, i)` of the
    /// segment containing `start` (from `fit_pos` or `seg_pos`). One
    /// forward walk: the bounding break points are inserted as
    /// encountered, covered segments are shifted, and chunk summaries
    /// refresh in place — a fully covered chunk shifts its summary by
    /// `width` without rescanning its points. Returns the position of
    /// the break point at `end`.
    ///
    /// # Panics
    /// Panics if any covered segment has fewer than `width` free (or,
    /// releasing, fewer than `width` reserved).
    fn shift_span<const RELEASE: bool>(
        &mut self,
        c: usize,
        i: usize,
        start: SimTime,
        end: SimTime,
        width: u32,
    ) -> (usize, usize) {
        let capacity = self.capacity;
        let seg = self.chunk(c).point(i);
        debug_assert!(seg.time <= start, "position does not contain start");
        let (mut c, mut i) = if seg.time == start {
            (c, i)
        } else {
            // Split the segment: the new point keeps the segment's free
            // value until the shift loop below reaches it.
            self.insert_point(
                c,
                i + 1,
                ProfilePoint {
                    time: start,
                    free: seg.free,
                },
            )
        };
        // The chunk the walk starts in is always rescanned: the insert
        // above may have left its summary stale, and the walk may cover
        // it only partially.
        let start_chunk = c;
        // Pre-shift free value of the last covered segment — the value
        // the profile returns to where the rectangle ends.
        let mut prev_free = 0;
        loop {
            let ch = self.chunk_mut(c);
            let len = ch.len as usize;
            let entered_at = i;
            while i < len && ch.times[i] < end {
                let f = ch.frees[i];
                prev_free = f;
                ch.frees[i] = if RELEASE {
                    assert!(
                        capacity - f >= width,
                        "over-release: segment at {:?} has {f} of {capacity} free, returning {width}",
                        ch.times[i]
                    );
                    f + width
                } else {
                    assert!(
                        f >= width,
                        "overcommit: segment at {:?} has {f} free, needs {width}",
                        ch.times[i]
                    );
                    f - width
                };
                i += 1;
            }
            if i < len {
                // A point at or past `end` stops the walk in this chunk.
                if self.chunk(c).times[i] == end {
                    self.refresh_summary(c);
                    return (c, i);
                }
                let at = self.insert_point(
                    c,
                    i,
                    ProfilePoint {
                        time: end,
                        free: prev_free,
                    },
                );
                self.refresh_summary(at.0);
                if at.0 != c {
                    self.refresh_summary(c);
                }
                return at;
            }
            // Chunk consumed to its end.
            if entered_at == 0 && c != start_chunk {
                // Fully covered and untouched by inserts: both summary
                // extremes move by exactly `width`.
                if RELEASE {
                    self.min_free[c] += width;
                    self.max_free[c] += width;
                } else {
                    self.min_free[c] -= width;
                    self.max_free[c] -= width;
                }
            } else {
                self.refresh_summary(c);
            }
            c += 1;
            if c == self.n_chunks() {
                // Ran past the horizon: close the rectangle with a new
                // final point restoring the pre-shift free value (the
                // full capacity, by the horizon invariant).
                let lc = c - 1;
                let li = self.chunk(lc).len as usize;
                let at = self.insert_point(
                    lc,
                    li,
                    ProfilePoint {
                        time: end,
                        free: prev_free,
                    },
                );
                self.refresh_summary(at.0);
                if at.0 != lc {
                    self.refresh_summary(lc);
                }
                return at;
            }
            if self.first_time[c] >= end {
                if self.first_time[c] > end {
                    // `end` falls in the gap before this chunk: the
                    // closing point becomes its new first point.
                    let at = self.insert_point(
                        c,
                        0,
                        ProfilePoint {
                            time: end,
                            free: prev_free,
                        },
                    );
                    self.refresh_summary(at.0);
                    return at;
                }
                return (c, 0);
            }
            i = 0;
        }
    }

    /// Removes the break point at `(c, i)` when it no longer changes the
    /// function (same free value as its predecessor). A chunk emptied
    /// this way leaves the order and its arena slot goes on the free
    /// list.
    fn coalesce(&mut self, c: usize, i: usize) {
        let pred = if i > 0 {
            self.chunk(c).frees[i - 1]
        } else if c > 0 {
            *self
                .chunk(c - 1)
                .frees()
                .last()
                .expect("chunks are never empty")
        } else {
            return; // the origin point has no predecessor
        };
        if pred != self.chunk(c).frees[i] {
            return;
        }
        self.n_points -= 1;
        let ch = self.chunk_mut(c);
        let len = ch.len as usize;
        if len == 1 {
            self.free_chunks.push(self.order.remove(c));
            self.first_time.remove(c);
            self.min_free.remove(c);
            self.max_free.remove(c);
            return;
        }
        ch.times.copy_within(i + 1..len, i);
        ch.frees.copy_within(i + 1..len, i);
        ch.len -= 1;
        if i == 0 {
            // The removed value may have been the chunk's only copy: its
            // twin sits in the previous chunk.
            self.first_time[c] = ch.times[0];
            self.refresh_summary(c);
        }
    }

    /// Reserves `width` processors over `[start, start + duration)`.
    /// Zero-length reservations are no-ops.
    ///
    /// # Panics
    /// Panics if any overlapped segment has fewer than `width` free
    /// processors (callers find slots with [`Profile::earliest_fit`]
    /// first) or if `start` precedes the profile origin.
    pub fn allocate(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "allocation before profile origin");
        let end = start.saturating_add(duration);
        let (c, i) = self.seg_pos(start);
        self.shift_span::<false>(c, i, start, end, width);
        self.assert_invariants();
    }

    /// Gives back a rectangle reserved by [`Profile::allocate`] or
    /// [`Profile::allocate_earliest`] with the same arguments: the exact
    /// inverse as a function of time. Break points the rectangle no
    /// longer needs are coalesced away, so releasing in any order leaves
    /// no trace of it. Widening invalidates the dominance memo, which is
    /// cleared; `remember_fit` re-seeds it.
    ///
    /// # Panics
    /// Panics if `width` processors are not reserved throughout the
    /// rectangle or if `start` precedes the profile origin.
    pub fn release(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "release before profile origin");
        assert!(width <= self.capacity, "release wider than the machine");
        self.clear_memo();
        let end = start.saturating_add(duration);
        let (mut c, mut i) = self.seg_pos(start);
        let points = self.n_points;
        let (ec, ei) = self.shift_span::<true>(c, i, start, end, width);
        let inserted = self.n_points != points;
        // `end` first: removing it leaves the earlier point in place.
        self.coalesce(ec, ei);
        if inserted {
            // The walk had to add a boundary an earlier release took
            // away, which may have moved the point at `start`.
            (c, i) = self.seg_pos(start);
        }
        self.coalesce(c, i);
        self.assert_invariants();
    }

    /// Finds the earliest fit and allocates it in one step; returns the
    /// chosen start time. Equivalent to [`Profile::earliest_fit`]
    /// followed by [`Profile::allocate`] — this is the planner's hot
    /// path (once per queued job per policy per event). The fit's
    /// position feeds the allocation walk directly, so the start is
    /// never searched for twice.
    ///
    /// Successive calls are accelerated by a per-width-class *dominance
    /// memo*. Earliest-fit is monotone two ways: a query with larger
    /// width or duration can never fit earlier than an easier one, and
    /// allocation only ever narrows the profile, so an answer computed
    /// earlier in a pass can only move later, never earlier. Therefore
    /// the answer `a` of a previous `(w, d)` query is a sound scan lower
    /// bound for any later `(w', d')` query with `w' >= w` and
    /// `d' >= d`: no fit for the harder query can exist before `a`. One
    /// slot per `ilog2(width)` class keeps the last query; a planning
    /// pass places many same-width jobs (and SJF/LJF passes walk
    /// duration monotonically), so most queries skip the packed prefix
    /// entirely and scan only near the frontier. The memo never changes
    /// any answer — only where the scan starts — and is cleared on
    /// rebuild/restore/reset, the only operations that widen capacity.
    ///
    /// A memoised answer proves only that `[slot.after, slot.answer)`
    /// holds no fit for the slot's query, so a later query may use it
    /// only when additionally constrained to start no earlier
    /// (`after >= slot.after`) — otherwise the skipped prefix could hide
    /// a legitimate earlier fit.
    pub fn allocate_earliest(
        &mut self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> SimTime {
        if duration.is_zero() || width == 0 {
            return self.fit_pos(after, duration, width).2;
        }
        let class = (31 - width.leading_zeros()) as usize;
        let mut from = after;
        let slot = self.memo[class];
        if slot.width != 0
            && width >= slot.width
            && duration >= slot.duration
            && after >= slot.after
        {
            from = from.max(slot.answer);
        }
        let (c, i, start) = self.fit_pos(from, duration, width);
        // The slot records `after`, not `from`: on a hit the old slot
        // already proved `[after, from)` fit-free for this (dominating)
        // query, and the scan just proved `[from, start)`, so the union
        // `[after, start)` is established.
        self.remember_fit(after, duration, width, start);
        let end = start.saturating_add(duration);
        self.shift_span::<false>(c, i, start, end, width);
        self.assert_invariants();
        start
    }

    /// Records in the dominance memo that `allocate_earliest(after,
    /// duration, width)` answered `answer` — what that call itself
    /// records. After [`Profile::release`] cleared the memo, replaying
    /// the placements still held, in their original order, leaves the
    /// memo exactly as a fresh pass over them would have.
    ///
    /// The caller vouches that no `width × duration` fit starts in
    /// `[after, answer)` on the profile as it is now.
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
        self.memo[(31 - width.leading_zeros()) as usize] = MemoSlot {
            width,
            duration,
            after,
            answer,
        };
        self.memo_live = true;
    }

    /// Debug-build invariant check: strictly increasing times, free in
    /// range, full capacity at the horizon, fresh summary arrays.
    fn assert_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let pts = self.to_points();
            assert_eq!(pts.len(), self.n_points, "stale point count");
            assert!(
                pts.windows(2).all(|w| w[0].time < w[1].time),
                "profile times not strictly increasing"
            );
            assert!(
                pts.iter().all(|p| p.free <= self.capacity),
                "free exceeds capacity"
            );
            assert_eq!(
                pts.last().unwrap().free,
                self.capacity,
                "profile must end at full capacity"
            );
            assert_eq!(
                self.arena.len(),
                self.n_chunks() + self.free_chunks.len(),
                "arena slot neither live nor free"
            );
            assert_eq!(self.first_time.len(), self.n_chunks());
            assert_eq!(self.min_free.len(), self.n_chunks());
            assert_eq!(self.max_free.len(), self.n_chunks());
            for c in 0..self.n_chunks() {
                let ch = self.chunk(c);
                assert!(ch.len >= 1, "empty chunk");
                assert_eq!(
                    self.first_time[c], ch.times[0],
                    "stale first-time on chunk {c}"
                );
                let lo = ch.frees().iter().copied().min().unwrap();
                let hi = ch.frees().iter().copied().max().unwrap();
                assert_eq!(
                    (self.min_free[c], self.max_free[c]),
                    (lo, hi),
                    "stale summary on chunk {c}"
                );
            }
        }
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

    /// Enough disjoint allocations to force many chunk splits, so the
    /// summary-skip probes cross chunk boundaries on every query.
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
        assert!(p.n_chunks() > 4, "expected chunk splits, got 1 chunk");
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

    /// Releases that empty whole chunks hand their arena slots back, so
    /// a profile cycled between deep and shallow never grows: the suffix
    /// replanner does exactly this at every submission.
    #[test]
    fn emptied_chunks_are_reused_across_release_allocate_cycles() {
        let capacity = 8;
        let teeth = 80u64; // 160 points at the deepest: several chunks
        let mut p = Profile::new(capacity, t(0));
        for cycle in 0..10_000u64 {
            // Vary how deep the comb is cut so emptied chunks differ.
            let n = 1 + (cycle * 37) % teeth;
            for k in 0..n {
                p.allocate(t(20 * k), d(10), 7);
            }
            assert!(n < teeth || p.n_chunks() > 2, "deepest comb fits one chunk");
            for k in (0..n).rev() {
                p.release(t(20 * k), d(10), 7);
            }
            assert_eq!(p.len(), 1, "cycle {cycle} left points behind");
            assert_eq!(p.n_chunks(), 1);
        }
        // The deepest cycle needs ~2 * teeth / (CHUNK_CAP / 2) chunks.
        assert!(
            p.arena.len() <= 2 * (2 * teeth as usize).div_ceil(CHUNK_CAP / 2),
            "arena grew to {} slots",
            p.arena.len()
        );
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

        /// The indexed profile against the retained linear-scan oracle:
        /// long random interleavings of allocate_earliest / allocate /
        /// earliest_fit / free_at / restore_from agree bit-for-bit on
        /// every answer and on the full point list. Sequences are long
        /// enough (up to 300 ops on a tight horizon) to force chunk
        /// splits, so the summary-skip paths are exercised across chunks.
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
        /// zero-duration / full-capacity extremes — indexed and naive
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

        /// rebuild_from_spans parity: sweeping the same span set into an
        /// indexed and a naive profile yields identical point lists.
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
        /// makes rectangles share boundaries; long sequences split chunks
        /// and the release empties them again.
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
    }
}
