//! Pending-event-set implementations.
//!
//! The event queue is the hot data structure of any discrete-event
//! simulator. Two backends are provided behind the [`EventQueue`] trait:
//!
//! * [`BinaryHeapQueue`] — `std::collections::BinaryHeap` of
//!   `(time, sequence, event)` triples. O(log n) push/pop, excellent
//!   constants, the default.
//! * [`CalendarQueue`] — R. Brown's calendar queue (CACM 1988): an array of
//!   day-buckets over a year of simulated time, giving amortized O(1)
//!   push/pop when event times are roughly uniform, with automatic resize
//!   when the population doubles/halves.
//!
//! Both deliver same-time events in strict insertion (FIFO) order; a
//! property test asserts the two backends produce identical sequences.

use crate::time::SimTime;

/// First sequence number handed to ordinary [`EventQueue::push`] calls.
/// Ranks below this are reserved for [`EventQueue::push_seeded`]: an
/// exogenous event stream (job arrivals, reservation requests, outages)
/// can be injected in chunks — e.g. one federation epoch at a time — and
/// still tie-break against handler-scheduled events exactly as if the
/// whole stream had been seeded up front.
pub const SEEDED_SEQ_LIMIT: u64 = 1 << 32;

/// A priority queue of timestamped events, delivering events in
/// nondecreasing time order and FIFO order among equal times.
pub trait EventQueue<E> {
    /// Inserts `event` to fire at `time`.
    fn push(&mut self, time: SimTime, event: E);
    /// Inserts `event` to fire at `time` with an explicit tie-break rank
    /// below every [`EventQueue::push`]-assigned one. Ranks must be
    /// unique per (time, rank) pair — the caller owns that invariant.
    ///
    /// # Panics
    /// Panics if `rank >= SEEDED_SEQ_LIMIT`.
    fn push_seeded(&mut self, time: SimTime, rank: u64, event: E);
    /// Removes and returns the earliest event, if any.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The timestamp of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Binary heap backend
// ---------------------------------------------------------------------------

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // surfaces first. seq breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Binary-heap pending event set with stable FIFO tie-breaking.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: SEEDED_SEQ_LIMIT,
        }
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: SEEDED_SEQ_LIMIT,
        }
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// The sequence number the next [`EventQueue::push`] would receive.
    /// Part of the queue's observable state: it decides FIFO ranks of
    /// *future* pushes, so snapshots must carry it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// All pending entries as `(time, seq, event)`, sorted by
    /// `(time, seq)` — a canonical, order-independent view of the queue
    /// suitable for hashing and snapshotting.
    pub fn entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut out: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.seq, e.event.clone()))
            .collect();
        out.sort_by_key(|(t, s, _)| (*t, *s));
        out
    }

    /// Rebuilds a queue from a canonical entry list plus the dynamic
    /// sequence counter — the inverse of [`BinaryHeapQueue::entries`].
    /// Entries keep their exact sequence numbers, so tie-breaking after
    /// a restore is bit-identical to the snapshotted run.
    pub(crate) fn from_entries(
        entries: impl IntoIterator<Item = (SimTime, u64, E)>,
        next_seq: u64,
    ) -> Self {
        let heap = entries
            .into_iter()
            .map(|(time, seq, event)| HeapEntry { time, seq, event })
            .collect();
        BinaryHeapQueue { heap, next_seq }
    }

    /// The entries tied at the earliest pending instant, as
    /// `(seq, &event)` in FIFO (sequence) order. Index `n` of this list
    /// is the event [`BinaryHeapQueue::pop_nth_tied`]`(n)` would deliver.
    pub(crate) fn tied_head(&self) -> Vec<(u64, &E)> {
        let Some(t0) = self.peek_time() else {
            return Vec::new();
        };
        let mut tied: Vec<(u64, &E)> = self
            .heap
            .iter()
            .filter(|e| e.time == t0)
            .map(|e| (e.seq, &e.event))
            .collect();
        tied.sort_by_key(|(s, _)| *s);
        tied
    }

    /// Removes and returns the `n`-th (by FIFO rank) of the events tied
    /// at the earliest pending instant; the other tied events keep their
    /// original sequence numbers. `pop_nth_tied(0)` is exactly
    /// [`EventQueue::pop`]. Returns `None` when empty or when `n` is out
    /// of range — the queue is left untouched in that case.
    ///
    /// This is the model checker's branching primitive: exploring every
    /// `n` at a tied instant enumerates every delivery interleaving the
    /// FIFO rule forbids the plain simulator from seeing.
    pub(crate) fn pop_nth_tied(&mut self, n: usize) -> Option<(SimTime, E)> {
        let t0 = self.peek_time()?;
        let mut tied: Vec<HeapEntry<E>> = Vec::new();
        while self.heap.peek().is_some_and(|e| e.time == t0) {
            tied.push(self.heap.pop().expect("peek said non-empty"));
        }
        if n >= tied.len() {
            // Out of range: put everything back unchanged.
            for e in tied {
                self.heap.push(e);
            }
            return None;
        }
        // Heap pops drain ties in seq order, so index n is the n-th rank.
        let chosen = tied.swap_remove(n);
        for e in tied {
            self.heap.push(e);
        }
        Some((chosen.time, chosen.event))
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    fn push_seeded(&mut self, time: SimTime, rank: u64, event: E) {
        assert!(
            rank < SEEDED_SEQ_LIMIT,
            "seeded rank {rank} collides with the dynamic sequence space"
        );
        self.heap.push(HeapEntry {
            time,
            seq: rank,
            event,
        });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Calendar queue backend
// ---------------------------------------------------------------------------

struct CalEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// Calendar-queue pending event set (Brown 1988).
///
/// Events are hashed into buckets by `(time / bucket_width) % n_buckets`.
/// Dequeue scans from the bucket containing the current "year position"
/// forward, taking the earliest event whose time falls within the current
/// year; when the population grows past 2× or shrinks below ½× the bucket
/// count, the calendar is rebuilt with a new width estimated from a sample
/// of inter-event gaps.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<CalEntry<E>>>,
    /// Width of one bucket ("day length") in milliseconds.
    bucket_width: u64,
    /// Index of the bucket the last dequeue position falls in.
    last_bucket: usize,
    /// Start time (ms) of `last_bucket`'s current day.
    bucket_top: u64,
    /// Timestamp of the last popped event; dequeues never go backward.
    last_time: u64,
    len: usize,
    next_seq: u64,
    resize_enabled: bool,
}

const CAL_MIN_BUCKETS: usize = 4;

impl<E> CalendarQueue<E> {
    /// Creates an empty calendar queue with default geometry.
    pub fn new() -> Self {
        Self::with_geometry(CAL_MIN_BUCKETS, 1_000)
    }

    /// Creates a calendar with `n_buckets` buckets of `bucket_width_ms`
    /// milliseconds each. Geometry adapts automatically afterwards.
    pub(crate) fn with_geometry(n_buckets: usize, bucket_width_ms: u64) -> Self {
        let n = n_buckets.max(CAL_MIN_BUCKETS).next_power_of_two();
        CalendarQueue {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            bucket_width: bucket_width_ms.max(1),
            last_bucket: 0,
            bucket_top: bucket_width_ms.max(1),
            last_time: 0,
            len: 0,
            next_seq: SEEDED_SEQ_LIMIT,
            resize_enabled: true,
        }
    }

    fn bucket_index(&self, time_ms: u64) -> usize {
        ((time_ms / self.bucket_width) as usize) & (self.buckets.len() - 1)
    }

    fn insert_entry(&mut self, entry: CalEntry<E>) {
        let idx = self.bucket_index(entry.time.as_millis());
        let bucket = &mut self.buckets[idx];
        // Keep each bucket sorted by (time, seq) so dequeues take the head.
        let pos = bucket
            .binary_search_by(|probe| (probe.time, probe.seq).cmp(&(entry.time, entry.seq)))
            .unwrap_or_else(|p| p);
        bucket.insert(pos, entry);
        self.len += 1;
    }

    /// Estimates a new bucket width from the spread of pending events and
    /// rebuilds the calendar with `new_size` buckets.
    fn resize(&mut self, new_size: usize) {
        let new_size = new_size.max(CAL_MIN_BUCKETS).next_power_of_two();
        let mut entries: Vec<CalEntry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        entries.sort_by_key(|a| (a.time, a.seq));

        // Average gap between consecutive distinct event times, over a
        // sample from the front of the queue (Brown's heuristic).
        let sample = entries.len().min(64);
        let mut gaps = 0u64;
        let mut n_gaps = 0u64;
        for w in entries[..sample].windows(2) {
            let g = w[1].time.as_millis() - w[0].time.as_millis();
            if g > 0 {
                gaps += g;
                n_gaps += 1;
            }
        }
        let avg_gap = gaps.checked_div(n_gaps).unwrap_or(0);
        self.bucket_width = (avg_gap * 3).max(1);

        self.buckets = (0..new_size).map(|_| Vec::new()).collect();
        self.len = 0;
        // Reposition the dequeue cursor at the last popped time.
        self.last_bucket = self.bucket_index(self.last_time);
        self.bucket_top = (self.last_time / self.bucket_width + 1) * self.bucket_width;
        for e in entries {
            self.insert_entry(e);
        }
    }

    fn maybe_grow(&mut self) {
        if self.resize_enabled && self.len > 2 * self.buckets.len() {
            let target = self.buckets.len() * 2;
            self.resize_enabled = false;
            self.resize(target);
            self.resize_enabled = true;
        }
    }

    fn maybe_shrink(&mut self) {
        if self.resize_enabled
            && self.buckets.len() > CAL_MIN_BUCKETS
            && self.len < self.buckets.len() / 2
        {
            let target = self.buckets.len() / 2;
            self.resize_enabled = false;
            self.resize(target);
            self.resize_enabled = true;
        }
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for CalendarQueue<E> {
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert_entry(CalEntry { time, seq, event });
        self.maybe_grow();
    }

    fn push_seeded(&mut self, time: SimTime, rank: u64, event: E) {
        assert!(
            rank < SEEDED_SEQ_LIMIT,
            "seeded rank {rank} collides with the dynamic sequence space"
        );
        self.insert_entry(CalEntry {
            time,
            seq: rank,
            event,
        });
        self.maybe_grow();
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        loop {
            // Scan one "year": starting at the cursor bucket, take the
            // first event that belongs to the current day of each bucket.
            let mut i = self.last_bucket;
            let mut top = self.bucket_top;
            for _ in 0..n {
                if let Some(head) = self.buckets[i].first() {
                    if head.time.as_millis() < top {
                        let entry = self.buckets[i].remove(0);
                        self.len -= 1;
                        self.last_bucket = i;
                        self.bucket_top = top;
                        self.last_time = entry.time.as_millis();
                        self.maybe_shrink();
                        return Some((entry.time, entry.event));
                    }
                }
                i = (i + 1) & (n - 1);
                top += self.bucket_width;
            }
            // Nothing due this year: jump directly to the globally
            // earliest event (standard calendar-queue fallback).
            let mut best: Option<(u64, u64, usize)> = None;
            for (bi, b) in self.buckets.iter().enumerate() {
                if let Some(head) = b.first() {
                    let key = (head.time.as_millis(), head.seq, bi);
                    if best.is_none_or(|b0| (key.0, key.1) < (b0.0, b0.1)) {
                        best = Some(key);
                    }
                }
            }
            let (t, _, bi) = best.expect("len > 0 but no event found");
            self.last_bucket = bi;
            self.bucket_top = (t / self.bucket_width + 1) * self.bucket_width;
            let _ = self.last_bucket; // cursor repositioned; loop re-scans
                                      // Re-run the scan; it will now find the event in bucket `bi`.
            continue;
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.buckets
            .iter()
            .filter_map(|b| b.first().map(|e| (e.time, e.seq)))
            .min()
            .map(|(t, _)| t)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop() {
            out.push((t.as_millis(), e));
        }
        out
    }

    #[test]
    fn binary_heap_orders_by_time() {
        let mut q = BinaryHeapQueue::new();
        q.push(SimTime::from_millis(30), 3u32);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn binary_heap_is_fifo_on_ties() {
        let mut q = BinaryHeapQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_millis(7), i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_queue_orders_by_time() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(5_000), 2u32);
        q.push(SimTime::from_millis(100), 1);
        q.push(SimTime::from_millis(1_000_000), 3);
        assert_eq!(drain(&mut q), vec![(100, 1), (5_000, 2), (1_000_000, 3)]);
    }

    #[test]
    fn calendar_queue_is_fifo_on_ties() {
        let mut q = CalendarQueue::new();
        for i in 0..50u32 {
            q.push(SimTime::from_millis(42), i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_ranks_win_equal_time_ties() {
        // A seeded event injected *after* dynamic pushes still drains
        // first at its instant — exactly as if it had been seeded before
        // the simulation started.
        let mut heap = BinaryHeapQueue::new();
        let mut cal = CalendarQueue::new();
        for q in [&mut heap as &mut dyn EventQueue<u32>, &mut cal] {
            q.push(SimTime::from_millis(5), 10u32);
            q.push(SimTime::from_millis(5), 11);
            q.push_seeded(SimTime::from_millis(5), 1, 1);
            q.push_seeded(SimTime::from_millis(5), 0, 0);
            let mut order = Vec::new();
            while let Some((_, e)) = q.pop() {
                order.push(e);
            }
            assert_eq!(order, vec![0, 1, 10, 11]);
        }
    }

    #[test]
    #[should_panic(expected = "collides with the dynamic sequence space")]
    fn seeded_rank_must_stay_below_limit() {
        let mut q: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        q.push_seeded(SimTime::ZERO, SEEDED_SEQ_LIMIT, 0);
    }

    #[test]
    fn calendar_queue_survives_resize_cycles() {
        let mut q = CalendarQueue::with_geometry(4, 10);
        for i in 0..500u32 {
            q.push(SimTime::from_millis((i as u64 * 37) % 10_000), i);
        }
        assert_eq!(q.len(), 500);
        let out = drain(&mut q);
        assert_eq!(out.len(), 500);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn interleaved_push_pop_never_goes_backward() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(10), 0u32);
        q.push(SimTime::from_millis(20), 1);
        let (t0, _) = q.pop().unwrap();
        q.push(SimTime::from_millis(15), 2);
        let (t1, e1) = q.pop().unwrap();
        assert!(t1 >= t0);
        assert_eq!(e1, 2);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_millis(9), 1u32);
        q.push(SimTime::from_millis(3), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(3));
    }

    #[test]
    fn empty_queues_return_none() {
        let mut b: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        let mut c: CalendarQueue<u32> = CalendarQueue::new();
        assert!(b.pop().is_none());
        assert!(c.pop().is_none());
        assert!(b.is_empty() && c.is_empty());
        assert_eq!(b.peek_time(), None);
        assert_eq!(c.peek_time(), None);
    }

    proptest! {
        /// The calendar queue must produce the exact same event sequence as
        /// the binary heap (including FIFO among equal times) for any mix
        /// of pushes and pops.
        #[test]
        fn backends_are_equivalent(ops in proptest::collection::vec(
            prop_oneof![
                (0u64..100_000).prop_map(Some), // push at time t
                Just(None),                     // pop
            ],
            1..200,
        )) {
            let mut heap = BinaryHeapQueue::new();
            let mut cal = CalendarQueue::with_geometry(4, 50);
            // Dequeues must be monotone: track the floor for pushes so the
            // op sequence itself stays causal (a real simulator never
            // schedules in the past).
            let mut floor = 0u64;
            let mut id = 0u32;
            for op in ops {
                match op {
                    Some(t) => {
                        let t = floor + t;
                        heap.push(SimTime::from_millis(t), id);
                        cal.push(SimTime::from_millis(t), id);
                        id += 1;
                    }
                    None => {
                        let a = heap.pop();
                        let b = cal.pop();
                        prop_assert_eq!(a.map(|(t, e)| (t.as_millis(), e)),
                                        b.map(|(t, e)| (t.as_millis(), e)));
                        if let Some((t, _)) = a {
                            floor = t.as_millis();
                        }
                    }
                }
                prop_assert_eq!(heap.len(), cal.len());
            }
            // Drain both and compare the tails.
            loop {
                let a = heap.pop();
                let b = cal.pop();
                prop_assert_eq!(a.map(|(t, e)| (t.as_millis(), e)),
                                b.map(|(t, e)| (t.as_millis(), e)));
                if a.is_none() { break; }
            }
        }
    }
}
