//! The exogenous feed: job arrivals, reservation requests and the fault
//! trace enter the event heap from three cursors, one instant at a time.
//!
//! The three inputs of a run are known before it starts and are sorted
//! by time, so they need no priority queue of their own. [`ExoFeed`]
//! keeps one cursor per stream and, whenever the earliest unfed instant
//! is due no later than the heap's head, pushes *every* stream event of
//! that instant through [`Engine::schedule_seeded`]. The heap therefore
//! holds only what the run itself scheduled (finishes, kills, resubmits,
//! window boundaries, a repair per down node) plus the few stream events
//! of the next instant.
//!
//! ## Why the dispatch order is the preloaded order
//!
//! Each stream event keeps the tie-break rank it would have had if all
//! streams had been pushed up front in seeding order — arrivals, then
//! requests, then two ranks per outage (`NodeDown`, `NodeUp`) — and
//! seeded ranks sort below every dynamically assigned sequence number.
//! The invariant **"fed up to the head"** (every stream event due at or
//! before the heap's head is in the heap) holds after construction, after
//! every dispatched event and after a restore, so the heap's head is
//! always the run's true next event and all events of the earliest
//! instant are present before any of them is popped. A `NodeUp` is pushed
//! together with its `NodeDown`: `up_at` is the one key the trace is not
//! sorted by, and it is always later than `down_at`.
//!
//! What is fed is a function of the run's state alone (everything due up
//! to the next event's instant, nothing later), never of the path that
//! led there, so two interleavings that reach the same state also reach
//! the same heap/cursor split — the model checker's visited set sees the
//! states it saw when everything was preloaded.
//!
//! A stream that is *not* sorted (a hand-built [`dynp_workload::FaultPlan`]
//! or request list) is walked through a
//! stable-sorted index instead; ranks stay the seeding indices, so ties
//! break exactly as the heap used to break them.

use crate::shard::Event;
use dynp_des::{CodecError, Engine, SimTime, SEEDED_SEQ_LIMIT};
use dynp_workload::{Job, NodeOutage, ReservationRequest};

/// The exogenous inputs of one cluster, borrowed for one call. The feed
/// does not own them: the single-cluster driver borrows its inputs, a
/// federation shard owns them next to its feed.
#[derive(Clone, Copy)]
pub(crate) struct Streams<'a> {
    /// Job arrivals in [`dynp_workload::JobSet::jobs`] order; empty for a
    /// federation shard, whose arrivals the router injects.
    pub(crate) arrivals: &'a [Job],
    /// Reservation requests.
    pub(crate) requests: &'a [ReservationRequest],
    /// Node outages.
    pub(crate) outages: &'a [NodeOutage],
}

/// How much of each exogenous stream is still behind its cursor, counted
/// from the stream's end — so "everything is in the heap" is all zeros
/// whatever the stream lengths, which is what a version-1 snapshot
/// (written when every event was preloaded) decodes to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FeedCursors {
    /// Job arrivals not yet fed.
    pub arrivals: u32,
    /// Reservation requests not yet fed.
    pub requests: u32,
    /// Outages not yet fed (each is a `NodeDown`/`NodeUp` pair).
    pub outages: u32,
}

/// A heap entry: `(time, seeded rank, event)`.
type Entry = (SimTime, u64, Event);

fn arrival_entry(s: Streams<'_>, i: usize) -> Entry {
    let job = &s.arrivals[i];
    (job.submit, i as u64, Event::Arrive(job.id))
}

fn request_entry(s: Streams<'_>, rank_base: u64, i: usize) -> Entry {
    let rank = rank_base + i as u64;
    (s.requests[i].submit, rank, Event::ResRequest(i as u32))
}

fn outage_entries(s: Streams<'_>, rank_base: u64, i: usize) -> [Entry; 2] {
    let o = &s.outages[i];
    let rank = rank_base + 2 * i as u64;
    [
        (o.down_at, rank, Event::NodeDown(o.node)),
        (o.up_at, rank + 1, Event::NodeUp(o.node)),
    ]
}

/// One stream's cursor: a position in the stream's time order.
struct Walk {
    pos: usize,
    len: usize,
    /// Stream indices stable-sorted by time; `None` when the stream
    /// already is (the generated case), and the position is the index.
    order: Option<Vec<u32>>,
}

impl Walk {
    fn new<T>(items: &[T], time: impl Fn(&T) -> SimTime) -> Walk {
        let sorted = items.windows(2).all(|w| time(&w[0]) <= time(&w[1]));
        let order = (!sorted).then(|| {
            let mut order: Vec<u32> = (0..items.len() as u32).collect();
            order.sort_by_key(|&i| time(&items[i as usize]));
            order
        });
        Walk {
            pos: 0,
            len: items.len(),
            order,
        }
    }

    fn index_at(&self, pos: usize) -> usize {
        self.order.as_ref().map_or(pos, |o| o[pos] as usize)
    }

    /// Stream index under the cursor, `None` once the stream is drained.
    fn head(&self) -> Option<usize> {
        (self.pos < self.len).then(|| self.index_at(self.pos))
    }

    /// Stream indices from the cursor on, in time order.
    fn rest(&self) -> impl Iterator<Item = usize> + '_ {
        (self.pos..self.len).map(|p| self.index_at(p))
    }

    fn left(&self) -> u32 {
        (self.len - self.pos) as u32
    }

    /// Pushes the events of every item due at `due` and moves past them;
    /// `entries` maps a stream index to the item's heap entries, the
    /// first of which carries the time the stream is sorted by.
    fn feed_instant<const N: usize>(
        &mut self,
        eng: &mut Engine<Event>,
        due: SimTime,
        entries: impl Fn(usize) -> [Entry; N],
    ) {
        while let Some(i) = self.head() {
            let entries = entries(i);
            if entries[0].0 != due {
                break;
            }
            for (t, rank, event) in entries {
                eng.schedule_seeded(t, rank, event);
            }
            self.pos += 1;
        }
    }

    /// The position that leaves `left` events unfed.
    fn pos_leaving(&self, left: u32, what: &'static str) -> Result<usize, CodecError> {
        self.len
            .checked_sub(left as usize)
            .ok_or(CodecError::Invalid { what })
    }
}

/// The three cursors and the rank bases: the one place exogenous events
/// are seeded from, for the single-cluster driver and for a federation
/// shard alike.
pub(crate) struct ExoFeed {
    arrivals: Walk,
    requests: Walk,
    outages: Walk,
    request_rank_base: u64,
    outage_rank_base: u64,
    /// Earliest instant under any cursor, cached so a step that feeds
    /// nothing pays one comparison; `None` once all three are drained.
    next_due: Option<SimTime>,
}

impl ExoFeed {
    /// Builds the cursors over `s`. Arrival `i` takes rank `i`, request
    /// `i` rank `request_rank_base + i`, outage `i` the two ranks from
    /// `outage_rank_base + 2i` — the positions up-front seeding in
    /// stream order would assign (a federation passes its global bases).
    /// Nothing is fed yet: call [`ExoFeed::feed`] on the fresh engine.
    ///
    /// # Panics
    /// Panics if the ranks would leave the seeded sequence space.
    pub(crate) fn new(s: Streams<'_>, request_rank_base: u64, outage_rank_base: u64) -> ExoFeed {
        assert!(
            (s.arrivals.len() as u64) < SEEDED_SEQ_LIMIT
                && request_rank_base + (s.requests.len() as u64) < SEEDED_SEQ_LIMIT
                && outage_rank_base + 2 * (s.outages.len() as u64) < SEEDED_SEQ_LIMIT,
            "exogenous event count exceeds the seeded rank space"
        );
        let mut feed = ExoFeed {
            arrivals: Walk::new(s.arrivals, |j| j.submit),
            requests: Walk::new(s.requests, |r| r.submit),
            outages: Walk::new(s.outages, |o| o.down_at),
            request_rank_base,
            outage_rank_base,
            next_due: None,
        };
        feed.next_due = feed.earliest(s);
        feed
    }

    fn earliest(&self, s: Streams<'_>) -> Option<SimTime> {
        let arrival = self.arrivals.head().map(|i| s.arrivals[i].submit);
        let request = self.requests.head().map(|i| s.requests[i].submit);
        let outage = self.outages.head().map(|i| s.outages[i].down_at);
        [arrival, request, outage].into_iter().flatten().min()
    }

    /// Restores "fed up to the head": if the earliest unfed instant is
    /// due no later than the heap's head (or the heap is empty), pushes
    /// every stream event of that instant. One instant is enough — the
    /// head then *is* that instant, and the next one is later. Call
    /// after construction and after every dispatched event.
    #[inline]
    pub(crate) fn feed(&mut self, eng: &mut Engine<Event>, s: Streams<'_>) {
        let Some(due) = self.next_due else { return };
        if eng.peek_time().is_some_and(|head| head < due) {
            return;
        }
        self.arrivals
            .feed_instant(eng, due, |i| [arrival_entry(s, i)]);
        self.requests
            .feed_instant(eng, due, |i| [request_entry(s, self.request_rank_base, i)]);
        self.outages
            .feed_instant(eng, due, |i| outage_entries(s, self.outage_rank_base, i));
        self.next_due = self.earliest(s);
    }

    /// The events still behind the cursors, as the `(time, rank, event)`
    /// entries the heap will hold once they are fed (unordered).
    pub(crate) fn unfed(&self, s: Streams<'_>) -> Vec<Entry> {
        let arrivals = self.arrivals.rest().map(|i| arrival_entry(s, i));
        let requests = self
            .requests
            .rest()
            .map(|i| request_entry(s, self.request_rank_base, i));
        let outages = self
            .outages
            .rest()
            .flat_map(|i| outage_entries(s, self.outage_rank_base, i));
        arrivals.chain(requests).chain(outages).collect()
    }

    /// The cursor positions as a snapshot value.
    pub(crate) fn cursors(&self) -> FeedCursors {
        FeedCursors {
            arrivals: self.arrivals.left(),
            requests: self.requests.left(),
            outages: self.outages.left(),
        }
    }

    /// Moves the cursors to a snapshot's positions; `s` must be the
    /// streams the feed was built over. Nothing changes on an error.
    ///
    /// # Errors
    /// A cursor that claims more unfed events than its stream holds —
    /// a snapshot of some other run, or a tampered one.
    pub(crate) fn restore(&mut self, c: FeedCursors, s: Streams<'_>) -> Result<(), CodecError> {
        let arrivals = self.arrivals.pos_leaving(c.arrivals, "arrival cursor")?;
        let requests = self.requests.pos_leaving(c.requests, "request cursor")?;
        let outages = self.outages.pos_leaving(c.outages, "outage cursor")?;
        self.arrivals.pos = arrivals;
        self.requests.pos = requests;
        self.outages.pos = outages;
        self.next_due = self.earliest(s);
        Ok(())
    }
}
