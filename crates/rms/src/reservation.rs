//! Advance reservations — fixed-time resource blocks the planner must
//! plan around.
//!
//! Planning-based RMSs (the paper's CCS among them) support reserving
//! processors for a fixed future interval: maintenance windows,
//! interactive sessions at a guaranteed hour, co-allocation with other
//! sites. A reservation is not a job — it never enters a queue and never
//! moves; the planner simply treats its interval as unavailable capacity.
//!
//! This module extends the substrate beyond the paper's minimum: the
//! [`ReservationBook`] tracks active reservations, and
//! [`crate::Planner::plan_with_reservations`] builds full schedules
//! around them (jobs still backfill *before* a reservation when they fit).

use dynp_des::{ByteReader, ByteWriter, CodecError, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A fixed block of processors over a fixed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reservation {
    /// Identifier (unique within a book).
    pub id: u32,
    /// First reserved instant.
    pub start: SimTime,
    /// Length of the reserved window.
    pub duration: SimDuration,
    /// Reserved processors.
    pub width: u32,
}

impl Reservation {
    /// One past the last reserved instant.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// True when the reservation still overlaps `[now, ∞)`.
    pub(crate) fn active_at(&self, now: SimTime) -> bool {
        self.end() > now
    }

    /// Appends the window's exact fields to a checkpoint buffer.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.u32(self.id);
        w.u64(self.start.as_millis());
        w.u64(self.duration.as_millis());
        w.u32(self.width);
    }

    /// Decodes a window written by [`Reservation::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Reservation {
            id: r.u32()?,
            start: SimTime::from_millis(r.u64()?),
            duration: SimDuration::from_millis(r.u64()?),
            width: r.u32()?,
        })
    }
}

/// What schedule repair did to one admitted window after a capacity loss
/// (see `RmsState::repair_reservations`). Carried into the reservation
/// statistics and the trace so guarantee erosion is attributable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairAction {
    /// The window no longer fit at its promised width and was shrunk to
    /// the widest width that still fits (best effort).
    Downgraded {
        /// Book id of the window.
        id: u32,
        /// Promised width before the repair.
        from_width: u32,
        /// Width the window was shrunk to.
        to_width: u32,
    },
    /// The window fit at no width and was cancelled by the system.
    Revoked {
        /// Book id of the window.
        id: u32,
    },
}

/// A collection of advance reservations with id-based bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReservationBook {
    reservations: Vec<Reservation>,
    next_id: u32,
}

impl ReservationBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a reservation and returns its id.
    ///
    /// # Panics
    /// Panics on zero width or duration (an empty reservation is a bug,
    /// not a request).
    pub fn add(&mut self, start: SimTime, duration: SimDuration, width: u32) -> u32 {
        assert!(width > 0, "reservation needs processors");
        assert!(!duration.is_zero(), "reservation needs a duration");
        let id = self.next_id;
        self.next_id += 1;
        self.reservations.push(Reservation {
            id,
            start,
            duration,
            width,
        });
        id
    }

    /// Cancels a reservation; returns whether it existed.
    pub(crate) fn cancel(&mut self, id: u32) -> bool {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.id != id);
        before != self.reservations.len()
    }

    /// Shrinks an admitted window to `new_width` *in place* — the id and
    /// interval are preserved (unlike cancel + re-add, which would assign
    /// a fresh id). Returns whether the window existed.
    ///
    /// # Panics
    /// Panics on zero width or on widening (repair only ever shrinks).
    pub(crate) fn downgrade(&mut self, id: u32, new_width: u32) -> bool {
        assert!(new_width > 0, "reservation needs processors");
        match self.reservations.iter_mut().find(|r| r.id == id) {
            Some(r) => {
                assert!(new_width < r.width, "downgrade must shrink the window");
                r.width = new_width;
                true
            }
            None => false,
        }
    }

    /// Drops reservations that ended at or before `now`; returns how many
    /// were removed.
    pub(crate) fn expire(&mut self, now: SimTime) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.active_at(now));
        before - self.reservations.len()
    }

    /// Reservations still active at `now`.
    pub(crate) fn active(&self, now: SimTime) -> impl Iterator<Item = &Reservation> {
        self.reservations.iter().filter(move |r| r.active_at(now))
    }

    /// All reservations in the book.
    pub fn all(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Appends the book's exact state — windows *and* the id counter — to
    /// a checkpoint buffer. The counter is not derivable from the live
    /// windows (cancelled ids are never reused), so it must be persisted
    /// for a restored book to keep assigning the ids the uninterrupted
    /// run would have.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.u32(self.next_id);
        w.list(&self.reservations, Reservation::encode_into);
    }

    /// Decodes a book written by [`ReservationBook::encode_into`].
    pub(crate) fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ReservationBook {
            next_id: r.u32()?,
            reservations: r.list(Reservation::decode_from)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn add_cancel_expire_life_cycle() {
        let mut book = ReservationBook::new();
        let a = book.add(t(100), d(50), 4);
        let b = book.add(t(300), d(50), 8);
        assert_eq!(book.all().len(), 2);
        assert!(book.cancel(a));
        assert!(!book.cancel(a));
        assert_eq!(book.all().len(), 1);
        // b ends at 350; expiring at 350 removes it.
        assert_eq!(book.expire(t(350)), 1);
        assert!(book.all().is_empty());
        let _ = b;
    }

    #[test]
    fn active_filters_by_end_time() {
        let mut book = ReservationBook::new();
        book.add(t(0), d(100), 2);
        book.add(t(500), d(100), 2);
        assert_eq!(book.active(t(50)).count(), 2);
        assert_eq!(book.active(t(100)).count(), 1); // first ended exactly
        assert_eq!(book.active(t(700)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "needs processors")]
    fn zero_width_is_rejected() {
        ReservationBook::new().add(t(0), d(10), 0);
    }

    #[test]
    fn downgrade_shrinks_in_place_and_keeps_the_id() {
        let mut book = ReservationBook::new();
        let a = book.add(t(100), d(50), 8);
        let b = book.add(t(300), d(50), 4);
        assert!(book.downgrade(a, 3));
        assert!(!book.downgrade(99, 1));
        let w = book.all().iter().find(|r| r.id == a).unwrap();
        assert_eq!(w.width, 3);
        assert_eq!(w.start, t(100));
        // The other window and the id counter are untouched.
        assert_eq!(book.all().iter().find(|r| r.id == b).unwrap().width, 4);
        assert_eq!(book.add(t(500), d(10), 1), 2);
    }

    #[test]
    #[should_panic(expected = "must shrink")]
    fn downgrade_cannot_widen() {
        let mut book = ReservationBook::new();
        let a = book.add(t(100), d(50), 2);
        book.downgrade(a, 5);
    }
}
