//! The RMS job life-cycle state machine: waiting → running → completed.
//!
//! [`RmsState`] owns the job pools and the processor accounting; it is
//! deliberately policy-free — *which* waiting job starts next is the
//! scheduler's decision (see [`crate::scheduler`]), the state machine
//! only enforces physics: processors are finite, a job runs exactly its
//! actual run time, transitions are checked.
//!
//! Processors are tracked as individual *nodes* (one processor = one
//! node): each node is either up or down, and either idle or assigned to
//! one running job. Fault injection drives the node axis — a down node
//! is withheld from every plan ([`RmsState::plan_capacity`]), its
//! occupant is evicted ([`RmsState::fail`]) and either resubmitted
//! ([`RmsState::resubmit`]) or, once its retry budget is spent, moved to
//! the typed [`LostJob`] terminal pool. On a fault-free run no node ever
//! goes down and the accounting below reduces exactly to the historical
//! free-counter arithmetic.

use crate::planner::RUNNING_PAD;
use crate::reservation::{RepairAction, Reservation, ReservationBook};
use dynp_des::{ByteReader, ByteWriter, CodecError, SimDuration, SimTime};
use dynp_workload::{Job, JobId};

/// A job currently executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunningJob {
    /// The job.
    pub job: Job,
    /// When it started.
    pub start: SimTime,
}

impl RunningJob {
    /// When the planner must assume the job ends (start + estimate);
    /// planning systems reserve the estimate and kill jobs that exceed it.
    pub fn estimated_end(&self) -> SimTime {
        self.start + self.job.estimate
    }

    /// When the job actually ends (start + actual run time) — the
    /// completion event time.
    pub fn actual_end(&self) -> SimTime {
        self.start + self.job.actual
    }
}

/// A finished job with its realized times — the record metrics are
/// computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompletedJob {
    /// The job.
    pub job: Job,
    /// Realized start time.
    pub start: SimTime,
    /// Realized completion time (start + actual run time).
    pub end: SimTime,
}

impl CompletedJob {
    /// Wait time: start − submit.
    pub fn wait_secs(&self) -> f64 {
        (self.start - self.job.submit).as_secs_f64()
    }

    /// Response time: end − submit.
    pub fn response_secs(&self) -> f64 {
        (self.end - self.job.submit).as_secs_f64()
    }
}

/// A job that exhausted its retry budget — the typed terminal state of
/// the fault model. Lost jobs leave the system without completing; job
/// conservation becomes `completed + lost == submitted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LostJob {
    /// The job.
    pub job: Job,
    /// When the final failed attempt was given up.
    pub at: SimTime,
    /// Execution attempts spent (initial attempt + retries).
    pub attempts: u32,
}

/// One change to the waiting queue, in occurrence order. The log of these
/// lets incremental schedulers replay exact queue deltas instead of
/// re-scanning (or re-sorting) the whole queue every event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueChange {
    /// The job entered the waiting queue (submission).
    Entered(Job),
    /// The job left the waiting queue (it started).
    Left(Job),
}

/// The waiting-queue changes not yet cleared, plus how many were cleared
/// before them.
///
/// The driver clears the log after every replan ([`RmsState::clear_queue_log`]),
/// so it holds one event's changes, not the run's history. Entries are
/// numbered from the state's construction (or decoding): the first one
/// held is number [`QueueLog::dropped`]. The count is the reader's
/// bookkeeping, not machine state — equality, hashing and the codec
/// cover the entries only, so two states that differ only in how much
/// history they have shed are the same state.
#[derive(Clone, Debug, Default, Eq)]
pub struct QueueLog {
    changes: Vec<QueueChange>,
    dropped: usize,
}

impl QueueLog {
    /// The changes held, in occurrence order.
    pub fn changes(&self) -> &[QueueChange] {
        &self.changes
    }

    /// How many changes were cleared before the first one held.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// The number one past the last change held.
    pub fn end(&self) -> usize {
        self.dropped + self.changes.len()
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.list(&self.changes, |q, w| {
            let (tag, j) = match q {
                QueueChange::Entered(j) => (0, j),
                QueueChange::Left(j) => (1, j),
            };
            w.u8(tag);
            j.encode_into(w);
        });
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let changes = r.list(|r| match r.u8()? {
            0 => Ok(QueueChange::Entered(Job::decode_from(r)?)),
            1 => Ok(QueueChange::Left(Job::decode_from(r)?)),
            _ => Err(CodecError::Invalid {
                what: "queue-change tag",
            }),
        })?;
        Ok(QueueLog {
            changes,
            dropped: 0,
        })
    }
}

impl PartialEq for QueueLog {
    fn eq(&self, other: &Self) -> bool {
        self.changes == other.changes
    }
}

impl std::hash::Hash for QueueLog {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.changes.hash(state);
    }
}

/// The resource-management state: job pools plus processor accounting.
///
/// The whole struct is a *value*: `Clone + Hash + Eq`, with no interior
/// handles — snapshotting a driver is a plain clone, and the model
/// checker hashes it directly into state fingerprints.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RmsState {
    machine_size: u32,
    /// Unoccupied *up* nodes — down nodes are never free.
    free: u32,
    waiting: Vec<Job>,
    running: Vec<RunningJob>,
    completed: Vec<CompletedJob>,
    lost: Vec<LostJob>,
    submitted: usize,
    queue_log: QueueLog,
    reservations: ReservationBook,
    /// Per-node occupancy: which running job holds each node.
    nodes: Vec<Option<JobId>>,
    /// Per-node availability.
    down: Vec<bool>,
    down_count: u32,
}

impl RmsState {
    /// Creates an idle machine of `machine_size` processors.
    pub fn new(machine_size: u32) -> Self {
        assert!(machine_size >= 1);
        RmsState {
            machine_size,
            free: machine_size,
            waiting: Vec::new(),
            running: Vec::new(),
            completed: Vec::new(),
            lost: Vec::new(),
            submitted: 0,
            queue_log: QueueLog::default(),
            reservations: ReservationBook::new(),
            nodes: vec![None; machine_size as usize],
            down: vec![false; machine_size as usize],
            down_count: 0,
        }
    }

    /// Machine size in processors.
    pub fn machine_size(&self) -> u32 {
        self.machine_size
    }

    /// Currently idle *up* processors.
    pub fn free_processors(&self) -> u32 {
        self.free
    }

    /// Processors the planner may use: the up nodes. Equal to
    /// [`RmsState::machine_size`] whenever no node is down, so fault-free
    /// plans are built against the full machine exactly as before.
    pub fn plan_capacity(&self) -> u32 {
        self.machine_size - self.down_count
    }

    /// True when no waiting job fits the up machine: every one is wider
    /// than [`RmsState::plan_capacity`], or none waits. Every planner
    /// leaves such jobs out of its plan, so a scheduler may answer the
    /// empty schedule without building a profile. With no node down only
    /// an empty queue qualifies ([`RmsState::submit`] bounds widths by
    /// the machine), and the scan stops at the first job.
    pub fn nothing_fits(&self) -> bool {
        let capacity = self.plan_capacity();
        self.waiting.iter().all(|job| job.width > capacity)
    }

    /// Number of currently down nodes.
    pub fn down_nodes(&self) -> u32 {
        self.down_count
    }

    /// Whether a node is currently down.
    pub fn is_node_down(&self, node: u32) -> bool {
        self.down[node as usize]
    }

    /// The running job occupying a node, if any.
    pub fn node_occupant(&self, node: u32) -> Option<JobId> {
        self.nodes[node as usize]
    }

    /// The nodes currently assigned to a running job, in index order.
    #[cfg(test)]
    pub(crate) fn nodes_of(&self, id: JobId) -> Vec<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(n, slot)| (*slot == Some(id)).then_some(n as u32))
            .collect()
    }

    /// Jobs that exhausted their retry budget, in loss order.
    pub fn lost(&self) -> &[LostJob] {
        &self.lost
    }

    /// The waiting queue (unordered — policies order copies of it).
    pub fn waiting(&self) -> &[Job] {
        &self.waiting
    }

    /// Currently executing jobs.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Finished jobs in completion order.
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Number of jobs ever submitted.
    #[cfg(test)]
    pub(crate) fn submitted(&self) -> usize {
        self.submitted
    }

    /// True when no job is waiting or running.
    pub fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.running.is_empty()
    }

    /// The waiting-queue changes since the last
    /// [`RmsState::clear_queue_log`]. An incremental consumer remembers
    /// how far it has read, as a change number, and replays only what
    /// follows; one that has fallen behind [`QueueLog::dropped`] rebuilds
    /// from [`RmsState::waiting`] instead.
    pub fn queue_log(&self) -> &QueueLog {
        &self.queue_log
    }

    /// Drops the logged queue changes, keeping their count. The driver
    /// calls this once the scheduler has read them, so the log holds one
    /// event's changes, not the run's history.
    pub fn clear_queue_log(&mut self) {
        self.queue_log.dropped += self.queue_log.changes.len();
        self.queue_log.changes.clear();
    }

    /// The advance-reservation book the schedulers plan around.
    pub fn reservations(&self) -> &ReservationBook {
        &self.reservations
    }

    /// The admitted reservation windows as a slice, in admission order —
    /// the exact argument [`crate::Planner::prepare`] and
    /// [`crate::Planner::plan_with_reservations`] take. Empty when no
    /// reservation was ever admitted, so reservation-free runs hand the
    /// planner the same empty slice they always did.
    pub fn reservation_slice(&self) -> &[Reservation] {
        self.reservations.all()
    }

    /// Admits a reservation window into the book and returns its id.
    ///
    /// The state machine performs no feasibility analysis here — that is
    /// the admission controller's job
    /// ([`crate::admission::AdmissionController`]); this method only
    /// enforces physics, like [`RmsState::submit`] does for jobs.
    ///
    /// # Panics
    /// Panics if the window is wider than the machine, or has zero width
    /// or duration.
    pub fn admit_reservation(&mut self, start: SimTime, duration: SimDuration, width: u32) -> u32 {
        assert!(width <= self.machine_size, "reservation wider than machine");
        self.reservations.add(start, duration, width)
    }

    /// Cancels an admitted reservation; returns whether it existed.
    pub fn cancel_reservation(&mut self, id: u32) -> bool {
        self.reservations.cancel(id)
    }

    /// Drops reservations whose windows ended at or before `now`, keeping
    /// `active()` scans and base-profile builds O(live windows) on long
    /// runs. Returns how many were removed.
    pub fn expire_reservations(&mut self, now: SimTime) -> usize {
        self.reservations.expire(now)
    }

    /// Adds a job to the waiting queue.
    ///
    /// # Panics
    /// Panics if the job is wider than the machine (workload and machine
    /// must match).
    pub fn submit(&mut self, job: Job) {
        assert!(
            job.width <= self.machine_size,
            "job {} wider than machine",
            job.id
        );
        self.submitted += 1;
        self.waiting.push(job);
        self.queue_log.changes.push(QueueChange::Entered(job));
    }

    /// Removes a waiting job from the queue without running it — the
    /// federation migration path: the job leaves this cluster's queue and
    /// is resubmitted elsewhere. Returns the withdrawn job.
    ///
    /// # Panics
    /// Panics if the job is not waiting — the router must only migrate
    /// jobs it observed in the queue.
    pub fn withdraw(&mut self, id: JobId) -> Job {
        let idx = self
            .waiting
            .iter()
            .position(|j| j.id == id)
            .unwrap_or_else(|| panic!("job {id} is not waiting"));
        let job = self.waiting.swap_remove(idx);
        self.queue_log.changes.push(QueueChange::Left(job));
        job
    }

    /// Starts a waiting job at `now`, consuming processors. Returns the
    /// running record (whose [`RunningJob::actual_end`] is the completion
    /// event time the caller must schedule).
    ///
    /// # Panics
    /// Panics if the job is not waiting, starts before its submission, or
    /// exceeds the free processors — all indicate a scheduler bug.
    pub fn start(&mut self, id: JobId, now: SimTime) -> RunningJob {
        let idx = self
            .waiting
            .iter()
            .position(|j| j.id == id)
            .unwrap_or_else(|| panic!("job {id} is not waiting"));
        let job = self.waiting.swap_remove(idx);
        assert!(now >= job.submit, "job {id} started before submission");
        assert!(
            job.width <= self.free,
            "job {id} needs {} processors but only {} are free",
            job.width,
            self.free
        );
        self.free -= job.width;
        // Assign the lowest-numbered idle up nodes; a down node is never
        // handed out (the chaos invariant the fault tests pin).
        let mut needed = job.width;
        for (n, slot) in self.nodes.iter_mut().enumerate() {
            if needed == 0 {
                break;
            }
            if slot.is_none() && !self.down[n] {
                *slot = Some(id);
                needed -= 1;
            }
        }
        assert_eq!(needed, 0, "free-processor accounting out of sync");
        self.queue_log.changes.push(QueueChange::Left(job));
        let run = RunningJob { job, start: now };
        self.running.push(run);
        run
    }

    /// Completes a running job at `now`, releasing its processors.
    ///
    /// # Panics
    /// Panics if the job is not running or `now` is not its actual end
    /// time — completions fire exactly when scheduled.
    pub fn complete(&mut self, id: JobId, now: SimTime) -> CompletedJob {
        let idx = self
            .running
            .iter()
            .position(|r| r.job.id == id)
            .unwrap_or_else(|| panic!("job {id} is not running"));
        let run = self.running.swap_remove(idx);
        assert_eq!(
            now,
            run.actual_end(),
            "job {id} completed at the wrong time"
        );
        self.free += run.job.width;
        debug_assert!(self.free <= self.machine_size);
        let released = self.release_nodes(id);
        debug_assert_eq!(released, run.job.width, "node occupancy out of sync");
        let done = CompletedJob {
            job: run.job,
            start: run.start,
            end: now,
        };
        self.completed.push(done);
        done
    }

    /// Clears every node slot held by `id`; returns how many *up* nodes
    /// were released (down nodes stay unavailable).
    fn release_nodes(&mut self, id: JobId) -> u32 {
        let mut released = 0;
        for (n, slot) in self.nodes.iter_mut().enumerate() {
            if *slot == Some(id) {
                *slot = None;
                if !self.down[n] {
                    released += 1;
                }
            }
        }
        released
    }

    /// Takes a node out of service. Returns the occupant, if any — the
    /// caller must immediately [`RmsState::fail`] it (a job cannot keep
    /// running on a lost node).
    ///
    /// # Panics
    /// Panics if the node is already down, or if taking it would leave no
    /// usable capacity (the planner requires at least one processor; the
    /// fault generator never emits such a trace).
    pub fn node_down(&mut self, node: u32) -> Option<JobId> {
        let n = node as usize;
        assert!(!self.down[n], "node {node} is already down");
        assert!(
            self.down_count + 1 < self.machine_size,
            "cannot take the last usable node down"
        );
        self.down[n] = true;
        self.down_count += 1;
        if self.nodes[n].is_none() {
            self.free -= 1;
        }
        self.nodes[n]
    }

    /// Returns a repaired node to service.
    ///
    /// # Panics
    /// Panics if the node is not down.
    pub fn node_up(&mut self, node: u32) {
        let n = node as usize;
        assert!(self.down[n], "node {node} is not down");
        debug_assert!(
            self.nodes[n].is_none(),
            "down node {node} still has an occupant"
        );
        self.down[n] = false;
        self.down_count -= 1;
        if self.nodes[n].is_none() {
            self.free += 1;
        }
    }

    /// Evicts a running job after a failure (node loss, crash, walltime
    /// kill), releasing its surviving nodes. Unlike
    /// [`RmsState::complete`] this may happen at any instant before the
    /// job's actual end. Returns the interrupted run record; the caller
    /// decides between [`RmsState::resubmit`] and [`RmsState::mark_lost`].
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub fn fail(&mut self, id: JobId, now: SimTime) -> RunningJob {
        let idx = self
            .running
            .iter()
            .position(|r| r.job.id == id)
            .unwrap_or_else(|| panic!("job {id} is not running"));
        let run = self.running.swap_remove(idx);
        // A walltime kill fires at start + estimate, which is at or after
        // the actual end (the overrunning attempt never completes on its
        // own) — hence the bound is the estimated end, not the actual one.
        debug_assert!(
            now <= run.estimated_end(),
            "failure after the walltime limit"
        );
        self.free += self.release_nodes(id);
        debug_assert!(self.free <= self.machine_size);
        run
    }

    /// Requeues a previously failed job for another attempt. The job
    /// keeps its original submission time, so waiting metrics measure
    /// from the first submission. Does *not* count as a new submission —
    /// conservation counts jobs, not attempts.
    pub fn resubmit(&mut self, job: Job) {
        assert!(
            job.width <= self.machine_size,
            "job {} wider than machine",
            job.id
        );
        self.waiting.push(job);
        self.queue_log.changes.push(QueueChange::Entered(job));
    }

    /// Moves a job whose retry budget is exhausted into the terminal
    /// lost pool.
    pub fn mark_lost(&mut self, job: Job, now: SimTime, attempts: u32) {
        self.lost.push(LostJob {
            job,
            at: now,
            attempts,
        });
    }

    /// Repairs the reservation book after a capacity loss: every booked
    /// window is re-validated against the degraded machine, the running
    /// jobs (padded exactly as [`crate::Planner::prepare`] pads them)
    /// and the windows kept before it, in admission order. A window that
    /// no longer fits at its promised width is *downgraded* to the widest
    /// width that still fits (best effort); a window that does not fit at
    /// any width is *revoked*. Returns the actions taken, in book order —
    /// empty whenever everything still fits, and never called on a
    /// fault-free run.
    pub fn repair_reservations(&mut self, now: SimTime) -> Vec<RepairAction> {
        let actions = self.plan_reservation_repair(now);
        for a in &actions {
            match *a {
                RepairAction::Downgraded { id, to_width, .. } => {
                    self.reservations.downgrade(id, to_width);
                }
                RepairAction::Revoked { id } => {
                    self.reservations.cancel(id);
                }
            }
        }
        actions
    }

    /// The read-only half of [`RmsState::repair_reservations`]: computes
    /// the repair actions the current book would need, without applying
    /// them. An empty plan means every booked window still fits the
    /// (possibly degraded) machine at its promised width — the guarantee-
    /// preservation invariant the model checker asserts at every state.
    ///
    /// Each window keeps `min(width, capacity − peak)`, where `peak` is
    /// the most the running jobs and the earlier kept windows hold at once
    /// inside it (0 left means revoked). Running jobs all hold from `now`
    /// and only end, so inside `[clip, end)` that usage rises only where
    /// an earlier window begins: its peak is at `clip` or at one of those
    /// starts. No profile is built and nothing is allocated unless an
    /// action is taken.
    pub fn plan_reservation_repair(&self, now: SimTime) -> Vec<RepairAction> {
        let pad_end = now + RUNNING_PAD;
        // What the planner plans around: the part of a window from
        // `pad_end` on. One clipped to nothing (ended, or ending inside
        // the pad) is ignored by the planner and so by repair.
        let clip_of = |r: &Reservation| r.start.max(pad_end);
        let capacity = self.plan_capacity();
        let book = self.reservations.all();
        let mut actions = Vec::new();
        for (i, r) in book.iter().enumerate() {
            let (clip, end) = (clip_of(r), r.end());
            if end <= clip {
                continue;
            }
            let earlier = &book[..i];
            let held = |t: SimTime| -> u32 {
                let jobs: u32 = self
                    .running
                    .iter()
                    .filter(|run| run.estimated_end().max(pad_end) > t)
                    .map(|run| run.job.width)
                    .sum();
                let windows: u32 = earlier
                    .iter()
                    .filter(|k| clip_of(k) <= t && t < k.end())
                    .map(|k| kept_width(k, &actions))
                    .sum();
                jobs + windows
            };
            let peak = earlier
                .iter()
                .map(clip_of)
                .filter(|&s| clip < s && s < end)
                .fold(held(clip), |peak, s| peak.max(held(s)));
            match r.width.min(capacity.saturating_sub(peak)) {
                0 => actions.push(RepairAction::Revoked { id: r.id }),
                w if w != r.width => actions.push(RepairAction::Downgraded {
                    id: r.id,
                    from_width: r.width,
                    to_width: w,
                }),
                _ => {}
            }
        }
        actions
    }

    /// Consumes the state and returns the completed jobs.
    pub fn into_completed(self) -> Vec<CompletedJob> {
        self.completed
    }

    /// Appends the complete machine state — every pool, the uncleared
    /// queue changes, the reservation book, and the per-node occupancy/availability maps
    /// — to a checkpoint buffer. Restoring with
    /// [`RmsState::decode_from`] yields a state that compares equal
    /// (`PartialEq`) and hashes identically to the original.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.u32(self.machine_size);
        w.u32(self.free);
        w.list(&self.waiting, Job::encode_into);
        w.list(&self.running, |r, w| {
            r.job.encode_into(w);
            w.u64(r.start.as_millis());
        });
        w.list(&self.completed, |c, w| {
            c.job.encode_into(w);
            w.u64(c.start.as_millis());
            w.u64(c.end.as_millis());
        });
        w.list(&self.lost, |l, w| {
            l.job.encode_into(w);
            w.u64(l.at.as_millis());
            w.u32(l.attempts);
        });
        w.usize(self.submitted);
        self.queue_log.encode_into(w);
        self.reservations.encode_into(w);
        w.list(&self.nodes, |slot, w| {
            w.u32(slot.map_or(u32::MAX, |id| id.0))
        });
        // One flag per node, counted by the node list.
        for &d in &self.down {
            w.bool(d);
        }
        w.u32(self.down_count);
    }

    /// Decodes a state written by [`RmsState::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let machine_size = r.u32()?;
        let free = r.u32()?;
        let waiting = r.list(Job::decode_from)?;
        let running = r.list(|r| {
            Ok(RunningJob {
                job: Job::decode_from(r)?,
                start: SimTime::from_millis(r.u64()?),
            })
        })?;
        let completed = r.list(|r| {
            Ok(CompletedJob {
                job: Job::decode_from(r)?,
                start: SimTime::from_millis(r.u64()?),
                end: SimTime::from_millis(r.u64()?),
            })
        })?;
        let lost = r.list(|r| {
            Ok(LostJob {
                job: Job::decode_from(r)?,
                at: SimTime::from_millis(r.u64()?),
                attempts: r.u32()?,
            })
        })?;
        let submitted = r.usize()?;
        let queue_log = QueueLog::decode_from(r)?;
        let reservations = ReservationBook::decode_from(r)?;
        let nodes = r.list(|r| {
            Ok(match r.u32()? {
                u32::MAX => None,
                id => Some(JobId(id)),
            })
        })?;
        let down = nodes.iter().map(|_| r.bool()).collect::<Result<_, _>>()?;
        let state = RmsState {
            machine_size,
            free,
            waiting,
            running,
            completed,
            lost,
            submitted,
            queue_log,
            reservations,
            nodes,
            down,
            down_count: r.u32()?,
        };
        // The node table's length is the one count the bytes fix; the
        // rest of the accounting is `dynp_sim::check_state`'s.
        if machine_size == 0 || state.nodes.len() != machine_size as usize {
            return Err(CodecError::Invalid {
                what: "machine size",
            });
        }
        Ok(state)
    }
}

/// The width an earlier window keeps under the repair `actions` planned
/// so far: its own, the downgraded one, or 0 once revoked.
fn kept_width(r: &Reservation, actions: &[RepairAction]) -> u32 {
    actions
        .iter()
        .find_map(|a| match *a {
            RepairAction::Downgraded { id, to_width, .. } if id == r.id => Some(to_width),
            RepairAction::Revoked { id } if id == r.id => Some(0),
            _ => None,
        })
        .unwrap_or(r.width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use dynp_workload::JobId;

    fn j(id: u32, submit_s: u64, width: u32, est_s: u64, act_s: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_s),
            width,
            SimDuration::from_secs(est_s),
            SimDuration::from_secs(act_s),
        )
    }

    #[test]
    fn life_cycle_accounting() {
        let mut s = RmsState::new(8);
        assert!(s.is_idle());
        s.submit(j(0, 0, 3, 100, 60));
        s.submit(j(1, 0, 5, 100, 100));
        assert_eq!(s.waiting().len(), 2);
        assert_eq!(s.free_processors(), 8);

        let r0 = s.start(JobId(0), SimTime::from_secs(0));
        assert_eq!(s.free_processors(), 5);
        assert_eq!(r0.actual_end(), SimTime::from_secs(60));
        assert_eq!(r0.estimated_end(), SimTime::from_secs(100));

        s.start(JobId(1), SimTime::from_secs(0));
        assert_eq!(s.free_processors(), 0);
        assert!(!s.is_idle());

        let done = s.complete(JobId(0), SimTime::from_secs(60));
        assert_eq!(s.free_processors(), 3);
        assert_eq!(done.wait_secs(), 0.0);
        assert_eq!(done.response_secs(), 60.0);

        s.complete(JobId(1), SimTime::from_secs(100));
        assert!(s.is_idle());
        assert_eq!(s.completed().len(), 2);
        assert_eq!(s.submitted(), 2);
    }

    #[test]
    fn wait_and_response_times() {
        let mut s = RmsState::new(4);
        s.submit(j(0, 10, 2, 50, 30));
        s.start(JobId(0), SimTime::from_secs(25));
        let done = s.complete(JobId(0), SimTime::from_secs(55));
        assert_eq!(done.wait_secs(), 15.0);
        assert_eq!(done.response_secs(), 45.0);
    }

    #[test]
    #[should_panic(expected = "is not waiting")]
    fn start_requires_waiting_job() {
        let mut s = RmsState::new(4);
        s.start(JobId(7), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn start_requires_free_processors() {
        let mut s = RmsState::new(4);
        s.submit(j(0, 0, 3, 10, 10));
        s.submit(j(1, 0, 3, 10, 10));
        s.start(JobId(0), SimTime::ZERO);
        s.start(JobId(1), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "before submission")]
    fn start_cannot_precede_submission() {
        let mut s = RmsState::new(4);
        s.submit(j(0, 100, 1, 10, 10));
        s.start(JobId(0), SimTime::from_secs(50));
    }

    #[test]
    #[should_panic(expected = "wrong time")]
    fn complete_must_match_actual_end() {
        let mut s = RmsState::new(4);
        s.submit(j(0, 0, 1, 10, 10));
        s.start(JobId(0), SimTime::ZERO);
        s.complete(JobId(0), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "wider")]
    fn submit_rejects_oversized_job() {
        let mut s = RmsState::new(4);
        s.submit(j(0, 0, 5, 10, 10));
    }

    #[test]
    fn reservation_book_life_cycle_through_state() {
        let mut s = RmsState::new(8);
        assert!(s.reservation_slice().is_empty());
        let a = s.admit_reservation(SimTime::from_secs(100), SimDuration::from_secs(50), 4);
        let b = s.admit_reservation(SimTime::from_secs(300), SimDuration::from_secs(50), 8);
        assert_eq!(s.reservation_slice().len(), 2);
        assert!(s.cancel_reservation(a));
        assert!(!s.cancel_reservation(a));
        assert_eq!(s.reservation_slice().len(), 1);
        assert_eq!(s.reservation_slice()[0].id, b);
        assert_eq!(s.expire_reservations(SimTime::from_secs(350)), 1);
        assert!(s.reservations().all().is_empty());
    }

    #[test]
    #[should_panic(expected = "wider than machine")]
    fn admit_rejects_oversized_reservation() {
        let mut s = RmsState::new(4);
        s.admit_reservation(SimTime::ZERO, SimDuration::from_secs(10), 5);
    }

    #[test]
    fn node_loss_shrinks_capacity_and_evicts_the_occupant() {
        let mut s = RmsState::new(4);
        s.submit(j(0, 0, 2, 100, 60));
        s.start(JobId(0), SimTime::ZERO);
        assert_eq!(s.nodes_of(JobId(0)), vec![0, 1]);
        assert_eq!(s.free_processors(), 2);
        assert_eq!(s.plan_capacity(), 4);

        // An idle node goes down: free and capacity both shrink.
        let evicted = s.node_down(3);
        assert_eq!(evicted, None);
        assert_eq!(s.free_processors(), 1);
        assert_eq!(s.plan_capacity(), 3);
        assert!(s.is_node_down(3));

        // An occupied node goes down: the occupant is reported and must
        // be failed; its surviving node (1) is released.
        let evicted = s.node_down(0);
        assert_eq!(evicted, Some(JobId(0)));
        let run = s.fail(JobId(0), SimTime::from_secs(30));
        assert_eq!(run.job.id, JobId(0));
        assert_eq!(run.start, SimTime::ZERO);
        assert_eq!(s.free_processors(), 2); // nodes 1 and 2
        assert_eq!(s.plan_capacity(), 2);
        assert!(s.nodes_of(JobId(0)).is_empty());

        // Repairs restore both counters.
        s.node_up(0);
        s.node_up(3);
        assert_eq!(s.free_processors(), 4);
        assert_eq!(s.plan_capacity(), 4);

        // The failed job retries and completes normally.
        s.resubmit(run.job);
        assert_eq!(s.submitted(), 1, "resubmission is not a new job");
        s.start(JobId(0), SimTime::from_secs(40));
        s.complete(JobId(0), SimTime::from_secs(100));
        assert_eq!(s.completed().len(), 1);
        assert!(s.is_idle());
    }

    #[test]
    fn start_skips_down_nodes() {
        let mut s = RmsState::new(4);
        s.node_down(0);
        s.node_down(2);
        s.submit(j(0, 0, 2, 10, 10));
        s.start(JobId(0), SimTime::ZERO);
        assert_eq!(s.nodes_of(JobId(0)), vec![1, 3]);
        assert_eq!(s.free_processors(), 0);
    }

    #[test]
    fn lost_jobs_leave_the_system() {
        let mut s = RmsState::new(2);
        s.submit(j(0, 0, 1, 10, 10));
        s.start(JobId(0), SimTime::ZERO);
        let run = s.fail(JobId(0), SimTime::from_secs(5));
        s.mark_lost(run.job, SimTime::from_secs(5), 4);
        assert!(s.is_idle());
        assert_eq!(s.lost().len(), 1);
        assert_eq!(s.lost()[0].attempts, 4);
        assert_eq!(s.completed().len(), 0);
        assert_eq!(s.submitted(), 1);
        assert_eq!(s.free_processors(), 2);
    }

    #[test]
    #[should_panic(expected = "last usable node")]
    fn the_last_node_cannot_go_down() {
        let mut s = RmsState::new(2);
        s.node_down(0);
        s.node_down(1);
    }

    #[test]
    fn repair_leaves_fitting_windows_alone() {
        let mut s = RmsState::new(8);
        s.admit_reservation(SimTime::from_secs(100), SimDuration::from_secs(50), 4);
        s.node_down(7);
        let actions = s.repair_reservations(SimTime::from_secs(10));
        assert!(actions.is_empty());
        assert_eq!(s.reservation_slice()[0].width, 4);
    }

    #[test]
    fn repair_of_a_book_with_nothing_to_judge_is_empty() {
        // A degraded machine with a running job, so a judged window
        // would have something to fit beside.
        let mut s = RmsState::new(4);
        s.submit(j(0, 0, 3, 100, 100));
        s.start(JobId(0), SimTime::ZERO);
        s.node_down(3);
        // Empty book.
        assert!(s.plan_reservation_repair(SimTime::from_secs(10)).is_empty());
        // Expired-only book: one window ended at t=50 and was never
        // pruned, another ends inside the running pad and is clipped to
        // nothing. Neither fits beside the job, were it judged.
        s.admit_reservation(SimTime::from_secs(20), SimDuration::from_secs(30), 4);
        let now = SimTime::from_secs(60);
        s.admit_reservation(now, RUNNING_PAD, 4);
        assert_eq!(s.plan_reservation_repair(now), vec![]);
        assert_eq!(s.reservation_slice().len(), 2);
        // While they are live they are judged.
        assert_eq!(
            s.plan_reservation_repair(SimTime::from_secs(10)),
            vec![
                RepairAction::Revoked { id: 0 },
                RepairAction::Revoked { id: 1 }
            ]
        );
    }

    #[test]
    fn repair_downgrades_then_revokes() {
        let mut s = RmsState::new(4);
        let a = s.admit_reservation(SimTime::from_secs(100), SimDuration::from_secs(50), 4);
        let b = s.admit_reservation(SimTime::from_secs(120), SimDuration::from_secs(50), 3);
        s.node_down(0);
        s.node_down(1);
        s.node_down(2);
        // Capacity 1: window a (admitted first) is downgraded to width 1;
        // window b overlaps it and fits at no width — revoked.
        let actions = s.repair_reservations(SimTime::from_secs(10));
        assert_eq!(
            actions,
            vec![
                RepairAction::Downgraded {
                    id: a,
                    from_width: 4,
                    to_width: 1
                },
                RepairAction::Revoked { id: b },
            ]
        );
        assert_eq!(s.reservation_slice().len(), 1);
        assert_eq!(s.reservation_slice()[0].width, 1);
    }

    #[test]
    fn repair_finds_the_peak_where_an_earlier_window_begins() {
        let mut s = RmsState::new(6);
        s.admit_reservation(SimTime::from_secs(200), SimDuration::from_secs(100), 3);
        let b = s.admit_reservation(SimTime::from_secs(100), SimDuration::from_secs(300), 3);
        s.node_down(5);
        s.node_down(4);
        // Capacity 4: the first window still fits. b is free at its own
        // start but meets the first at t=200, inside it, and keeps
        // 4 − 3 = 1.
        assert_eq!(
            s.plan_reservation_repair(SimTime::from_secs(10)),
            vec![RepairAction::Downgraded {
                id: b,
                from_width: 3,
                to_width: 1
            }]
        );
    }

    #[test]
    fn codec_round_trip_is_exact() {
        // Exercise every pool: waiting, running, completed, lost, a
        // reservation (plus one cancelled to advance the id counter), and
        // a down node.
        let mut s = RmsState::new(8);
        s.submit(j(0, 0, 2, 100, 60));
        s.submit(j(1, 5, 3, 50, 50));
        s.submit(j(2, 6, 1, 10, 10));
        s.start(JobId(0), SimTime::from_secs(0));
        s.start(JobId(2), SimTime::from_secs(6));
        s.complete(JobId(2), SimTime::from_secs(16));
        s.submit(j(3, 20, 1, 10, 10));
        s.start(JobId(3), SimTime::from_secs(20));
        let run = s.fail(JobId(3), SimTime::from_secs(25));
        s.mark_lost(run.job, SimTime::from_secs(25), 3);
        let cancelled = s.admit_reservation(SimTime::from_secs(500), SimDuration::from_secs(10), 2);
        s.cancel_reservation(cancelled);
        s.admit_reservation(SimTime::from_secs(600), SimDuration::from_secs(20), 4);
        s.node_down(7);

        let mut w = dynp_des::ByteWriter::new();
        s.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = dynp_des::ByteReader::new(&bytes);
        let restored = RmsState::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, s);
        // The id counter survived: the next reservation id continues the
        // uninterrupted sequence.
        let mut restored = restored;
        assert_eq!(
            restored.admit_reservation(SimTime::from_secs(700), SimDuration::from_secs(5), 1),
            2
        );
    }

    #[test]
    fn repair_accounts_for_running_jobs() {
        let mut s = RmsState::new(4);
        // A width-2 job runs until its estimate at t=100.
        s.submit(j(0, 0, 2, 100, 100));
        s.start(JobId(0), SimTime::ZERO);
        // A full-width window right after the job's estimated end.
        s.admit_reservation(SimTime::from_secs(100), SimDuration::from_secs(50), 4);
        // One node lost: the window overlaps nothing but capacity is 3.
        s.node_down(3);
        let actions = s.repair_reservations(SimTime::from_secs(10));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            RepairAction::Downgraded {
                from_width: 4,
                to_width: 3,
                ..
            }
        ));
        // A second loss forces the window below the running job's width
        // headroom: capacity 2, job holds 2 until 100 — the window starts
        // at 100 so it still fits at width 2.
        s.node_down(2);
        let actions = s.repair_reservations(SimTime::from_secs(20));
        assert!(matches!(
            actions[0],
            RepairAction::Downgraded {
                from_width: 3,
                to_width: 2,
                ..
            }
        ));
    }
}
