//! The job model of §4.2: "a job is defined by the submission time, the
//! number of requested resources (= width), and the estimated run time
//! (= length). … Additionally, for the simulation the actual run time is
//! required."

use dynp_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a job within a [`JobSet`]; dense, starting at 0, usable
/// as a vector index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl JobId {
    /// The id as a vector index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// The longest estimate or actual run time of a job, and the longest
/// reservation window, in milliseconds: 2^35 ms, about 398 days.
///
/// With [`MAX_SUBMIT_MS`] it lets job-derived time arithmetic be plain
/// `+` and `-`: an instant derived from a job or a window is a submit or
/// window start (≤ 2^48 ms) plus durations planned or run after it (each
/// ≤ 2^35 ms), so reaching 2^64 would take over 2^29 ≈ 5·10^8 maximal
/// jobs in one plan, and debug builds' overflow checks stand in for the
/// asserts. (Saturating once hid a bug: two planned ends collapsed onto
/// `SimTime::MAX` and a job was placed on a full machine.) Every boundary
/// builds its jobs through [`Job::try_new`] or [`Job::check`] (DESIGN §12
/// lists them), and [`JobSet::new`] checks every generated set. Windows
/// come only from [`crate::ReservationModel`], whose windows last at
/// most four hours and start at most a day after their request, which
/// falls within its job set's span.
pub const MAX_JOB_MS: u64 = 1 << 35;

/// The latest submit time of a job, or start of a window, in ms: 2^13 ×
/// [`MAX_JOB_MS`] = 2^48 ms, about 8 900 years — past any archive log,
/// and far enough below `SimTime::MAX` for [`MAX_JOB_MS`]'s argument.
pub const MAX_SUBMIT_MS: u64 = MAX_JOB_MS << 13;

/// Why a job was refused: one field outside its bounds. Fields are named as the daemon's wire protocol names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobError {
    /// The field, e.g. `"width"` or `"estimate_ms"`.
    pub field: &'static str,
    /// Its value, in processors or milliseconds.
    pub value: u64,
    /// The smallest value allowed.
    pub min: u64,
    /// The largest value allowed.
    pub max: u64,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, value, min, max) = (self.field, self.value, self.min, self.max);
        write!(f, "{field} {value} is outside {min}..={max}")
    }
}

impl std::error::Error for JobError {}

/// `Ok` when `min <= value <= max`, else the error naming `field`.
fn within(field: &'static str, value: u64, min: u64, max: u64) -> Result<(), JobError> {
    if (min..=max).contains(&value) {
        Ok(())
    } else {
        Err(JobError {
            field,
            value,
            min,
            max,
        })
    }
}

/// A rigid parallel batch job.
///
/// The planning-based RMS schedules on the *estimate* (run time estimates
/// are mandatory in planning systems); the simulation releases resources
/// after the *actual* run time. Jobs are killed at their estimate, so
/// `actual <= estimate` is an invariant (enforced by [`Job::new`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Job {
    /// Dense identifier within the owning job set.
    pub id: JobId,
    /// Submission (arrival) time.
    pub submit: SimTime,
    /// Number of requested processors ("width"). At least 1.
    pub width: u32,
    /// Estimated (user-requested) run time ("length"). At least 1 ms.
    pub estimate: SimDuration,
    /// Actual run time; `0 < actual <= estimate`.
    pub actual: SimDuration,
}

impl Job {
    /// Creates a job, clamping fields to the model invariants:
    /// `width >= 1`, `estimate >= 1 ms`, `1 ms <= actual <= estimate`.
    pub fn new(
        id: JobId,
        submit: SimTime,
        width: u32,
        estimate: SimDuration,
        actual: SimDuration,
    ) -> Self {
        let estimate = estimate.max(SimDuration::from_millis(1));
        let actual = actual.max(SimDuration::from_millis(1)).min(estimate);
        Job {
            id,
            submit,
            width: width.max(1),
            estimate,
            actual,
        }
    }

    /// [`Job::new`] for values from outside: first refuses what its clamps
    /// would hide (a width outside `1..=machine`, a duration past
    /// [`MAX_JOB_MS`]), then clamps and [`Job::check`]s the result.
    pub fn try_new(
        id: JobId,
        submit: SimTime,
        width: u32,
        estimate: SimDuration,
        actual: SimDuration,
        machine: u32,
    ) -> Result<Self, JobError> {
        within("width", width.into(), 1, machine.into())?;
        within("estimate_ms", estimate.as_millis(), 0, MAX_JOB_MS)?;
        within("actual_ms", actual.as_millis(), 0, MAX_JOB_MS)?;
        let job = Job::new(id, submit, width, estimate, actual);
        job.check(machine).map(|()| job)
    }

    /// The one definition of a valid job on a machine of `machine`
    /// processors: `1 <= width <= machine`, `1 ms <= actual <= estimate
    /// <= MAX_JOB_MS` and `submit <= MAX_SUBMIT_MS`.
    pub fn check(&self, machine: u32) -> Result<(), JobError> {
        let estimate = self.estimate.as_millis();
        within("width", self.width.into(), 1, machine.into())?;
        within("estimate_ms", estimate, 1, MAX_JOB_MS)?;
        within("actual_ms", self.actual.as_millis(), 1, estimate)?;
        within("submit_ms", self.submit.as_millis(), 0, MAX_SUBMIT_MS)
    }

    /// The job's area: actual run time (seconds) × width. SLDwA weights
    /// jobs by this quantity.
    pub fn area(&self) -> f64 {
        self.actual.as_secs_f64() * self.width as f64
    }

    /// The job's *planned* area: estimated run time (seconds) × width —
    /// what the planner reserves.
    pub fn estimated_area(&self) -> f64 {
        self.estimate.as_secs_f64() * self.width as f64
    }

    /// Appends the job's exact field values to a checkpoint buffer.
    pub fn encode_into(&self, w: &mut dynp_des::ByteWriter) {
        w.u32(self.id.0);
        w.u64(self.submit.as_millis());
        w.u32(self.width);
        w.u64(self.estimate.as_millis());
        w.u64(self.actual.as_millis());
    }

    /// Decodes a job written by [`Job::encode_into`]. Fields are restored
    /// verbatim (no re-clamping): the encoded job already satisfied the
    /// invariants, and restoring must be bit-identical.
    pub fn decode_from(r: &mut dynp_des::ByteReader<'_>) -> Result<Self, dynp_des::CodecError> {
        Ok(Job {
            id: JobId(r.u32()?),
            submit: SimTime::from_millis(r.u64()?),
            width: r.u32()?,
            estimate: SimDuration::from_millis(r.u64()?),
            actual: SimDuration::from_millis(r.u64()?),
        })
    }
}

/// A job set: one simulation input, jobs sorted by submission time.
///
/// The paper generates "ten synthetic job sets, with 10,000 jobs each …
/// for each trace".
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSet {
    /// Human-readable origin, e.g. `"CTC"` or `"CTC/set3"`.
    pub name: String,
    /// Number of processors of the machine this set targets.
    pub machine_size: u32,
    /// Jobs in nondecreasing submission order, ids dense `0..n`.
    jobs: Vec<Job>,
}

impl JobSet {
    /// Builds a job set; jobs are sorted by (submit, id) and re-numbered
    /// densely so `jobs[i].id == JobId(i)`.
    ///
    /// # Panics
    /// Panics if any job fails [`Job::check`] on the machine: every trace
    /// model, generator and transform builds its sets here.
    pub fn new(name: impl Into<String>, machine_size: u32, mut jobs: Vec<Job>) -> Self {
        assert!(machine_size >= 1, "machine must have at least 1 processor");
        jobs.sort_by_key(|j| (j.submit, j.id));
        for (i, j) in jobs.iter_mut().enumerate() {
            if let Err(e) = j.check(machine_size) {
                panic!("job {}: {e}", j.id);
            }
            j.id = JobId(i as u32);
        }
        JobSet {
            name: name.into(),
            machine_size,
            jobs,
        }
    }

    /// All jobs, sorted by submission time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Job lookup by id.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the set has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submission time of the first job ([`SimTime::ZERO`] when empty).
    pub fn first_submit(&self) -> SimTime {
        self.jobs.first().map_or(SimTime::ZERO, |j| j.submit)
    }

    /// Submission time of the last job ([`SimTime::ZERO`] when empty).
    pub(crate) fn last_submit(&self) -> SimTime {
        self.jobs.last().map_or(SimTime::ZERO, |j| j.submit)
    }

    /// Total actual area of all jobs (processor-seconds of real work).
    pub(crate) fn total_area(&self) -> f64 {
        self.jobs.iter().map(Job::area).sum()
    }

    /// Offered load: total area / (machine size × submission span). A
    /// rough lower bound on the utilization a scheduler can reach before
    /// saturation.
    pub fn offered_load(&self) -> f64 {
        let span = (self.last_submit() - self.first_submit()).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.total_area() / (self.machine_size as f64 * span)
    }

    /// Consumes the set and returns its jobs.
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn new_clamps_invariants() {
        let job = Job::new(
            JobId(0),
            SimTime::ZERO,
            0,
            SimDuration::from_secs(10),
            SimDuration::from_secs(99),
        );
        assert_eq!(job.width, 1);
        assert_eq!(job.actual, job.estimate); // actual clamped to estimate
        let zero = Job::new(
            JobId(1),
            SimTime::ZERO,
            4,
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert_eq!(zero.estimate.as_millis(), 1);
        assert_eq!(zero.actual.as_millis(), 1);
    }

    #[test]
    fn area_is_runtime_times_width() {
        let job = j(0, 0, 8, 100, 50);
        assert_eq!(job.area(), 400.0);
        assert_eq!(job.estimated_area(), 800.0);
    }

    #[test]
    fn jobset_sorts_and_renumbers() {
        let set = JobSet::new(
            "t",
            64,
            vec![j(7, 30, 1, 5, 5), j(2, 10, 2, 5, 5), j(5, 20, 4, 5, 5)],
        );
        let submits: Vec<u64> = set
            .jobs()
            .iter()
            .map(|x| x.submit.as_millis() / 1000)
            .collect();
        assert_eq!(submits, vec![10, 20, 30]);
        for (i, job) in set.jobs().iter().enumerate() {
            assert_eq!(job.id, JobId(i as u32));
            assert_eq!(set.job(job.id), job);
        }
    }

    #[test]
    fn jobset_sort_is_stable_for_equal_submits() {
        let set = JobSet::new(
            "t",
            8,
            vec![j(0, 5, 1, 1, 1), j(1, 5, 2, 1, 1), j(2, 5, 3, 1, 1)],
        );
        let widths: Vec<u32> = set.jobs().iter().map(|x| x.width).collect();
        assert_eq!(widths, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "width 5 is outside 1..=4")]
    fn jobset_rejects_oversized_jobs() {
        let _ = JobSet::new("t", 4, vec![j(0, 0, 5, 1, 1)]);
    }

    #[test]
    fn the_gate_refuses_each_field_past_its_bound() {
        let ms = SimDuration::from_millis;
        let at = |submit: u64, width: u32, est: u64, act: u64| {
            Job::try_new(
                JobId(0),
                SimTime::from_millis(submit),
                width,
                ms(est),
                ms(act),
                16,
            )
            .map_err(|e| e.field)
        };
        let edge = at(MAX_SUBMIT_MS, 16, MAX_JOB_MS, MAX_JOB_MS).unwrap();
        assert_eq!(edge.check(16), Ok(()));
        for (job, field) in [
            (at(0, 0, 10, 10), "width"),
            (at(0, 17, 10, 10), "width"),
            (at(0, u32::MAX, 10, 10), "width"),
            (at(0, 4, MAX_JOB_MS + 1, 10), "estimate_ms"),
            (at(0, 4, 10, MAX_JOB_MS + 1), "actual_ms"),
            (at(0, 4, u64::MAX, u64::MAX), "estimate_ms"),
            (at(MAX_SUBMIT_MS + 1, 4, 10, 10), "submit_ms"),
        ] {
            assert_eq!(job, Err(field));
        }
        // Within the bounds, `new`'s clamps still apply.
        let clamped = at(0, 4, 0, 99).unwrap();
        assert_eq!((clamped.estimate, clamped.actual), (ms(1), ms(1)));

        // What the clamps would have repaired, `check` refuses verbatim.
        let job = |est: u64, act: u64| Job {
            estimate: ms(est),
            actual: ms(act),
            ..edge
        };
        assert_eq!(job(0, 0).check(16).unwrap_err().field, "estimate_ms");
        assert_eq!(job(10, 0).check(16).unwrap_err().field, "actual_ms");
        let err = job(10, 11).check(16).unwrap_err();
        assert_eq!(err.to_string(), "actual_ms 11 is outside 1..=10");
        assert_eq!(
            edge.check(8).unwrap_err().to_string(),
            "width 16 is outside 1..=8"
        );
    }

    #[test]
    fn offered_load_formula() {
        // Two width-2 jobs of 50s each, submitted 100s apart, machine 4:
        // area = 200, span = 100, load = 200 / (4*100) = 0.5.
        let set = JobSet::new("t", 4, vec![j(0, 0, 2, 50, 50), j(1, 100, 2, 50, 50)]);
        assert!((set.offered_load() - 0.5).abs() < 1e-12);
        assert_eq!(set.total_area(), 200.0);
    }

    #[test]
    fn empty_set_is_benign() {
        let set = JobSet::new("t", 4, vec![]);
        assert!(set.is_empty());
        assert_eq!(set.offered_load(), 0.0);
        assert_eq!(set.first_submit(), SimTime::ZERO);
    }
}
