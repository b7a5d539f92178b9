//! Time-series extraction from a finished simulation — the raw material
//! for utilization plots and for understanding *when* a scheduler
//! wins, not just by how much.

use dynp_des::SimTime;
use dynp_rms::CompletedJob;

/// A piecewise-constant series as (change time, new value) steps, sorted
/// by time; the value holds until the next step.
pub(crate) type StepSeries = Vec<(SimTime, u32)>;

/// Builds the busy-processor series from completed-job records: +width
/// at each start, −width at each end.
pub(crate) fn busy_series(completed: &[CompletedJob]) -> StepSeries {
    let mut deltas: Vec<(SimTime, i64)> = Vec::with_capacity(completed.len() * 2);
    for d in completed {
        deltas.push((d.start, d.job.width as i64));
        deltas.push((d.end, -(d.job.width as i64)));
    }
    accumulate(deltas)
}

/// Merges same-time deltas and integrates them into a step series.
fn accumulate(mut deltas: Vec<(SimTime, i64)>) -> StepSeries {
    deltas.sort_by_key(|&(t, _)| t);
    let mut series = Vec::new();
    let mut level: i64 = 0;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            level += deltas[i].1;
            i += 1;
        }
        debug_assert!(level >= 0, "series went negative at {t:?}");
        series.push((t, level.max(0) as u32));
    }
    series
}

/// The value of a step series at instant `t` (0 before the first step).
pub(crate) fn value_at(series: &StepSeries, t: SimTime) -> u32 {
    match series.partition_point(|&(st, _)| st <= t) {
        0 => 0,
        i => series[i - 1].1,
    }
}

/// Buckets the busy-processor series into average utilization per
/// `bucket_secs` window over `[start, end)`. Returns one value per
/// bucket in `[0, 1]`.
pub fn bucketed_utilization(
    machine_size: u32,
    completed: &[CompletedJob],
    start: SimTime,
    end: SimTime,
    bucket_secs: f64,
) -> Vec<f64> {
    assert!(bucket_secs > 0.0);
    let series = busy_series(completed);
    let span = end.saturating_since(start).as_secs_f64();
    let n_buckets = (span / bucket_secs).ceil() as usize;
    let mut out = vec![0.0; n_buckets];

    // Integrate the step series bucket by bucket.
    for (b, slot) in out.iter_mut().enumerate() {
        let b_start = start.as_secs_f64() + b as f64 * bucket_secs;
        let b_end = (b_start + bucket_secs).min(end.as_secs_f64());
        let mut t = b_start;
        let mut integral = 0.0;
        while t < b_end {
            let current = value_at(&series, SimTime::from_secs_f64(t)) as f64;
            // Next change after t, clipped to the bucket end.
            let idx = series.partition_point(|&(st, _)| st.as_secs_f64() <= t);
            let next = series
                .get(idx)
                .map_or(b_end, |&(st, _)| st.as_secs_f64().min(b_end));
            integral += current * (next - t);
            t = next;
        }
        let width = b_end - b_start;
        *slot = if width > 0.0 {
            integral / (machine_size as f64 * width)
        } else {
            0.0
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_des::SimDuration;
    use dynp_workload::{Job, JobId};

    fn done(id: u32, submit_s: u64, start_s: u64, width: u32, run_s: u64) -> CompletedJob {
        CompletedJob {
            job: Job::new(
                JobId(id),
                SimTime::from_secs(submit_s),
                width,
                SimDuration::from_secs(run_s),
                SimDuration::from_secs(run_s),
            ),
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s + run_s),
        }
    }

    #[test]
    fn busy_series_steps_at_starts_and_ends() {
        // Job A: 2 procs over [0, 100); job B: 3 procs over [50, 150).
        let jobs = [done(0, 0, 0, 2, 100), done(1, 0, 50, 3, 100)];
        let s = busy_series(&jobs);
        assert_eq!(
            s,
            vec![
                (SimTime::from_secs(0), 2),
                (SimTime::from_secs(50), 5),
                (SimTime::from_secs(100), 3),
                (SimTime::from_secs(150), 0),
            ]
        );
        assert_eq!(value_at(&s, SimTime::from_secs(75)), 5);
        assert_eq!(value_at(&s, SimTime::from_secs(149)), 3);
        assert_eq!(value_at(&s, SimTime::from_secs(150)), 0);
    }

    #[test]
    fn value_before_first_step_is_zero() {
        let jobs = [done(0, 100, 100, 1, 10)];
        let s = busy_series(&jobs);
        assert_eq!(value_at(&s, SimTime::from_secs(50)), 0);
    }

    #[test]
    fn bucketed_utilization_hand_computed() {
        // Machine 4. One width-4 job over [0, 50) then idle to 100.
        let jobs = [done(0, 0, 0, 4, 50)];
        let u = bucketed_utilization(4, &jobs, SimTime::ZERO, SimTime::from_secs(100), 50.0);
        assert_eq!(u.len(), 2);
        assert!((u[0] - 1.0).abs() < 1e-9);
        assert!((u[1] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn bucketed_utilization_splits_partial_occupancy() {
        // Machine 4; width-2 job over [25, 75): bucket [0,50) is busy
        // half the time at half the machine → 0.25; same for [50,100).
        let jobs = [done(0, 0, 25, 2, 50)];
        let u = bucketed_utilization(4, &jobs, SimTime::ZERO, SimTime::from_secs(100), 50.0);
        assert!((u[0] - 0.25).abs() < 1e-9, "{u:?}");
        assert!((u[1] - 0.25).abs() < 1e-9, "{u:?}");
    }

    #[test]
    fn empty_input_gives_empty_series() {
        assert!(busy_series(&[]).is_empty());
        let u = bucketed_utilization(4, &[], SimTime::ZERO, SimTime::from_secs(10), 5.0);
        assert_eq!(u, vec![0.0, 0.0]);
    }
}
