//! Per-layer probes: direct, timed calls into the public functions of
//! one layer each, run by the traced invocation of the workload the
//! layer's cost is predicted to move.

use crate::hostspeed;
use crate::stats;
use dynp_core::DeciderKind;
use dynp_des::{BinaryHeapQueue, CalendarQueue, EventQueue, SimDuration, SimTime};
use dynp_metrics::SimMetrics;
use dynp_obs::Tracer;
use dynp_rms::{
    AdmissionConfig, AdmissionController, PlanTiming, Planner, Policy, ReferencePlanner, RmsState,
    RunningJob, Schedule,
};
use dynp_serve::{
    load_latest_checkpoint, parse_request, read_journal, render_reply, replay_records, FsyncPolicy,
    JournalWriter, Reply, ServiceConfig, SubmitSpec, Ticket,
};
use dynp_sim::{decode_snapshot, encode_snapshot, ChaosDriver, SchedulerSpec};
use dynp_workload::{swf, traces, FaultPlan, Job, JobId, JobSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median nanoseconds of one call of `work`, at nominal host speed:
/// `reps` samples of `inner` back-to-back calls each, bracketed by
/// host-speed samples.
pub fn median_ns(reps: usize, inner: usize, mut work: impl FnMut()) -> f64 {
    let (mut samples, section) = hostspeed::bracketed(|| {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            for _ in 0..inner {
                work();
            }
            samples.push(t.elapsed().as_nanos() as f64 / inner as f64);
        }
        samples
    });
    stats::sort(&mut samples);
    stats::quantile_sorted(&samples, 0.5) * section.speed()
}

fn job(id: u32, submit_s: u64, width: u32, est_s: u64) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_secs(submit_s),
        width,
        SimDuration::from_secs(est_s),
        SimDuration::from_secs(est_s),
    )
}

/// A synthetic running set of `n` jobs of staggered widths and remaining
/// times (the `perf_report` planner fixture), and a machine that fits it
/// with headroom for the queue to plan into.
fn running_set(n: usize) -> (Vec<RunningJob>, u32) {
    let running: Vec<RunningJob> = (0..n)
        .map(|i| RunningJob {
            job: job(
                100_000 + i as u32,
                0,
                (i as u32 % 4) + 1,
                600 + 37 * (i as u64 % 53),
            ),
            start: SimTime::from_secs(7 * (i as u64 % 11)),
        })
        .collect();
    let machine = running.iter().map(|r| r.job.width).sum::<u32>().max(192) + 64;
    (running, machine)
}

/// A waiting queue of `depth` KTH jobs, all submitted at time zero, in
/// each basic policy's order.
fn policy_orders(depth: usize) -> (Vec<Job>, Vec<Vec<Job>>) {
    let queue: Vec<Job> = traces::kth()
        .generate(depth, 7)
        .into_jobs()
        .into_iter()
        .map(|mut j| {
            j.submit = SimTime::ZERO;
            j
        })
        .collect();
    let orders = Policy::BASIC
        .iter()
        .map(|p| {
            let mut q = queue.clone();
            p.sort_queue(&mut q);
            q
        })
        .collect();
    (queue, orders)
}

/// One dynP step's planning work at queue depth `depth`: the incremental
/// planner (`prepare` + three plans over the shared base) and the
/// from-scratch reference (three copy-sort-plan passes). Returns
/// `(incremental ns, reference ns)` per step.
pub fn planner_step_ns(depth: usize, reps: usize) -> (f64, f64) {
    let now = SimTime::from_secs(100_000);
    let (queue, orders) = policy_orders(depth);
    let (running, machine) = running_set(64);
    let mut planner = Planner::new();
    let mut schedules = vec![Schedule::default(); orders.len()];
    let mut timings = vec![PlanTiming::default(); orders.len()];
    let inner = (1024 / depth).max(1);
    let incremental = median_ns(reps, inner, || {
        planner.prepare(machine, now, &running, &[]);
        planner.plan_prepared_batch(&orders, &mut schedules, &mut timings, 1);
        black_box(&schedules);
    });
    let mut reference = ReferencePlanner::new();
    let mut buf = Vec::new();
    let from_scratch = median_ns(reps, inner, || {
        for policy in Policy::BASIC {
            buf.clear();
            buf.extend_from_slice(&queue);
            policy.sort_queue(&mut buf);
            black_box(reference.plan(machine, now, &running, &buf));
        }
    });
    (incremental, from_scratch)
}

/// `Planner::prepare` against `running` running jobs, ns per call.
pub fn prepare_ns(running: usize) -> f64 {
    let now = SimTime::from_secs(100_000);
    let (running, machine) = running_set(running);
    let mut planner = Planner::new();
    median_ns(31, 64, || {
        planner.prepare(machine, now, &running, &[]);
        black_box(planner.base_points());
    })
}

/// Wall time of the three-plan fan-out at depth 4096 on one worker over
/// two workers (> 1 means the second worker pays).
pub fn fanout_ratio_d4096(reps: usize) -> f64 {
    let now = SimTime::from_secs(100_000);
    let (_, orders) = policy_orders(4096);
    let (running, machine) = running_set(64);
    let mut planner = Planner::new();
    let mut schedules = vec![Schedule::default(); orders.len()];
    let mut timings = vec![PlanTiming::default(); orders.len()];
    let mut step = |workers: usize| {
        median_ns(reps, 1, || {
            planner.prepare(machine, now, &running, &[]);
            planner.plan_prepared_batch(&orders, &mut schedules, &mut timings, workers);
        })
    };
    let one = step(1);
    let two = step(2);
    one / two
}

/// One push and one pop on a queue holding `pending` events, ns (the
/// classic hold model: pop the earliest, push it back further out).
pub fn queue_hold_ns<Q: EventQueue<u32>>(mut queue: Q, pending: usize) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..pending {
        queue.push(SimTime::from_millis(next() % 1_000_000), i as u32);
    }
    median_ns(21, 4_096, || {
        let (t, e) = queue.pop().expect("queue is never empty");
        queue.push(t + SimDuration::from_millis(1 + next() % 1_000_000), e);
    })
}

/// Heap and calendar backends at `pending` events: `(heap, calendar)`.
pub fn queue_pair_ns(pending: usize) -> (f64, f64) {
    (
        queue_hold_ns(BinaryHeapQueue::new(), pending),
        queue_hold_ns(CalendarQueue::new(), pending),
    )
}

/// Submit + start + complete of one job on an `RmsState`, ns.
pub fn state_transition_ns() -> f64 {
    let mut state = RmsState::new(128);
    let mut id = 0u32;
    median_ns(21, 2_048, || {
        let now = SimTime::from_secs(u64::from(id));
        state.submit(job(id, u64::from(id), 4, 100));
        state.start(JobId(id), now);
        black_box(state.complete(JobId(id), now + SimDuration::from_secs(100)));
        id += 1;
    })
}

/// One `AdmissionController::evaluate` against 64 waiting and 32 running
/// jobs, ns.
pub fn admission_evaluate_ns() -> f64 {
    let mut state = RmsState::new(128);
    for i in 0..32u32 {
        state.submit(job(i, 0, 2, 600 + u64::from(i) * 10));
        state.start(JobId(i), SimTime::ZERO);
    }
    for i in 32..96u32 {
        state.submit(job(i, 1, (i % 8) + 1, 300 + u64::from(i)));
    }
    let mut controller = AdmissionController::new(AdmissionConfig::default());
    let now = SimTime::from_secs(2);
    median_ns(21, 64, || {
        black_box(
            controller
                .evaluate(
                    &state,
                    now,
                    Policy::Fcfs,
                    SimTime::from_secs(50_000),
                    SimDuration::from_secs(600),
                    16,
                )
                .is_ok(),
        );
    })
}

/// One advanced-decider verdict over three scores, ns.
pub fn decide_ns() -> f64 {
    let scores = [(Policy::Fcfs, 3.2), (Policy::Sjf, 2.9), (Policy::Ljf, 3.2)];
    let decider = DeciderKind::Advanced;
    median_ns(21, 8_192, || {
        black_box(decider.decide(black_box(&scores), Policy::Fcfs, 1e-9));
    })
}

/// `SimMetrics::measure` per completed job, ns.
pub fn finalize_ns_per_job() -> f64 {
    let n = 10_000u32;
    let mut state = RmsState::new(128);
    for i in 0..n {
        let at = SimTime::from_secs(u64::from(i) * 10);
        let run_s = 100 + u64::from(i % 97);
        state.submit(job(i, u64::from(i) * 10, (i % 16) + 1, run_s));
        // Started a little late, so slowdowns differ from 1.
        let start = at + SimDuration::from_secs(u64::from(i % 7));
        state.start(JobId(i), start);
        state.complete(JobId(i), start + SimDuration::from_secs(run_s));
    }
    let completed = state.into_completed();
    median_ns(21, 1, || {
        black_box(SimMetrics::measure(128, &completed));
    }) / f64::from(n)
}

/// `TraceModel::generate` per job, ns.
pub fn generate_ns_per_job() -> f64 {
    let model = traces::kth();
    median_ns(11, 1, || {
        black_box(model.generate(10_000, 7));
    }) / 10_000.0
}

/// SWF text → `JobSet`, ns per job.
pub fn swf_parse_ns_per_job() -> f64 {
    let set = traces::kth().generate(10_000, 7);
    let mut text = Vec::new();
    swf::write_swf(&set, &mut text).expect("writing to a Vec cannot fail");
    median_ns(11, 1, || {
        black_box(swf::read_swf(&text[..], "KTH", set.machine_size).expect("own output parses"));
    }) / 10_000.0
}

/// `ChaosDriver::snapshot`, `restore` and the encoded size halfway
/// through `set`: `(snapshot ns, restore ns, bytes)`.
pub fn snapshot_costs(set: &JobSet, faults: &FaultPlan) -> (f64, f64, u64) {
    let mut scheduler = SchedulerSpec::dynp(DeciderKind::Advanced).build_with_threads(1);
    let mut driver = ChaosDriver::new(
        set,
        scheduler.as_mut(),
        &[],
        AdmissionConfig::default(),
        faults,
        Tracer::disabled(),
    );
    for _ in 0..set.len() {
        if driver.step().is_none() {
            break;
        }
    }
    let snap = driver.snapshot();
    let bytes = encode_snapshot(&snap);
    assert_eq!(
        decode_snapshot(&bytes).expect("own snapshot decodes"),
        snap,
        "snapshot codec round trip"
    );
    let snapshot_ns = median_ns(11, 1, || {
        black_box(driver.snapshot());
    });
    let restore_ns = median_ns(11, 1, || driver.restore(&snap));
    (snapshot_ns, restore_ns, bytes.len() as u64)
}

/// NDJSON codec: `(parse one submit, render one accept)`, ns.
pub fn proto_ns() -> (f64, f64) {
    let line = r#"{"cmd":"submit","width":4,"estimate_ms":60000,"actual_ms":30000,"user":7}"#;
    let parse = median_ns(21, 1_024, || {
        black_box(parse_request(black_box(line)).is_ok());
    });
    let reply = Reply::Accepted(Ticket {
        job: 123_456,
        admitted_at: SimTime::from_millis(987_654_321),
    });
    let render = median_ns(21, 1_024, || {
        black_box(render_reply(black_box(&reply)));
    });
    (parse, render)
}

fn submit_spec(i: u64) -> SubmitSpec {
    SubmitSpec {
        width: 1 << (i % 5),
        estimate: SimDuration::from_secs(120 + i % 240),
        actual: SimDuration::from_secs(60 + i % 120),
        user: (i % 100) as u32,
    }
}

/// One closed-loop `ServiceHandle::submit` round trip against an
/// in-process daemon (no socket, no journal), median ns over `n` calls.
pub fn inproc_submit_rtt_ns(speedup: u64, n: u64) -> f64 {
    let mut config = ServiceConfig::new(128, SchedulerSpec::dynp(DeciderKind::Advanced));
    config.speedup = speedup;
    config.max_queue = 1_000_000;
    let (handle, join) = dynp_serve::spawn(config).expect("in-process daemon starts");
    let (mut samples, section) = hostspeed::bracketed(|| {
        (0..n)
            .map(|i| {
                let t = Instant::now();
                black_box(handle.submit(submit_spec(i)).is_ok());
                t.elapsed().as_nanos() as f64
            })
            .collect::<Vec<f64>>()
    });
    handle.shutdown();
    drop(handle);
    join.join().expect("in-process daemon drains");
    stats::sort(&mut samples);
    stats::quantile_sorted(&samples, 0.5) * section.speed()
}

/// One `JournalWriter::append_submit` under `fsync`, in a fresh journal
/// under `dir`: `(median ns, p50 µs of the slowest-policy appends)`.
pub fn journal_append_ns(dir: &Path, fsync: FsyncPolicy, n: u64) -> f64 {
    let dir = dir.join(format!("append-{}", fsync.label()));
    let mut writer =
        JournalWriter::create(&dir, 128, 1_000, "dynp", fsync, 1 << 20).expect("fresh journal");
    let mut samples: Vec<f64> = (0..n)
        .map(|i| {
            let s = submit_spec(i);
            let t = Instant::now();
            writer
                .append_submit(
                    SimTime::from_millis(i),
                    i as u32,
                    s.user,
                    s.width,
                    s.estimate,
                    s.actual,
                )
                .expect("append");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::sort(&mut samples);
    // Disk time does not follow this thread's CPU speed: as measured.
    stats::quantile_sorted(&samples, 0.5)
}

/// What reading a journal back costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct JournalReadCosts {
    /// `read_journal`, ns per record.
    pub read_ns_per_record: f64,
    /// `replay_records` through the batch driver, ns per record.
    pub replay_ns_per_record: f64,
    /// Newest checkpoint: bytes on disk (0 when the journal never
    /// rotated and so never checkpointed).
    pub checkpoint_bytes: u64,
    /// `load_latest_checkpoint`, ns (0 without a checkpoint).
    pub checkpoint_load_ns: f64,
    /// Encoding and writing that checkpoint back out, ns.
    pub checkpoint_write_ns: f64,
}

/// Reads the daemon's journal under `dir` back the way recovery does.
pub fn journal_read_costs(dir: &Path, scratch: &Path) -> Result<JournalReadCosts, String> {
    let journal = read_journal(dir).map_err(|e| e.to_string())?;
    let records = journal.records.len().max(1) as f64;
    let mut costs = JournalReadCosts {
        read_ns_per_record: median_ns(5, 1, || {
            black_box(read_journal(dir).is_ok());
        }) / records,
        ..JournalReadCosts::default()
    };
    let spec = dynp_serve::parse_scheduler(&journal.scheduler)?;
    costs.replay_ns_per_record = median_ns(3, 1, || {
        black_box(replay_records(journal.machine_size, &journal.records, &spec).is_ok());
    }) / records;
    let (checkpoint, _skipped) = load_latest_checkpoint(dir).map_err(|e| e.to_string())?;
    if let Some(checkpoint) = checkpoint {
        costs.checkpoint_load_ns = median_ns(5, 1, || {
            black_box(load_latest_checkpoint(dir).is_ok());
        });
        let out = scratch.join("checkpoint-write");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        costs.checkpoint_bytes =
            dynp_serve::journal::write_checkpoint(&out, &checkpoint).map_err(|e| e.to_string())?;
        costs.checkpoint_write_ns = median_ns(5, 1, || {
            black_box(dynp_serve::journal::write_checkpoint(&out, &checkpoint).is_ok());
        });
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_finite_times() {
        let (inc, reference) = planner_step_ns(64, 3);
        assert!(inc > 0.0 && reference > 0.0 && inc.is_finite());
        let (heap, calendar) = queue_pair_ns(1_000);
        assert!(heap > 0.0 && calendar > 0.0);
        assert!(state_transition_ns() > 0.0);
        assert!(admission_evaluate_ns() > 0.0);
        assert!(decide_ns() > 0.0);
        let (parse, render) = proto_ns();
        assert!(parse > 0.0 && render > 0.0);
    }

    #[test]
    fn snapshot_probe_round_trips_the_codec() {
        let set = traces::kth().generate(300, 3);
        let (snap, restore, bytes) = snapshot_costs(&set, &FaultPlan::none());
        assert!(snap > 0.0 && restore > 0.0 && bytes > 0);
    }
}
