//! Service-mode record/replay and crash recovery, end to end.
//!
//! A daemon run on the wall clock journals every accepted command —
//! submission *and* cancellation — to the durable WAL; replaying that
//! journal through the batch DES driver with the same scheduler recipe
//! must reproduce the live run **bit for bit** — same starts, same
//! completions, same SLDwA, same service fingerprint. The wall source's
//! stamp discipline (externals never tie or pass a dispatched timer) is
//! what makes the live `(time, event)` sequence equal to the replay's.
//!
//! Crash safety rides on the same identity: because every accepted
//! command is journaled (and fsynced) *before* the client sees the
//! acknowledgement, a crash at any byte offset leaves a journal whose
//! complete-record prefix is exactly the set of acknowledged commands.
//! The crash-at-any-point property test truncates a finished journal at
//! arbitrary offsets, recovers a daemon from the wreckage (checkpoint
//! fast-path or genesis replay), drains it, and demands the recovered
//! session equal the batch replay of the same records.

use dynp_serve::{
    load_latest_checkpoint, read_journal, recover, render_scheduler, replay_records,
    replay_session, spawn, FsyncPolicy, JournalError, JournalRecord, JournalWriter, OverloadReason,
    QuotaConfig, RecoverError, ReplayError, ServiceConfig, ServiceHandle, ServiceReport,
    SubmitError, SubmitSpec,
};
use dynp_suite::des::{Engine, EngineSnapshot};
use dynp_suite::obs::Tracer;
use dynp_suite::prelude::*;
use dynp_suite::rms::Scheduler;
use dynp_suite::sim::{simulate_chaos, DetailedRun, Event, FeedCursors, ShardCore, SimSnapshot};
use dynp_suite::workload::job::{MAX_JOB_MS, MAX_SUBMIT_MS};
use dynp_suite::workload::{FaultKind, FaultPlan, NodeOutage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dynp_service_replay_test")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn service_config(machine: u32, scheduler: SchedulerSpec, journal: &Path) -> ServiceConfig {
    let mut config = ServiceConfig::new(machine, scheduler);
    // Sim seconds in wall milliseconds: the live run takes tens of
    // milliseconds while the recorded workload spans simulated minutes.
    config.speedup = 1000;
    config.journal = Some(journal.to_path_buf());
    config
}

/// A deterministic burst of submissions with mixed widths and run times
/// (the stamps are wall-clock and differ run to run; determinism of the
/// *specs* is enough, the journal records whatever stamps happened).
fn submit_burst(handle: &ServiceHandle, machine: u32, n: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted = 0;
    for _ in 0..n {
        let width = (1 << rng.gen_range_u64(0, 4)).min(machine);
        let actual = SimDuration::from_secs(rng.gen_range_u64(2, 90));
        let estimate = actual.scale(1.5).max(actual);
        let spec = SubmitSpec {
            width,
            estimate,
            actual,
            user: (rng.gen_range_u64(0, 4)) as u32,
        };
        if handle.submit(spec).is_ok() {
            accepted += 1;
        }
        // A couple of short pauses spread arrivals over several virtual
        // instants so completions interleave with later submissions.
        if rng.gen_bool(0.3) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    accepted
}

/// Asserts a live (or recovered) session and a batch replay of its
/// journal agree bit for bit.
fn assert_session_matches_replay(
    tag: &str,
    live: &ServiceReport,
    dir: &Path,
    spec: &SchedulerSpec,
) {
    let replay = replay_session(dir, spec).unwrap();
    assert_eq!(
        replay.run.completed.len(),
        live.run.completed.len(),
        "{tag}: completion count diverged"
    );
    for (r, l) in replay.run.completed.iter().zip(&live.run.completed) {
        assert_eq!(r.job.id, l.job.id, "{tag}: job order diverged");
        assert_eq!(r.job.submit, l.job.submit, "{tag}: submit stamp diverged");
        assert_eq!(r.start, l.start, "{tag}: start diverged for {}", r.job.id);
        assert_eq!(r.end, l.end, "{tag}: end diverged for {}", r.job.id);
    }
    assert_eq!(
        replay.run.result.metrics.sldwa, live.run.result.metrics.sldwa,
        "{tag}: SLDwA must be bit-identical"
    );
    assert_eq!(
        replay.fingerprint, live.fingerprint,
        "{tag}: service fingerprint diverged"
    );
    assert!(live.fingerprint.is_some(), "{tag}: fingerprint missing");
}

/// The pinned bit-identity test: live daemon schedules == batch replay
/// schedules, for both a static policy and the self-tuning scheduler.
#[test]
fn recorded_sessions_replay_bit_identically() {
    for (tag, spec) in [
        ("fcfs", SchedulerSpec::Static(Policy::Fcfs)),
        ("dynp", SchedulerSpec::dynp(DeciderKind::Advanced)),
    ] {
        let dir = temp_dir(&format!("identity_{tag}"));
        let machine = 16;
        let (handle, join) = spawn(service_config(machine, spec.clone(), &dir)).unwrap();
        let accepted = submit_burst(&handle, machine, 40, 0xD15C0 ^ tag.len() as u64);
        assert_eq!(accepted, 40, "all submissions fit the machine");
        handle.shutdown();
        let live = join.join().unwrap();
        assert_eq!(live.run.completed.len(), 40);

        assert_session_matches_replay(tag, &live, &dir, &spec);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Four threads submit through clones of one handle, each command
/// running on its own thread under the daemon's lock: the drained
/// session equals the batch replay of its journal and a recovery from it.
#[test]
fn concurrent_clients_replay_and_recover_bit_identically() {
    let dir = temp_dir("concurrent");
    let spec = SchedulerSpec::dynp(DeciderKind::Advanced);
    let machine = 16;
    let config = service_config(machine, spec.clone(), &dir);
    let (handle, join) = spawn(config.clone()).unwrap();
    let clients: Vec<_> = (0..4u64)
        .map(|client| {
            let handle = handle.clone();
            std::thread::spawn(move || submit_burst(&handle, machine, 30, 0xC11E ^ client))
        })
        .collect();
    let accepted: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(accepted, 120, "all submissions fit the machine");
    handle.shutdown();
    let live = join.join().unwrap();
    assert_eq!(live.run.completed.len(), 120);
    assert_session_matches_replay("concurrent", &live, &dir, &spec);

    let (handle, join) = recover(config).unwrap();
    handle.shutdown();
    assert_eq!(join.join().unwrap().fingerprint, live.fingerprint);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Graceful shutdown mid-run: jobs are still waiting and running when the
/// drain begins; the daemon must finish them all, and the synced journal
/// must replay to the same drained outcome.
#[test]
fn mid_run_shutdown_drains_and_leaves_replayable_journal() {
    let dir = temp_dir("midrun");
    let spec = SchedulerSpec::Static(Policy::Sjf);
    let machine = 8;
    let (handle, join) = spawn(service_config(machine, spec.clone(), &dir)).unwrap();
    // Saturate the machine so most jobs are still queued at shutdown.
    for i in 0..12 {
        handle
            .submit(SubmitSpec {
                width: machine,
                estimate: SimDuration::from_secs(30 + i),
                actual: SimDuration::from_secs(20 + i),
                user: 0,
            })
            .unwrap();
    }
    let status = handle.status().unwrap();
    assert!(status.waiting > 0, "shutdown must hit a non-empty queue");
    handle.shutdown();
    let live = join.join().unwrap();
    assert_eq!(live.accepted, 12);
    assert_eq!(live.run.completed.len(), 12, "drain must finish every job");
    assert_eq!(live.run.faults.lost, 0);

    assert_session_matches_replay("midrun", &live, &dir, &spec);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cancelled jobs influenced live planning and were withdrawn at a
/// recorded instant; the journal carries the cancel, so the session
/// replays exactly — cancels included. (The SWF-era refusal is gone.)
#[test]
fn sessions_with_cancels_replay_bit_identically() {
    let dir = temp_dir("cancel");
    let spec = SchedulerSpec::dynp(DeciderKind::Advanced);
    let machine = 8;
    let (handle, join) = spawn(service_config(machine, spec.clone(), &dir)).unwrap();
    let mut tickets = Vec::new();
    for i in 0..10 {
        tickets.push(
            handle
                .submit(SubmitSpec {
                    width: machine,
                    estimate: SimDuration::from_secs(40 + i),
                    actual: SimDuration::from_secs(25 + i),
                    user: (i % 3) as u32,
                })
                .unwrap(),
        );
    }
    // Withdraw two jobs that are still waiting (everything behind the
    // running head is).
    assert!(handle.cancel(tickets[4].job));
    assert!(handle.cancel(tickets[7].job));
    assert!(
        !handle.cancel(tickets[0].job),
        "running job must not cancel"
    );
    handle.shutdown();
    let live = join.join().unwrap();
    assert_eq!(live.cancelled, 2);
    assert_eq!(live.run.completed.len(), 8);

    let journal = read_journal(&dir).unwrap();
    assert_eq!(
        journal.records.len(),
        12,
        "10 submits + 2 accepted cancels are journaled"
    );
    assert_session_matches_replay("cancel", &live, &dir, &spec);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The daemon journals only cancels that withdrew a waiting job, but the
/// bytes are what replay and recovery read: a checksummed cancel of a
/// running job withdraws nothing, in both, and both count only the one
/// that did. A tail of 20 000 more submits then runs through both, and
/// the drained state holds at most one event's queue changes — what the
/// next replan would read — not the session's history.
#[test]
fn a_cancel_of_a_running_job_replays_and_recovers_alike() {
    const TAIL: u32 = 20_000;
    let dir = temp_dir("cancel_running");
    let (machine, spec) = (8, SchedulerSpec::dynp(DeciderKind::Advanced));
    let config = service_config(machine, spec.clone(), &dir);
    let scheduler = render_scheduler(&spec);
    let mut writer =
        JournalWriter::create(&dir, machine, 1000, &scheduler, FsyncPolicy::Never, 1 << 20)
            .unwrap();
    let (at, minute) = (SimTime::from_millis, SimDuration::from_secs(60));
    let submit = |seq, stamp, id| JournalRecord::Submit {
        seq,
        user: 0,
        job: Job::new(JobId(id), at(stamp), machine, minute, minute),
    };
    let cancel = |seq, stamp, job| JournalRecord::Cancel {
        seq,
        stamp: at(stamp),
        job,
    };
    // Job 0 runs from t = 0; job 1 waits behind it. Then one job every
    // 61 s, each waiting out at most the one before it.
    let tail = (0..TAIL).map(|i| submit(4 + i as u64, 4_000 + 61_000 * i as u64, 2 + i));
    for rec in [
        submit(0, 0, 0),
        cancel(1, 1000, 0),
        submit(2, 2000, 1),
        cancel(3, 3000, 1),
    ]
    .into_iter()
    .chain(tail)
    {
        writer.append(&rec).unwrap();
    }
    writer.sync().unwrap();
    drop(writer);

    let replay = replay_session(&dir, &spec).unwrap();
    let completed = 1 + TAIL as usize;
    assert_eq!(
        (replay.cancelled, replay.run.completed.len()),
        (1, completed)
    );
    let (handle, join) = recover(config).unwrap();
    handle.shutdown();
    let recovered = join.join().unwrap();
    assert_eq!(
        (recovered.cancelled, recovered.run.completed.len()),
        (1, completed)
    );
    assert_eq!(recovered.fingerprint, replay.fingerprint);

    // The replay's loop, by hand: its fingerprint hashes the queue
    // changes the drained state holds, so equal fingerprints mean equal
    // logs.
    let records = read_journal(&dir).unwrap().records;
    let (core, scheduler) = drive_records(machine, &records, &spec);
    let held = core.state().queue_log().changes().len();
    assert!(held <= machine as usize, "{held} queue changes held");
    assert_eq!(
        Some(drained_fingerprint(&core, scheduler.as_ref())),
        replay.fingerprint
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs journal records through a [`ShardCore`] the way `replay_records`
/// does, and returns the drained core and scheduler.
fn drive_records(
    machine: u32,
    records: &[JournalRecord],
    spec: &SchedulerSpec,
) -> (ShardCore, Box<dyn Scheduler>) {
    let mut jobs = Vec::new();
    let mut eng = Engine::new();
    for (rank, rec) in records.iter().enumerate() {
        let event = match *rec {
            JournalRecord::Submit { job, .. } => {
                jobs.push(job);
                Event::Arrive(job.id)
            }
            JournalRecord::Cancel { job, .. } => Event::CancelCmd(JobId(job)),
        };
        eng.schedule_seeded(rec.stamp(), rank as u64, event);
    }
    let faults = FaultPlan::none();
    let mut scheduler = spec.build();
    let mut core = ShardCore::new(
        machine,
        AdmissionConfig::default(),
        jobs.len(),
        faults.retry,
        SimTime::ZERO,
        Tracer::disabled(),
        0,
    );
    while let Some((_, event)) = eng.step() {
        core.handle(&mut eng, event, scheduler.as_mut(), &jobs, &[], &faults);
    }
    (core, scheduler)
}

/// The service fingerprint of a drained core: no timers left, no feed.
fn drained_fingerprint(core: &ShardCore, scheduler: &dyn Scheduler) -> u128 {
    SimSnapshot {
        core: core.snapshot(),
        engine: EngineSnapshot {
            now: SimTime::ZERO,
            processed: 0,
            next_seq: 0,
            entries: Vec::new(),
        },
        feed: FeedCursors::default(),
        scheduler: scheduler.snapshot().expect("dynP snapshots"),
    }
    .fingerprint()
}

/// One job of the edge mix: width, (estimate, actual) in ms, and whether
/// it is submitted at `MAX_SUBMIT_MS` (batch only; the daemon stamps).
fn edge_job(machine: u32) -> impl Strategy<Value = (u32, (u64, u64), bool)> {
    let ordinary = (1u64..120_000).prop_map(|ms| (ms, ms / 2 + 1));
    (
        prop_oneof![Just(1), Just(2), Just(machine)],
        prop_oneof![
            ordinary.clone(),
            Just((MAX_JOB_MS, MAX_JOB_MS)),
            ordinary.prop_map(|(_, actual)| (MAX_JOB_MS, actual)),
        ],
        (0u8..10).prop_map(|x| x < 3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Jobs at every bound — estimate = actual = `MAX_JOB_MS`, width =
    /// the machine, submit = `MAX_SUBMIT_MS` — mixed with ordinary ones,
    /// the shape of the submits that once saturated the clock and crashed
    /// the daemon. The batch driver runs them under node outages, crashes
    /// and overruns, beside windows as long as a job may be; the daemon
    /// runs them to a drain its journal replays and recovers to. No
    /// panic, no overflow (tier-1 runs in debug, so this is the evidence
    /// for the plain arithmetic of the job bound), and every job is
    /// conserved.
    #[test]
    fn jobs_at_the_duration_bound_run_to_completion(
        shapes in collection::vec(edge_job(4), 1..9),
        outages in collection::vec((1u32..4, 0u64..600_000, 1u64..600_000), 0..4),
        faults in collection::vec(
            prop_oneof![
                Just(None),
                (0.01f64..0.99).prop_map(|fraction| Some(FaultKind::Crash { fraction })),
                Just(Some(FaultKind::Overrun)),
            ],
            9..10,
        ),
        windows in collection::vec((0u64..600_000, 1u32..5, 0u8..2), 0..3),
    ) {
        let ms = SimDuration::from_millis;
        let machine = 4;
        let spec = SchedulerSpec::dynp(DeciderKind::Advanced);

        let jobs = shapes
            .iter()
            .enumerate()
            .map(|(i, &(width, (estimate, actual), far))| {
                let submit = if far { MAX_SUBMIT_MS } else { i as u64 * 7_000 };
                let submit = SimTime::from_millis(submit);
                Job::new(JobId(i as u32), submit, width, ms(estimate), ms(actual))
            })
            .collect();
        let set = JobSet::new("edge", machine, jobs);
        // Nodes 1..4 fail at most once each, so one node always stays up.
        let mut plan = FaultPlan::none();
        for (node, down, length) in outages {
            if plan.outages.iter().all(|o| o.node != node) {
                let down_at = SimTime::from_millis(down);
                let up_at = down_at + ms(length);
                plan.outages.push(NodeOutage { node, down_at, up_at });
            }
        }
        plan.outages.sort_by_key(|o| (o.down_at, o.node));
        plan.job_faults = (0..set.len() as u32)
            .filter_map(|id| faults[id as usize].map(|f| (id, f)))
            .collect();
        let requests: Vec<ReservationRequest> = windows
            .iter()
            .enumerate()
            .map(|(id, &(start, width, long))| ReservationRequest {
                id: id as u32,
                submit: SimTime::ZERO,
                start: SimTime::from_millis(start),
                duration: ms(if long == 1 { MAX_JOB_MS } else { 60_000 }),
                width,
                cancel_at: None,
            })
            .collect();
        for r in &requests {
            prop_assert!((1..=machine).contains(&r.width));
            prop_assert!(r.duration.as_millis() <= MAX_JOB_MS);
        }
        let batch = simulate_chaos(
            &set,
            spec.build().as_mut(),
            &requests,
            AdmissionConfig::default(),
            &plan,
            Tracer::disabled(),
        );
        prop_assert_eq!(batch.completed.len() as u64 + batch.faults.lost, set.len() as u64);

        let dir = temp_dir("bound");
        let mut config = service_config(machine, spec.clone(), &dir);
        config.fsync = FsyncPolicy::Never;
        let (handle, join) = spawn(config.clone()).unwrap();
        for &(width, (estimate, actual), _) in &shapes {
            let submit = SubmitSpec {
                width,
                estimate: ms(estimate),
                actual: ms(actual),
                user: 0,
            };
            handle.submit(submit).unwrap();
        }
        handle.shutdown();
        let live = join.join().unwrap();
        prop_assert_eq!(live.run.completed.len(), shapes.len());

        let records = read_journal(&dir).unwrap().records;
        let replay = replay_records(machine, &records, &spec).unwrap();
        let ends = |run: &DetailedRun| -> Vec<_> {
            run.completed.iter().map(|c| (c.job.id, c.start, c.end)).collect()
        };
        prop_assert_eq!(ends(&replay.run), ends(&live.run));
        prop_assert_eq!(replay.fingerprint, live.fingerprint);

        let (handle, join) = recover(config).unwrap();
        handle.shutdown();
        let recovered = join.join().unwrap();
        prop_assert_eq!(recovered.fingerprint, live.fingerprint);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One recorded baseline session for the recovery tests: many rotations
/// (tiny segments), checkpoints on a record cadence, quotas on, cancels
/// in the stream.
struct Baseline {
    dir: PathBuf,
    machine: u32,
    spec: SchedulerSpec,
    live: ServiceReport,
}

fn recovery_config(machine: u32, spec: SchedulerSpec, dir: &Path) -> ServiceConfig {
    let mut config = service_config(machine, spec, dir);
    config.rotate_bytes = 512; // many small segments
    config.checkpoint_every = 5;
    config.quota = QuotaConfig {
        rate_mtok_per_sec: 100_000,
        burst_mtok: 1_000_000,
    };
    config.fsync = FsyncPolicy::Never; // tests measure logic, not disks
    config
}

fn record_baseline(tag: &str) -> Baseline {
    record_baseline_with(tag, SchedulerSpec::dynp(DeciderKind::Advanced), false)
}

fn record_baseline_with(tag: &str, spec: SchedulerSpec, compact: bool) -> Baseline {
    let dir = temp_dir(tag);
    let machine = 16;
    let mut config = recovery_config(machine, spec.clone(), &dir);
    config.compact = compact;
    let (handle, join) = spawn(config).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC4A5);
    let mut tickets = Vec::new();
    for _ in 0..30 {
        let width = (1 << rng.gen_range_u64(0, 4)).min(machine);
        let actual = SimDuration::from_secs(rng.gen_range_u64(5, 120));
        let spec = SubmitSpec {
            width,
            estimate: actual.scale(1.8),
            actual,
            user: (rng.gen_range_u64(0, 5)) as u32,
        };
        if let Ok(t) = handle.submit(spec) {
            tickets.push(t);
        }
        if rng.gen_bool(0.25) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Occasionally withdraw a recent submission while it still waits.
        if rng.gen_bool(0.15) {
            if let Some(t) = tickets.last() {
                handle.cancel(t.job);
            }
        }
    }
    handle.shutdown();
    let live = join.join().unwrap();
    Baseline {
        dir,
        machine,
        spec,
        live,
    }
}

/// The sorted journal segment files of a directory.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".wal"))
        })
        .collect();
    segs.sort();
    segs
}

/// Builds a crash image: segments strictly before `seg_idx` complete,
/// segment `seg_idx` truncated to `keep_bytes`, later segments gone
/// (they did not exist at the crash), checkpoints copied verbatim
/// (recovery filters out the ones from the future).
fn crash_image(baseline: &Baseline, scratch: &Path, seg_idx: usize, keep_bytes: u64) {
    let segs = segment_files(&baseline.dir);
    for (i, seg) in segs.iter().enumerate().take(seg_idx + 1) {
        let dst = scratch.join(seg.file_name().unwrap());
        std::fs::copy(seg, &dst).unwrap();
        if i == seg_idx {
            let f = std::fs::OpenOptions::new().write(true).open(&dst).unwrap();
            f.set_len(keep_bytes).unwrap();
        }
    }
    for entry in std::fs::read_dir(&baseline.dir).unwrap() {
        let p = entry.unwrap().path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("checkpoint-") {
            std::fs::copy(&p, scratch.join(name)).unwrap();
        }
    }
}

/// Recovers a daemon from a crash image and immediately drains it.
fn recover_and_drain(baseline: &Baseline, scratch: &Path) -> ServiceReport {
    let config = recovery_config(baseline.machine, baseline.spec.clone(), scratch);
    let (handle, join) = recover(config).unwrap();
    handle.shutdown();
    join.join().unwrap()
}

/// Recovery from the complete journal is indistinguishable from the
/// daemon that was never killed: same completions, same SLDwA, same
/// fingerprint.
#[test]
fn recovery_from_a_complete_journal_matches_the_never_killed_run() {
    let baseline = record_baseline("recover_full");
    let scratch = temp_dir("recover_full_img");
    let segs = segment_files(&baseline.dir);
    let last = segs.len() - 1;
    let full_len = std::fs::metadata(&segs[last]).unwrap().len();
    crash_image(&baseline, &scratch, last, full_len);

    let recovered = recover_and_drain(&baseline, &scratch);
    assert_eq!(recovered.accepted, baseline.live.accepted);
    assert_eq!(recovered.cancelled, baseline.live.cancelled);
    assert_eq!(
        recovered.run.completed.len(),
        baseline.live.run.completed.len()
    );
    assert_eq!(
        recovered.run.result.metrics.sldwa,
        baseline.live.run.result.metrics.sldwa
    );
    assert_eq!(recovered.fingerprint, baseline.live.fingerprint);
    assert!(recovered.fingerprint.is_some());

    std::fs::remove_dir_all(&baseline.dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// A corrupted newest checkpoint must not poison recovery: the loader
/// falls back to an older checkpoint or genesis replay and the result
/// is still exact.
#[test]
fn recovery_survives_a_corrupt_newest_checkpoint() {
    let baseline = record_baseline("recover_ckpt");
    let scratch = temp_dir("recover_ckpt_img");
    let segs = segment_files(&baseline.dir);
    let last = segs.len() - 1;
    let full_len = std::fs::metadata(&segs[last]).unwrap().len();
    crash_image(&baseline, &scratch, last, full_len);

    // Flip a byte in the middle of the newest checkpoint's payload.
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&scratch)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-"))
        })
        .collect();
    ckpts.sort();
    assert!(!ckpts.is_empty(), "cadence 5 over 30+ records checkpoints");
    let newest = ckpts.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(newest, bytes).unwrap();

    let recovered = recover_and_drain(&baseline, &scratch);
    assert_eq!(recovered.fingerprint, baseline.live.fingerprint);
    assert_eq!(
        recovered.run.result.metrics.sldwa,
        baseline.live.run.result.metrics.sldwa
    );

    std::fs::remove_dir_all(&baseline.dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// Records a compacted baseline and asserts compaction actually deleted
/// the genesis segments (otherwise the compacted-recovery tests would
/// silently test the ordinary path).
fn record_compacted_baseline(tag: &str, spec: SchedulerSpec) -> Baseline {
    let baseline = record_baseline_with(tag, spec, true);
    let segs = segment_files(&baseline.dir);
    assert!(
        !segs[0].ends_with("journal-000000.wal"),
        "compaction must have deleted the genesis segment, found {:?}",
        segs[0]
    );
    baseline
}

/// Recovery from a compacted journal — where the genesis segments are
/// gone and the first surviving submit has a job id > 0 — must take the
/// checkpoint fast-path and still match the never-killed run exactly,
/// under dynP and under EASY, whose checkpoints carry the backfill count.
#[test]
fn recovery_from_a_compacted_journal_matches_the_never_killed_run() {
    for (tag, spec) in [
        (
            "recover_compact",
            SchedulerSpec::dynp(DeciderKind::Advanced),
        ),
        ("recover_compact_easy", SchedulerSpec::Easy(Policy::Fcfs)),
    ] {
        let baseline = record_compacted_baseline(tag, spec);
        let scratch = temp_dir(&format!("{tag}_img"));
        let segs = segment_files(&baseline.dir);
        let last = segs.len() - 1;
        let full_len = std::fs::metadata(&segs[last]).unwrap().len();
        crash_image(&baseline, &scratch, last, full_len);

        let recovered = recover_and_drain(&baseline, &scratch);
        assert_eq!(recovered.accepted, baseline.live.accepted, "{tag}");
        assert_eq!(recovered.cancelled, baseline.live.cancelled, "{tag}");
        assert_eq!(
            recovered.run.completed.len(),
            baseline.live.run.completed.len()
        );
        assert_eq!(
            recovered.run.result.metrics.sldwa,
            baseline.live.run.result.metrics.sldwa
        );
        assert_eq!(recovered.fingerprint, baseline.live.fingerprint, "{tag}");
        assert!(recovered.fingerprint.is_some());

        std::fs::remove_dir_all(&baseline.dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}

/// A crash on a compacted journal: the last segment is torn mid-record.
/// Recovery must still succeed from the checkpoint plus the surviving
/// suffix, lose nothing acknowledged-and-surviving, and be
/// deterministic — two recoveries of the same crash image drain to the
/// same fingerprint and SLDwA.
#[test]
fn crash_recovery_on_a_compacted_journal_is_exact_and_deterministic() {
    let baseline = record_compacted_baseline(
        "recover_compact_crash",
        SchedulerSpec::dynp(DeciderKind::Advanced),
    );
    let segs = segment_files(&baseline.dir);
    let last = segs.len() - 1;
    let full_len = std::fs::metadata(&segs[last]).unwrap().len();
    let keep = full_len.saturating_sub(3); // tear the final frame
    let scratch_a = temp_dir("recover_compact_crash_a");
    let scratch_b = temp_dir("recover_compact_crash_b");
    crash_image(&baseline, &scratch_a, last, keep);
    crash_image(&baseline, &scratch_b, last, keep);

    let a = recover_and_drain(&baseline, &scratch_a);
    let b = recover_and_drain(&baseline, &scratch_b);
    assert_eq!(a.run.faults.lost, 0);
    assert_eq!(a.run.completed.len() as u64, a.accepted - a.cancelled);
    assert!(a.accepted <= baseline.live.accepted);
    assert!(a.fingerprint.is_some());
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.cancelled, b.cancelled);
    assert_eq!(a.run.result.metrics.sldwa, b.run.result.metrics.sldwa);
    assert_eq!(a.fingerprint, b.fingerprint);

    std::fs::remove_dir_all(&baseline.dir).unwrap();
    std::fs::remove_dir_all(&scratch_a).unwrap();
    std::fs::remove_dir_all(&scratch_b).unwrap();
}

/// A compacted journal whose checkpoints were all lost cannot be
/// recovered — genesis replay is impossible without the deleted
/// segments. That must be the typed compaction-gap refusal, not a
/// silent genesis replay over the hole.
#[test]
fn compacted_journal_without_covering_checkpoint_is_a_typed_gap() {
    let baseline = record_compacted_baseline(
        "recover_compact_gap",
        SchedulerSpec::dynp(DeciderKind::Advanced),
    );
    let scratch = temp_dir("recover_compact_gap_img");
    let segs = segment_files(&baseline.dir);
    let last = segs.len() - 1;
    let full_len = std::fs::metadata(&segs[last]).unwrap().len();
    crash_image(&baseline, &scratch, last, full_len);
    for entry in std::fs::read_dir(&scratch).unwrap() {
        let p = entry.unwrap().path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("checkpoint-") {
            std::fs::remove_file(&p).unwrap();
        }
    }

    let config = recovery_config(baseline.machine, baseline.spec.clone(), &scratch);
    match recover(config) {
        Err(RecoverError::CompactionGap) => {}
        Ok(_) => panic!("recovery over a compaction gap must be refused"),
        Err(other) => panic!("wrong error: {other}"),
    }

    std::fs::remove_dir_all(&baseline.dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// A refused submission leaves no trace in the quota buckets. The hog
/// spends its burst, is refused 20 ms later, and user 2's accepted
/// submission then checkpoints. The journal alone, recovered from
/// genesis, must rebuild the hog's bucket exactly as that checkpoint has
/// it — the stored `(level, stamp)`, not only the level it implies later.
#[test]
fn a_refused_submit_leaves_the_buckets_recovery_rebuilds() {
    let dir = temp_dir("bucket_fold");
    let mut config = service_config(16, SchedulerSpec::dynp(DeciderKind::Advanced), &dir);
    // Real time: the spent bucket takes 1 000 s to afford the next
    // submission, so no host stall lets the hog back in.
    config.speedup = 1;
    config.fsync = FsyncPolicy::Never;
    config.checkpoint_every = 1;
    config.quota = QuotaConfig {
        rate_mtok_per_sec: 1,
        burst_mtok: 2000,
    };
    let job = |user| SubmitSpec {
        width: 1,
        estimate: SimDuration::from_secs(60),
        actual: SimDuration::from_secs(60),
        user,
    };
    let pause = || std::thread::sleep(std::time::Duration::from_millis(20));
    let hog_bucket = |dir: &Path| {
        let (ckpt, _) = load_latest_checkpoint(dir).unwrap();
        let buckets = ckpt.expect("checkpoint_every 1 checkpoints").buckets;
        buckets
            .into_iter()
            .find(|b| b.0 == 1)
            .map(|(_, l, t)| (l, t))
    };

    let (handle, join) = spawn(config.clone()).unwrap();
    handle.submit(job(1)).unwrap();
    handle.submit(job(1)).unwrap();
    pause();
    assert!(matches!(
        handle.submit(job(1)),
        Err(SubmitError::Overload(OverloadReason::UserQuota))
    ));
    pause();
    handle.submit(job(2)).unwrap();
    handle.shutdown();
    join.join().unwrap();
    let live = hog_bucket(&dir);

    let genesis = temp_dir("bucket_fold_genesis");
    for seg in segment_files(&dir) {
        std::fs::copy(&seg, genesis.join(seg.file_name().unwrap())).unwrap();
    }
    config.journal = Some(genesis.clone());
    let (handle, join) = recover(config).unwrap();
    handle.submit(job(3)).unwrap();
    handle.shutdown();
    join.join().unwrap();
    let rebuilt = hog_bucket(&genesis);

    assert!(live.is_some(), "the hog was charged");
    assert_eq!(rebuilt, live, "the hog's (level, stamp)");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&genesis).unwrap();
}

/// A journal the admission path could not have written — a submission
/// that skips a job id, a cancel of a job no submission introduced — is
/// the same typed error from the batch replay and from recovery, and a
/// refused recovery leaves the directory as it found it.
#[test]
fn replay_and_recovery_refuse_an_inconsistent_journal_alike() {
    let (machine, spec) = (16, SchedulerSpec::Static(Policy::Fcfs));
    let minute = SimDuration::from_secs(60);
    let submit = |seq, id| JournalRecord::Submit {
        seq,
        user: 0,
        job: Job::new(JobId(id), SimTime::from_millis(seq), 4, minute, minute),
    };
    let cancel = |seq, job| JournalRecord::Cancel {
        seq,
        stamp: SimTime::from_millis(seq),
        job,
    };
    let cases = [
        (
            vec![submit(0, 0), submit(1, 2)],
            ReplayError::JobIdMismatch {
                expected: 1,
                found: 2,
            },
        ),
        (
            vec![submit(0, 0), cancel(1, 5)],
            ReplayError::UnknownJob { job: 5 },
        ),
    ];
    let listing = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    for (records, want) in cases {
        let dir = temp_dir("refused_replay");
        let scheduler = render_scheduler(&spec);
        let mut writer =
            JournalWriter::create(&dir, machine, 1000, &scheduler, FsyncPolicy::Never, 1 << 20)
                .unwrap();
        for rec in &records {
            writer.append(rec).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let before = listing(&dir);

        let replayed = replay_records(machine, &records, &spec);
        assert_eq!(replayed.err(), Some(want.clone()));
        match recover(service_config(machine, spec.clone(), &dir)) {
            Err(RecoverError::Replay(e)) => assert_eq!(e, want),
            Err(other) => panic!("{want}: wrong error: {other}"),
            Ok(_) => panic!("{want}: recovery must refuse the journal"),
        }
        assert_eq!(listing(&dir), before, "{want}: the directory changed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A crash before the very first journal header was durable leaves a
/// lone torn segment 0 — an empty journal. `--recover` must not refuse
/// the directory: nothing was acknowledged, so it removes the wreck and
/// starts the service fresh.
#[test]
fn recovery_from_a_torn_genesis_header_starts_fresh() {
    let dir = temp_dir("recover_torn_genesis");
    // Magic plus two bytes of the version field: torn mid-header.
    std::fs::write(dir.join("journal-000000.wal"), b"DYNPJRNL\x01\x00").unwrap();
    assert!(matches!(
        read_journal(&dir),
        Err(JournalError::TornGenesis { .. })
    ));

    let machine = 16;
    let spec = SchedulerSpec::dynp(DeciderKind::Advanced);
    let (handle, join) = recover(recovery_config(machine, spec, &dir)).unwrap();
    let accepted = submit_burst(&handle, machine, 8, 0x7041);
    assert_eq!(accepted, 8, "the fresh service accepts work");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.accepted, 8);
    assert_eq!(report.run.completed.len(), 8);
    assert_eq!(report.run.faults.lost, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at any point: truncate the journal at an arbitrary byte
    /// offset (any segment, any offset — record boundaries, torn
    /// mid-record tails, even mid-header), recover a daemon from the
    /// wreckage, drain it, and demand the recovered session equal the
    /// batch replay of the surviving records: same acceptance counts,
    /// same completions, same SLDwA, same fingerprint. Acknowledged
    /// work is exactly the complete-record prefix, so nothing accepted
    /// is ever lost.
    #[test]
    fn crash_at_any_point_recovers_exactly(seg_frac in 0.0f64..1.0, byte_frac in 0.0f64..1.0) {
        let baseline = record_baseline("recover_prop");
        let scratch = temp_dir("recover_prop_img");
        let segs = segment_files(&baseline.dir);
        let seg_idx = ((seg_frac * segs.len() as f64) as usize).min(segs.len() - 1);
        let seg_len = std::fs::metadata(&segs[seg_idx]).unwrap().len();
        // Any byte offset in any segment — record boundaries, torn
        // mid-record tails, mid-header, even inside the very first
        // header (an empty journal: recovery starts fresh).
        let keep = ((byte_frac * seg_len as f64) as u64).min(seg_len);
        crash_image(&baseline, &scratch, seg_idx, keep);

        // What survived the crash, per the reader. A torn genesis
        // header means nothing did.
        let (machine_size, records) = match read_journal(&scratch) {
            Ok(journal) => (journal.machine_size, journal.records),
            Err(JournalError::TornGenesis { .. }) => (baseline.machine, Vec::new()),
            Err(e) => panic!("crash image must stay readable: {e}"),
        };
        let submits = records.iter().filter(|r| matches!(r, dynp_serve::JournalRecord::Submit { .. })).count() as u64;
        let cancels = records.len() as u64 - submits;

        let recovered = recover_and_drain(&baseline, &scratch);
        prop_assert_eq!(recovered.accepted, submits, "every surviving submit is recovered");
        prop_assert_eq!(recovered.cancelled, cancels);
        prop_assert_eq!(recovered.run.completed.len() as u64, submits - cancels);
        prop_assert_eq!(recovered.run.faults.lost, 0);

        let replay = replay_records(machine_size, &records, &baseline.spec).unwrap();
        prop_assert_eq!(recovered.run.completed.len(), replay.run.completed.len());
        for (r, l) in replay.run.completed.iter().zip(&recovered.run.completed) {
            prop_assert_eq!(r.job.id, l.job.id);
            prop_assert_eq!(r.start, l.start);
            prop_assert_eq!(r.end, l.end);
        }
        prop_assert_eq!(replay.run.result.metrics.sldwa, recovered.run.result.metrics.sldwa);
        prop_assert_eq!(replay.fingerprint, recovered.fingerprint);
        prop_assert!(recovered.fingerprint.is_some());

        std::fs::remove_dir_all(&baseline.dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
