//! No bytes panic the binary boundaries: `decode_snapshot`,
//! `read_journal`/`read_journal_header` on a journal directory, and
//! `load_latest_checkpoint` on a checkpoint directory return `Ok` or a
//! typed error on whatever they are handed. (The JSON boundary is
//! `tests/json_boundary.rs`.)
//!
//! Three generators, all starting from what a real build wrote (the
//! fixtures of `tests/format_fixtures.rs`):
//!
//! * arbitrary bytes behind a valid magic and version;
//! * a fixture file with a window of bytes cut out or spliced in;
//! * a fixture file overwritten in a few places — runs of `0xFF`, `0x00`
//!   or one byte, often at the start of a header or payload field — and
//!   then re-sealed with fresh checksums, so the payload decoders are
//!   reached and not only the checksum.
//!
//! A journal the reader accepts is also replayed (`replay_records`): its
//! submits passed the job gate, so no shape of them panics the planner.
//! A checkpoint the loader accepts has its dynP scheduler snapshot
//! restored: the decoder refused every word a `restore` could not take.
//!
//! The engine decoder refuses a pending timer before the clock, out of
//! order or past the sequence counter, and the core decoder a machine
//! whose counters disagree with its node table: a checkpoint resealed
//! with its node accounting overwritten recovers and drains, or
//! recovery refuses it typed. Out of scope: whether the rest of a
//! checkpoint whose checksum holds but whose state is inconsistent can
//! be *restored*; the threat model is torn writes and bit rot, not an
//! adversary (DESIGN §14).

use dynp_core::DeciderKind;
use dynp_des::{ByteReader, ByteWriter, EngineSnapshot};
use dynp_obs::{TraceEvent, TraceLevel, Tracer};
use dynp_rms::{Policy, RmsState, SchedulerSnapshot};
use dynp_serve::{
    load_latest_checkpoint, parse_scheduler, read_journal, read_journal_header, recover,
    replay_records, FsyncPolicy, JournalError, RecoverError, ServiceConfig,
};
use dynp_sim::{decode_snapshot, Event, SchedulerSpec};
use proptest::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Snapshot,
    Checkpoint,
    Segment,
}

/// One fixture file and where its fields lie.
struct Fixture {
    kind: Kind,
    name: &'static str,
    bytes: Vec<u8>,
    /// Byte ranges of its sealed payloads.
    payloads: Vec<Range<usize>>,
    /// Offsets where an envelope, header or payload field starts.
    anchors: Vec<usize>,
}

fn hex(text: &str) -> Vec<u8> {
    let hex: String = text.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

impl Fixture {
    fn new(kind: Kind, name: &'static str, bytes: Vec<u8>) -> Fixture {
        // magic | version, then what each format puts before its frames.
        let mut r = ByteReader::new(&bytes);
        r.raw(12).unwrap();
        let mut anchors = vec![0, 8];
        match kind {
            Kind::Snapshot => {}
            Kind::Checkpoint => {
                anchors.push(r.position());
                r.u64().unwrap(); // journal seq
            }
            Kind::Segment => {
                // machine, speedup, scheduler, segment index, base seq
                anchors.push(r.position());
                r.u32().unwrap();
                anchors.push(r.position());
                r.u64().unwrap();
                anchors.push(r.position());
                r.str().unwrap();
                anchors.push(r.position());
                r.u32().unwrap();
                anchors.push(r.position());
                r.u64().unwrap();
            }
        }
        let mut payloads = Vec::new();
        while !r.is_exhausted() {
            if kind == Kind::Segment {
                anchors.push(r.position());
                r.u8().unwrap(); // record type
            }
            anchors.push(r.position());
            let start = r.position() + 4;
            let len = r.bytes().unwrap().len();
            r.u32().unwrap();
            // A payload's first two fields: a record's seq and stamp.
            anchors.extend([start, start + 8]);
            payloads.push(start..start + len);
        }
        Fixture {
            kind,
            name,
            bytes,
            payloads,
            anchors,
        }
    }
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let v1 = include_str!("../crates/sim/tests/fixtures/snapshot_v1.hex");
        let v2 = include_str!("../crates/sim/tests/fixtures/snapshot_v2.hex");
        vec![
            Fixture::new(Kind::Snapshot, "snapshot_v1", hex(v1)),
            Fixture::new(Kind::Snapshot, "snapshot_v2", hex(v2)),
            Fixture::new(
                Kind::Checkpoint,
                "checkpoint-0000000004.ckpt",
                include_bytes!("fixtures/journal_v1/checkpoint-0000000004.ckpt").to_vec(),
            ),
            Fixture::new(
                Kind::Checkpoint,
                "checkpoint-0000000011.ckpt",
                include_bytes!("fixtures/journal_v1/checkpoint-0000000011.ckpt").to_vec(),
            ),
            Fixture::new(
                Kind::Segment,
                "journal-000000.wal",
                include_bytes!("fixtures/journal_v1/journal-000000.wal").to_vec(),
            ),
            Fixture::new(
                Kind::Segment,
                "journal-000001.wal",
                include_bytes!("fixtures/journal_v1/journal-000001.wal").to_vec(),
            ),
        ]
    })
}

/// A fresh temp dir for the test named `tag`.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dynp_binary_boundary_test")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Hands `bytes`, shaped like fixture `f`, to its boundary (files go to
/// the temp dir of the test named `tag`).
fn hit(tag: &str, f: &Fixture, bytes: &[u8]) -> Result<(), TestCaseError> {
    if f.kind == Kind::Snapshot {
        let _ = decode_snapshot(bytes);
        return Ok(());
    }
    let dir = temp_dir(tag);
    if f.name == "journal-000001.wal" {
        // Behind an intact segment 0, so the cross-segment checks run.
        std::fs::write(dir.join(fixtures()[4].name), &fixtures()[4].bytes).unwrap();
    }
    std::fs::write(dir.join(f.name), bytes).unwrap();
    match f.kind {
        Kind::Checkpoint => {
            let loaded = load_latest_checkpoint(&dir);
            prop_assert!(loaded.is_ok(), "a bad checkpoint is skipped: {loaded:?}");
            // The journal's scheduler is dynP: its snapshots restore.
            if let Ok((Some(c), _)) = &loaded {
                if matches!(c.scheduler, SchedulerSnapshot::DynP { .. }) {
                    let restored = std::panic::catch_unwind(|| {
                        parse_scheduler("dynp")
                            .unwrap()
                            .build()
                            .restore(&c.scheduler)
                    });
                    prop_assert!(restored.is_ok(), "a loaded snapshot panicked its restore");
                }
            }
        }
        _ => {
            for e in [read_journal(&dir).err(), read_journal_header(&dir).err()] {
                prop_assert!(!matches!(e, Some(JournalError::Io { .. })), "{e:?}");
            }
            if let Ok(journal) = read_journal(&dir) {
                let replayed = std::panic::catch_unwind(|| {
                    let spec = parse_scheduler(&journal.scheduler).ok()?;
                    replay_records(journal.machine_size, &journal.records, &spec).ok()
                });
                prop_assert!(replayed.is_ok(), "an accepted journal panicked its replay");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

/// Where a checkpoint fixture keeps its node accounting: the core's
/// machine size and free count, then its node table, down flags and
/// down count.
fn node_accounting(f: &Fixture) -> [Range<usize>; 2] {
    let (start, mut r) = core_reader(f);
    let core = start + r.position();
    let machine = RmsState::decode_from(&mut r).unwrap().machine_size() as usize;
    let end = start + r.position();
    // count | one u32 slot and one flag per node | down count
    [core..core + 8, end - (8 + 5 * machine)..end]
}

/// A reader at the core of checkpoint fixture `f`, and the payload's
/// offset in the file.
fn core_reader(f: &Fixture) -> (usize, ByteReader<'_>) {
    let p = f.payloads[0].clone();
    let mut r = ByteReader::new(&f.bytes[p.clone()]);
    r.u32().unwrap(); // the daemon's machine size
    EngineSnapshot::decode_from(&mut r, Event::decode_from).unwrap();
    r.u64().unwrap(); // the external floor
    (p.start, r)
}

/// Recovers the journal and checkpoints in `dir` on the daemon that
/// wrote them and drains it; asserts it ends where the journal's replay
/// ends. Returns how many records each checkpoint load replayed.
fn recover_to_replay(dir: &Path) -> Vec<u64> {
    let journal = read_journal(dir).unwrap();
    let spec = parse_scheduler(&journal.scheduler).unwrap();
    let replayed = replay_records(journal.machine_size, &journal.records, &spec).unwrap();
    let mut config = ServiceConfig::new(journal.machine_size, spec);
    config.speedup = journal.speedup;
    config.journal = Some(dir.to_path_buf());
    config.fsync = FsyncPolicy::Never;
    config.tracer = Tracer::with_capacity(TraceLevel::Decisions, 1024);
    let tracer = config.tracer.clone();
    let (handle, join) = recover(config).expect("recovers");
    handle.shutdown();
    assert!(replayed.fingerprint.is_some());
    assert_eq!(join.join().unwrap().fingerprint, replayed.fingerprint);
    tracer
        .snapshot()
        .records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::CheckpointLoaded { replayed, .. } => Some(replayed),
            _ => None,
        })
        .collect()
}

/// Puts `bytes` in place of checkpoint `f` beside the other fixtures and
/// asserts that recovery skips it for the older checkpoint, replays the
/// seven records behind that one and drains to the journal's replay.
fn assert_falls_back(f: &Fixture, bytes: Vec<u8>, label: &str) {
    let dir = temp_dir(label);
    for g in &fixtures()[2..] {
        std::fs::write(dir.join(g.name), &g.bytes).unwrap();
    }
    std::fs::write(dir.join(f.name), bytes).unwrap();
    let (latest, skipped) = load_latest_checkpoint(&dir).unwrap();
    assert_eq!(latest.map(|c| c.journal_seq), Some(4));
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    let next_seq = read_journal(&dir).unwrap().next_seq;
    assert_eq!(recover_to_replay(&dir), [next_seq - 4]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Overwrites `width` bytes at `at` (an anchor, or any offset) with
/// `fill`, then re-seals every payload with a fresh checksum.
fn mutate_and_reseal(f: &Fixture, ops: &[(bool, usize, usize, u8)]) -> Vec<u8> {
    let mut bytes = f.bytes.clone();
    for &(anchored, at, width, fill) in ops {
        let at = if anchored {
            f.anchors[at % f.anchors.len()]
        } else {
            at % bytes.len()
        };
        let end = (at + width).min(bytes.len());
        bytes[at..end].fill(fill);
    }
    for p in &f.payloads {
        let mut w = ByteWriter::new();
        w.sealed(|w| w.raw(&bytes[p.clone()]));
        let sealed = w.into_bytes();
        bytes[p.end..p.end + 4].copy_from_slice(&sealed[sealed.len() - 4..]);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_behind_a_valid_head_are_typed(
        which in 0usize..6,
        tail in collection::vec(0u8..255, 0..300),
    ) {
        let f = &fixtures()[which];
        // The fixture's magic and version, then anything.
        hit("head", f, &[&f.bytes[..12], &tail].concat())?;
    }

    #[test]
    fn a_window_cut_out_or_spliced_in_is_typed(
        which in 0usize..6,
        at in 0usize..4096,
        cut in 0usize..64,
        splice in collection::vec(prop_oneof![Just(0xFFu8), Just(0u8), 0u8..255], 0..24),
    ) {
        let f = &fixtures()[which];
        let at = at % f.bytes.len();
        let end = (at + cut).min(f.bytes.len());
        hit("window", f, &[&f.bytes[..at], &splice, &f.bytes[end..]].concat())?;
    }

    #[test]
    fn a_resealed_mutation_reaches_the_payload_decoders(
        which in 0usize..6,
        ops in collection::vec(
            (
                prop_oneof![Just(true), Just(false)],
                0usize..4096,
                1usize..9,
                prop_oneof![Just(0xFFu8), Just(0u8), 0u8..255],
            ),
            1..4,
        ),
    ) {
        let f = &fixtures()[which];
        hit("reseal", f, &mutate_and_reseal(f, &ops))?;
    }

    #[test]
    fn a_resealed_node_accounting_recovers_or_is_refused(
        which in 2usize..4,
        ops in collection::vec(
            (
                0usize..2,
                0usize..4096,
                1usize..9,
                prop_oneof![Just(0xFFu8), Just(0u8), 0u8..255],
            ),
            1..4,
        ),
    ) {
        let f = &fixtures()[which];
        let words = node_accounting(f);
        let ops: Vec<_> = ops
            .into_iter()
            .map(|(range, at, width, fill)| {
                let range = &words[range];
                let at = range.start + at % range.len();
                (false, at, width.min(range.end - at), fill)
            })
            .collect();
        let dir = temp_dir("node_accounting");
        for g in &fixtures()[4..] {
            std::fs::write(dir.join(g.name), &g.bytes).unwrap();
        }
        std::fs::write(dir.join(f.name), mutate_and_reseal(f, &ops)).unwrap();
        let loaded = load_latest_checkpoint(&dir);
        prop_assert!(loaded.is_ok(), "a bad checkpoint is skipped: {loaded:?}");
        // Beside the journal it was cut from, the checkpoint recovers and
        // drains, or recovery refuses it typed.
        let drained = std::panic::catch_unwind(|| {
            let journal = read_journal(&dir).unwrap();
            let spec = parse_scheduler(&journal.scheduler).unwrap();
            let mut config = ServiceConfig::new(journal.machine_size, spec);
            config.speedup = journal.speedup;
            config.journal = Some(dir.clone());
            config.fsync = FsyncPolicy::Never;
            match recover(config) {
                Ok((handle, join)) => {
                    handle.shutdown();
                    join.join().is_ok()
                }
                Err(_) => true,
            }
        });
        prop_assert!(matches!(drained, Ok(true)), "a loaded core panicked its recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The resealing generator can write a segment whose base seq and first
/// record's seq are both `u64::MAX`: a record seq with no successor.
#[test]
fn the_resealing_generator_reaches_a_sequence_overflow() {
    let f = &fixtures()[4];
    let (base_seq, first_seq) = (f.anchors[6], f.payloads[0].start);
    let at = |off| f.anchors.iter().position(|&a| a == off).unwrap();
    let ops = [
        (true, at(base_seq), 8, 0xFF),
        (true, at(first_seq), 8, 0xFF),
    ];
    let bytes = mutate_and_reseal(f, &ops);
    let dir = temp_dir("overflow");
    std::fs::write(dir.join(f.name), bytes).unwrap();
    assert!(matches!(
        read_journal(&dir),
        Err(JournalError::BadRecord { what, .. }) if what == "sequence overflow"
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint whose checksum holds but whose dynP `active` word is 99
/// names no policy: the loader skips it, and recovery falls back to the
/// older checkpoint and drains to the journal's replay.
#[test]
fn a_checkpoint_naming_no_policy_falls_back_to_the_older_one() {
    let f = &fixtures()[3];
    let tag = f.bytes.windows(8).position(|w| w == b"\x04\0\0\0dynp");
    // The tag, the word count, then the low byte of the active word.
    let bytes = mutate_and_reseal(f, &[(false, tag.unwrap() + 12, 1, 99)]);
    assert_falls_back(f, bytes, "active_99");
}

/// A checkpoint whose checksum holds but whose engine holds a timer
/// before its clock would, restored, run the clock backward: the decoder
/// refuses it, and recovery falls back to the older checkpoint and
/// drains to the journal's replay.
#[test]
fn a_checkpoint_whose_engine_holds_a_past_timer_falls_back_to_the_older_one() {
    let f = &fixtures()[3];
    // The payload opens with the machine size, then the engine: clock,
    // dispatch count, sequence counter and the pending timers.
    let mut r = ByteReader::new(&f.bytes[f.payloads[0].clone()]);
    r.u32().unwrap();
    let now = r.u64().unwrap();
    r.u64().unwrap();
    r.u64().unwrap();
    assert!(
        now > 0 && r.u32().unwrap() > 0,
        "the fixture has a clock and a timer"
    );
    // The first timer's instant becomes 0.
    let at = f.payloads[0].start + r.position();
    let bytes = mutate_and_reseal(f, &[(false, at, 8, 0)]);
    assert_falls_back(f, bytes, "past_timer");
}

/// A checkpoint whose checksum holds but whose core miscounts its nodes
/// — every processor free, or a one-processor machine over a 16-node
/// table — would, restored, overflow a counter at the first completion
/// (debug) or plan on a machine it miscounts (release): the decoder
/// refuses it, and recovery falls back to the older checkpoint, replays
/// the seven records behind it and drains to the journal's replay.
#[test]
fn a_checkpoint_whose_core_miscounts_its_nodes_falls_back_to_the_older_one() {
    let f = &fixtures()[3];
    let core = node_accounting(f)[0].start;
    // The core opens with the machine size, then the free count.
    let all_free = [(false, core + 4, 4, 0xFF)];
    let one_processor = [(false, core, 4, 0), (false, core, 1, 1)];
    for ops in [&all_free[..], &one_processor[..]] {
        let bytes = mutate_and_reseal(f, ops);
        assert_falls_back(f, bytes, "core_miscount");
    }
}

/// A checkpoint whose checksum holds but whose queue-length time weight
/// was last updated after its clock would, restored, panic the next
/// event's update in a debug build and run on from the bad state in a
/// release build: the decoder refuses it, and recovery falls back to the
/// older checkpoint and drains to the journal's replay.
#[test]
fn a_checkpoint_whose_time_weight_lies_past_its_clock_falls_back_to_the_older_one() {
    let f = &fixtures()[3];
    // After the node table: the attempt counters and nine fault
    // counters, then the queue weight, its last update first.
    let (start, mut r) = core_reader(f);
    RmsState::decode_from(&mut r).unwrap();
    r.list(|r| r.u32()).unwrap();
    for _ in 0..9 {
        r.u64().unwrap();
    }
    let last_update = start + r.position();
    let bytes = mutate_and_reseal(f, &[(false, last_update + 5, 1, 0x7F)]);
    assert_falls_back(f, bytes, "weight_past_clock");
}

/// A checkpoint whose checksum holds and whose dynP `active` word names
/// a policy, but not one of the scheduler's candidates (`SAF` under the
/// paper's three), decodes — and the scheduler refuses it: recovery
/// restores the older checkpoint instead, replays the seven records
/// behind it, and drains to the journal's replay, where restoring it
/// would have panicked at the first replan.
#[test]
fn a_checkpoint_naming_a_non_candidate_policy_falls_back_to_the_older_one() {
    let f = &fixtures()[3];
    let tag = f.bytes.windows(8).position(|w| w == b"\x04\0\0\0dynp");
    let saf = Policy::Saf.index() as u8;
    let bytes = mutate_and_reseal(f, &[(false, tag.unwrap() + 12, 1, saf)]);
    let dir = temp_dir("non_candidate");
    for g in &fixtures()[2..] {
        std::fs::write(dir.join(g.name), &g.bytes).unwrap();
    }
    std::fs::write(dir.join(f.name), bytes).unwrap();
    let (latest, skipped) = load_latest_checkpoint(&dir).unwrap();
    let latest = latest.expect("the tampered checkpoint decodes");
    assert_eq!(latest.journal_seq, 11);
    assert!(skipped.is_empty(), "{skipped:?}");
    assert!(matches!(
        latest.scheduler,
        SchedulerSnapshot::DynP {
            active: Policy::Saf,
            ..
        }
    ));

    let next_seq = read_journal(&dir).unwrap().next_seq;
    assert_eq!(recover_to_replay(&dir), [next_seq - 4]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checksummed submit the job gate refuses — what a build without the
/// gate journaled before its daemon crashed on it — is a typed
/// `BadRecord` naming the field, from the reader and from recovery, not
/// a replay into the same crash. The segment header's machine has 16
/// processors; the record holds width 16, estimate 900 000 ms and actual
/// 600 000 ms.
#[test]
fn an_over_bound_submit_is_a_typed_record_error() {
    let f = &fixtures()[4];
    let payload = f.payloads[0].start;
    assert_eq!(f.bytes[payload - 5], 1, "the first record is a submit");
    // seq u64 | stamp u64 | job u32 | user u32 | width u32 | estimate u64
    // | actual u64, little-endian
    let (width, estimate, actual) = (payload + 24, payload + 28, payload + 36);
    for ((at, len, fill), field) in [
        ((estimate, 8, 0xFF), "estimate_ms"),
        ((estimate, 8, 0x00), "estimate_ms"),
        // Its third byte 0x09 → 0x0F: 993 216 ms, past the estimate.
        ((actual + 2, 1, 0x0F), "actual_ms"),
        ((width, 4, 0x00), "width 0 "),
        ((width, 1, 0x11), "width 17 "),
        ((width, 4, 0xFF), "width 4294967295 "),
    ] {
        let bytes = mutate_and_reseal(f, &[(false, at, len, fill)]);
        let dir = temp_dir("over_bound");
        std::fs::write(dir.join(f.name), bytes).unwrap();
        let refused = |e: &JournalError| matches!(e, JournalError::BadRecord { what, .. } if what.contains(field));
        let e = read_journal(&dir).unwrap_err();
        assert!(refused(&e), "{field}: {e}");
        let mut config = ServiceConfig::new(16, SchedulerSpec::dynp(DeciderKind::Advanced));
        config.journal = Some(dir.clone());
        match recover(config) {
            Err(RecoverError::Journal(e)) => assert!(refused(&e), "{field}: {e}"),
            Err(e) => panic!("{field}: wrong error: {e}"),
            Ok(_) => panic!("{field}: recovered a journal the gate refuses"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
