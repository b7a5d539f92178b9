//! Bytes an older build wrote, read by this one.
//!
//! The fixtures were written by commit 54a96ab and are never regenerated:
//!
//! * `crates/sim/tests/fixtures/snapshot_v2.hex` — `encode_snapshot` of
//!   the `v1_scenario` inputs of `crates/sim/tests/snapshot_roundtrip.rs`,
//!   six events into a dynP[advanced] run, the same instant
//!   `snapshot_v1.hex` was taken at by the commit before the feed cursors;
//! * `tests/fixtures/journal_v1/` — a `daemon` session in two segments
//!   with two checkpoints and one cancel, plus its drain summary line
//!   (its `README.md` has the commands and inputs).
//!
//! Three checks: each fixture decodes; re-encoding what was decoded gives
//! the same bytes (`encode_snapshot`, `write_checkpoint`, a
//! `JournalWriter` fed the same records); and the journal recovers
//! through `recover` to the committed summary, as `replay_records` does.

use dynp_des::ByteWriter;
use dynp_serve::journal::write_checkpoint;
use dynp_serve::{
    load_latest_checkpoint, parse_scheduler, read_journal, recover, render_summary, replay_records,
    FsyncPolicy, JournalDir, JournalWriter, ServiceConfig,
};
use dynp_sim::{decode_snapshot, encode_snapshot};
use std::path::{Path, PathBuf};

const JOURNAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/journal_v1");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dynp_format_fixtures_test")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn hex(text: &str) -> Vec<u8> {
    let hex: String = text.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// The fixture files whose names start with `prefix`, sorted.
fn fixture_files(prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(JOURNAL)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with(prefix))
        .collect();
    files.sort();
    files
}

/// A copy of `files` in a fresh temp dir.
fn copy_into(tag: &str, files: &[PathBuf]) -> PathBuf {
    let dir = temp_dir(tag);
    for f in files {
        std::fs::copy(f, dir.join(f.file_name().unwrap())).unwrap();
    }
    dir
}

/// The six summary fields CI diffs between a recovery and a replay.
fn six_fields(summary: &str) -> Vec<String> {
    [
        "accepted",
        "completed",
        "lost",
        "cancelled",
        "sldwa",
        "fingerprint",
    ]
    .iter()
    .map(|field| {
        let key = format!("\"{field}\":");
        let at = summary.find(&key).expect("summary field") + key.len();
        let len = summary[at..].find([',', '}']).unwrap();
        format!("{key}{}", &summary[at..at + len])
    })
    .collect()
}

/// Decoding a fixture must give the value commit 54a96ab decoded from
/// it: a layout read and written back in the same wrong order would
/// still re-encode the same bytes, but not to the same fingerprint.
#[test]
fn snapshots_decode_and_re_encode_byte_identically() {
    let v2 = hex(include_str!("../crates/sim/tests/fixtures/snapshot_v2.hex"));
    let snap = decode_snapshot(&v2).expect("a version-2 snapshot decodes");
    assert_eq!(snap.fingerprint(), 0x6af173fb365e8b1a73f9efe5eaa6dd22);
    assert_eq!(encode_snapshot(&snap), v2);

    // Version 1 re-encodes as version 2: the same core, engine and
    // scheduler bytes with the three feed cursors (0, 0, 0) in between.
    let v1 = hex(include_str!("../crates/sim/tests/fixtures/snapshot_v1.hex"));
    let snap = decode_snapshot(&v1).expect("a version-1 snapshot decodes");
    assert_eq!(snap.fingerprint(), 0x2ca8fca729bd4a812fd054b7c702ec0c);
    let payload = &v1[16..v1.len() - 4];
    let mut scheduler = ByteWriter::new();
    snap.scheduler.encode_into(&mut scheduler);
    let scheduler = scheduler.into_bytes().len();
    let (state, scheduler) = payload.split_at(payload.len() - scheduler);
    let mut want = ByteWriter::new();
    want.magic(b"DYNPSNAP", 2);
    want.sealed(|w| {
        w.raw(state);
        w.raw(&[0; 12]);
        w.raw(scheduler);
    });
    assert_eq!(encode_snapshot(&snap), want.into_bytes());
}

#[test]
fn checkpoints_decode_and_re_encode_byte_identically() {
    let files = fixture_files("checkpoint-");
    assert_eq!(files.len(), 2);
    for file in files {
        let name = file.file_name().unwrap().to_owned();
        let dir = copy_into("ckpt_in", std::slice::from_ref(&file));
        let (ckpt, skipped) = load_latest_checkpoint(&dir).unwrap();
        assert!(skipped.is_empty(), "{name:?} is skipped");
        let out = temp_dir("ckpt_out");
        write_checkpoint(&out, &ckpt.expect("the checkpoint decodes")).unwrap();
        assert_eq!(
            std::fs::read(out.join(&name)).unwrap(),
            std::fs::read(&file).unwrap(),
            "{name:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
    }
}

#[test]
fn journal_re_encodes_and_recovers_to_the_committed_summary() {
    let journal = read_journal(Path::new(JOURNAL)).expect("the journal reads");
    assert!(journal.torn_at.is_none());
    assert_eq!(journal.segments.len(), 2);

    // The same records through a writer, one segment at a time.
    let out = temp_dir("journal_out");
    for (i, &(segment, base)) in journal.segments.iter().enumerate() {
        let end = journal
            .segments
            .get(i + 1)
            .map_or(journal.next_seq, |s| s.1);
        let mut w = match segment {
            0 => JournalWriter::create(
                &out,
                journal.machine_size,
                journal.speedup,
                &journal.scheduler,
                FsyncPolicy::Never,
                u64::MAX,
            ),
            _ => JournalWriter::resume(
                &out,
                &JournalDir {
                    last_segment: segment - 1,
                    next_seq: base,
                    ..journal.clone()
                },
                FsyncPolicy::Never,
                u64::MAX,
            ),
        }
        .unwrap();
        for rec in &journal.records[base as usize..end as usize] {
            w.append(rec).unwrap();
        }
    }
    for file in fixture_files("journal-") {
        let written = std::fs::read(out.join(file.file_name().unwrap())).unwrap();
        assert_eq!(written, std::fs::read(&file).unwrap(), "{file:?}");
    }
    std::fs::remove_dir_all(&out).unwrap();

    let summary = std::fs::read_to_string(Path::new(JOURNAL).join("summary.json")).unwrap();
    let want = six_fields(&summary);
    let spec = parse_scheduler(&journal.scheduler).unwrap();

    let copy = copy_into("journal_recover", &fixture_files(""));
    let mut config = ServiceConfig::new(journal.machine_size, spec.clone());
    config.speedup = journal.speedup;
    config.journal = Some(copy.clone());
    config.fsync = FsyncPolicy::Never;
    let (handle, join) = recover(config).expect("the journal recovers");
    handle.shutdown();
    let recovered = join.join().unwrap();
    assert_eq!(six_fields(&render_summary(&recovered)), want);
    std::fs::remove_dir_all(&copy).unwrap();

    let replayed = replay_records(journal.machine_size, &journal.records, &spec).unwrap();
    assert_eq!(six_fields(&render_summary(&replayed)), want);
}
