//! Corrupt-input fixture corpus for the durable journal reader.
//!
//! Each test records one pristine multi-segment journal through the real
//! daemon, then mutates the bytes on disk into a specific corruption and
//! asserts the *typed* [`JournalError`] (or tolerated-tear outcome) the
//! reader must produce. The discipline under test: a torn tail on the
//! newest segment is a crash artifact and is tolerated (and repairable);
//! every other irregularity — bit rot, foreign versions, missing or
//! duplicated segments, disagreeing headers — is refused with an error
//! precise enough for recovery code to react without string matching.
//!
//! Byte offsets below follow the segment header layout (all integers
//! little-endian): magic 8 + version u32 + machine u32 + speedup u64 +
//! scheduler string (u32 length + bytes) + segment u32 + base_seq u64.

use dynp_serve::{
    read_journal, repair_torn_tail, spawn, FsyncPolicy, JournalError, ServiceConfig, SubmitSpec,
};
use dynp_suite::prelude::*;
use std::path::{Path, PathBuf};

/// Header byte offsets shared by every fixture.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_MACHINE: usize = 12;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("dynp_journal_corrupt_test")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records a pristine journal with several small segments: a real daemon
/// run (FCFS, saturating widths so ordering is trivial), rotated every
/// 256 bytes so even a short burst spans 4+ segment files.
fn record_fixture(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let mut config = ServiceConfig::new(8, SchedulerSpec::Static(Policy::Fcfs));
    config.speedup = 1000;
    config.journal = Some(dir.clone());
    config.rotate_bytes = 256;
    config.fsync = FsyncPolicy::Never;
    let (handle, join) = spawn(config).unwrap();
    for i in 0..20 {
        handle
            .submit(SubmitSpec {
                width: 8,
                estimate: SimDuration::from_secs(20 + i),
                actual: SimDuration::from_secs(10 + i),
                user: (i % 3) as u32,
            })
            .unwrap();
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.accepted, 20, "fixture run must accept everything");
    // If the run ended right after a rotation, the newest segment is
    // header-only; drop it so "tear the last segment's tail" fixtures
    // deterministically hit record bytes.
    let journal = read_journal(&dir).unwrap();
    if let Some(&(seg, base)) = journal.segments.last() {
        if base == journal.next_seq && journal.segments.len() > 1 {
            std::fs::remove_file(dir.join(format!("journal-{seg:06}.wal"))).unwrap();
        }
    }
    dir
}

/// The sorted `journal-*.wal` files of a fixture directory.
fn segments(dir: &Path) -> Vec<PathBuf> {
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
    assert!(segs.len() >= 3, "fixture must span several segments");
    segs
}

fn mutate(path: &Path, f: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    f(&mut bytes);
    std::fs::write(path, bytes).unwrap();
}

/// A record tail torn off the *newest* segment is a crash artifact:
/// tolerated, flagged, and located precisely for repair.
#[test]
fn torn_record_tail_on_last_segment_is_tolerated() {
    let dir = record_fixture("torn_tail");
    let pristine = read_journal(&dir).unwrap();
    assert!(pristine.torn_at.is_none());

    let segs = segments(&dir);
    let last = segs.last().unwrap();
    let len = std::fs::metadata(last).unwrap().len();
    mutate(last, |b| b.truncate(b.len() - 3));

    let journal = read_journal(&dir).unwrap();
    assert!(
        journal.torn_at.is_some(),
        "a torn record tail must be flagged"
    );
    assert!(
        journal.records.len() < pristine.records.len(),
        "the torn record must be dropped"
    );
    assert_eq!(
        journal.records,
        pristine.records[..journal.records.len()],
        "surviving records are an exact prefix"
    );
    let (seg, off) = journal.torn_at.expect("tear must be located");
    assert_eq!(seg, pristine.last_segment);
    assert!(off > 0 && off < len, "tear offset inside the file body");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash during rotation leaves a partial *header* on the freshly
/// opened segment; with no records at stake that is a torn tail too —
/// located at offset 0 of the new file.
#[test]
fn torn_header_on_last_segment_is_tolerated() {
    let dir = record_fixture("torn_header");
    let segs = segments(&dir);
    let last = segs.last().unwrap();
    mutate(last, |b| b.truncate(10)); // mid-version, before machine size

    let journal = read_journal(&dir).unwrap();
    assert!(journal.torn_at.is_some());
    let (seg, off) = journal.torn_at.unwrap();
    assert_eq!(off, 0, "a torn header holds nothing");
    assert_eq!(seg as usize, segs.len() - 1);
    assert_eq!(
        journal.last_segment as usize,
        segs.len() - 2,
        "the skipped file is not part of the readable journal"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// [`repair_torn_tail`] truncates the tear (or removes a header-torn
/// file) so the directory reads cleanly again with the same records.
#[test]
fn repair_makes_a_torn_directory_clean_again() {
    for (tag, keep) in [("repair_record", None), ("repair_header", Some(6u64))] {
        let dir = record_fixture(tag);
        let segs = segments(&dir);
        let last = segs.last().unwrap();
        match keep {
            // Tear mid-record…
            None => mutate(last, |b| b.truncate(b.len() - 5)),
            // …or mid-header.
            Some(k) => mutate(last, |b| b.truncate(k as usize)),
        }
        let torn = read_journal(&dir).unwrap();
        assert!(torn.torn_at.is_some());

        repair_torn_tail(&dir, &torn).unwrap();
        let clean = read_journal(&dir).unwrap();
        assert!(clean.torn_at.is_none(), "{tag}: repair must leave no tear");
        assert_eq!(clean.torn_at, None);
        assert_eq!(clean.records, torn.records, "{tag}: records unchanged");
        assert_eq!(clean.next_seq, torn.next_seq);
        if keep.is_some() {
            assert!(!last.exists(), "{tag}: header-torn file is removed");
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A tear anywhere but the newest segment cannot be a crash artifact —
/// later segments were written after it was sealed — so it is refused.
#[test]
fn torn_middle_segment_is_a_typed_error() {
    let dir = record_fixture("torn_middle");
    let segs = segments(&dir);
    let middle = &segs[1];
    mutate(middle, |b| b.truncate(b.len() - 3));

    match read_journal(&dir) {
        Err(JournalError::TornSegment { path, offset }) => {
            assert_eq!(&path, middle);
            assert!(offset > 0);
        }
        other => panic!("want TornSegment, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bit rot inside a complete record frame is never tolerated: the frame
/// is whole, so this is corruption, not a crash — refused with the exact
/// offset. (Flipping the frame's final CRC byte leaves the frame
/// complete but the checksum wrong.)
#[test]
fn bit_rot_is_bad_checksum_not_a_torn_tail() {
    let dir = record_fixture("bit_rot");
    let segs = segments(&dir);
    let last = segs.last().unwrap();
    mutate(last, |b| {
        let n = b.len();
        b[n - 1] ^= 0xFF;
    });

    match read_journal(&dir) {
        Err(JournalError::BadChecksum { path, offset }) => {
            assert_eq!(&path, last);
            assert!(offset > 0);
        }
        other => panic!("want BadChecksum, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal written by a future (or mangled) format version is refused
/// up front, before any record bytes are interpreted.
#[test]
fn unknown_version_is_refused() {
    let dir = record_fixture("version");
    let first = &segments(&dir)[0];
    mutate(first, |b| {
        b[OFF_VERSION..OFF_VERSION + 4].copy_from_slice(&99u32.to_le_bytes());
    });

    match read_journal(&dir) {
        Err(JournalError::UnknownVersion { version, .. }) => assert_eq!(version, 99),
        other => panic!("want UnknownVersion, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file that does not open with the journal magic is not a journal.
#[test]
fn bad_magic_is_refused() {
    let dir = record_fixture("magic");
    let first = &segments(&dir)[0];
    mutate(first, |b| b[OFF_MAGIC] ^= 0xFF);

    assert!(matches!(
        read_journal(&dir),
        Err(JournalError::BadMagic { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two files claiming the same segment index ("journal-1.wal" and
/// "journal-01.wal" both parse to index 1) make the sequence ambiguous.
#[test]
fn duplicate_segment_index_is_refused() {
    let dir = record_fixture("duplicate");
    let second = &segments(&dir)[1];
    std::fs::copy(second, dir.join("journal-01.wal")).unwrap();

    match read_journal(&dir) {
        Err(JournalError::DuplicateSegment { segment }) => assert_eq!(segment, 1),
        other => panic!("want DuplicateSegment, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A missing middle segment is a hole in the acknowledged history —
/// unrecoverable, named by index.
#[test]
fn missing_middle_segment_is_refused() {
    let dir = record_fixture("missing");
    let second = segments(&dir)[1].clone();
    std::fs::remove_file(&second).unwrap();

    match read_journal(&dir) {
        Err(JournalError::MissingSegment { segment }) => assert_eq!(segment, 1),
        other => panic!("want MissingSegment, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lone segment 0 whose header never finished is the empty-journal
/// crash shape: typed as TornGenesis (recovery removes the file and
/// starts fresh), distinct from the damaged-directory TornSegment.
#[test]
fn torn_genesis_header_is_typed_as_empty() {
    let dir = temp_dir("torn_genesis");
    std::fs::write(dir.join("journal-000000.wal"), &b"DYNPJRNL\x01\x00\x00"[..]).unwrap();

    match read_journal(&dir) {
        Err(JournalError::TornGenesis { path }) => {
            assert_eq!(path, dir.join("journal-000000.wal"));
        }
        other => panic!("want TornGenesis, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Segments whose headers disagree on the run's parameters mix
/// incompatible histories; the disagreeing field is named.
#[test]
fn header_mismatch_names_the_field() {
    let dir = record_fixture("mismatch");
    let second = &segments(&dir)[1];
    mutate(second, |b| {
        b[OFF_MACHINE..OFF_MACHINE + 4].copy_from_slice(&512u32.to_le_bytes());
    });

    match read_journal(&dir) {
        Err(JournalError::HeaderMismatch { what, .. }) => assert_eq!(what, "machine size"),
        other => panic!("want HeaderMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record whose seq has no successor — a lone segment based at
/// `u64::MAX` holding one cancel — is refused with a typed error, not an
/// overflow of the reader's next-seq counter.
#[test]
fn sequence_number_at_u64_max_is_a_typed_error() {
    let dir = temp_dir("seq_max");
    let mut w = dynp_des::ByteWriter::new();
    w.magic(b"DYNPJRNL", 1);
    w.u32(8);
    w.u64(1);
    w.str("FCFS");
    w.u32(0);
    w.u64(u64::MAX);
    w.u8(2); // cancel: seq, stamp, job
    w.sealed(|w| {
        w.u64(u64::MAX);
        w.u64(0);
        w.u32(0);
    });
    std::fs::write(dir.join("journal-000000.wal"), w.into_bytes()).unwrap();

    match read_journal(&dir) {
        Err(JournalError::BadRecord { what, .. }) => assert_eq!(what, "sequence overflow"),
        other => panic!("want BadRecord, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
