//! The durable session journal: a typed, checksummed write-ahead log of
//! every command the daemon *accepted*, plus periodic checkpoints of the
//! full service state. The byte layouts — segment header, record frame,
//! checkpoint — are tabled once, in DESIGN §14, and written here with
//! `dynp_des::codec`'s envelope (`magic`, `sealed`).
//!
//! ## Journal segments
//!
//! A journal directory holds numbered segment files `journal-NNNNNN.wal`.
//! Each segment starts with a header followed by record frames, where
//! type 1 is an accepted submission (seq, stamp, job id, user, width,
//! estimate, actual) and type 2 a cancellation (seq, stamp, job id).
//! Record sequence numbers are global across segments; each
//! segment's header carries the seq of its first record so a reader can
//! verify continuity and a compactor can tell which rotated segments a
//! checkpoint fully covers.
//!
//! Durability is governed by [`FsyncPolicy`]; with the default
//! `Always`, a record is on disk before the client sees `accepted`, so
//! a `SIGKILL` at *any* point loses no acknowledged work. Writers
//! rotate to a fresh segment once the current one exceeds
//! `rotate_bytes`; with compaction on, the daemon deletes rotated
//! segments whose records a checkpoint has made redundant.
//!
//! ## Torn tails vs. corruption
//!
//! A crash mid-`write` leaves a *torn tail*: the last segment ends in
//! the middle of a record frame. That is an expected artifact of the
//! crash model, detected by frame truncation and tolerated — the reader
//! stops at the last complete record and reports where the tear sits
//! (`torn_at`). A record whose frame is *complete* but whose checksum
//! does not match is a different animal (bit rot, truncated-then-appended
//! files) and is always a typed [`JournalError::BadChecksum`]. Torn frames in a
//! *non*-last segment mean the directory itself is damaged
//! ([`JournalError::TornSegment`]).
//!
//! ## Checkpoints
//!
//! `checkpoint-NNNNNNNNNN.ckpt` files (named by journal seq) capture the
//! complete service state — core, pending timers, scheduler, job table,
//! per-user quota buckets, counters — in one sealed payload.
//! Checkpoints are written to a temp file and atomically renamed, and a
//! corrupt checkpoint is *skipped*, falling back to the previous valid
//! one (and ultimately to a from-genesis journal replay), so checkpoint
//! corruption can slow recovery down but never wreck it.

use dynp_des::{ByteReader, ByteWriter, CodecError, EngineSnapshot, SimDuration, SimTime};
use dynp_rms::SchedulerSnapshot;
use dynp_sim::{CoreSnapshot, Event};
use dynp_workload::{Job, JobId};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of a journal segment.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"DYNPJRNL";
/// Current journal format version.
pub(crate) const JOURNAL_VERSION: u32 = 1;
/// Magic prefix of a checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: &[u8; 8] = b"DYNPCKPT";
/// Current checkpoint format version.
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// Default rotation threshold: start a new segment once the current one
/// exceeds 1 MiB.
pub(crate) const DEFAULT_ROTATE_BYTES: u64 = 1 << 20;

const REC_SUBMIT: u8 = 1;
const REC_CANCEL: u8 = 2;

/// When the journal writer calls `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every record — an acknowledged command is on disk (the
    /// default; the crash-safety guarantee assumes it).
    Always,
    /// Only when a segment is finished (rotation) or the journal is
    /// closed. A crash can lose the unsynced tail of the live segment.
    OnRotate,
    /// Never explicitly — leave it to the OS. Fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Parses the command-line spelling.
    pub(crate) fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "rotate" | "on-rotate" => Some(FsyncPolicy::OnRotate),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnRotate => "rotate",
            FsyncPolicy::Never => "never",
        }
    }
}

/// One journaled command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// An accepted submission.
    Submit {
        /// Global journal sequence number.
        seq: u64,
        /// Submitting user (quota accounting and replay fairness stats).
        user: u32,
        /// The job as admitted, stamped with the wall source's dispatch
        /// instant as its submit time. [`read_journal`] checks it against
        /// the machine in its segment header.
        job: Job,
    },
    /// An accepted cancellation.
    Cancel {
        /// Global journal sequence number.
        seq: u64,
        /// The wall source's dispatch stamp (simulation time).
        stamp: SimTime,
        /// Job withdrawn (best effort: a no-op if already running).
        job: u32,
    },
}

impl JournalRecord {
    /// The record's global sequence number.
    pub(crate) fn seq(&self) -> u64 {
        match *self {
            JournalRecord::Submit { seq, .. } | JournalRecord::Cancel { seq, .. } => seq,
        }
    }

    /// The record's dispatch stamp.
    pub fn stamp(&self) -> SimTime {
        match *self {
            JournalRecord::Submit { job, .. } => job.submit,
            JournalRecord::Cancel { stamp, .. } => stamp,
        }
    }

    /// Appends the record's frame: its type byte, then the sealed
    /// payload.
    fn encode_into(&self, w: &mut ByteWriter) {
        match *self {
            JournalRecord::Submit { seq, user, job } => {
                w.u8(REC_SUBMIT);
                w.sealed(|w| {
                    w.u64(seq);
                    w.u64(job.submit.as_millis());
                    w.u32(job.id.0);
                    w.u32(user);
                    w.u32(job.width);
                    w.u64(job.estimate.as_millis());
                    w.u64(job.actual.as_millis());
                });
            }
            JournalRecord::Cancel { seq, stamp, job } => {
                w.u8(REC_CANCEL);
                w.sealed(|w| {
                    w.u64(seq);
                    w.u64(stamp.as_millis());
                    w.u32(job);
                });
            }
        }
    }

    /// Decodes the verified payload `p` of a frame of type `kind`.
    fn decode_from(kind: u8, mut p: ByteReader<'_>) -> Result<JournalRecord, CodecError> {
        let rec = match kind {
            REC_SUBMIT => {
                let (seq, stamp, id, user) = (p.u64()?, p.u64()?, p.u32()?, p.u32()?);
                let job = Job {
                    id: JobId(id),
                    submit: SimTime::from_millis(stamp),
                    width: p.u32()?,
                    estimate: SimDuration::from_millis(p.u64()?),
                    actual: SimDuration::from_millis(p.u64()?),
                };
                JournalRecord::Submit { seq, user, job }
            }
            REC_CANCEL => JournalRecord::Cancel {
                seq: p.u64()?,
                stamp: SimTime::from_millis(p.u64()?),
                job: p.u32()?,
            },
            _ => {
                return Err(CodecError::Invalid {
                    what: "record type",
                })
            }
        };
        p.finish()?;
        Ok(rec)
    }
}

/// Typed journal failures — every way a journal directory can be wrong,
/// distinguished so recovery can react (tolerate, skip, refuse) instead
/// of guessing from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Filesystem-level failure.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// The OS error rendered.
        error: String,
    },
    /// The file does not start with the journal/checkpoint magic.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// A format version this build does not understand.
    UnknownVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found.
        version: u32,
    },
    /// A complete record frame whose checksum does not match (bit rot —
    /// never tolerated, unlike a torn tail).
    BadChecksum {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the record frame.
        offset: usize,
    },
    /// A record that fails to decode after passing its checksum (unknown
    /// record type, trailing payload bytes, a sequence number with no
    /// successor, a submit that fails `Job::check` on the header's
    /// machine), or a complete segment header that does not decode.
    BadRecord {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the record frame.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// Two segment files claim the same index.
    DuplicateSegment {
        /// The duplicated segment index.
        segment: u32,
    },
    /// A gap in the segment numbering — a middle segment is missing.
    MissingSegment {
        /// The absent segment index.
        segment: u32,
    },
    /// A torn (truncated mid-frame) segment that is *not* the last one;
    /// torn tails are only a crash artifact on the live segment.
    TornSegment {
        /// Offending file.
        path: PathBuf,
        /// Byte offset where the tear begins.
        offset: usize,
    },
    /// The directory's only segment is segment 0 with a torn *header*:
    /// the crash hit before the very first header was durable, so
    /// nothing was ever acknowledged. Recovery removes the file and
    /// starts the service fresh.
    TornGenesis {
        /// The torn genesis segment.
        path: PathBuf,
    },
    /// Segment headers disagree (machine size, speedup, scheduler, or
    /// sequence continuity) — the directory mixes incompatible runs.
    HeaderMismatch {
        /// Offending file.
        path: PathBuf,
        /// Which header field disagreed.
        what: &'static str,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            JournalError::BadMagic { path } => write!(f, "{}: bad magic", path.display()),
            JournalError::UnknownVersion { path, version } => {
                write!(f, "{}: unknown version {version}", path.display())
            }
            JournalError::BadChecksum { path, offset } => {
                write!(f, "{}: bad checksum at offset {offset}", path.display())
            }
            JournalError::BadRecord { path, offset, what } => {
                write!(
                    f,
                    "{}: bad record at offset {offset}: {what}",
                    path.display()
                )
            }
            JournalError::DuplicateSegment { segment } => {
                write!(f, "duplicate journal segment {segment}")
            }
            JournalError::MissingSegment { segment } => {
                write!(f, "missing journal segment {segment}")
            }
            JournalError::TornSegment { path, offset } => {
                write!(
                    f,
                    "{}: torn at offset {offset} (not the last segment)",
                    path.display()
                )
            }
            JournalError::TornGenesis { path } => {
                write!(
                    f,
                    "{}: torn genesis header (the journal is empty)",
                    path.display()
                )
            }
            JournalError::HeaderMismatch { path, what } => {
                write!(f, "{}: header mismatch: {what}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalError {
    /// Types a codec failure at byte `offset` of `path`: the one place
    /// the frame errors become journal errors. A short read is a tear;
    /// where a tear is tolerated, the reader decides before calling this.
    fn codec(path: &Path, offset: usize, e: CodecError) -> JournalError {
        let path = path.to_path_buf();
        match e {
            CodecError::Truncated { .. } => JournalError::TornSegment { path, offset },
            CodecError::BadMagic => JournalError::BadMagic { path },
            CodecError::UnknownVersion { version } => {
                JournalError::UnknownVersion { path, version }
            }
            CodecError::BadChecksum => JournalError::BadChecksum { path, offset },
            CodecError::Invalid { what } => JournalError::BadRecord {
                path,
                offset,
                what: what.into(),
            },
        }
    }
}

fn iofail(path: &Path, e: std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

/// Path of journal segment `segment` in `dir`.
pub(crate) fn segment_path(dir: &Path, segment: u32) -> PathBuf {
    dir.join(format!("journal-{segment:06}.wal"))
}

/// Path of the checkpoint taken at journal seq `seq` in `dir`.
pub(crate) fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:010}.ckpt"))
}

fn list_numbered(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| iofail(dir, e))? {
        let entry = entry.map_err(|e| iofail(dir, e))?;
        let name = entry.file_name();
        let name = match name.to_str() {
            Some(n) => n,
            None => continue,
        };
        if let Some(mid) = name
            .strip_prefix(prefix)
            .and_then(|r| r.strip_suffix(suffix))
        {
            if let Ok(n) = mid.parse::<u64>() {
                out.push((n, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The result of appending one record: whether the append tripped a
/// segment rotation (the daemon checkpoints at rotation points).
#[derive(Clone, Copy, Debug)]
pub struct Appended {
    /// `Some(size in bytes of the sealed segment, header included)` when
    /// the append finished a segment and opened a new one.
    pub sealed_bytes: Option<u64>,
}

/// Appends records to a journal directory with rotation, an fsync
/// policy, and checkpoint-driven compaction.
pub struct JournalWriter {
    dir: PathBuf,
    file: File,
    run: JournalHeader,
    segment: u32,
    segment_bytes: u64,
    next_seq: u64,
    rotate_bytes: u64,
    fsync: FsyncPolicy,
    /// `(index, base_seq)` of every on-disk segment, oldest first,
    /// including the live one — the compactor's map.
    segments: Vec<(u32, u64)>,
}

impl JournalWriter {
    /// Creates a fresh journal in `dir` (created if absent). Refuses a
    /// directory that already contains journal segments — resuming an
    /// existing journal is [`JournalWriter::resume`]'s job.
    pub fn create(
        dir: &Path,
        machine_size: u32,
        speedup: u64,
        scheduler: &str,
        fsync: FsyncPolicy,
        rotate_bytes: u64,
    ) -> Result<JournalWriter, JournalError> {
        fs::create_dir_all(dir).map_err(|e| iofail(dir, e))?;
        let existing = list_numbered(dir, "journal-", ".wal")?;
        if let Some((n, path)) = existing.first() {
            return Err(JournalError::Io {
                path: path.clone(),
                error: format!("journal directory already contains segment {n}; use --recover"),
            });
        }
        let header = SegmentHeader {
            run: JournalHeader {
                machine_size,
                speedup,
                scheduler: scheduler.to_string(),
            },
            segment: 0,
            base_seq: 0,
        };
        Self::open(dir, header, fsync, rotate_bytes, Vec::new())
    }

    /// Opens a new segment *after* the ones a read-back `journal`
    /// reports — the recovery path: header facts and sequence position
    /// come from the journal itself (run [`repair_torn_tail`] first so
    /// no torn file blocks the new segment's index), and post-recovery
    /// records land in a clean segment with the right base seq.
    pub fn resume(
        dir: &Path,
        journal: &JournalDir,
        fsync: FsyncPolicy,
        rotate_bytes: u64,
    ) -> Result<JournalWriter, JournalError> {
        let header = SegmentHeader {
            run: JournalHeader {
                machine_size: journal.machine_size,
                speedup: journal.speedup,
                scheduler: journal.scheduler.clone(),
            },
            segment: journal.last_segment + 1,
            base_seq: journal.next_seq,
        };
        Self::open(dir, header, fsync, rotate_bytes, journal.segments.clone())
    }

    fn open(
        dir: &Path,
        header: SegmentHeader,
        fsync: FsyncPolicy,
        rotate_bytes: u64,
        mut segments: Vec<(u32, u64)>,
    ) -> Result<JournalWriter, JournalError> {
        let path = segment_path(dir, header.segment);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| iofail(&path, e))?;
        let mut w = ByteWriter::new();
        header.encode_into(&mut w);
        file.write_all(w.as_bytes()).map_err(|e| iofail(&path, e))?;
        if fsync == FsyncPolicy::Always {
            file.sync_data().map_err(|e| iofail(&path, e))?;
        }
        segments.push((header.segment, header.base_seq));
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            file,
            run: header.run,
            segment: header.segment,
            segment_bytes: w.as_bytes().len() as u64,
            next_seq: header.base_seq,
            rotate_bytes: rotate_bytes.max(1),
            fsync,
            segments,
        })
    }

    /// The sequence number the next appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The live segment's index.
    pub(crate) fn segment(&self) -> u32 {
        self.segment
    }

    /// Journals an accepted submission; see [`JournalWriter::append`].
    #[allow(clippy::too_many_arguments)]
    pub fn append_submit(
        &mut self,
        stamp: SimTime,
        job: u32,
        user: u32,
        width: u32,
        estimate: SimDuration,
        actual: SimDuration,
    ) -> Result<Appended, JournalError> {
        let job = Job {
            id: JobId(job),
            submit: stamp,
            width,
            estimate,
            actual,
        };
        let seq = self.next_seq;
        self.append(&JournalRecord::Submit { seq, user, job })
    }

    /// Appends one record (whose seq must be [`JournalWriter::next_seq`]),
    /// honours the fsync policy, and rotates the segment if it crossed
    /// the size threshold. Under `FsyncPolicy::Always` the record is
    /// durable when this returns — the admission path acknowledges the
    /// client only after.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<Appended, JournalError> {
        assert_eq!(rec.seq(), self.next_seq, "journal seqs are dense");
        let mut w = ByteWriter::new();
        rec.encode_into(&mut w);
        let frame = w.into_bytes();
        let path = segment_path(&self.dir, self.segment);
        self.file.write_all(&frame).map_err(|e| iofail(&path, e))?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data().map_err(|e| iofail(&path, e))?;
        }
        self.segment_bytes += frame.len() as u64;
        self.next_seq += 1;
        let mut sealed_bytes = None;
        if self.segment_bytes >= self.rotate_bytes {
            sealed_bytes = Some(self.segment_bytes);
            self.rotate()?;
        }
        Ok(Appended { sealed_bytes })
    }

    fn rotate(&mut self) -> Result<(), JournalError> {
        let path = segment_path(&self.dir, self.segment);
        // Seal the finished segment: everything in it is synced before
        // the new segment exists, whatever the per-record policy.
        if self.fsync != FsyncPolicy::Never {
            self.file.sync_data().map_err(|e| iofail(&path, e))?;
        }
        let header = SegmentHeader {
            run: self.run.clone(),
            segment: self.segment + 1,
            base_seq: self.next_seq,
        };
        let next = Self::open(
            &self.dir,
            header,
            self.fsync,
            self.rotate_bytes,
            std::mem::take(&mut self.segments),
        )?;
        *self = next;
        Ok(())
    }

    /// Flushes and fsyncs the live segment regardless of policy — the
    /// drain path calls this before printing the summary line.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        let path = segment_path(&self.dir, self.segment);
        self.file.flush().map_err(|e| iofail(&path, e))?;
        self.file.sync_data().map_err(|e| iofail(&path, e))
    }

    /// Deletes rotated segments every record of which is ≤ `covered_seq`
    /// (the journal seq a durable checkpoint covers). The live segment
    /// is never deleted. Returns the deleted segment indices.
    pub(crate) fn compact(&mut self, covered_seq: u64) -> Result<Vec<u32>, JournalError> {
        let mut deleted = Vec::new();
        // A segment's records span [base_seq, next segment's base_seq);
        // it is redundant iff that whole range is checkpointed.
        while self.segments.len() > 1 {
            let (idx, _) = self.segments[0];
            let (_, next_base) = self.segments[1];
            if next_base == 0 || next_base - 1 > covered_seq {
                break;
            }
            let path = segment_path(&self.dir, idx);
            fs::remove_file(&path).map_err(|e| iofail(&path, e))?;
            self.segments.remove(0);
            deleted.push(idx);
        }
        Ok(deleted)
    }
}

/// A fully read journal directory: the merged record sequence plus the
/// header facts every segment agreed on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalDir {
    /// Machine size the daemon ran with.
    pub machine_size: u32,
    /// Wall-clock speedup the daemon ran with.
    pub speedup: u64,
    /// Scheduler spec spelling (parse with `parse_scheduler`).
    pub scheduler: String,
    /// All records, in seq order.
    pub records: Vec<JournalRecord>,
    /// Index of the last segment on disk.
    pub last_segment: u32,
    /// One past the last record's seq — the resume base.
    pub next_seq: u64,
    /// `(index, base_seq)` of every segment, oldest first.
    pub segments: Vec<(u32, u64)>,
    /// Where the last segment's tear sits, if it ended mid-frame (a
    /// crash artifact; the torn tail was discarded): `(segment index,
    /// byte offset of the first incomplete frame)`. Offset 0 means the
    /// segment's *header* was torn (crash during rotation) and the whole
    /// file holds nothing. [`repair_torn_tail`] uses this to make the
    /// directory clean again.
    pub torn_at: Option<(u32, u64)>,
}

/// The run-shape facts a journal's segment headers carry (every segment
/// agrees on them; [`read_journal`] verifies that).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Machine size the daemon ran with.
    pub machine_size: u32,
    /// Wall-clock speedup the daemon ran with.
    pub speedup: u64,
    /// Scheduler spec spelling (parse with `parse_scheduler`).
    pub scheduler: String,
}

/// The head of one segment file: the run's facts, the segment's index
/// and the seq of its first record.
struct SegmentHeader {
    run: JournalHeader,
    segment: u32,
    base_seq: u64,
}

impl SegmentHeader {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.magic(JOURNAL_MAGIC, JOURNAL_VERSION);
        w.u32(self.run.machine_size);
        w.u64(self.run.speedup);
        w.str(&self.run.scheduler);
        w.u32(self.segment);
        w.u64(self.base_seq);
    }

    /// Reads the header at the start of `path`; a short read is a tear
    /// at offset 0.
    fn decode_from(path: &Path, r: &mut ByteReader<'_>) -> Result<SegmentHeader, JournalError> {
        let header = |r: &mut ByteReader<'_>| {
            r.magic(JOURNAL_MAGIC, JOURNAL_VERSION..=JOURNAL_VERSION)?;
            Ok(SegmentHeader {
                run: JournalHeader {
                    machine_size: r.u32()?,
                    speedup: r.u64()?,
                    scheduler: r.str()?.to_string(),
                },
                segment: r.u32()?,
                base_seq: r.u64()?,
            })
        };
        header(r).map_err(|e| JournalError::codec(path, 0, e))
    }
}

/// Reads the run-shape facts from the first segment's header alone —
/// no records are read or decoded. The cheap way to default daemon
/// flags before [`read_journal`] does the full recovery read. A lone
/// segment 0 with a torn header is [`JournalError::TornGenesis`],
/// exactly as in [`read_journal`].
pub fn read_journal_header(dir: &Path) -> Result<JournalHeader, JournalError> {
    use std::io::Read;
    let files = list_numbered(dir, "journal-", ".wal")?;
    let Some((n, path)) = files.first() else {
        return Err(JournalError::Io {
            path: dir.to_path_buf(),
            error: "no journal segments".to_string(),
        });
    };
    // Headers are tiny (magic + five fields + a short scheduler string);
    // a bounded prefix read avoids pulling record bytes off disk.
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|f| f.take(4096).read_to_end(&mut buf))
        .map_err(|e| iofail(path, e))?;
    match SegmentHeader::decode_from(path, &mut ByteReader::new(&buf)) {
        Ok(h) => Ok(h.run),
        Err(JournalError::TornSegment { .. }) if *n == 0 && files.len() == 1 => {
            Err(JournalError::TornGenesis { path: path.clone() })
        }
        Err(e) => Err(e),
    }
}

/// Reads and validates a whole journal directory. Torn tails on the
/// last segment are tolerated (`torn_at`); every other irregularity
/// is a typed [`JournalError`].
pub fn read_journal(dir: &Path) -> Result<JournalDir, JournalError> {
    let files = list_numbered(dir, "journal-", ".wal")?;
    if files.is_empty() {
        return Err(JournalError::Io {
            path: dir.to_path_buf(),
            error: "no journal segments".to_string(),
        });
    }
    let mut out: Option<JournalDir> = None;
    let last_i = files.len() - 1;
    for (i, (n, path)) in files.iter().enumerate() {
        // `torn_at` stores the index as a u32.
        if *n > u32::MAX as u64 {
            return Err(JournalError::HeaderMismatch {
                path: path.clone(),
                what: "segment index",
            });
        }
        let is_last = i == last_i;
        let bytes = fs::read(path).map_err(|e| iofail(path, e))?;
        let mut r = ByteReader::new(&bytes);
        let header = match SegmentHeader::decode_from(path, &mut r) {
            Ok(h) => h,
            // A crash during rotation can leave a partial *header* on
            // the freshly opened segment; with no records at stake that
            // is a torn tail too.
            Err(JournalError::TornSegment { .. }) if is_last && i > 0 => {
                let dir_state = out.as_mut().expect("i > 0");
                dir_state.torn_at = Some((*n as u32, 0));
                break;
            }
            // A crash between creating the very first segment and its
            // header reaching disk leaves a lone segment 0 with a torn
            // header — an *empty* journal (nothing was ever
            // acknowledged), typed so recovery can remove the file and
            // start fresh instead of refusing the directory.
            Err(JournalError::TornSegment { .. }) if i == 0 && is_last && *n == 0 => {
                return Err(JournalError::TornGenesis { path: path.clone() });
            }
            Err(e) => return Err(e),
        };
        if header.segment as u64 != *n {
            return Err(JournalError::HeaderMismatch {
                path: path.clone(),
                what: "segment index",
            });
        }
        let dir_state = match &mut out {
            None => {
                out = Some(JournalDir {
                    machine_size: header.run.machine_size,
                    speedup: header.run.speedup,
                    scheduler: header.run.scheduler.clone(),
                    records: Vec::new(),
                    last_segment: header.segment,
                    next_seq: header.base_seq,
                    segments: Vec::new(),
                    torn_at: None,
                });
                out.as_mut().unwrap()
            }
            Some(state) => {
                if header.segment == state.last_segment {
                    return Err(JournalError::DuplicateSegment {
                        segment: header.segment,
                    });
                }
                if header.segment != state.last_segment + 1 {
                    return Err(JournalError::MissingSegment {
                        segment: state.last_segment + 1,
                    });
                }
                if header.run.machine_size != state.machine_size {
                    return Err(JournalError::HeaderMismatch {
                        path: path.clone(),
                        what: "machine size",
                    });
                }
                if header.run.speedup != state.speedup {
                    return Err(JournalError::HeaderMismatch {
                        path: path.clone(),
                        what: "speedup",
                    });
                }
                if header.run.scheduler != state.scheduler {
                    return Err(JournalError::HeaderMismatch {
                        path: path.clone(),
                        what: "scheduler",
                    });
                }
                if header.base_seq != state.next_seq {
                    return Err(JournalError::HeaderMismatch {
                        path: path.clone(),
                        what: "sequence continuity",
                    });
                }
                state.last_segment = header.segment;
                state
            }
        };
        dir_state.segments.push((header.segment, header.base_seq));
        // Records until clean EOF, a tolerated tear, or a typed error.
        loop {
            if r.is_exhausted() {
                break;
            }
            let offset = r.position();
            let (kind, payload) = match r.u8().and_then(|kind| Ok((kind, r.sealed()?))) {
                Ok(frame) => frame,
                Err(CodecError::Truncated { .. }) if is_last => {
                    dir_state.torn_at = Some((header.segment, offset as u64));
                    break;
                }
                Err(e) => return Err(JournalError::codec(path, offset, e)),
            };
            let bad = |what: String| JournalError::BadRecord {
                path: path.clone(),
                offset,
                what,
            };
            let rec = JournalRecord::decode_from(kind, payload).map_err(|e| {
                bad(match e {
                    CodecError::Invalid { what } => what.into(),
                    _ => "short payload".into(),
                })
            })?;
            // A submit is a job from outside: the gate decides, not the
            // build that journaled it.
            if let JournalRecord::Submit { job, .. } = rec {
                job.check(dir_state.machine_size)
                    .map_err(|e| bad(format!("submit {e}")))?;
            }
            if rec.seq() != dir_state.next_seq {
                return Err(bad("sequence gap".into()));
            }
            dir_state.next_seq = rec
                .seq()
                .checked_add(1)
                .ok_or_else(|| bad("sequence overflow".into()))?;
            dir_state.records.push(rec);
        }
        if dir_state.torn_at.is_some() {
            break;
        }
    }
    Ok(out.expect("at least one segment"))
}

/// Repairs the torn tail a crash left behind, so the directory reads
/// cleanly forever after — in particular after [`JournalWriter::resume`]
/// adds segments *behind* the tear (a torn segment is only tolerated
/// while it is the last one).
///
/// The tear never holds acknowledged data: a record frame is torn only
/// if the crash hit mid-append (the client never saw an accept), and a
/// torn *header* means the crash hit mid-rotation before any record was
/// written to the new segment. So repair is pure truncation:
///
/// - tear at offset 0 (torn header): the file holds nothing — remove it;
/// - tear past the header: truncate the file at the tear, leaving a
///   clean, complete segment.
///
/// No-op when `journal.torn_at` is `None`.
pub fn repair_torn_tail(dir: &Path, journal: &JournalDir) -> Result<(), JournalError> {
    let Some((segment, offset)) = journal.torn_at else {
        return Ok(());
    };
    let path = segment_path(dir, segment);
    if offset == 0 {
        std::fs::remove_file(&path).map_err(|e| iofail(&path, e))?;
    } else {
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| iofail(&path, e))?;
        file.set_len(offset).map_err(|e| iofail(&path, e))?;
        file.sync_data().map_err(|e| iofail(&path, e))?;
    }
    Ok(())
}

/// Service-level counters persisted across restarts (they are not
/// derivable from the replayed suffix alone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Accepted submissions.
    pub accepted: u64,
    /// Rejections: bounded queue overflow.
    pub rejected_queue_full: u64,
    /// Rejections: submitted while draining.
    pub rejected_shutdown: u64,
    /// Rejections: malformed submissions.
    pub rejected_invalid: u64,
    /// Rejections: per-user quota / fair-share shedding.
    pub rejected_user_quota: u64,
    /// Accepted cancellations that withdrew a waiting job.
    pub cancelled: u64,
}

/// Everything the daemon needs to resume exactly where a checkpoint was
/// taken: planner state, pending timers, job table, quota buckets,
/// counters, plus the journal seq the state is current through.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceCheckpoint {
    /// Number of journal records applied to this state (records with
    /// seq < `journal_seq` are in the checkpoint; replay starts here).
    pub journal_seq: u64,
    /// Machine size (cross-checked against the journal header).
    pub machine_size: u32,
    /// The wall source's checkpointable half: clock, pending timers,
    /// tie-break counter.
    pub engine: EngineSnapshot<Event>,
    /// The wall source's external stamp floor.
    pub min_external: SimTime,
    /// The planning core's state.
    pub core: CoreSnapshot,
    /// The scheduler's cross-event state. Recovery uses the checkpoint
    /// only if its variant is the configured scheduler's.
    pub scheduler: SchedulerSnapshot,
    /// The service job table (ids are indices).
    pub jobs: Vec<Job>,
    /// Submitting user of each job, parallel to `jobs`.
    pub users: Vec<u32>,
    /// Service counters at the checkpoint instant.
    pub counters: ServiceCounters,
    /// Per-user quota buckets: `(user, millitokens, last refill stamp)`.
    pub buckets: Vec<(u32, u64, SimTime)>,
}

impl ServiceCheckpoint {
    /// Serializes the checkpoint into its framed on-disk form.
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.magic(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        w.u64(self.journal_seq);
        w.sealed(|w| {
            w.u32(self.machine_size);
            self.engine.encode_into(w, Event::encode_into);
            w.u64(self.min_external.as_millis());
            self.core.encode_into(w);
            self.scheduler.encode_into(w);
            w.list(&self.jobs, Job::encode_into);
            w.list(&self.users, |user, w| w.u32(*user));
            let c = &self.counters;
            for v in [
                c.accepted,
                c.rejected_queue_full,
                c.rejected_shutdown,
                c.rejected_invalid,
                c.rejected_user_quota,
                c.cancelled,
            ] {
                w.u64(v);
            }
            w.list(&self.buckets, |&(user, mtok, last), w| {
                w.u32(user);
                w.u64(mtok);
                w.u64(last.as_millis());
            });
        });
        w.into_bytes()
    }

    /// Decodes a checkpoint, verifying magic, version, and checksum
    /// before touching the payload.
    fn decode(bytes: &[u8]) -> Result<ServiceCheckpoint, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.magic(CHECKPOINT_MAGIC, CHECKPOINT_VERSION..=CHECKPOINT_VERSION)?;
        let journal_seq = r.u64()?;
        let mut p = r.sealed()?;
        let ckpt = ServiceCheckpoint {
            journal_seq,
            machine_size: p.u32()?,
            engine: EngineSnapshot::decode_from(&mut p, Event::decode_from)?,
            min_external: SimTime::from_millis(p.u64()?),
            core: CoreSnapshot::decode_from(&mut p)?,
            scheduler: SchedulerSnapshot::decode_from(&mut p)?,
            jobs: p.list(Job::decode_from)?,
            users: p.list(|p| p.u32())?,
            counters: ServiceCounters {
                accepted: p.u64()?,
                rejected_queue_full: p.u64()?,
                rejected_shutdown: p.u64()?,
                rejected_invalid: p.u64()?,
                rejected_user_quota: p.u64()?,
                cancelled: p.u64()?,
            },
            buckets: p.list(|p| Ok((p.u32()?, p.u64()?, SimTime::from_millis(p.u64()?))))?,
        };
        p.finish()?;
        ckpt.core.check_time_weights(&ckpt.engine, false)?;
        Ok(ckpt)
    }
}

/// Writes a checkpoint durably: temp file, fsync, atomic rename.
/// Returns the byte size written.
pub fn write_checkpoint(dir: &Path, ckpt: &ServiceCheckpoint) -> Result<u64, JournalError> {
    let bytes = ckpt.encode();
    let final_path = checkpoint_path(dir, ckpt.journal_seq);
    let tmp_path = final_path.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp_path).map_err(|e| iofail(&tmp_path, e))?;
        f.write_all(&bytes).map_err(|e| iofail(&tmp_path, e))?;
        f.sync_data().map_err(|e| iofail(&tmp_path, e))?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| iofail(&final_path, e))?;
    Ok(bytes.len() as u64)
}

/// Removes checkpoint temp files a crash left mid-write. They are never
/// valid state (a checkpoint only counts once atomically renamed), so
/// the sweep is pure garbage collection; recovery runs it so crashes
/// don't accumulate `.ckpt.tmp` litter.
pub(crate) fn sweep_checkpoint_temps(dir: &Path) -> Result<(), JournalError> {
    for entry in fs::read_dir(dir).map_err(|e| iofail(dir, e))? {
        let path = entry.map_err(|e| iofail(dir, e))?.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".ckpt.tmp"));
        if is_tmp {
            fs::remove_file(&path).map_err(|e| iofail(&path, e))?;
        }
    }
    Ok(())
}

/// Loads the newest checkpoint that decodes cleanly, skipping corrupt
/// ones (their paths are returned for logging). `Ok((None, _))` means
/// recovery must replay the journal from genesis. Leftover `.ckpt.tmp`
/// files from a crash mid-checkpoint are swept along the way.
pub fn load_latest_checkpoint(
    dir: &Path,
) -> Result<(Option<ServiceCheckpoint>, Vec<PathBuf>), JournalError> {
    load_usable_checkpoint(dir, |_| true)
}

/// [`load_latest_checkpoint`] for the newest checkpoint that decodes
/// cleanly *and* that `usable` accepts; the refused ones are skipped
/// like the corrupt ones.
pub(crate) fn load_usable_checkpoint(
    dir: &Path,
    usable: impl Fn(&ServiceCheckpoint) -> bool,
) -> Result<(Option<ServiceCheckpoint>, Vec<PathBuf>), JournalError> {
    sweep_checkpoint_temps(dir)?;
    let mut files = list_numbered(dir, "checkpoint-", ".ckpt")?;
    files.reverse(); // newest (highest covered seq) first
    let mut skipped = Vec::new();
    for (_, path) in files {
        let bytes = fs::read(&path).map_err(|e| iofail(&path, e))?;
        match ServiceCheckpoint::decode(&bytes) {
            Ok(ckpt) if usable(&ckpt) => return Ok((Some(ckpt), skipped)),
            _ => skipped.push(path),
        }
    }
    Ok((None, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dynp-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submit(seq: u64, ms: u64) -> JournalRecord {
        JournalRecord::Submit {
            seq,
            user: (seq % 3) as u32,
            job: Job {
                id: JobId(seq as u32),
                submit: SimTime::from_millis(ms),
                width: 4,
                estimate: SimDuration::from_secs(60),
                actual: SimDuration::from_secs(45),
            },
        }
    }

    #[test]
    fn journal_round_trips_across_rotation() {
        let dir = tmpdir("roundtrip");
        let mut w = JournalWriter::create(&dir, 32, 1000, "dynp", FsyncPolicy::Never, 200).unwrap();
        let mut rotations = 0;
        for i in 0..20u64 {
            let rec = match i % 5 {
                4 => JournalRecord::Cancel {
                    seq: i,
                    stamp: SimTime::from_millis(i * 10),
                    job: i as u32 - 1,
                },
                _ => submit(i, i * 10),
            };
            let appended = w.append(&rec).unwrap();
            assert_eq!(w.next_seq(), i + 1);
            if appended.sealed_bytes.is_some() {
                rotations += 1;
            }
        }
        w.sync().unwrap();
        assert!(rotations >= 2, "tiny rotate_bytes must rotate: {rotations}");

        let journal = read_journal(&dir).unwrap();
        assert_eq!(journal.machine_size, 32);
        assert_eq!(journal.speedup, 1000);
        assert_eq!(journal.scheduler, "dynp");
        assert_eq!(journal.records.len(), 20);
        assert_eq!(journal.next_seq, 20);
        assert!(journal.torn_at.is_none());
        assert_eq!(journal.segments.len() as u32, journal.last_segment + 1);
        for (i, rec) in journal.records.iter().enumerate() {
            assert_eq!(rec.seq(), i as u64);
            assert_eq!(rec.stamp(), SimTime::from_millis(i as u64 * 10));
        }
        assert!(matches!(
            journal.records[4],
            JournalRecord::Cancel { job: 3, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_on_last_segment_is_tolerated() {
        let dir = tmpdir("torn");
        let mut w =
            JournalWriter::create(&dir, 8, 1, "FCFS", FsyncPolicy::Never, u64::MAX).unwrap();
        for i in 0..5u64 {
            w.append(&submit(i, i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let path = segment_path(&dir, 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let journal = read_journal(&dir).unwrap();
        assert!(journal.torn_at.is_some());
        assert_eq!(journal.records.len(), 4, "the torn record is dropped");
        assert_eq!(journal.next_seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_opens_a_fresh_segment_with_continuous_seqs() {
        let dir = tmpdir("resume");
        let mut w =
            JournalWriter::create(&dir, 8, 1, "FCFS", FsyncPolicy::Never, u64::MAX).unwrap();
        for i in 0..3u64 {
            w.append(&submit(i, i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let journal = read_journal(&dir).unwrap();
        let mut w = JournalWriter::resume(&dir, &journal, FsyncPolicy::Never, u64::MAX).unwrap();
        assert_eq!(w.segment(), 1);
        assert_eq!(w.next_seq(), 3);
        w.append(&submit(3, 30)).unwrap();
        w.sync().unwrap();
        drop(w);

        let journal = read_journal(&dir).unwrap();
        assert_eq!(journal.records.len(), 4);
        assert_eq!(journal.last_segment, 1);
        assert!(journal.torn_at.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_deletes_only_fully_covered_rotated_segments() {
        let dir = tmpdir("compact");
        let mut w = JournalWriter::create(&dir, 8, 1, "FCFS", FsyncPolicy::Never, 150).unwrap();
        for i in 0..12u64 {
            w.append(&submit(i, i)).unwrap();
        }
        w.sync().unwrap();
        let segs_before = w.segments.clone();
        assert!(segs_before.len() >= 3);
        // Checkpoint through the end of the first rotated segment only.
        let covered = segs_before[1].1 - 1;
        let deleted = w.compact(covered).unwrap();
        assert_eq!(deleted, vec![0]);
        assert!(!segment_path(&dir, 0).exists());
        // Nothing newer may be touched; the journal suffix still reads
        // (read_journal on a compacted dir is the recovery path's job —
        // here just assert the files survived).
        assert!(segment_path(&dir, 1).exists());
        // Covering everything still preserves the live segment.
        let deleted = w.compact(u64::MAX).unwrap();
        assert!(!deleted.contains(&w.segment()));
        assert!(segment_path(&dir, w.segment()).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_typed() {
        // Bad checksum on a complete frame: never tolerated.
        let dir = tmpdir("badsum");
        let mut w =
            JournalWriter::create(&dir, 8, 1, "FCFS", FsyncPolicy::Never, u64::MAX).unwrap();
        for i in 0..3u64 {
            w.append(&submit(i, i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x01; // inside the last record's payload
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&dir),
            Err(JournalError::BadChecksum { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();

        // Unknown version.
        let dir = tmpdir("badver");
        let mut w =
            JournalWriter::create(&dir, 8, 1, "FCFS", FsyncPolicy::Never, u64::MAX).unwrap();
        w.append(&submit(0, 0)).unwrap();
        w.sync().unwrap();
        drop(w);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xEE;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&dir),
            Err(JournalError::UnknownVersion { version: 0xEE, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_numbered_past_u32_is_a_header_mismatch() {
        let dir = tmpdir("bigindex");
        fs::write(dir.join("journal-4294967296.wal"), JOURNAL_MAGIC).unwrap();
        assert!(matches!(
            read_journal(&dir),
            Err(JournalError::HeaderMismatch {
                what: "segment index",
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_genesis_header_is_typed() {
        let dir = tmpdir("torngen");
        // Truncated mid-header on a lone segment 0: the empty-journal
        // shape, not a damaged directory.
        fs::write(segment_path(&dir, 0), b"DYNPJRNL\x01").unwrap();
        assert!(matches!(
            read_journal(&dir),
            Err(JournalError::TornGenesis { .. })
        ));
        assert!(matches!(
            read_journal_header(&dir),
            Err(JournalError::TornGenesis { .. })
        ));
        // With a later segment present the same tear is directory
        // damage, never tolerated.
        let run = JournalHeader {
            machine_size: 8,
            speedup: 1,
            scheduler: "FCFS".to_string(),
        };
        let mut w = ByteWriter::new();
        let header = SegmentHeader {
            run,
            segment: 1,
            base_seq: 0,
        };
        header.encode_into(&mut w);
        fs::write(segment_path(&dir, 1), w.into_bytes()).unwrap();
        assert!(matches!(
            read_journal(&dir),
            Err(JournalError::TornSegment { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_only_read_matches_the_full_read() {
        let dir = tmpdir("hdr");
        let mut w =
            JournalWriter::create(&dir, 48, 250, "easy:4", FsyncPolicy::Never, 200).unwrap();
        for i in 0..10u64 {
            w.append(&submit(i, i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let header = read_journal_header(&dir).unwrap();
        let full = read_journal(&dir).unwrap();
        assert_eq!(header.machine_size, full.machine_size);
        assert_eq!(header.speedup, full.speedup);
        assert_eq!(header.scheduler, full.scheduler);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_temp_files_are_swept_on_load() {
        let dir = tmpdir("ckpttmp");
        let stale = dir.join("checkpoint-0000000005.ckpt.tmp");
        fs::write(&stale, b"half-written wreck").unwrap();
        let (latest, skipped) = load_latest_checkpoint(&dir).unwrap();
        assert!(latest.is_none());
        assert!(skipped.is_empty(), "tmp files are not checkpoints");
        assert!(!stale.exists(), "the crash leftover is swept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_files_fall_back_to_the_previous_valid_one() {
        let dir = tmpdir("ckptfall");
        let ckpt = |seq: u64| ServiceCheckpoint {
            journal_seq: seq,
            machine_size: 16,
            engine: EngineSnapshot {
                now: SimTime::from_millis(seq * 100),
                processed: seq,
                next_seq: dynp_des::SEEDED_SEQ_LIMIT,
                entries: Vec::new(),
            },
            min_external: SimTime::from_millis(seq * 100),
            core: dynp_sim::ShardCore::new(
                16,
                dynp_rms::AdmissionConfig::default(),
                0,
                dynp_workload::RetryPolicy::default(),
                SimTime::ZERO,
                dynp_obs::Tracer::disabled(),
                0,
            )
            .snapshot(),
            scheduler: SchedulerSnapshot::Static,
            jobs: Vec::new(),
            users: Vec::new(),
            counters: ServiceCounters::default(),
            buckets: vec![(0, 500, SimTime::from_millis(seq))],
        };
        write_checkpoint(&dir, &ckpt(10)).unwrap();
        write_checkpoint(&dir, &ckpt(20)).unwrap();

        let (latest, skipped) = load_latest_checkpoint(&dir).unwrap();
        assert_eq!(latest.unwrap().journal_seq, 20);
        assert!(skipped.is_empty());

        // Corrupt the newest: loader falls back to seq 10 and reports
        // the skip.
        let newest = checkpoint_path(&dir, 20);
        let mut bytes = fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x80;
        fs::write(&newest, &bytes).unwrap();
        let (latest, skipped) = load_latest_checkpoint(&dir).unwrap();
        assert_eq!(latest.unwrap().journal_seq, 10);
        assert_eq!(skipped, vec![newest]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
