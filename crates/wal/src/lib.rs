//! Segmented append-only write-ahead log for ciphertext mutations, with
//! snapshot-anchored retention and deterministic disk-fault injection.
//!
//! CryptDB's threat model (§2.1) assumes the DBMS server — disk included
//! — sees only ciphertext, so durability is security-free: a log of
//! encrypted mutations leaks nothing beyond the live store. This crate
//! is the byte-level half of that subsystem; `cryptdb-engine` layers the
//! semantic record encoding (create/insert/update/delete/onion-adjust
//! ops) on top.
//!
//! # Record framing
//!
//! Each record is `[len: u32 LE][crc: u32 LE][body]` where the body is
//! `[seq: u64 LE][payload]`, `len = body.len()`, and `crc` is CRC-32
//! (IEEE) over the body. Sequence numbers are assigned by the log,
//! strictly increasing and contiguous, and never reused — a failed
//! append does not consume its sequence number (except a failed *fsync*
//! after a complete write, which surfaces as [`WalError::Unsynced`]: the
//! record is on disk, possibly durable, and its sequence number is
//! consumed).
//!
//! # Segments
//!
//! The log is a chain of segment files `wal-<first_seq>.log`, each named
//! by the sequence number of its first record (zero-padded so
//! lexicographic order is chain order). The active segment is sealed and
//! a new one started once it reaches [`WalConfig::segment_bytes`] or
//! [`WalConfig::segment_records`]; frames never span segments. After a
//! snapshot at epoch `E` becomes durable, sealed segments whose records
//! all satisfy `seq <= E` are deleted, minus a configurable
//! [`WalConfig::keep_segments`] slack — so the on-disk footprint is
//! bounded by the snapshot cadence and recovery replays only the
//! post-snapshot suffix. `keep_segments: None` disables retention and
//! keeps the full chain forever.
//!
//! # Recovery
//!
//! [`Wal::open`] validates the whole chain: segments must be contiguous
//! (each segment's name equals the previous segment's last sequence
//! plus one, and record `i` of a segment named `N` must carry sequence
//! `N + i`), every record must pass CRC, and the first segment must
//! start at or below `snapshot_epoch + 1` so no acknowledged suffix is
//! missing. The scan lands on the longest valid record prefix of the
//! chain: a torn tail, a truncation, or a CRC-corrupt record terminates
//! the scan, the damaged segment is truncated to its valid prefix and
//! becomes the active segment, and any later segment files are deleted
//! (their bytes are counted as discarded). A trailing *empty* segment —
//! the signature of a crash between creating a new segment file and
//! writing to it — is valid and becomes the active segment. A stale
//! `snapshot.tmp` left by a crash mid-snapshot is removed. A legacy
//! single-file `wal.log` (pre-segmentation layout) is migrated in place
//! by renaming it to the first segment.
//!
//! Snapshots ([`Wal::write_snapshot`]) are written to a temp file,
//! fsynced and atomically renamed, and the rename is made durable with a
//! directory fsync *before* retention may delete any segment — so a
//! crash at any point leaves either the old snapshot with the full old
//! chain, or the new snapshot with a chain that still covers its suffix.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] drives deterministic disk faults so every failure
//! reproduces exactly. Crash-style faults (kill at a byte offset, kill
//! the fsync after the n-th append, kill mid-rotation, kill
//! mid-retention-delete) freeze the write stream forever, as after a
//! process crash. Degradation-style faults are *clean and transient*:
//! `ENOSPC` after a byte budget (optionally self-clearing after a number
//! of rejected appends, modelling an operator freeing disk), and
//! windowed `EIO` on append / fsync / snapshot-rename. All injected
//! errors carry the substring `failpoint` so harnesses can tell injected
//! faults from real ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header size: `len: u32` + `crc: u32`.
const HEADER_LEN: usize = 8;
/// Body prefix: the record sequence number.
const SEQ_LEN: usize = 8;
/// Sanity bound on a single record body; anything larger is treated as
/// corruption of the length field.
const MAX_BODY_LEN: u32 = 1 << 30;
/// Snapshot file magic + version.
const SNAPSHOT_MAGIC: &[u8; 8] = b"CDBSNAP1";

/// Errors produced by the log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed before the record
    /// reached the file — nothing was appended and no sequence number
    /// was consumed. Includes injected faults, which surface as I/O
    /// errors whose message contains `failpoint`.
    Io(io::Error),
    /// The record was fully written and its sequence number consumed,
    /// but the fsync that should have made it durable failed. The
    /// record is *durable-maybe*: recovery may or may not replay it, so
    /// the caller must keep its in-memory effect (memory == log) while
    /// withholding the acknowledgement.
    Unsynced {
        /// Sequence number of the written-but-unsynced record.
        seq: u64,
        /// The fsync failure.
        error: io::Error,
    },
    /// On-disk state that should be impossible if the caller respected
    /// the crate's invariants (e.g. a segment chain whose prefix below
    /// the snapshot epoch is missing).
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Unsynced { seq, error } => {
                write!(
                    f,
                    "wal unsynced: record {seq} written but fsync failed: {error}"
                )
            }
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// When appended records are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record, before the append returns. A statement
    /// acknowledged under `Always` is durable.
    Always,
    /// Group commit: fsync once every `n` records. A crash can lose up
    /// to `n - 1` acknowledged records (but recovery still lands on a
    /// valid prefix of them).
    EveryN(u32),
    /// Never fsync explicitly (bench baseline; durability is whatever
    /// the OS page cache provides).
    Never,
}

/// How a deterministic failpoint interferes with the log.
///
/// Byte offsets are *logical* offsets into the record stream (the
/// concatenation of all segments, starting from the recovered length);
/// counts are 1-based and count events in the current process only.
/// `(first, count)` windows fire on attempts `first ..= first+count-1`.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Kill the write stream at this logical byte offset: the write
    /// that crosses it persists only the prefix up to the offset (a
    /// torn write), then every later write and sync fails.
    pub kill_at_byte: Option<u64>,
    /// Fail (and kill) the fsync that follows the n-th successful
    /// append: the record is fully written but never acknowledged.
    pub kill_sync_at_append: Option<u64>,
    /// Flip bit `1 << (b % 8)` of the byte at this logical offset as it
    /// is written — silent corruption that only CRC validation can
    /// catch. The stream stays alive.
    pub flip_bit_at: Option<(u64, u8)>,
    /// Reject (cleanly, with no partial write and no sequence number
    /// consumed) any append that would push the logical offset past
    /// this bound — injected `ENOSPC`. The stream stays alive: reads of
    /// log state keep working and the fault can clear.
    pub enospc_after_bytes: Option<u64>,
    /// After this many `ENOSPC` rejections the disk-full condition
    /// clears (modelling an operator freeing space) and appends succeed
    /// again. `None` means the disk stays full forever.
    pub enospc_clear_after: Option<u64>,
    /// Fail append attempts in this `(first, count)` window with a
    /// clean, transient `EIO` — no partial write, no sequence consumed,
    /// the stream stays alive.
    pub eio_appends: Option<(u64, u64)>,
    /// Fail fsync attempts in this `(first, count)` window with a
    /// transient `EIO`. A policy-driven fsync failing after a complete
    /// write surfaces as [`WalError::Unsynced`].
    pub eio_syncs: Option<(u64, u64)>,
    /// Fail snapshot rename attempts in this `(first, count)` window
    /// with a transient `EIO`, leaving `snapshot.tmp` behind (cleaned
    /// up by the next [`Wal::open`]).
    pub eio_renames: Option<(u64, u64)>,
    /// Kill the process during the n-th segment rotation, after the new
    /// (empty) segment file has been created but before the log adopts
    /// it — the crash-mid-rotation window.
    pub kill_at_rotation: Option<u64>,
    /// Kill the process after the n-th retention delete has removed a
    /// segment file — the crash-mid-retention window.
    pub kill_at_retention: Option<u64>,
}

impl FaultPlan {
    /// Plan that tears the log at logical byte offset `k`.
    pub fn kill_at(k: u64) -> FaultPlan {
        FaultPlan {
            kill_at_byte: Some(k),
            ..FaultPlan::default()
        }
    }

    /// Plan that fails the fsync after the `n`-th append.
    pub fn kill_sync_after(n: u64) -> FaultPlan {
        FaultPlan {
            kill_sync_at_append: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan that flips one bit at logical byte offset `offset`.
    pub fn flip_bit(offset: u64, bit: u8) -> FaultPlan {
        FaultPlan {
            flip_bit_at: Some((offset, bit)),
            ..FaultPlan::default()
        }
    }

    /// Plan where the disk fills at `bytes` logical bytes and clears
    /// after `clear_after` rejected appends.
    pub fn enospc_clearing(bytes: u64, clear_after: u64) -> FaultPlan {
        FaultPlan {
            enospc_after_bytes: Some(bytes),
            enospc_clear_after: Some(clear_after),
            ..FaultPlan::default()
        }
    }

    /// Plan that fails `count` append attempts starting at the 1-based
    /// attempt `first` with a transient `EIO`.
    pub fn eio_on_appends(first: u64, count: u64) -> FaultPlan {
        FaultPlan {
            eio_appends: Some((first, count)),
            ..FaultPlan::default()
        }
    }

    /// Plan that fails `count` fsync attempts starting at the 1-based
    /// attempt `first` with a transient `EIO`.
    pub fn eio_on_syncs(first: u64, count: u64) -> FaultPlan {
        FaultPlan {
            eio_syncs: Some((first, count)),
            ..FaultPlan::default()
        }
    }

    /// Plan that fails `count` snapshot renames starting at the 1-based
    /// attempt `first` with a transient `EIO`.
    pub fn eio_on_renames(first: u64, count: u64) -> FaultPlan {
        FaultPlan {
            eio_renames: Some((first, count)),
            ..FaultPlan::default()
        }
    }

    /// Plan that crashes during the `n`-th segment rotation.
    pub fn kill_at_rotation(n: u64) -> FaultPlan {
        FaultPlan {
            kill_at_rotation: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Plan that crashes after the `n`-th retention delete.
    pub fn kill_at_retention(n: u64) -> FaultPlan {
        FaultPlan {
            kill_at_retention: Some(n),
            ..FaultPlan::default()
        }
    }
}

/// Log configuration.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Flush policy for appends.
    pub fsync: FsyncPolicy,
    /// Write a snapshot automatically every `n` records (enforced by the
    /// engine layer, which owns the state being snapshotted; the log
    /// only stores the value).
    pub snapshot_every: Option<u64>,
    /// Seal the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Seal the active segment once it holds this many records.
    pub segment_records: u64,
    /// Snapshot-anchored retention: after a durable snapshot at epoch
    /// `E`, delete sealed segments wholly at or below `E`, keeping this
    /// many of them as slack. `None` disables retention (the full chain
    /// is kept forever and full-chain replay always remains possible).
    pub keep_segments: Option<u64>,
    /// Deterministic fault injection for the log (tests only).
    pub fault: Option<FaultPlan>,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            segment_bytes: 4 << 20,
            segment_records: u64::MAX,
            keep_segments: Some(1),
            fault: None,
        }
    }
}

/// How the scan of the existing log ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailState {
    /// The log ended exactly on a record boundary.
    Clean,
    /// The final record was incomplete (torn write / truncation).
    Torn,
    /// A record failed CRC validation (or carried an insane length or
    /// an out-of-order sequence number), or the segment chain had a
    /// gap.
    Corrupt,
}

/// What recovery found, and what it did about it.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Valid records handed to the caller for replay. The engine layer
    /// overwrites this with the count actually applied after snapshot
    /// filtering.
    pub records_applied: u64,
    /// Bytes past the longest valid prefix of the chain, discarded by
    /// truncation or by deleting segments past a chain break.
    pub bytes_discarded: u64,
    /// True iff the scan ended on a CRC/sequence failure or a chain gap
    /// (as opposed to a clean end or a torn tail). A detected
    /// corruption is never replayed.
    pub corruption_detected: bool,
    /// How the tail of the chain was classified.
    pub tail: TailState,
    /// Epoch (sequence watermark) of the snapshot used, if a valid one
    /// was found.
    pub snapshot_epoch: Option<u64>,
    /// Sequence number of the last valid record (0 when the log held no
    /// valid records and there was no snapshot).
    pub last_seq: u64,
    /// Number of segment files in the recovered chain (including the
    /// active one).
    pub segments: u64,
}

/// A decoded, CRC-validated snapshot.
#[derive(Clone, Debug)]
pub struct SnapshotData {
    /// Sequence watermark: records with `seq <= epoch` are already
    /// reflected in the payload.
    pub epoch: u64,
    /// Opaque engine-encoded state.
    pub payload: Vec<u8>,
}

/// Everything [`Wal::open`] recovered from disk.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The last complete, valid snapshot, if any.
    pub snapshot: Option<SnapshotData>,
    /// All valid `(seq, payload)` records still on disk, in log order.
    /// With retention enabled, records at or below the snapshot epoch
    /// may have been deleted — the snapshot covers them; the caller
    /// filters by epoch either way.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Scan outcome.
    pub report: RecoveryReport,
}

/// Point-in-time observability counters for the log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Segment files in the live chain (including the active one).
    pub segments: u64,
    /// Total on-disk bytes across the chain.
    pub disk_bytes: u64,
    /// Last assigned sequence number.
    pub last_seq: u64,
    /// Epoch of the most recent snapshot (0 = none).
    pub snapshot_epoch: u64,
    /// Segment rotations completed in this process.
    pub rotations: u64,
    /// Segment files deleted by retention in this process.
    pub segments_deleted: u64,
}

// ---- fault state ----

fn killed() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "failpoint: killed")
}

fn enospc() -> io::Error {
    io::Error::other("failpoint: injected ENOSPC (no space left on device)")
}

fn eio(what: &str) -> io::Error {
    io::Error::other(format!("failpoint: injected transient EIO on {what}"))
}

fn in_window(window: Option<(u64, u64)>, attempt: u64) -> bool {
    window.is_some_and(|(first, count)| attempt >= first && attempt < first.saturating_add(count))
}

/// Mutable fault-injection state, shared across all segment files of
/// one log. Crash-style faults set `dead`, after which every operation
/// fails forever — the process's view of the disk is frozen, as after a
/// crash.
struct Faults {
    plan: FaultPlan,
    /// Logical byte offset of the next write (starts at the recovered
    /// chain length; spans segments).
    written: u64,
    /// Successful appends in this process.
    appends: u64,
    /// Append attempts in this process (1-based in windows).
    attempts: u64,
    /// fsync attempts in this process (1-based in windows).
    syncs: u64,
    /// Snapshot rename attempts in this process (1-based in windows).
    renames: u64,
    /// ENOSPC rejections so far.
    enospc_failures: u64,
    /// The disk-full condition has cleared.
    enospc_cleared: bool,
    /// Rotations attempted in this process.
    rotations: u64,
    /// Retention deletes completed in this process.
    deletes: u64,
    dead: bool,
}

impl Faults {
    fn new(plan: FaultPlan, recovered_len: u64) -> Faults {
        Faults {
            plan,
            written: recovered_len,
            appends: 0,
            attempts: 0,
            syncs: 0,
            renames: 0,
            enospc_failures: 0,
            enospc_cleared: false,
            rotations: 0,
            deletes: 0,
            dead: false,
        }
    }
}

/// Writes one frame through the fault plan (if any).
fn write_frame(file: &mut File, faults: Option<&mut Faults>, frame: &[u8]) -> io::Result<()> {
    let Some(f) = faults else {
        return file.write_all(frame);
    };
    if f.dead {
        return Err(killed());
    }
    f.attempts += 1;
    if in_window(f.plan.eio_appends, f.attempts) {
        return Err(eio("append"));
    }
    if let Some(bound) = f.plan.enospc_after_bytes {
        if !f.enospc_cleared && f.written + frame.len() as u64 > bound {
            f.enospc_failures += 1;
            if f.plan
                .enospc_clear_after
                .is_some_and(|n| f.enospc_failures >= n)
            {
                f.enospc_cleared = true;
            }
            return Err(enospc());
        }
    }
    let mut data = frame.to_vec();
    if let Some((off, bit)) = f.plan.flip_bit_at {
        if off >= f.written && off < f.written + data.len() as u64 {
            data[(off - f.written) as usize] ^= 1 << (bit % 8);
        }
    }
    if let Some(k) = f.plan.kill_at_byte {
        if f.written + data.len() as u64 > k {
            let keep = k.saturating_sub(f.written) as usize;
            // Persist the torn prefix, then die.
            file.write_all(&data[..keep])?;
            file.sync_data().ok();
            f.dead = true;
            return Err(killed());
        }
    }
    file.write_all(&data)?;
    f.written += data.len() as u64;
    f.appends += 1;
    Ok(())
}

/// fsyncs one file through the fault plan (if any).
fn sync_file(file: &mut File, faults: Option<&mut Faults>) -> io::Result<()> {
    let Some(f) = faults else {
        return file.sync_data();
    };
    if f.dead {
        return Err(killed());
    }
    f.syncs += 1;
    if in_window(f.plan.eio_syncs, f.syncs) {
        return Err(eio("fsync"));
    }
    if let Some(n) = f.plan.kill_sync_at_append {
        if f.appends >= n {
            // The record's bytes are already in the file (flush them, to
            // be faithful to "crash after write, before ack"), but the
            // caller never sees a success.
            file.sync_data().ok();
            f.dead = true;
            return Err(killed());
        }
    }
    file.sync_data()
}

/// Best-effort directory fsync (makes created/removed entries durable).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
}

// ---- the log ----

/// A sealed (read-only, complete) segment in the live chain.
struct SealedSeg {
    first_seq: u64,
    last_seq: u64,
    len: u64,
}

struct Inner {
    dir: PathBuf,
    /// The active segment file, positioned at its end.
    file: File,
    /// First sequence number of the active segment (its name).
    active_first: u64,
    /// Byte length of the active segment.
    active_len: u64,
    /// Records in the active segment.
    active_records: u64,
    /// Sealed segments, oldest first.
    sealed: Vec<SealedSeg>,
    /// Last assigned sequence number.
    seq: u64,
    policy: FsyncPolicy,
    /// Records appended since the last fsync (for `EveryN`).
    unsynced: u32,
    /// Epoch of the most recent snapshot (0 = none).
    snapshot_epoch: u64,
    segment_bytes: u64,
    segment_records: u64,
    keep_segments: Option<u64>,
    faults: Option<Faults>,
    rotations: u64,
    segments_deleted: u64,
    /// Set when a failed append left bytes on disk past `active_len`
    /// and the repair (truncate back to `active_len`) itself failed:
    /// further appends would land after garbage, so they are refused
    /// until the process restarts and recovery truncates the tail.
    poisoned: bool,
}

/// The append-only record log. Thread-safe; appends are serialized by an
/// internal lock, so callers holding their own state locks across
/// [`Wal::append`] get WAL order == apply order.
pub struct Wal {
    inner: Mutex<Inner>,
}

/// Path of the segment whose first record has sequence `first_seq`.
pub fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

/// Path of the first log segment inside `dir` — the whole log for a log
/// that has never rotated.
pub fn log_path(dir: &Path) -> PathBuf {
    segment_path(dir, 1)
}

/// Path of the snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

/// Parses `wal-<first_seq>.log` back into `first_seq`.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse::<u64>()
        .ok()
}

impl Wal {
    /// Opens (creating if necessary) the log in `dir`, validates the
    /// segment chain, and truncates it to the longest valid record
    /// prefix. Returns the log positioned for appending plus everything
    /// recovered. Stale `snapshot.tmp` files are removed and a legacy
    /// single-file `wal.log` is migrated to the segmented layout.
    pub fn open(dir: &Path, cfg: &WalConfig) -> Result<(Wal, RecoveredLog), WalError> {
        fs::create_dir_all(dir)?;
        // A crash between writing snapshot.tmp and renaming it leaves
        // the temp file behind; it is not a snapshot, so remove it.
        let tmp = dir.join("snapshot.tmp");
        match fs::remove_file(&tmp) {
            Ok(()) => sync_dir(dir),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let snapshot = read_snapshot(&snapshot_path(dir));
        let snapshot_epoch = snapshot.as_ref().map(|s| s.epoch).unwrap_or(0);

        // Discover the segment chain (and migrate a legacy single-file
        // log, whose records always start at sequence 1).
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(first) = parse_segment_name(name) {
                segs.push((first, entry.path()));
            }
        }
        let legacy = dir.join("wal.log");
        if legacy.exists() {
            if !segs.is_empty() {
                return Err(WalError::Corrupt(
                    "both legacy wal.log and segmented wal-*.log files present".into(),
                ));
            }
            let first = segment_path(dir, 1);
            fs::rename(&legacy, &first)?;
            sync_dir(dir);
            segs.push((1, first));
        }
        segs.sort_by_key(|(first, _)| *first);

        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut bytes_discarded = 0u64;
        let mut tail = TailState::Clean;
        let mut sealed: Vec<SealedSeg> = Vec::new();
        let (mut active_first, mut active_path, mut active_valid_len, mut active_records);
        let mut segments;

        if segs.is_empty() {
            // Fresh log: the next record is snapshot_epoch + 1, so the
            // first segment is named after it.
            let first = snapshot_epoch + 1;
            let path = segment_path(dir, first);
            File::create(&path)?;
            sync_dir(dir);
            active_first = first;
            active_path = path;
            active_valid_len = 0;
            active_records = 0;
            segments = 1u64;
        } else {
            if segs[0].0 > snapshot_epoch + 1 {
                return Err(WalError::Corrupt(format!(
                    "log prefix missing: first segment starts at seq {} but snapshot epoch is {}",
                    segs[0].0, snapshot_epoch
                )));
            }
            // Walk the chain; stop at the first torn/corrupt tail or
            // sequence gap. `per_seg[i]` = (records, valid_len).
            let mut chain_end = segs.len() - 1;
            let mut last_records = 0u64;
            let mut last_valid_len = 0u64;
            let mut next_expected = segs[0].0;
            for (i, (first, path)) in segs.iter().enumerate() {
                if *first != next_expected {
                    // Gap or overlap between segments: impossible via
                    // this crate's rotation, so classify as corruption
                    // and cut the chain at the previous segment.
                    tail = TailState::Corrupt;
                    chain_end = i - 1;
                    break;
                }
                let bytes = fs::read(path)?;
                let scan = scan_segment(&bytes, *first);
                bytes_discarded += bytes.len() as u64 - scan.valid_len;
                next_expected = *first + scan.records.len() as u64;
                last_records = scan.records.len() as u64;
                last_valid_len = scan.valid_len;
                records.extend(scan.records);
                chain_end = i;
                if scan.tail != TailState::Clean {
                    tail = scan.tail;
                    break;
                }
            }
            // Segments past the chain end are unreachable (their records
            // would follow a hole); delete them.
            let mut dropped = false;
            for (_, path) in &segs[chain_end + 1..] {
                bytes_discarded += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(path)?;
                dropped = true;
            }
            if dropped {
                sync_dir(dir);
            }
            // Rebuild sealed-segment metadata from the record walk: the
            // boundaries are the segment names.
            let names: Vec<u64> = segs[..=chain_end].iter().map(|(f, _)| *f).collect();
            for (i, &first) in names.iter().enumerate().take(chain_end) {
                let next_first = names[i + 1];
                let seg_len = frames_len(&records, first, next_first);
                sealed.push(SealedSeg {
                    first_seq: first,
                    last_seq: next_first - 1,
                    len: seg_len,
                });
            }
            active_first = segs[chain_end].0;
            active_path = segs[chain_end].1.clone();
            active_valid_len = last_valid_len;
            active_records = last_records;
            segments = (chain_end + 1) as u64;
        }

        // A durable snapshot can cover sequences the chain no longer
        // physically holds: a crash may lose an unsynced tail
        // (`EveryN`/`Never` fsync policy, a torn write, a CRC-cut
        // record) that the snapshot had already captured. Appending
        // into the surviving segment would place seq `epoch + 1` at a
        // position where the name-based contiguity invariant (record
        // `i` of segment `f` carries seq `f + i`) cannot hold, so the
        // NEXT recovery would classify the chain as corrupt there and
        // discard acknowledged records. Every surviving record is
        // `<= epoch` and therefore redundant with the snapshot: drop
        // the chain and re-anchor a fresh active segment at
        // `epoch + 1`. (A crash mid-deletion leaves either a shorter
        // chain — re-anchored again next open — or no segments, which
        // takes the fresh-log path above.)
        let physical_last = records
            .last()
            .map(|(s, _)| *s)
            .unwrap_or(active_first.saturating_sub(1));
        let reanchored = snapshot_epoch > physical_last;
        if reanchored {
            for seg in sealed.drain(..) {
                fs::remove_file(segment_path(dir, seg.first_seq))?;
            }
            fs::remove_file(&active_path)?;
            sync_dir(dir);
            active_first = snapshot_epoch + 1;
            active_path = segment_path(dir, active_first);
            active_valid_len = 0;
            active_records = 0;
            segments = 1;
        }

        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&active_path)?;
        file.set_len(active_valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(active_valid_len))?;
        if reanchored {
            sync_dir(dir);
        }

        let last_seq = records
            .last()
            .map(|(s, _)| *s)
            .unwrap_or(active_first.saturating_sub(1))
            .max(snapshot_epoch);
        let total_len = sealed.iter().map(|s| s.len).sum::<u64>() + active_valid_len;
        let report = RecoveryReport {
            records_applied: records.len() as u64,
            bytes_discarded,
            corruption_detected: tail == TailState::Corrupt,
            tail,
            snapshot_epoch: snapshot.as_ref().map(|s| s.epoch),
            last_seq,
            segments,
        };
        let faults = cfg.fault.clone().map(|plan| Faults::new(plan, total_len));
        let wal = Wal {
            inner: Mutex::new(Inner {
                dir: dir.to_path_buf(),
                file,
                active_first,
                active_len: active_valid_len,
                active_records,
                sealed,
                seq: last_seq,
                policy: cfg.fsync,
                unsynced: 0,
                snapshot_epoch,
                segment_bytes: cfg.segment_bytes.max(1),
                segment_records: cfg.segment_records.max(1),
                keep_segments: cfg.keep_segments,
                faults,
                rotations: 0,
                segments_deleted: 0,
                poisoned: false,
            }),
        };
        Ok((
            wal,
            RecoveredLog {
                snapshot,
                records,
                report,
            },
        ))
    }

    /// Appends one record and returns its sequence number. The record is
    /// flushed according to the fsync policy. A clean failure
    /// ([`WalError::Io`]) consumes no sequence number; a post-write
    /// fsync failure surfaces as [`WalError::Unsynced`] and *does*
    /// consume the sequence number (the record is on disk).
    pub fn append(&self, payload: &[u8]) -> Result<u64, WalError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if inner.poisoned {
            return Err(WalError::Io(io::Error::other(
                "wal poisoned: could not restore the active segment after a partial append",
            )));
        }
        let seq = inner.seq + 1;
        let frame = encode_frame(seq, payload);
        if inner.active_records > 0
            && (inner.active_len + frame.len() as u64 > inner.segment_bytes
                || inner.active_records >= inner.segment_records)
        {
            rotate(inner)?;
        }
        if let Err(e) = write_frame(&mut inner.file, inner.faults.as_mut(), &frame) {
            // A real `write_all` failure can leave a partial frame on
            // disk with the cursor advanced past it; a later successful
            // append would then land after garbage and recovery would
            // truncate at the garbage, losing that later record.
            // Restore the segment to its pre-append state so the
            // failure really is clean. A simulated crash (dead
            // failpoint) skips the repair — the "process" is gone and
            // the torn bytes ARE the crash signature. If the repair
            // itself fails the log is poisoned: every later append is
            // refused rather than written after garbage.
            let simulated_crash = inner.faults.as_ref().is_some_and(|f| f.dead);
            if !simulated_crash {
                let repaired = inner.file.set_len(inner.active_len).and_then(|()| {
                    inner
                        .file
                        .seek(SeekFrom::Start(inner.active_len))
                        .map(|_| ())
                });
                if repaired.is_err() {
                    inner.poisoned = true;
                }
            }
            return Err(e.into());
        }
        inner.seq = seq;
        inner.active_len += frame.len() as u64;
        inner.active_records += 1;
        let sync_result = match inner.policy {
            FsyncPolicy::Always => sync_file(&mut inner.file, inner.faults.as_mut()),
            FsyncPolicy::EveryN(n) => {
                inner.unsynced += 1;
                if inner.unsynced >= n.max(1) {
                    let r = sync_file(&mut inner.file, inner.faults.as_mut());
                    if r.is_ok() {
                        inner.unsynced = 0;
                    }
                    r
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        };
        match sync_result {
            Ok(()) => Ok(seq),
            Err(error) => Err(WalError::Unsynced { seq, error }),
        }
    }

    /// Forces an fsync regardless of policy (group-commit barrier).
    pub fn sync(&self) -> Result<(), WalError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        sync_file(&mut inner.file, inner.faults.as_mut())?;
        inner.unsynced = 0;
        Ok(())
    }

    /// Last assigned sequence number.
    pub fn seq(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Total on-disk byte length of the log chain (sealed segments plus
    /// the active one).
    pub fn log_len(&self) -> u64 {
        let inner = self.inner.lock();
        inner.sealed.iter().map(|s| s.len).sum::<u64>() + inner.active_len
    }

    /// Epoch of the most recent snapshot written or recovered (0 if
    /// none).
    pub fn snapshot_epoch(&self) -> u64 {
        self.inner.lock().snapshot_epoch
    }

    /// Records appended past the last snapshot epoch — the engine's
    /// trigger input for `snapshot_every`.
    pub fn records_since_snapshot(&self) -> u64 {
        let inner = self.inner.lock();
        inner.seq.saturating_sub(inner.snapshot_epoch)
    }

    /// Point-in-time counters for observability.
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        WalStats {
            segments: inner.sealed.len() as u64 + 1,
            disk_bytes: inner.sealed.iter().map(|s| s.len).sum::<u64>() + inner.active_len,
            last_seq: inner.seq,
            snapshot_epoch: inner.snapshot_epoch,
            rotations: inner.rotations,
            segments_deleted: inner.segments_deleted,
        }
    }

    /// Writes a snapshot whose payload reflects exactly the state after
    /// the last appended record. The caller must exclude concurrent
    /// appends for that to hold (the engine holds its catalog write
    /// lock). Temp-file + fsync + atomic rename + directory fsync: a
    /// crash mid-snapshot leaves the previous snapshot (or none) intact
    /// together with a log chain that still covers its suffix. Only
    /// after the new snapshot is durable does retention delete sealed
    /// segments wholly at or below the new epoch (minus the configured
    /// `keep_segments` slack).
    pub fn write_snapshot(&self, payload: &[u8]) -> Result<u64, WalError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if inner.faults.as_ref().is_some_and(|f| f.dead) {
            return Err(WalError::Io(killed()));
        }
        let epoch = inner.seq;
        let final_path = snapshot_path(&inner.dir);
        let tmp_path = inner.dir.join("snapshot.tmp");
        let mut body = Vec::with_capacity(16 + payload.len());
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(payload);
        let crc = crc32(&body);
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(SNAPSHOT_MAGIC)?;
            f.write_all(&crc.to_le_bytes())?;
            f.write_all(&body)?;
            f.sync_data()?;
        }
        if let Some(f) = inner.faults.as_mut() {
            f.renames += 1;
            if in_window(f.plan.eio_renames, f.renames) {
                // The temp file is left behind; the next open cleans it.
                return Err(WalError::Io(eio("snapshot rename")));
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        // The rename must be durable before retention may delete any
        // segment, otherwise a crash could lose both the old chain and
        // the new snapshot.
        File::open(&inner.dir)?.sync_all()?;
        inner.snapshot_epoch = epoch;
        apply_retention(inner)?;
        Ok(epoch)
    }
}

/// Seals the active segment and starts a new one at `inner.seq + 1`.
/// On failure the in-memory chain is unchanged, so the next append
/// retries the rotation.
fn rotate(inner: &mut Inner) -> Result<(), WalError> {
    // The sealing segment's bytes must be durable before the chain
    // moves past them.
    sync_file(&mut inner.file, inner.faults.as_mut())?;
    let next_first = inner.seq + 1;
    let path = segment_path(&inner.dir, next_first);
    if let Some(f) = inner.faults.as_mut() {
        f.rotations += 1;
        if f.plan.kill_at_rotation == Some(f.rotations) {
            // Crash window: the new (empty) segment file exists on
            // disk, but the process dies before adopting it.
            let _ = File::create(&path);
            sync_dir(&inner.dir);
            f.dead = true;
            return Err(WalError::Io(killed()));
        }
    }
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    sync_dir(&inner.dir);
    inner.sealed.push(SealedSeg {
        first_seq: inner.active_first,
        last_seq: inner.seq,
        len: inner.active_len,
    });
    inner.file = file;
    inner.active_first = next_first;
    inner.active_len = 0;
    inner.active_records = 0;
    inner.rotations += 1;
    Ok(())
}

/// Deletes sealed segments wholly covered by the current snapshot epoch
/// (minus the configured slack), oldest first so the chain stays
/// contiguous. A real delete failure stops quietly — the next snapshot
/// retries; the kill-at-retention failpoint crashes after its n-th
/// delete.
fn apply_retention(inner: &mut Inner) -> Result<(), WalError> {
    let Some(keep) = inner.keep_segments else {
        return Ok(());
    };
    let epoch = inner.snapshot_epoch;
    let deletable = inner
        .sealed
        .iter()
        .take_while(|s| s.last_seq <= epoch)
        .count();
    let n = deletable.saturating_sub(keep as usize);
    let mut removed = false;
    for _ in 0..n {
        let path = segment_path(&inner.dir, inner.sealed[0].first_seq);
        if fs::remove_file(&path).is_err() {
            break;
        }
        inner.sealed.remove(0);
        inner.segments_deleted += 1;
        removed = true;
        if let Some(f) = inner.faults.as_mut() {
            f.deletes += 1;
            if f.plan.kill_at_retention == Some(f.deletes) {
                sync_dir(&inner.dir);
                f.dead = true;
                return Err(WalError::Io(killed()));
            }
        }
    }
    if removed {
        sync_dir(&inner.dir);
    }
    Ok(())
}

// ---- framing / scanning ----

fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = SEQ_LEN + payload.len();
    let mut frame = Vec::with_capacity(HEADER_LEN + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.extend_from_slice(&[0; 4]); // crc placeholder
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Total framed length of records in `[first, next_first)` — used to
/// reconstruct sealed-segment byte lengths from a recovery walk.
fn frames_len(records: &[(u64, Vec<u8>)], first: u64, next_first: u64) -> u64 {
    records
        .iter()
        .filter(|(s, _)| *s >= first && *s < next_first)
        .map(|(_, p)| (HEADER_LEN + SEQ_LEN + p.len()) as u64)
        .sum()
}

struct Scan {
    records: Vec<(u64, Vec<u8>)>,
    valid_len: u64,
    tail: TailState,
}

/// Walks one segment's raw bytes and returns its longest valid record
/// prefix. Record `i` must carry sequence `first_seq + i`; a mismatch
/// is classified as corruption (the writer assigns contiguous
/// sequences).
fn scan_segment(bytes: &[u8], first_seq: u64) -> Scan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut tail = TailState::Clean;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < HEADER_LEN {
            tail = TailState::Torn;
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len < SEQ_LEN as u32 || len > MAX_BODY_LEN {
            // A length that no writer could have produced: the header
            // itself is corrupt.
            tail = TailState::Corrupt;
            break;
        }
        let body_len = len as usize;
        if remaining - HEADER_LEN < body_len {
            tail = TailState::Torn;
            break;
        }
        let body = &bytes[offset + HEADER_LEN..offset + HEADER_LEN + body_len];
        if crc32(body) != crc {
            tail = TailState::Corrupt;
            break;
        }
        let seq = u64::from_le_bytes(body[..SEQ_LEN].try_into().unwrap());
        if seq != first_seq + records.len() as u64 {
            tail = TailState::Corrupt;
            break;
        }
        records.push((seq, body[SEQ_LEN..].to_vec()));
        offset += HEADER_LEN + body_len;
    }
    Scan {
        records,
        valid_len: offset as u64,
        tail,
    }
}

/// Reads and validates a snapshot file; any defect (missing, torn,
/// corrupt) yields `None` — the caller falls back to replaying whatever
/// the log chain still covers.
fn read_snapshot(path: &Path) -> Option<SnapshotData> {
    let mut f = File::open(path).ok()?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).ok()?;
    if bytes.len() < 8 + 4 + 16 || &bytes[..8] != SNAPSHOT_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != crc {
        return None;
    }
    let epoch = u64::from_le_bytes(body[..8].try_into().unwrap());
    let payload_len = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
    if body.len() - 16 != payload_len {
        return None;
    }
    Some(SnapshotData {
        epoch,
        payload: body[16..].to_vec(),
    })
}

/// CRC-32 (IEEE 802.3, reflected, init/final `0xFFFF_FFFF`) — the same
/// polynomial as zlib. Table-driven, built at first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cryptdb-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_default(dir: &Path) -> (Wal, RecoveredLog) {
        Wal::open(dir, &WalConfig::default()).unwrap()
    }

    fn segment_files(dir: &Path) -> Vec<u64> {
        let mut v: Vec<u64> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| parse_segment_name(e.unwrap().file_name().to_str().unwrap()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn crc32_known_vector() {
        // zlib's canonical check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        {
            let (wal, rec) = open_default(&dir);
            assert_eq!(rec.records.len(), 0);
            assert_eq!(wal.append(b"alpha").unwrap(), 1);
            assert_eq!(wal.append(b"beta").unwrap(), 2);
            assert_eq!(wal.append(b"").unwrap(), 3);
        }
        let (wal, rec) = open_default(&dir);
        assert_eq!(
            rec.records,
            vec![
                (1, b"alpha".to_vec()),
                (2, b"beta".to_vec()),
                (3, Vec::new())
            ]
        );
        assert_eq!(rec.report.tail, TailState::Clean);
        assert_eq!(rec.report.bytes_discarded, 0);
        assert_eq!(rec.report.last_seq, 3);
        assert_eq!(rec.report.segments, 1);
        // Appends continue the sequence.
        assert_eq!(wal.append(b"gamma").unwrap(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_reusable() {
        let dir = tmpdir("torn");
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"keep-me").unwrap();
            wal.append(b"torn-record").unwrap();
        }
        let path = log_path(&dir);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        let (wal, rec) = open_default(&dir);
        assert_eq!(rec.records, vec![(1, b"keep-me".to_vec())]);
        assert_eq!(rec.report.tail, TailState::Torn);
        assert!(rec.report.bytes_discarded > 0);
        assert!(!rec.report.corruption_detected);
        // The file was truncated to the valid prefix and keeps working.
        assert_eq!(wal.append(b"after-recovery").unwrap(), 2);
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(
            rec.records,
            vec![(1, b"keep-me".to_vec()), (2, b"after-recovery".to_vec())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_not_replayed() {
        let dir = tmpdir("flip");
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        let path = log_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload bit inside the second record.
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = open_default(&dir);
        assert_eq!(rec.records, vec![(1, b"first".to_vec())]);
        assert!(rec.report.corruption_detected);
        assert_eq!(rec.report.tail, TailState::Corrupt);
        assert!(rec.report.bytes_discarded > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roundtrip_and_epoch_filtering_inputs() {
        let dir = tmpdir("snap");
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            assert_eq!(wal.write_snapshot(b"STATE@2").unwrap(), 2);
            assert_eq!(wal.snapshot_epoch(), 2);
            wal.append(b"three").unwrap();
            assert_eq!(wal.records_since_snapshot(), 1);
        }
        let (_, rec) = open_default(&dir);
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.payload, b"STATE@2");
        assert_eq!(rec.report.snapshot_epoch, Some(2));
        // Everything stayed in one segment, so all records are still
        // handed back; the engine filters by epoch.
        assert_eq!(rec.records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_unsynced_tail_below_snapshot_epoch_reanchors_the_chain() {
        // Under `EveryN`/`Never` a crash can lose an unsynced record
        // tail that a durable snapshot already covers (the kill-style
        // failpoints cannot drop page-cache bytes, so the loss is
        // simulated by truncating the segment between opens). Recovery
        // must then re-anchor a fresh segment at epoch + 1: appending
        // into the surviving segment would break the name-based
        // contiguity invariant and the NEXT recovery would discard the
        // acknowledged post-crash records as corrupt.
        let dir = tmpdir("losttail");
        let cfg = WalConfig {
            fsync: FsyncPolicy::EveryN(100),
            ..WalConfig::default()
        };
        let synced_len;
        {
            let (wal, _) = Wal::open(&dir, &cfg).unwrap();
            for i in 0..6u32 {
                wal.append(format!("pre-{i}").as_bytes()).unwrap();
            }
            synced_len = wal.log_len();
            for i in 6..10u32 {
                wal.append(format!("tail-{i}").as_bytes()).unwrap();
            }
            assert_eq!(wal.write_snapshot(b"STATE@10").unwrap(), 10);
        }
        // The crash: records 7..=10 never hit the platter.
        let seg = OpenOptions::new().write(true).open(log_path(&dir)).unwrap();
        seg.set_len(synced_len).unwrap();
        drop(seg);

        let (wal, rec) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(rec.report.last_seq, 10, "epoch holds the watermark");
        assert_eq!(rec.report.snapshot_epoch, Some(10));
        assert!(!rec.report.corruption_detected);
        assert_eq!(segment_files(&dir), vec![11], "re-anchored at epoch + 1");
        assert_eq!(wal.append(b"after-crash").unwrap(), 11);
        wal.sync().unwrap();
        drop(wal);

        let (_, rec) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(rec.report.tail, TailState::Clean);
        assert!(!rec.report.corruption_detected);
        assert_eq!(rec.report.last_seq, 11);
        assert!(
            rec.records.contains(&(11, b"after-crash".to_vec())),
            "the acknowledged post-crash record survives its own reopen"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_ignored_full_log_replay_possible() {
        let dir = tmpdir("snapbad");
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"one").unwrap();
            wal.write_snapshot(b"STATE").unwrap();
            wal.append(b"two").unwrap();
        }
        let path = snapshot_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = open_default(&dir);
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.report.snapshot_epoch, None);
        assert_eq!(rec.records.len(), 2, "log replay covers everything");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoint_kill_at_byte_tears_the_log() {
        let dir = tmpdir("killbyte");
        // First, learn the clean length of two records.
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"record-one").unwrap();
            wal.append(b"record-two").unwrap();
        }
        let clean_len = fs::metadata(log_path(&dir)).unwrap().len();
        let _ = fs::remove_dir_all(&dir);
        // Now kill mid-second-record.
        let cfg = WalConfig {
            fault: Some(FaultPlan::kill_at(clean_len - 3)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        wal.append(b"record-one").unwrap();
        assert!(wal.append(b"record-two").is_err(), "append crossing kill");
        assert!(wal.append(b"record-three").is_err(), "stream is dead");
        assert!(wal.sync().is_err(), "sync is dead too");
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(rec.records, vec![(1, b"record-one".to_vec())]);
        assert_eq!(rec.report.tail, TailState::Torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoint_sync_kill_leaves_record_durable_but_unacked() {
        let dir = tmpdir("killsync");
        let cfg = WalConfig {
            fault: Some(FaultPlan::kill_sync_after(2)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        wal.append(b"acked").unwrap();
        // Fully written, but the fsync (and thus the ack) fails — and
        // the error says the sequence number was consumed.
        match wal.append(b"durable-unacked") {
            Err(WalError::Unsynced { seq: 2, .. }) => {}
            other => panic!("expected Unsynced for seq 2, got {other:?}"),
        }
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(
            rec.records,
            vec![(1, b"acked".to_vec()), (2, b"durable-unacked".to_vec())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoint_flip_bit_produces_detectable_corruption() {
        let dir = tmpdir("flipwrite");
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"aaaa").unwrap();
        }
        let first_len = fs::metadata(log_path(&dir)).unwrap().len();
        let _ = fs::remove_dir_all(&dir);
        let cfg = WalConfig {
            // Flip a bit inside the second record's payload.
            fault: Some(FaultPlan::flip_bit(first_len + HEADER_LEN as u64 + 9, 3)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        wal.append(b"aaaa").unwrap();
        // The flip is silent: the append "succeeds".
        wal.append(b"bbbb").unwrap();
        wal.append(b"cccc").unwrap();
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(rec.records, vec![(1, b"aaaa".to_vec())]);
        assert!(rec.report.corruption_detected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_groups_commits() {
        let dir = tmpdir("everyn");
        let cfg = WalConfig {
            fsync: FsyncPolicy::EveryN(3),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        for i in 0..7u8 {
            wal.append(&[i]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(rec.records.len(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    // ---- segmented-log tests ----

    fn small_segments(fault: Option<FaultPlan>) -> WalConfig {
        WalConfig {
            segment_bytes: 64,
            fault,
            ..WalConfig::default()
        }
    }

    #[test]
    fn rotation_seals_segments_and_recovery_spans_them() {
        let dir = tmpdir("rotate");
        {
            let (wal, _) = Wal::open(&dir, &small_segments(None)).unwrap();
            for i in 0..20u8 {
                wal.append(&[i; 20]).unwrap();
            }
            let stats = wal.stats();
            assert!(stats.segments > 1, "expected rotation, got {stats:?}");
            assert!(stats.rotations > 0);
            assert_eq!(stats.last_seq, 20);
            // log_len spans the chain, not just the active segment.
            assert_eq!(wal.log_len(), 20 * (HEADER_LEN + SEQ_LEN + 20) as u64);
        }
        assert!(segment_files(&dir).len() > 1);
        let (wal, rec) = Wal::open(&dir, &small_segments(None)).unwrap();
        assert_eq!(rec.records.len(), 20);
        assert_eq!(rec.report.last_seq, 20);
        assert!(rec.report.segments > 1);
        assert_eq!(rec.report.tail, TailState::Clean);
        for (i, (seq, payload)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(payload, &vec![i as u8; 20]);
        }
        // The sequence continues across the reopen.
        assert_eq!(wal.append(b"next").unwrap(), 21);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_records_bound_also_rotates() {
        let dir = tmpdir("rotrecs");
        let cfg = WalConfig {
            segment_records: 3,
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        for _ in 0..7 {
            wal.append(b"x").unwrap();
        }
        assert_eq!(wal.stats().segments, 3);
        drop(wal);
        assert_eq!(segment_files(&dir), vec![1, 4, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_deletes_segments_below_epoch_and_bounds_disk() {
        let dir = tmpdir("retain");
        let cfg = WalConfig {
            segment_bytes: 64,
            keep_segments: Some(0),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 20]).unwrap();
        }
        let before = wal.log_len();
        assert!(wal.stats().segments > 5);
        wal.write_snapshot(b"STATE@20").unwrap();
        let stats = wal.stats();
        assert_eq!(stats.segments, 1, "only the active segment survives");
        assert!(stats.segments_deleted > 0);
        assert!(wal.log_len() < before);
        wal.append(b"after-snapshot").unwrap();
        drop(wal);
        // Recovery = snapshot + suffix; deleted records are covered by
        // the snapshot epoch.
        let (_, rec) = Wal::open(&dir, &cfg).unwrap();
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(snap.epoch, 20);
        let first = rec.records.first().map(|(s, _)| *s).expect("suffix");
        assert!(rec
            .records
            .iter()
            .enumerate()
            .all(|(i, (s, _))| *s == first + i as u64));
        assert_eq!(rec.report.last_seq, 21);
        assert_eq!(
            rec.records.last().map(|(s, _)| *s),
            Some(21),
            "post-snapshot suffix replayed"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_segments_none_disables_retention() {
        let dir = tmpdir("keepall");
        let cfg = WalConfig {
            segment_bytes: 64,
            keep_segments: None,
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 20]).unwrap();
        }
        let segs_before = wal.stats().segments;
        wal.write_snapshot(b"STATE").unwrap();
        assert_eq!(wal.stats().segments, segs_before);
        assert_eq!(wal.stats().segments_deleted, 0);
        drop(wal);
        // Full-chain replay still possible even if the snapshot dies.
        fs::remove_file(snapshot_path(&dir)).unwrap();
        let (_, rec) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(rec.records.len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_segments_slack_is_respected() {
        let dir = tmpdir("slack");
        let cfg = WalConfig {
            segment_records: 2,
            keep_segments: Some(2),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        for _ in 0..9 {
            wal.append(b"r").unwrap();
        }
        // 5 segments: [1,2] [3,4] [5,6] [7,8] [9...]. Snapshot at 9
        // makes 4 sealed ones deletable; slack keeps the newest 2.
        wal.write_snapshot(b"S").unwrap();
        assert_eq!(wal.stats().segments, 3);
        assert_eq!(wal.stats().segments_deleted, 2);
        assert_eq!(segment_files(&dir), vec![5, 7, 9]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_rotation_leaves_recoverable_chain() {
        let dir = tmpdir("rotkill");
        let cfg = small_segments(Some(FaultPlan::kill_at_rotation(2)));
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        let mut acked = Vec::new();
        for i in 0..20u8 {
            match wal.append(&[i; 20]) {
                Ok(seq) => acked.push(seq),
                Err(e) => {
                    assert!(e.to_string().contains("failpoint"), "{e}");
                    break;
                }
            }
        }
        assert!(!acked.is_empty());
        assert!(wal.append(b"x").is_err(), "stream dead after crash");
        drop(wal);
        // The empty just-created segment is a valid chain tail; every
        // acked record survives.
        let (wal, rec) = Wal::open(&dir, &small_segments(None)).unwrap();
        assert_eq!(rec.records.len(), acked.len());
        assert_eq!(rec.report.last_seq, *acked.last().unwrap());
        assert_eq!(rec.report.tail, TailState::Clean);
        // And the log keeps accepting appends at the right sequence.
        assert_eq!(wal.append(b"resume").unwrap(), acked.last().unwrap() + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_retention_recovers_and_next_snapshot_cleans_up() {
        let dir = tmpdir("retkill");
        let cfg = WalConfig {
            segment_records: 2,
            keep_segments: Some(0),
            fault: Some(FaultPlan::kill_at_retention(1)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        for _ in 0..9 {
            wal.append(b"r").unwrap();
        }
        // The snapshot itself lands, then retention crashes after one
        // delete.
        let err = wal.write_snapshot(b"S@9").unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
        drop(wal);
        // Recovery: snapshot is durable, remaining chain covers the
        // suffix.
        let cfg2 = WalConfig {
            segment_records: 2,
            keep_segments: Some(0),
            ..WalConfig::default()
        };
        let (wal, rec) = Wal::open(&dir, &cfg2).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().epoch, 9);
        assert_eq!(rec.report.last_seq, 9);
        wal.append(b"more").unwrap();
        // The next successful snapshot finishes the interrupted
        // retention.
        wal.write_snapshot(b"S@10").unwrap();
        assert_eq!(wal.stats().segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_rejects_cleanly_then_clears() {
        let dir = tmpdir("enospc");
        let frame = (HEADER_LEN + SEQ_LEN + 4) as u64;
        let cfg = WalConfig {
            fault: Some(FaultPlan::enospc_clearing(2 * frame, 3)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(wal.append(b"aaaa").unwrap(), 1);
        assert_eq!(wal.append(b"bbbb").unwrap(), 2);
        // Disk full: clean rejections, no sequence consumed, stream
        // alive.
        for _ in 0..3 {
            let err = wal.append(b"cccc").unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("failpoint") && msg.contains("ENOSPC"), "{msg}");
            assert_eq!(wal.seq(), 2);
        }
        // After 3 rejections the fault clears; the sequence continues
        // with no gap.
        assert_eq!(wal.append(b"dddd").unwrap(), 3);
        assert!(wal.sync().is_ok(), "stream never died");
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(
            rec.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "no gap, no torn bytes"
        );
        assert_eq!(rec.report.tail, TailState::Clean);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_eio_on_append_skips_no_sequence() {
        let dir = tmpdir("eioapp");
        let cfg = WalConfig {
            fault: Some(FaultPlan::eio_on_appends(2, 1)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(wal.append(b"one").unwrap(), 1);
        let err = wal.append(b"two").unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
        assert!(matches!(err, WalError::Io(_)), "clean failure class");
        // The retry gets the sequence the failed attempt never
        // consumed.
        assert_eq!(wal.append(b"two-retry").unwrap(), 2);
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(
            rec.records,
            vec![(1, b"one".to_vec()), (2, b"two-retry".to_vec())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_eio_on_sync_surfaces_as_unsynced() {
        let dir = tmpdir("eiosync");
        let cfg = WalConfig {
            fault: Some(FaultPlan::eio_on_syncs(2, 1)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(wal.append(b"one").unwrap(), 1);
        match wal.append(b"two") {
            Err(WalError::Unsynced { seq: 2, error }) => {
                assert!(error.to_string().contains("failpoint"), "{error}");
            }
            other => panic!("expected Unsynced for seq 2, got {other:?}"),
        }
        // The stream stays alive and the sequence moved past the
        // written-but-unsynced record.
        assert_eq!(wal.append(b"three").unwrap(), 3);
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(
            rec.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "the unsynced record is on disk"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_eio_on_rename_keeps_old_snapshot_and_tmp_is_cleaned() {
        let dir = tmpdir("eiorename");
        let cfg = WalConfig {
            fault: Some(FaultPlan::eio_on_renames(2, 1)),
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, &cfg).unwrap();
        wal.append(b"one").unwrap();
        wal.write_snapshot(b"S@1").unwrap();
        wal.append(b"two").unwrap();
        let err = wal.write_snapshot(b"S@2").unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
        assert_eq!(wal.snapshot_epoch(), 1, "epoch unchanged on failure");
        assert!(dir.join("snapshot.tmp").exists(), "tmp left behind");
        // Retry succeeds (the window passed).
        assert_eq!(wal.write_snapshot(b"S@2").unwrap(), 2);
        drop(wal);
        let (_, rec) = open_default(&dir);
        assert_eq!(rec.snapshot.unwrap().epoch, 2);
        assert!(!dir.join("snapshot.tmp").exists(), "open cleans tmp");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_snapshot_tmp_is_removed_at_open() {
        let dir = tmpdir("staletmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("snapshot.tmp"), b"half-written garbage").unwrap();
        let (_, rec) = open_default(&dir);
        assert!(!dir.join("snapshot.tmp").exists());
        assert!(rec.snapshot.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_prefix_is_an_error() {
        let dir = tmpdir("noprefix");
        let cfg = WalConfig {
            segment_records: 2,
            keep_segments: None,
            ..WalConfig::default()
        };
        {
            let (wal, _) = Wal::open(&dir, &cfg).unwrap();
            for _ in 0..5 {
                wal.append(b"r").unwrap();
            }
        }
        // No snapshot covers seqs 1-2; deleting their segment breaks
        // recovery and must be loud, not silent data loss.
        fs::remove_file(segment_path(&dir, 1)).unwrap();
        match Wal::open(&dir, &cfg) {
            Err(WalError::Corrupt(m)) => assert!(m.contains("prefix missing"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_gap_cuts_recovery_at_the_gap() {
        let dir = tmpdir("gap");
        let cfg = WalConfig {
            segment_records: 2,
            keep_segments: None,
            ..WalConfig::default()
        };
        {
            let (wal, _) = Wal::open(&dir, &cfg).unwrap();
            for _ in 0..7 {
                wal.append(b"r").unwrap();
            }
        }
        // Segments: [1,2] [3,4] [5,6] [7]. Remove the middle one.
        fs::remove_file(segment_path(&dir, 3)).unwrap();
        let (wal, rec) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(rec.records.len(), 2, "only seqs 1-2 are reachable");
        assert!(rec.report.corruption_detected);
        assert!(rec.report.bytes_discarded > 0);
        // Unreachable later segments were deleted so appends can't
        // collide with them.
        assert_eq!(segment_files(&dir), vec![1]);
        assert_eq!(wal.append(b"resume").unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_single_file_log_is_migrated() {
        let dir = tmpdir("legacy");
        {
            let (wal, _) = open_default(&dir);
            wal.append(b"old-one").unwrap();
            wal.append(b"old-two").unwrap();
        }
        // Re-create the pre-segmentation layout by renaming the single
        // segment back to wal.log.
        fs::rename(log_path(&dir), dir.join("wal.log")).unwrap();
        let (wal, rec) = open_default(&dir);
        assert_eq!(
            rec.records,
            vec![(1, b"old-one".to_vec()), (2, b"old-two".to_vec())]
        );
        assert!(!dir.join("wal.log").exists(), "migrated in place");
        assert!(log_path(&dir).exists());
        assert_eq!(wal.append(b"new").unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
