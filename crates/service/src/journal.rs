//! Per-shard append-only mutation journals — the shard's only state log.
//!
//! Every mutation a shard worker pops from its ingest queue is appended
//! here **before** it is applied to the hull; closing the unit
//! ([`Journal::mark_batch`]) is the commit point. A shard's whole state
//! is a function of its journal: [`Journal::replay`] rebuilds the live
//! set, and one bulk build over the live rows
//! ([`chull_core::online::HullBuilder::seed_from_bulk`]) rebuilds the
//! hull (Theorem 4.2 makes the hull a function of the live set alone).
//! Every whole-shard replacement — WAL cold start, supervised crash
//! recovery, a ratio rebuild, a follower catching up, `hull compact` —
//! is an edit of this log followed by that one replay.
//!
//! The journal records **batch units**: the inserts and tombstones
//! (explicit deletes and window expirations, both journaled as
//! tombstones so replay is window-policy-independent) applied together,
//! each unit one [`ReplUnit::Ops`]. A compaction collapses the log into
//! one [`ReplUnit::Checkpoint`] unit via [`Journal::reset_checkpoint`]:
//! the survivors in order, at the cumulative unit index it replaces — so
//! the shard's epoch/unit index keeps counting monotonically across
//! compactions and follower replication cursors stay meaningful.
//!
//! Two tiers:
//!
//! * the **in-memory log** (always on): the closed units as shared
//!   `Arc<ReplUnit>`s in a [`UnitLog`] window, enough to survive worker
//!   panics within one process. The replication surface reads the same
//!   window, so a unit exists once in memory whether it is replayed or
//!   shipped;
//! * an optional **on-disk WAL** (`hull serve --wal <dir>`): one file
//!   per shard of length-prefixed, crc32-checked records, enough to
//!   survive process crashes. Reopening tolerates a truncated or
//!   corrupt tail (the classic torn-write case): the file is truncated
//!   back to its last intact record and appending resumes there. Every
//!   file creation or replacement is made durable by fsyncing the WAL
//!   directory as well.
//!
//! Replay cost is one bulk build over the journal: a quickhull-style
//! prefilter drops the strict interior in a few sign tests per point,
//! and one Algorithm 3 batch installs the rest — cheap enough that
//! "recovery = re-run the algorithm" is the *whole* recovery story.

use crate::wire::{units_per_frame, ReplUnit};
use chull_core::LiveSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
/// Small and std-only; speed is irrelevant next to the hull geometry.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One WAL record on disk: `u32` LE payload length, `u32` LE crc32 of
/// the payload, then the payload. Four payload shapes exist, with
/// pairwise-distinct lengths for every dimension `2..=8`:
///
/// * an **insert**: `dim` i64 LE coordinates (`len == dim * 8 >= 16`);
/// * a **tombstone**: one tag byte [`TOMBSTONE_TAG`] then `dim` i64 LE
///   coordinates (`len == dim * 8 + 1`) — an explicit delete or a
///   window expiration of the oldest live copy of those coordinates;
/// * a **batch marker**: a single `u32` LE — the number of ops
///   (inserts + tombstones) in the batch it closes (`len == 4`);
/// * a **checkpoint header**: `u32` LE magic [`CHECKPOINT_MAGIC`], a
///   `u64` LE *unit base*, and a `u64` LE survivor count (`len == 20`),
///   valid only as the very first record — the unit base is the number
///   of batch units that preceded (and were collapsed into) this
///   checkpoint, so `batch_count` keeps counting monotonically across
///   compactions; the survivor count says how many leading insert
///   records form the checkpoint unit itself (0 for a checkpoint of an
///   emptied shard), which reopening needs to tell the checkpoint unit
///   apart from ordinary units appended after it.
///
/// Markers delimit the atomic units of apply: one marker is appended
/// (and synced) after a batch's ops and **before** the batch is applied
/// to the hull, so recovery replays whole batches through the same
/// parallel path the live shard used. Ops after the last marker are a
/// batch whose marker was lost to a crash; they are committed (journal
/// append is the commit point) and replay as one final batch.
const RECORD_HEADER: usize = 8;

/// Marker payload size; collides with no insert payload (`dim >= 2`).
const MARKER_LEN: usize = 4;

/// Checkpoint header payload size (magic + unit base + survivor count);
/// collides with no other record shape for `dim 2..=8`.
const CHECKPOINT_LEN: usize = 20;

/// First 4 bytes of a checkpoint header ("CHKP"); a 12-byte record
/// without it is damage, not a checkpoint.
const CHECKPOINT_MAGIC: u32 = 0x4348_4B50;

/// Tag byte opening a tombstone payload.
const TOMBSTONE_TAG: u8 = 1;

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

fn encode_record(p: &[i64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(p.len() * 8);
    for &c in p {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    frame(&payload)
}

fn encode_tombstone(p: &[i64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + p.len() * 8);
    payload.push(TOMBSTONE_TAG);
    for &c in p {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    frame(&payload)
}

fn encode_marker(count: u32) -> Vec<u8> {
    frame(&count.to_le_bytes())
}

fn encode_checkpoint(unit_base: u64, survivors: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(CHECKPOINT_LEN);
    payload.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
    payload.extend_from_slice(&unit_base.to_le_bytes());
    payload.extend_from_slice(&survivors.to_le_bytes());
    frame(&payload)
}

fn decode_row(payload: &[u8]) -> Vec<i64> {
    payload
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

/// The unit being journaled: the ops appended since the last marker.
#[derive(Default)]
struct OpenUnit {
    inserts: Vec<Vec<i64>>,
    tombstones: Vec<Vec<i64>>,
}

impl OpenUnit {
    fn len(&self) -> usize {
        self.inserts.len() + self.tombstones.len()
    }

    fn take(&mut self) -> ReplUnit {
        let open = std::mem::take(self);
        ReplUnit::Ops {
            inserts: open.inserts,
            tombstones: open.tombstones,
        }
    }
}

/// Result of scanning a WAL file on reopen.
struct WalScan {
    /// Units closed by a marker, in append order.
    closed: Vec<ReplUnit>,
    /// Ops after the last marker: a unit whose marker was lost.
    open: OpenUnit,
    /// A leading checkpoint header: (unit base, survivor count).
    header: Option<(u64, u64)>,
    /// Intact insert and tombstone records.
    records: usize,
    /// Byte offset of the first damaged/incomplete record (== file
    /// length when the tail is clean).
    good_len: u64,
    /// Whether a damaged tail was found (and will be truncated away).
    tail_damaged: bool,
}

/// Read every intact record of dimension `dim`; stop at the first
/// truncated or corrupt one. Never errors on damage — damage is data.
fn scan_wal(file: &mut File, dim: usize) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut buf)?;
    let mut closed = Vec::new();
    let mut open = OpenUnit::default();
    let mut header = None;
    let mut records = 0usize;
    let mut at = 0usize;
    let u64_at = |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    loop {
        if at + RECORD_HEADER > buf.len() {
            break; // clean EOF or torn header
        }
        let len = u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[at + 4], buf[at + 5], buf[at + 6], buf[at + 7]]);
        // A record sized as none of the known shapes is corruption, not
        // a format change: stop here.
        let known =
            len == dim * 8 || len == dim * 8 + 1 || len == MARKER_LEN || len == CHECKPOINT_LEN;
        if !known || at + RECORD_HEADER + len > buf.len() {
            break;
        }
        let payload = &buf[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        if len == MARKER_LEN {
            let count =
                u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
            // A marker must close a non-empty batch of exactly the ops
            // since the previous marker; anything else is a damaged
            // record that happened to checksum clean.
            if count == 0 || count != open.len() {
                break;
            }
            closed.push(open.take());
        } else if len == CHECKPOINT_LEN {
            // Only valid as the very first record; elsewhere it is
            // damage (a compaction never lands mid-file).
            let magic = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
            if at != 0 || magic != CHECKPOINT_MAGIC {
                break;
            }
            header = Some((u64_at(&payload[4..12]), u64_at(&payload[12..20])));
        } else if len == dim * 8 + 1 {
            if payload[0] != TOMBSTONE_TAG {
                break;
            }
            open.tombstones.push(decode_row(&payload[1..]));
            records += 1;
        } else {
            open.inserts.push(decode_row(payload));
            records += 1;
        }
        at += RECORD_HEADER + len;
    }
    Ok(WalScan {
        closed,
        open,
        header,
        records,
        good_len: at as u64,
        tail_damaged: at as u64 != buf.len() as u64,
    })
}

/// The per-shard WAL file name inside a `--wal` directory.
pub fn wal_path(dir: &Path, shard: u16) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// Typed journal failure surfaced from replay-time sealing — previously
/// only a `debug_assert`, so release builds replayed a torn journal
/// silently.
#[derive(Debug)]
pub enum JournalError {
    /// Sealing the open tail left the journal with fewer batch units
    /// than the epoch the shard had already published: acked, applied
    /// units vanished from the journal (a torn tail the crc/size scan
    /// could not see, or a corrupted in-memory log). The rebuilt hull
    /// would be missing published state.
    TornTail {
        /// Batch units the shard had published before recovery.
        epoch: u64,
        /// Batch units actually present after sealing.
        batches: u64,
    },
    /// The WAL write of the sealing marker failed (the in-memory seal
    /// still landed; memory stays authoritative in-process).
    Wal(io::Error),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::TornTail { epoch, batches } => write!(
                f,
                "torn journal tail: {batches} batch units on record, epoch {epoch} published"
            ),
            JournalError::Wal(e) => write!(f, "journal WAL write failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The window of a journal's closed units, shared between the shard
/// worker (whose journal appends to it) and the replication surface
/// (`ReplUnitFetch` reads it without touching the worker): absolute unit
/// indices `base..total()`. Units below `base` were collapsed by a
/// checkpoint, and the oldest held unit is then that
/// [`ReplUnit::Checkpoint`], which a lagging subscriber resets from.
#[derive(Clone, Default)]
pub struct UnitLog(Arc<RwLock<Units>>);

#[derive(Default)]
struct Units {
    base: u64,
    units: Vec<Arc<ReplUnit>>,
}

impl UnitLog {
    fn read(&self) -> RwLockReadGuard<'_, Units> {
        match self.0.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, Units> {
        match self.0.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Closed units, counting the ones a checkpoint collapsed.
    pub fn total(&self) -> u64 {
        let g = self.read();
        g.base + g.units.len() as u64
    }

    /// The units a subscriber at absolute cursor `from` lacks, as many
    /// as fit one reply frame ([`units_per_frame`]), with the absolute
    /// index of the first and the [`UnitLog::total`]: the run from
    /// `max(from, base)` on — led by the checkpoint at `base` when `from`
    /// points into compacted history (so the index may be *above*
    /// `from`), and empty, at `total`, when the subscriber is caught up.
    /// Only the units that fit are cloned under the lock.
    pub fn get(&self, from: u64) -> (u64, u64, Vec<Arc<ReplUnit>>) {
        let g = self.read();
        let skip = from.saturating_sub(g.base).min(g.units.len() as u64);
        let tail = &g.units[skip as usize..];
        let fit = units_per_frame(tail.iter().map(|u| &**u));
        (
            g.base + skip,
            g.base + g.units.len() as u64,
            tail[..fit].to_vec(),
        )
    }
}

/// An append-only mutation journal; see module docs. Owned by one
/// shard's supervisor thread; only its [`UnitLog`] is shared.
pub struct Journal {
    dim: usize,
    /// The closed units.
    log: UnitLog,
    /// Ops appended since the last [`Journal::mark_batch`].
    open: OpenUnit,
    /// Journaled ops (inserts + tombstones), open unit included.
    ops: usize,
    wal: Option<BufWriter<File>>,
    /// The WAL directory and shard id, kept so a checkpoint rewrite can
    /// re-create the file atomically (temp + rename + reopen).
    wal_at: Option<(PathBuf, u16)>,
    /// Records recovered from disk on open.
    recovered: usize,
    /// Whether the reopened WAL had a damaged tail that was dropped.
    tail_damaged: bool,
}

impl Journal {
    /// A purely in-memory journal (survives worker panics, not process
    /// crashes).
    pub fn in_memory(dim: usize) -> Journal {
        Journal {
            dim,
            log: UnitLog::default(),
            open: OpenUnit::default(),
            ops: 0,
            wal: None,
            wal_at: None,
            recovered: 0,
            tail_damaged: false,
        }
    }

    /// Open (or create) the shard's WAL under `dir`, recovering every
    /// intact record already on disk. A truncated or corrupt tail is
    /// cut off — [`Journal::tail_damaged`] reports that it happened —
    /// and appending resumes after the last intact record.
    pub fn with_wal(dim: usize, dir: &Path, shard: u16) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, shard);
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if created {
            sync_dir(dir)?;
        }
        let scan = scan_wal(&mut file, dim)?;
        if scan.tail_damaged {
            file.set_len(scan.good_len)?;
        }
        file.seek(SeekFrom::Start(scan.good_len))?;
        let mut units = Units::default();
        let mut closed = scan.closed.into_iter();
        let mut open = scan.open;
        match scan.header {
            // A checkpoint of an emptied shard has no survivor unit on
            // disk: the header alone stands for it.
            Some((base, survivors)) if base > 0 && survivors.min(scan.records as u64) == 0 => {
                units.base = base - 1;
                units.units.push(Arc::new(ReplUnit::Checkpoint {
                    units_after: base,
                    survivors: Vec::new(),
                }));
            }
            // Otherwise the first unit after the header is the
            // checkpoint's survivor rows, read back as inserts. If a
            // damaged tail took its marker, the marker is rewritten: the
            // checkpoint is always one closed unit.
            Some((base, _)) if base > 0 => {
                units.base = base;
                let first = match closed.next() {
                    Some(unit) => unit,
                    None => {
                        file.write_all(&encode_marker(open.len() as u32))?;
                        open.take()
                    }
                };
                let survivors = match first {
                    ReplUnit::Ops { inserts, .. } => inserts,
                    ReplUnit::Checkpoint { survivors, .. } => survivors,
                };
                units.units.push(Arc::new(ReplUnit::Checkpoint {
                    units_after: base + 1,
                    survivors,
                }));
            }
            _ => {}
        }
        units.units.extend(closed.map(Arc::new));
        Ok(Journal {
            dim,
            log: UnitLog(Arc::new(RwLock::new(units))),
            open,
            ops: scan.records,
            wal: Some(BufWriter::new(file)),
            wal_at: Some((dir.to_path_buf(), shard)),
            recovered: scan.records,
            tail_damaged: scan.tail_damaged,
        })
    }

    /// Append one insert to the open unit. The WAL write is buffered
    /// until the unit closes ([`Journal::mark_batch`]).
    pub fn append(&mut self, p: &[i64]) -> io::Result<()> {
        debug_assert_eq!(p.len(), self.dim, "journal row of wrong dimension");
        self.open.inserts.push(p.to_vec());
        self.ops += 1;
        match &mut self.wal {
            Some(w) => w.write_all(&encode_record(p)),
            None => Ok(()),
        }
    }

    /// Append one tombstone: the oldest live copy of `p` died (explicit
    /// delete or window expiry). Journaled exactly like inserts —
    /// **before** the geometry reacts — so a crash between tombstoning
    /// and any triggered rebuild still replays to the same hull.
    pub fn append_tombstone(&mut self, p: &[i64]) -> io::Result<()> {
        debug_assert_eq!(p.len(), self.dim, "journal row of wrong dimension");
        self.open.tombstones.push(p.to_vec());
        self.ops += 1;
        match &mut self.wal {
            Some(w) => w.write_all(&encode_tombstone(p)),
            None => Ok(()),
        }
    }

    /// Flush buffered WAL writes to the OS. No-op without a WAL.
    pub fn sync(&mut self) -> io::Result<()> {
        match &mut self.wal {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    /// Close the open unit — the commit point: its marker is written and
    /// the WAL flushed **before** the unit is applied to the hull, so a
    /// crash mid-apply still replays the unit whole, and before the unit
    /// joins the [`UnitLog`], so a subscriber never fetches a unit the
    /// WAL could lose to a process crash. No-op when no ops are pending
    /// (units are never empty). The unit lands in memory even if the WAL
    /// write errors: memory stays authoritative for in-process recovery.
    pub fn mark_batch(&mut self) -> io::Result<()> {
        let count = self.open.len();
        if count == 0 {
            return Ok(());
        }
        let res = match &mut self.wal {
            Some(w) => w
                .write_all(&encode_marker(count as u32))
                .and_then(|()| w.flush()),
            None => Ok(()),
        };
        self.log.write().units.push(Arc::new(self.open.take()));
        res
    }

    /// Journal whole units shipped by a replication primary, in order,
    /// after any open ops have been closed: each unit's records and
    /// marker are written, the WAL is flushed **once**, and only then do
    /// the units join the [`UnitLog`] — so a long catch-up costs one
    /// flush, and still no unit is fetchable before its flush. Units
    /// holding no rows are skipped (markers never close empty units).
    /// As with [`Journal::mark_batch`], the units land in memory even if
    /// a WAL write errors.
    pub fn append_units(&mut self, units: Vec<ReplUnit>) -> io::Result<()> {
        debug_assert_eq!(self.open.len(), 0, "shipped units follow closed ones");
        let mut res = Ok(());
        let units: Vec<Arc<ReplUnit>> = units
            .into_iter()
            .filter(|unit| !unit.is_empty())
            .map(Arc::new)
            .collect();
        for unit in &units {
            let count = unit.inserts().len() + unit.tombstones().len();
            self.ops += count;
            if let Some(w) = &mut self.wal {
                for p in unit.inserts() {
                    res = res.and(w.write_all(&encode_record(p)));
                }
                for p in unit.tombstones() {
                    res = res.and(w.write_all(&encode_tombstone(p)));
                }
                res = res.and(w.write_all(&encode_marker(count as u32)));
            }
        }
        res = res.and(self.sync());
        self.log.write().units.extend(units);
        res
    }

    /// Number of batch units the journal accounts for: every closed unit
    /// (counting the ones a checkpoint collapsed), plus the open unit if
    /// non-empty. The shard's published epoch equals this count.
    pub fn batch_count(&self) -> u64 {
        self.log.total() + u64::from(self.open.len() > 0)
    }

    /// Batch units collapsed into this log's leading checkpoint, as its
    /// WAL header records them (0 when the log has never compacted).
    pub fn unit_base(&self) -> u64 {
        let g = self.log.read();
        match g.units.first().map(|u| &**u) {
            Some(ReplUnit::Checkpoint {
                units_after,
                survivors,
            }) if survivors.is_empty() => *units_after,
            _ => g.base,
        }
    }

    /// The closed units, shared: what replication ships.
    pub fn log(&self) -> &UnitLog {
        &self.log
    }

    /// Replay the journal into a live set — the one replay every
    /// whole-shard replacement runs. Units go in order, the open unit (if
    /// any) last, each row stamped with its unit's absolute index: the
    /// epoch the unit was published at, which epoch windows expire by.
    /// Every journaled tombstone finds a live copy, because tombstones are
    /// journaled only when they killed one originally and replay has seen
    /// at least as many arrivals. A unit's inserts replay before its
    /// tombstones, which is equivalent to their arrival order: they share
    /// one stamp, and a tombstone kills the oldest live copy.
    pub fn replay(&self) -> LiveSet {
        let mut live = LiveSet::new();
        let mut feed = |at: u64, inserts: &[Vec<i64>], tombstones: &[Vec<i64>]| {
            for row in inserts {
                live.insert(row.clone(), at);
            }
            for row in tombstones {
                let _ = live.remove(row);
            }
        };
        let g = self.log.read();
        for (i, unit) in g.units.iter().enumerate() {
            feed(g.base + i as u64 + 1, unit.inserts(), unit.tombstones());
        }
        let at = g.base + g.units.len() as u64 + 1;
        feed(at, &self.open.inserts, &self.open.tombstones);
        drop(g);
        live
    }

    /// The journaled **insert** rows in append order (tombstones
    /// skipped).
    pub fn insert_rows(&self) -> Vec<Vec<i64>> {
        let g = self.log.read();
        g.units
            .iter()
            .flat_map(|u| u.inserts())
            .chain(&self.open.inserts)
            .cloned()
            .collect()
    }

    /// Number of journaled ops (inserts + tombstones).
    pub fn len(&self) -> usize {
        self.ops
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Seal the open tail for replay and **validate** the sealed journal
    /// against `published_epoch`, the number of batch units the shard had
    /// published before recovery began. Replay call sites use this
    /// instead of a bare [`Journal::mark_batch`]: a journal holding
    /// *fewer* units than were published means applied state has been
    /// lost — a torn tail — which used to be caught only by a
    /// `debug_assert` in the apply loop. Returns the sealed batch count
    /// (which may legitimately exceed `published_epoch` by the units that
    /// were journaled but died before publishing; replay reapplies them).
    /// A torn tail takes priority over a WAL write error.
    pub fn seal_tail(&mut self, published_epoch: u64) -> Result<u64, JournalError> {
        let wal = self.mark_batch();
        let batches = self.batch_count();
        if batches < published_epoch {
            return Err(JournalError::TornTail {
                epoch: published_epoch,
                batches,
            });
        }
        wal.map_err(JournalError::Wal)?;
        Ok(batches)
    }

    /// Collapse the whole log into **one checkpoint unit** holding
    /// `survivors` in order — the in-process compaction a rebuild-from-
    /// survivors commits. The journal's external batch count becomes
    /// exactly `old_count + 1` (`old_count` = [`Journal::batch_count`]
    /// before the call): the checkpoint is one new unit replacing all
    /// prior ones, so the shard's epoch and follower unit cursors keep
    /// advancing monotonically.
    pub fn reset_checkpoint(&mut self, survivors: Vec<Vec<i64>>) -> io::Result<()> {
        let after = self.batch_count() + 1;
        self.install_checkpoint(survivors, after)
    }

    /// Make this journal hold exactly one checkpoint unit — `survivors`
    /// in order, counting as unit number `units_after` (so
    /// [`Journal::batch_count`] becomes exactly `units_after`). Used by
    /// [`Journal::reset_checkpoint`] with the log's own successor count,
    /// and by a follower installing a replicated checkpoint at the
    /// primary's unit index. With empty `survivors` the checkpoint unit
    /// is empty; on disk the header alone carries it (`unit_base ==
    /// units_after`, no records) since markers never close empty units.
    ///
    /// On-disk the WAL is atomically rewritten (temp file + rename +
    /// reopen): a crash mid-rewrite leaves the previous WAL intact, and
    /// replay then redoes the rebuild from the old log — same hull.
    pub fn install_checkpoint(
        &mut self,
        survivors: Vec<Vec<i64>>,
        units_after: u64,
    ) -> io::Result<()> {
        assert!(units_after > 0, "a checkpoint is always at least unit 1");
        let header = units_after - u64::from(!survivors.is_empty());
        let wal = match self.wal_at.clone() {
            Some((dir, shard)) => {
                // Drop the old writer before the rename so its buffer
                // can't land in the replaced file afterwards.
                self.wal = None;
                rewrite_wal_checkpoint(self.dim, &dir, shard, &survivors, header)
                    .and_then(|_| OpenOptions::new().append(true).open(wal_path(&dir, shard)))
                    .map(|file| self.wal = Some(BufWriter::new(file)))
            }
            None => Ok(()),
        };
        self.ops = survivors.len();
        self.open = OpenUnit::default();
        self.recovered = 0;
        self.tail_damaged = false;
        let mut g = self.log.write();
        g.base = units_after - 1;
        g.units = vec![Arc::new(ReplUnit::Checkpoint {
            units_after,
            survivors,
        })];
        drop(g);
        debug_assert_eq!(self.batch_count(), units_after);
        wal
    }

    /// Records recovered from disk when this journal was opened.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Whether opening found (and dropped) a damaged WAL tail.
    pub fn tail_damaged(&self) -> bool {
        self.tail_damaged
    }
}

/// Atomically replace the shard's WAL with one checkpoint unit: a
/// header carrying `unit_base`, then `rows` in order, closed by a
/// single batch marker. Shared by offline compaction ([`rewrite_wal`])
/// and the in-process [`Journal::reset_checkpoint`]. The rewrite goes
/// through a temp file + rename, so a crash mid-compaction leaves the
/// old WAL intact.
fn rewrite_wal_checkpoint(
    dim: usize,
    dir: &Path,
    shard: u16,
    rows: &[Vec<i64>],
    unit_base: u64,
) -> io::Result<u64> {
    let final_path = wal_path(dir, shard);
    let tmp_path = final_path.with_extension("wal.tmp");
    let mut written = 0u64;
    {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut w = BufWriter::new(file);
        if unit_base > 0 {
            let rec = encode_checkpoint(unit_base, rows.len() as u64);
            w.write_all(&rec)?;
            written += rec.len() as u64;
        }
        for p in rows {
            debug_assert_eq!(p.len(), dim, "compaction row of wrong dimension");
            let rec = encode_record(p);
            w.write_all(&rec)?;
            written += rec.len() as u64;
        }
        if !rows.is_empty() {
            let rec = encode_marker(rows.len() as u32);
            w.write_all(&rec)?;
            written += rec.len() as u64;
        }
        w.flush()?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    }
    durable_rename(&tmp_path, &final_path)?;
    Ok(written)
}

/// Rename `from` over `to`, then fsync the parent directory so the
/// rename itself survives a power loss, not just the file contents.
fn durable_rename(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::rename(from, to)?;
    sync_dir(to.parent().unwrap_or(Path::new(".")))
}

/// Fsync a directory (`""` is the current one), making the entries
/// created or renamed in it durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    File::open(dir)?.sync_all()
}

/// Snapshot compaction (offline; `hull compact`): atomically rewrite the
/// shard's WAL as **one checkpoint unit** — `rows` in order, closed by a
/// single batch marker. The caller passes the live rows not strictly
/// inside the hull, so a long incremental history collapses into one
/// unit holding only the points that can still matter to the hull.
/// Collapsing batch history resets the epoch/unit count to 1:
/// replication cursors into this WAL are invalidated, and any follower
/// must re-bootstrap (documented in DESIGN §S21). The live auto-compaction path
/// ([`Journal::reset_checkpoint`]) instead preserves the unit index via
/// a checkpoint header.
pub fn rewrite_wal(dim: usize, dir: &Path, shard: u16, rows: &[Vec<i64>]) -> io::Result<u64> {
    rewrite_wal_checkpoint(dim, dir, shard, rows, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("chull-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn insert_entries(j: &Journal) -> Vec<Vec<i64>> {
        j.insert_rows()
    }

    /// The closed units, from the oldest held one.
    fn units(j: &Journal) -> Vec<ReplUnit> {
        let (mut out, mut at) = (Vec::new(), 0);
        loop {
            let (index, _, units) = j.log().get(at);
            if units.is_empty() {
                return out;
            }
            at = index + units.len() as u64;
            out.extend(units.iter().map(|u| (**u).clone()));
        }
    }

    fn ops(inserts: &[&[i64]], tombstones: &[&[i64]]) -> ReplUnit {
        ReplUnit::Ops {
            inserts: inserts.iter().map(|r| r.to_vec()).collect(),
            tombstones: tombstones.iter().map(|r| r.to_vec()).collect(),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn in_memory_appends_in_order() {
        let mut j = Journal::in_memory(2);
        j.append(&[1, 2]).unwrap();
        j.append(&[-3, 4]).unwrap();
        assert_eq!(insert_entries(&j), vec![vec![1, 2], vec![-3, 4]]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.recovered(), 0);
        j.mark_batch().unwrap();
        assert_eq!(units(&j), vec![ops(&[&[1, 2], &[-3, 4]], &[])]);
    }

    #[test]
    fn wal_roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let mut j = Journal::with_wal(3, &dir, 0).unwrap();
            for i in 0..50i64 {
                j.append(&[i, -i, i * 7]).unwrap();
            }
            j.sync().unwrap();
        }
        let j = Journal::with_wal(3, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 50);
        assert!(!j.tail_damaged());
        assert_eq!(insert_entries(&j)[49], vec![49, -49, 343]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_shards_are_separate_files() {
        let dir = tmpdir("shards");
        let mut a = Journal::with_wal(2, &dir, 0).unwrap();
        let mut b = Journal::with_wal(2, &dir, 1).unwrap();
        a.append(&[1, 1]).unwrap();
        b.append(&[2, 2]).unwrap();
        a.sync().unwrap();
        b.sync().unwrap();
        drop((a, b));
        assert_eq!(
            insert_entries(&Journal::with_wal(2, &dir, 0).unwrap()),
            vec![vec![1, 1]]
        );
        assert_eq!(
            insert_entries(&Journal::with_wal(2, &dir, 1).unwrap()),
            vec![vec![2, 2]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_tolerated_and_cut() {
        let dir = tmpdir("torn");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            for i in 0..10i64 {
                j.append(&[i, i + 1]).unwrap();
            }
            j.sync().unwrap();
        }
        let path = wal_path(&dir, 0);
        // Tear the last record: drop its final 5 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            assert_eq!(j.recovered(), 9, "torn final record dropped");
            assert!(j.tail_damaged());
            // Appending after recovery lands where the tear was cut.
            j.append(&[99, 100]).unwrap();
            j.sync().unwrap();
        }
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 10);
        assert_eq!(insert_entries(&j)[9], vec![99, 100]);
        assert!(!j.tail_damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_recovery_at_last_good_record() {
        let dir = tmpdir("crc");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            for i in 0..6i64 {
                j.append(&[i, i]).unwrap();
            }
            j.sync().unwrap();
        }
        let path = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of record 4 (0-based): every record is
        // 8 + 16 bytes; payload of record 4 starts at 4*24 + 8.
        let off = 4 * 24 + 8;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(
            j.recovered(),
            4,
            "records 4 and 5 dropped (crc broke the chain)"
        );
        assert!(j.tail_damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_marks_roundtrip_across_reopen() {
        let dir = tmpdir("marks");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            for i in 0..4i64 {
                j.append(&[i, i]).unwrap();
            }
            j.mark_batch().unwrap();
            j.mark_batch().unwrap(); // empty: no-op
            for i in 4..9i64 {
                j.append(&[i, i]).unwrap();
            }
            j.mark_batch().unwrap();
            // Open tail: journaled but the process dies before the marker.
            j.append(&[99, 99]).unwrap();
            j.sync().unwrap();
            assert_eq!(j.batch_count(), 3);
        }
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 10);
        assert_eq!(j.batch_count(), 3, "open tail replays as one final batch");
        let sizes: Vec<usize> = units(&j).iter().map(|u| u.inserts().len()).collect();
        assert_eq!(sizes, vec![4, 5], "the open tail stays open until sealed");
        assert_eq!(units(&j)[0].inserts()[0], vec![0, 0]);
        assert_eq!(j.insert_rows()[9], vec![99, 99]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_roundtrip_across_reopen() {
        let dir = tmpdir("tombstones");
        {
            let mut j = Journal::with_wal(3, &dir, 0).unwrap();
            j.append(&[1, 2, 3]).unwrap();
            j.append(&[4, 5, 6]).unwrap();
            j.append_tombstone(&[1, 2, 3]).unwrap();
            j.mark_batch().unwrap();
            j.sync().unwrap();
            assert_eq!(j.len(), 3, "tombstones count as ops");
        }
        let j = Journal::with_wal(3, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 3);
        assert!(!j.tail_damaged());
        assert_eq!(j.batch_count(), 1, "marker counts ops, not just inserts");
        assert_eq!(
            units(&j),
            vec![ops(&[&[1, 2, 3], &[4, 5, 6]], &[&[1, 2, 3]])]
        );
        assert_eq!(insert_entries(&j), vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstone_with_bad_tag_is_damage() {
        let dir = tmpdir("bad-tag");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            j.append(&[1, 1]).unwrap();
            j.append_tombstone(&[1, 1]).unwrap();
            j.sync().unwrap();
        }
        let path = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the tombstone's tag byte and re-frame its crc so only
        // the tag check can reject it.
        let tag_at = 24 + RECORD_HEADER; // after one 2d insert record
        bytes[tag_at] = 9;
        let crc = crc32(&bytes[tag_at..tag_at + 17]);
        bytes[tag_at - 4..tag_at].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 1, "bad tombstone tag stops the scan");
        assert!(j.tail_damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bogus_marker_count_stops_recovery() {
        let dir = tmpdir("bogus-mark");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            j.append(&[1, 2]).unwrap();
            j.append(&[3, 4]).unwrap();
            j.mark_batch().unwrap();
            j.sync().unwrap();
        }
        // Append a well-framed marker claiming a 7-op batch that the
        // journal does not contain: the scan must treat it as damage.
        let path = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_marker(7));
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 2);
        assert_eq!(j.batch_count(), 1);
        assert!(j.tail_damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_batches_track_marks() {
        let mut j = Journal::in_memory(2);
        assert_eq!(j.batch_count(), 0);
        j.append(&[0, 0]).unwrap();
        assert_eq!(j.batch_count(), 1, "open tail counts as a batch");
        j.mark_batch().unwrap();
        assert_eq!(j.batch_count(), 1);
        j.append(&[1, 1]).unwrap();
        j.append(&[2, 2]).unwrap();
        j.mark_batch().unwrap();
        assert_eq!(j.batch_count(), 2);
        assert_eq!(
            units(&j),
            vec![ops(&[&[0, 0]], &[]), ops(&[&[1, 1], &[2, 2]], &[])]
        );
    }

    #[test]
    fn seal_tail_validates_published_epoch() {
        let mut j = Journal::in_memory(2);
        j.append(&[0, 0]).unwrap();
        j.append(&[1, 1]).unwrap();
        j.mark_batch().unwrap();
        j.append(&[2, 2]).unwrap(); // open tail
        assert_eq!(j.batch_count(), 2);
        // Normal recovery: published epoch matches (or trails by the
        // unpublished unit) — the tail seals into its own unit.
        assert_eq!(j.seal_tail(2).unwrap(), 2);
        assert_eq!(j.batch_count(), 2);
        // Published 5 units but the journal only holds 2: torn tail,
        // detected in release builds too.
        match j.seal_tail(5) {
            Err(JournalError::TornTail {
                epoch: 5,
                batches: 2,
            }) => {}
            other => panic!("expected TornTail, got {other:?}"),
        }
        // Journal ahead of the published epoch is legitimate (unit died
        // between marker and publish; replay reapplies it).
        assert_eq!(j.seal_tail(1).unwrap(), 2);
    }

    #[test]
    fn replay_stamps_each_unit_with_its_index() {
        use chull_core::WindowPolicy;
        let mut j = Journal::in_memory(2);
        j.append(&[0, 0]).unwrap();
        j.append(&[1, 1]).unwrap();
        j.mark_batch().unwrap();
        j.append(&[2, 2]).unwrap();
        j.append_tombstone(&[0, 0]).unwrap();
        j.mark_batch().unwrap();
        let live = j.replay();
        assert_eq!(live.survivors(), vec![vec![1, 1], vec![2, 2]]);
        assert_eq!(live.dead_entries(), 1, "the tombstoned arrival");
        // Units 1 and 2 collapse into checkpoint unit 3; unit 4 follows,
        // and the open unit replays as unit 5.
        j.reset_checkpoint(live.survivors()).unwrap();
        j.append(&[3, 3]).unwrap();
        j.mark_batch().unwrap();
        j.append(&[4, 4]).unwrap();
        let mut live = j.replay();
        assert_eq!(live.live(), 4);
        assert_eq!(live.dead_entries(), 0);
        let epochs = WindowPolicy::Epochs(2);
        assert_eq!(live.expire_window(&epochs, 5), vec![vec![1, 1], vec![2, 2]]);
        assert_eq!(live.expire_window(&epochs, 6), vec![vec![3, 3]]);
        assert_eq!(live.survivors(), vec![vec![4, 4]]);
    }

    #[test]
    fn rewrite_wal_collapses_to_one_unit() {
        let dir = tmpdir("compact");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            for i in 0..9i64 {
                j.append(&[i, i * 3]).unwrap();
                j.mark_batch().unwrap();
            }
            j.sync().unwrap();
            assert_eq!(j.batch_count(), 9);
        }
        // Compact down to three surviving rows.
        let kept = vec![vec![0i64, 0], vec![4, 12], vec![8, 24]];
        let bytes = rewrite_wal(2, &dir, 0, &kept).unwrap();
        assert!(bytes > 0);
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 3);
        assert!(!j.tail_damaged());
        assert_eq!(j.batch_count(), 1, "checkpoint is one sealed unit");
        assert_eq!(insert_entries(&j), kept);
        assert_eq!(units(&j), vec![ops(&[&[0, 0], &[4, 12], &[8, 24]], &[])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_checkpoint_preserves_unit_index() {
        let dir = tmpdir("reset-checkpoint");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            for i in 0..5i64 {
                j.append(&[i, i]).unwrap();
                j.mark_batch().unwrap();
            }
            j.append_tombstone(&[0, 0]).unwrap();
            j.mark_batch().unwrap();
            j.sync().unwrap();
            assert_eq!(j.batch_count(), 6);
            // Compact to the survivors: the checkpoint is unit 7.
            let survivors = vec![vec![1i64, 1], vec![2, 2]];
            j.reset_checkpoint(survivors.clone()).unwrap();
            assert_eq!(j.batch_count(), 7, "checkpoint = old count + 1");
            assert_eq!(j.unit_base(), 6);
            assert_eq!(j.len(), 2);
            let checkpoint = ReplUnit::Checkpoint {
                units_after: 7,
                survivors,
            };
            assert_eq!(units(&j), vec![checkpoint.clone()]);
            assert_eq!(j.log().get(0).0, 6, "lagging cursors get it");
            // Appending keeps counting from there.
            j.append(&[9, 9]).unwrap();
            j.mark_batch().unwrap();
            j.sync().unwrap();
            assert_eq!(j.batch_count(), 8);
        }
        // And it all survives a process restart through the WAL header.
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.unit_base(), 6);
        assert_eq!(j.batch_count(), 8);
        assert_eq!(j.recovered(), 3);
        assert_eq!(insert_entries(&j), vec![vec![1, 1], vec![2, 2], vec![9, 9]]);
        assert_eq!(
            units(&j),
            vec![
                ReplUnit::Checkpoint {
                    units_after: 7,
                    survivors: vec![vec![1, 1], vec![2, 2]],
                },
                ops(&[&[9, 9]], &[]),
            ],
            "the reopened log holds the same units"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_checkpoint_with_no_survivors_is_header_only() {
        let dir = tmpdir("reset-empty");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            j.append(&[3, 3]).unwrap();
            j.mark_batch().unwrap();
            j.append_tombstone(&[3, 3]).unwrap();
            j.mark_batch().unwrap();
            j.sync().unwrap();
            assert_eq!(j.batch_count(), 2);
            j.reset_checkpoint(Vec::new()).unwrap();
            assert_eq!(j.batch_count(), 3, "empty checkpoint still counts");
            assert!(j.is_empty());
        }
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.batch_count(), 3);
        assert_eq!(j.unit_base(), 3);
        assert!(j.is_empty());
        assert!(!j.tail_damaged());
        assert_eq!(
            units(&j),
            vec![ReplUnit::Checkpoint {
                units_after: 3,
                survivors: Vec::new(),
            }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_survivors_stay_one_unit_when_their_marker_is_lost() {
        let dir = tmpdir("checkpoint-marker");
        let survivors = vec![vec![1i64, 1], vec![2, 2]];
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            j.append(&[5, 5]).unwrap();
            j.mark_batch().unwrap();
            j.reset_checkpoint(survivors.clone()).unwrap();
        }
        // Cut the checkpoint's closing marker off at a record boundary.
        let path = wal_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - (RECORD_HEADER + MARKER_LEN) as u64)
            .unwrap();
        drop(file);
        let checkpoint = ReplUnit::Checkpoint {
            units_after: 2,
            survivors,
        };
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            assert_eq!(j.batch_count(), 2);
            assert_eq!(units(&j), vec![checkpoint.clone()]);
            j.append(&[9, 9]).unwrap();
            j.mark_batch().unwrap();
        }
        // The marker was rewritten on reopen: the next unit stays apart.
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert!(!j.tail_damaged());
        assert_eq!(j.batch_count(), 3);
        assert_eq!(units(&j), vec![checkpoint, ops(&[&[9, 9]], &[])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_units_journals_whole_units_across_reopen() {
        let dir = tmpdir("append-units");
        let shipped = vec![
            ops(&[&[1, 1], &[2, 2]], &[]),
            ops(&[], &[]),
            ops(&[&[3, 3]], &[&[1, 1]]),
        ];
        let want = vec![ops(&[&[0, 0]], &[]), shipped[0].clone(), shipped[2].clone()];
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            j.append(&[0, 0]).unwrap();
            j.mark_batch().unwrap();
            j.append_units(shipped).unwrap();
            assert_eq!(j.batch_count(), 3, "the empty unit is skipped");
            assert_eq!(j.len(), 5);
            assert_eq!(units(&j), want);
        }
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert!(!j.tail_damaged());
        assert_eq!(j.batch_count(), 3);
        assert_eq!(units(&j), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_header_mid_file_is_damage() {
        let dir = tmpdir("mid-header");
        {
            let mut j = Journal::with_wal(2, &dir, 0).unwrap();
            j.append(&[1, 1]).unwrap();
            j.mark_batch().unwrap();
            j.sync().unwrap();
        }
        let path = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_checkpoint(4, 0));
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 1);
        assert_eq!(j.unit_base(), 0, "mid-file header rejected");
        assert!(j.tail_damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_prefix_yields_empty_journal() {
        let dir = tmpdir("garbage");
        std::fs::write(wal_path(&dir, 0), b"not a wal at all").unwrap();
        let j = Journal::with_wal(2, &dir, 0).unwrap();
        assert_eq!(j.recovered(), 0);
        assert!(j.tail_damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint rewrites go through `durable_rename`. The directory
    /// fsync itself is not observable from a test (only a power loss
    /// would show it); what is checked is that the rename leaves no
    /// temp file behind and the replaced WAL reads back intact.
    #[test]
    fn durable_rename_leaves_no_temp_and_intact_contents() {
        let dir = tmpdir("durable");
        let mut j = Journal::with_wal(2, &dir, 3).unwrap();
        for i in 0..5i64 {
            j.append(&[i, -i]).unwrap();
            j.mark_batch().unwrap();
        }
        j.sync().unwrap();
        let survivors = vec![vec![0i64, 0], vec![4, -4]];
        j.reset_checkpoint(survivors).unwrap();
        j.append(&[7, 7]).unwrap();
        j.mark_batch().unwrap();
        j.sync().unwrap();
        drop(j);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["shard-3.wal".to_string()],
            "temp file left behind"
        );
        let j = Journal::with_wal(2, &dir, 3).unwrap();
        assert!(!j.tail_damaged());
        assert_eq!(j.batch_count(), 7, "checkpoint keeps the unit index");
        assert_eq!(
            insert_entries(&j),
            vec![vec![0i64, 0], vec![4, -4], vec![7, 7]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
