//! The shard manager: epoch-versioned online hulls behind a batched,
//! backpressured, **supervised** ingest pipeline — now windowed and
//! deletable.
//!
//! Each shard is an **independent** hull (a namespace — clients route
//! requests by shard id, spreading unrelated workloads across workers).
//! Per shard:
//!
//! * one [`BoundedQueue`] of ingest items — producers are connection
//!   threads calling [`HullService::try_mutate`], which never blocks: a
//!   full queue is reported per point so the wire layer replies with
//!   explicit backpressure instead of buffering;
//! * one **supervised worker thread** that drains the queue in coalesced
//!   batches (`pop_batch`, continuing non-blockingly through a deep
//!   backlog up to a fairness bound), resolves the batch's mutations
//!   against the shard's live multiset, journals the unit **and marks it
//!   as one atomic unit**, applies its inserts to the private hull as a
//!   single parallel batch insert (Algorithm 3's `ProcessRidge`
//!   recursion via [`HullBuilder::push_batch`]), and republishes an
//!   `Arc<HullSnapshot>` under a short write-lock — by refreshing the
//!   snapshot it retired last time in place when no reader still holds
//!   it (see `publish`);
//! * a [`LiveSet`] tracking which inserted rows are still live (deletes
//!   and window expiry tombstone rows instead of mutating the hull);
//! * a [`ShardStats`] block of lock-free counters.
//!
//! ## Deletion, windows, and rebuilds
//!
//! The online hull is insert-only, so departure is served by
//! **tombstone-then-correct**: a `Delete` (or a window expiry) kills the
//! row in the live set and journals a tombstone record in the same batch
//! unit. Two separate mechanisms then act on the hull and the journal:
//!
//! * **Correction, in memory, at once.** When a tombstoned row's last
//!   live copy does not classify strictly [`PointLocation::Inside`] the
//!   current hull, the worker corrects the hull before publishing (an
//!   interior delete can never change the hull). The correction is the
//!   closed-star [`HullBuilder::repair`]: only the surviving vertices and
//!   the live rows inside each dying vertex's star `conv({v} ∪ link(v))`
//!   are installed. When the repair refuses (see its docs), the full
//!   survivor build [`HullBuilder::seed_from_bulk`] runs instead. Both
//!   walk [`LiveSet::live_rows`] and give the same canonical hull —
//!   Theorem 4.2's order-independence makes it equivalent to any
//!   insertion order of the survivors. Primaries and followers correct
//!   alike; nothing is journaled, because the triggering unit,
//!   tombstones included, is journaled and synced before the hull is
//!   touched, so a replay re-derives the correction (`repairs`,
//!   `repair_fallbacks`).
//! * **Compaction, lazily, on the ratio triggers only.** When dead
//!   live-set entries exceed `rebuild_ratio` × live rows, or the journal
//!   exceeds `journal_ratio` × live rows (**auto-compaction**), a primary
//!   collapses its journal to **one checkpoint unit** holding
//!   [`LiveSet::survivors`] — the WAL atomically rewritten to a
//!   checkpoint header (preserving the cumulative unit index) plus the
//!   survivors, which replication then ships to followers as they are —
//!   and installs from it (`rebuilds`). WAL replay, supervised recovery,
//!   and follower replication all stay crash-safe for free.
//!
//! So a vertex death costs a repair, not a WAL rewrite. With
//! `journal_ratio = 0` a count-windowed shard's WAL is compacted only by
//! the tombstone ratio: window expiry pops dead entries off the live
//! set's front, so a steady window may never reach that ratio and its
//! WAL then grows until a restart replays it.
//!
//! The trigger ratios deliberately compare against **live rows**, not
//! hull vertices: a rebuild cannot shrink the journal below the live
//! count (survivors must be retained for delete correctness), so a
//! hull-vertex denominator would re-trigger immediately forever.
//!
//! ## One install
//!
//! A shard's whole state is a function of its [`Journal`]: the live set
//! is [`Journal::replay`], the hull one bulk build over its live rows
//! ([`HullBuilder::seed_from_bulk`]). So every whole-shard replacement is
//! a journal edit followed by the one `install`:
//!
//! | surface | journal edit |
//! |---|---|
//! | WAL cold start | none (an open tail is sealed) |
//! | supervised crash recovery | [`Journal::seal_tail`] |
//! | ratio rebuild | [`Journal::reset_checkpoint`] |
//! | follower catch-up | [`Journal::install_checkpoint`], shipped units appended, or both |
//!
//! The in-memory closed-star repair after a vertex death is not a
//! replacement: it keeps the journal as it is.
//!
//! ## Failure model
//!
//! The drain loop runs under `catch_unwind`. If it panics (a bug, or an
//! armed [`chull_concurrent::failpoint`] schedule), the
//! supervisor — the same OS thread, one frame up — takes over:
//!
//! 1. marks the shard **degraded** and bumps its recovery *generation*;
//!    queries keep flowing from the last published snapshot, wrapped in
//!    the wire `Degraded` status so callers can see the staleness;
//! 2. seals the journal's open tail and runs the one `install`: replay
//!    the live set, bulk-build the hull, republish. Tombstones are
//!    journaled *before* the hull is touched, so a crash mid-correction
//!    or mid-rebuild loses nothing: the replayed hull is the survivors'
//!    hull either way;
//! 3. clears the degraded flag.
//!
//! **Exactly-once for acked mutations**: a mutation is acked when it
//! enters the queue. The queue lives outside `catch_unwind`, so
//! un-popped items survive a worker death; popped items are journaled
//! (journal-before-apply) *before* any of them touches the hull, so a
//! panic during apply loses nothing — the journal prefix plus the
//! remaining queue is the complete shard state. A `Flush` barrier whose
//! ack channel dies with the worker is transparently re-armed by
//! [`HullService::flush`].
//!
//! With `wal_dir` set, the journal is additionally a crc32-checked
//! on-disk WAL, so the same replay survives a full process restart
//! (torn tails from a mid-write crash are detected and dropped).

use crate::journal::{Journal, UnitLog};
use crate::metrics::{service_metrics, shard_gauges, ShardGauges};
use crate::snapshot::{HullSnapshot, SnapState};
use crate::stats::ShardStats;
use crate::wire::{Mutation, ReplUnit};
use chull_concurrent::failpoint::{self, sites};
use chull_concurrent::{BoundedQueue, PushError};
use chull_core::online::{HullBuilder, PointLocation};
use chull_core::{LiveSet, RemoveOutcome, WindowPolicy};
use chull_geometry::{KernelCounts, MAX_COORD};
use std::collections::HashSet;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing and placement knobs for one [`HullService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dimension of every hull (2..=8).
    pub dim: usize,
    /// Number of independent shards.
    pub shards: usize,
    /// Ingest queue capacity per shard (backpressure threshold).
    pub queue_capacity: usize,
    /// Largest batch one publication coalesces.
    pub max_batch: usize,
    /// The most threads one batch apply may use, the shard thread
    /// included (`0` = auto, one per available core). `1` pins batch
    /// apply to the shard thread — the A/B baseline for measuring
    /// parallel batch speedup. The other threads are helpers borrowed
    /// from the process-wide pool that every shard shares, which holds at
    /// most [`chull_concurrent::pool::MAX_HELPERS`] (64): larger values
    /// share those. Any value yields bit-identical hulls.
    pub workers: usize,
    /// Directory for per-shard write-ahead logs. `None` keeps the
    /// journal purely in memory: worker crashes are still recovered, but
    /// a process restart starts empty.
    pub wal_dir: Option<PathBuf>,
    /// Per-shard retention window, applied after every publication:
    /// rows falling out of the window are tombstoned exactly as if a
    /// `Delete` had arrived for them. [`WindowPolicy::None`] (the
    /// default) keeps everything; only explicit deletes remove rows.
    pub window: WindowPolicy,
    /// Tombstone-ratio rebuild trigger: when dead (tombstoned but not
    /// yet compacted) live-set entries exceed this fraction of the live
    /// rows, the shard rebuilds its hull from the survivors and
    /// checkpoints the journal. Default `0.5`.
    pub rebuild_ratio: f64,
    /// Auto-compaction trigger: when the journal holds more than this
    /// many ops per live row, the shard rebuilds and checkpoints even
    /// if no tombstone demanded it — the successor to the manual-only
    /// `hull compact` flow. Compared against **live rows** (see module
    /// docs for why not hull vertices). `0.0` disables the trigger;
    /// default `4.0`. Insert-only shards never reach it (one op per
    /// live row).
    pub journal_ratio: f64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            dim: 2,
            shards: 4,
            queue_capacity: 1024,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            window: WindowPolicy::None,
            rebuild_ratio: 0.5,
            journal_ratio: 4.0,
        }
    }
}

/// Request-level failures (distinct from backpressure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Shard id out of range.
    BadShard(u16),
    /// Point rejected (wrong dimension or coordinate out of range).
    BadPoint(String),
    /// The service is shutting down.
    Closed,
    /// Write rejected: this node is a read-only follower replica; only
    /// its replication puller may mutate shard state.
    ReadOnly,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadShard(s) => write!(f, "shard {s} out of range"),
            ServiceError::BadPoint(msg) => write!(f, "bad point: {msg}"),
            ServiceError::Closed => write!(f, "service shutting down"),
            ServiceError::ReadOnly => write!(f, "read-only follower replica"),
        }
    }
}

enum Ingest {
    /// One local mutation (insert, delete, or expire) — the unified
    /// ingest item behind [`HullService::try_mutate`].
    Mutate(Mutation),
    /// Barrier: acknowledged (with the publication epoch) only after every
    /// item queued before it has been applied and republished.
    Flush(mpsc::Sender<u64>),
    /// A replicated shipment (follower apply path): the primary's units
    /// at absolute indices `from..`, landed by [`apply_replica`] so the
    /// follower's unit indices mirror the primary's 1:1. The ack carries
    /// how many of them landed.
    Replica {
        from: u64,
        units: Vec<ReplUnit>,
        done: mpsc::Sender<u64>,
    },
}

/// Clone the published snapshot `Arc`, tolerating a poisoned lock (the
/// lock only ever guards an `Arc` swap, so the value is always intact).
fn load_snap(lock: &RwLock<Arc<HullSnapshot>>) -> Arc<HullSnapshot> {
    match lock.read() {
        Ok(g) => Arc::clone(&g),
        Err(poisoned) => Arc::clone(&poisoned.into_inner()),
    }
}

/// Swap in a new published snapshot, tolerating a poisoned lock, and
/// return the one it replaces (released outside the lock).
fn swap_snap(lock: &RwLock<Arc<HullSnapshot>>, snap: Arc<HullSnapshot>) -> Arc<HullSnapshot> {
    let mut g = match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    std::mem::replace(&mut *g, snap)
}

/// Freeze a fresh copy of the builder's current state into an
/// epoch-stamped snapshot, building a live hull's query accelerators
/// (packed-plane filter block + cached hull vertex list) from its whole
/// history: O(history). Used for the shard's first snapshot and by
/// [`publish`] when the retired snapshot cannot be refreshed.
fn snapshot_of(core: &HullBuilder, epoch: u64) -> HullSnapshot {
    match core.hull() {
        Some(h) => HullSnapshot::freeze_live(epoch, core.applied(), h.clone()),
        None => HullSnapshot {
            epoch,
            applied: core.applied(),
            dim: core.dim(),
            state: SnapState::Boot(core.buffered().unwrap_or(&[]).to_vec()),
            accel: None,
        },
    }
}

/// Publish the shard's current state as epoch `st.epoch`. Both publish
/// sites — [`install`] and the end of every applied batch — go through
/// here.
///
/// The history graph only grows, so two consecutive epochs differ by what
/// the batches between them changed. The worker keeps the snapshot it
/// swapped out last time as `st.spare`; if no reader holds it any more
/// (`Arc::get_mut` succeeds only on the sole reference) and it holds the
/// same hull lineage, it is refreshed in place at a cost proportional to
/// that change and published again. Otherwise — a reader still holds it,
/// or the hull was replaced by a repair or an [`install`] —
/// a fresh copy is frozen ([`snapshot_of`]). Either way the outgoing
/// snapshot becomes the new spare, so a snapshot a reader can see is
/// never mutated.
fn publish(ctx: &ShardCtx, st: &mut ShardState) {
    let t0 = chull_obs::armed().then(Instant::now);
    let mut spare = st.spare.take();
    let refreshed = match (spare.as_mut().and_then(Arc::get_mut), st.core.hull()) {
        (Some(snap), Some(hull)) => snap.refresh_live(st.epoch, st.core.applied(), hull),
        _ => false,
    };
    let next = match spare {
        Some(snap) if refreshed => snap,
        stale => {
            // Release the stale spare before copying, so the shard never
            // holds four hulls at once.
            drop(stale);
            Arc::new(snapshot_of(&st.core, st.epoch))
        }
    };
    st.spare = Some(swap_snap(&ctx.snap, next));
    let m = service_metrics();
    if refreshed {
        ctx.stats
            .publishes_refreshed
            .fetch_add(1, Ordering::Relaxed);
        m.publishes_refreshed.incr();
    } else {
        ctx.stats.publishes_cloned.fetch_add(1, Ordering::Relaxed);
        m.publishes_cloned.incr();
    }
    if let Some(t0) = t0 {
        m.publish_us.record(t0.elapsed().as_micros() as u64);
    }
}

/// Count a WAL write failure (tolerated: the in-memory journal stays
/// authoritative for in-process recovery).
fn wal_err(stats: &ShardStats) {
    stats.wal_errors.fetch_add(1, Ordering::Relaxed);
    service_metrics().wal_errors.incr();
}

/// Build a hull from `rows` through the one bulk constructor,
/// [`HullBuilder::seed_from_bulk`], counting it as a bulk build. A
/// degenerate row set (no full-rank prefix) falls back to incremental
/// replay inside `seed_from_bulk`; that is not counted.
fn bulk_core<R: AsRef<[i64]>>(
    dim: usize,
    rows: &[R],
    workers: usize,
    stats: &ShardStats,
) -> HullBuilder {
    let t0 = Instant::now();
    let (core, report) = HullBuilder::seed_from_bulk(dim, rows, workers);
    if !report.fallback {
        stats.bulk_builds.fetch_add(1, Ordering::Relaxed);
        stats
            .bulk_pruned
            .fetch_add((report.input - report.candidates) as u64, Ordering::Relaxed);
        if chull_obs::armed() {
            let m = service_metrics();
            m.bulk_builds.incr();
            m.bulk_build_us.record(t0.elapsed().as_micros() as u64);
        }
    }
    core
}

/// Replace the shard's whole state from its journal — the one install
/// every whole-shard replacement ends in, after its journal edit: cold
/// start (none), crash recovery ([`Journal::seal_tail`]), a ratio rebuild
/// ([`Journal::reset_checkpoint`]), a follower catching up
/// ([`Journal::install_checkpoint`], shipped units appended, or both).
/// The live set is [`Journal::replay`]; the hull is one bulk build over
/// its live rows. That is the survivors' canonical hull (Theorem 4.2) —
/// the replaced hull's facets, possibly with different internal ids,
/// which every query surface is insensitive to. The epoch becomes the
/// journal's unit count (never lower: a torn tail keeps the published
/// epoch); the level stats are refreshed, and the result is published.
fn install(ctx: &ShardCtx, st: &mut ShardState) {
    let live = st.journal.replay();
    let rows: Vec<&[i64]> = live.live_rows().collect();
    st.core = bulk_core(ctx.dim, &rows, ctx.workers, &ctx.stats);
    drop(rows);
    st.live = live;
    // A bulk build holds only the live rows; re-baseline so a later
    // recovery never double-counts.
    st.recorded = st.core.applied();
    st.epoch = st.journal.batch_count().max(st.epoch);
    refresh_levels(ctx, st);
    publish(ctx, st);
}

/// Store the journal and live-set levels in the shard's stats (the
/// scrape-time gauges read them there).
fn refresh_levels(ctx: &ShardCtx, st: &ShardState) {
    let (journal, live, dead) = (st.journal.len(), st.live.live(), st.live.dead_entries());
    ctx.stats
        .journal_len
        .store(journal as u64, Ordering::Relaxed);
    ctx.stats.live_points.store(live as u64, Ordering::Relaxed);
    ctx.stats
        .lazy_tombstones
        .store(dead as u64, Ordering::Relaxed);
}

/// Seal the journal's open tail for replay, surfacing a torn tail (a
/// journal that lost already-published units — `JournalError::TornTail`)
/// in release builds too, where it used to be a debug-only assert. The
/// shard keeps serving from what the journal does hold (availability
/// over self-destruction), but the event is counted and logged so it is
/// never silent.
fn seal_for_replay(journal: &mut Journal, published_epoch: u64, shard_stats: &ShardStats) {
    match journal.seal_tail(published_epoch) {
        Ok(_) => {}
        Err(e @ crate::journal::JournalError::TornTail { .. }) => {
            shard_stats.torn_tails.fetch_add(1, Ordering::Relaxed);
            service_metrics().torn_tails.incr();
            eprintln!("journal: {e}");
        }
        Err(crate::journal::JournalError::Wal(_)) => {
            shard_stats.wal_errors.fetch_add(1, Ordering::Relaxed);
            service_metrics().wal_errors.incr();
        }
    }
}

struct Shard {
    queue: Arc<BoundedQueue<Ingest>>,
    snap: Arc<RwLock<Arc<HullSnapshot>>>,
    stats: Arc<ShardStats>,
    gauges: ShardGauges,
    /// Recovery generation: how many workers this shard has lost.
    generation: Arc<AtomicU32>,
    /// True only while the supervisor is replaying the journal.
    degraded: Arc<AtomicBool>,
    /// The journal's closed units, shared with the wire layer so
    /// replication ships any unit without touching the worker.
    log: UnitLog,
    /// One past the highest unit a subscriber acked durably applied.
    acked: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Shard {
    /// Batch units the shard serves: its journal's closed units, up to
    /// the published epoch. A unit is journaled (and flushed) before the
    /// hull applies it, so until that publish the journal is ahead of
    /// what readers see; a torn tail can leave the epoch ahead instead.
    fn units(&self) -> u64 {
        self.log.total().min(load_snap(&self.snap).epoch)
    }
}

/// Everything the shard worker owns and mutates: the hull under
/// construction, the typed journal, the live multiset, and the epoch
/// bookkeeping that ties them together (`epoch` always equals the
/// journal's cumulative batch-unit count).
struct ShardState {
    core: HullBuilder,
    journal: Journal,
    /// Published epoch == journaled batch units (checkpoint-inclusive).
    epoch: u64,
    /// Inserts already counted into `batched_inserts` (so recovery can
    /// account for a crashed batch exactly once).
    recorded: u64,
    /// Which inserted rows are still live — deletes and window expiry
    /// resolve against this, never against the hull directly.
    live: LiveSet,
    /// The snapshot [`publish`] swapped out last, kept for the next
    /// publish to refresh in place (`None` before the first publish).
    spare: Option<Arc<HullSnapshot>>,
}

/// The shard manager; see module docs. Shared (`&self`) by every
/// connection thread; [`HullService::shutdown`] drains and joins.
pub struct HullService {
    config: ServiceConfig,
    /// Resolved batch-apply worker count (`config.workers`, 0 → auto).
    workers: usize,
    /// Follower mode: wire writes are rejected with
    /// [`ServiceError::ReadOnly`]; only the replica apply surface
    /// mutates shard state. Cleared on promotion.
    read_only: AtomicBool,
    /// Set once by [`crate::replica::follow`]: the puller's shared view
    /// of the primary, read by the dispatch layer to bound staleness.
    replica: OnceLock<Arc<crate::replica::ReplicaState>>,
    shards: Vec<Shard>,
}

impl HullService {
    /// Start `config.shards` supervised shard workers, recovering each
    /// shard's WAL first when `config.wal_dir` is set. Fails only on
    /// invalid sizing or a WAL directory that cannot be opened.
    pub fn new(config: ServiceConfig) -> io::Result<HullService> {
        if !(2..=chull_core::facet::MAX_DIM).contains(&config.dim) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("dimension {} out of range", config.dim),
            ));
        }
        if config.shards < 1 || config.shards >= u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard count {} out of range", config.shards),
            ));
        }
        let workers = if config.workers == 0 {
            chull_concurrent::pool::default_threads()
        } else {
            config.workers
        };
        let mut shards = Vec::with_capacity(config.shards);
        for id in 0..config.shards {
            let mut journal = match &config.wal_dir {
                Some(dir) => Journal::with_wal(config.dim, dir, id as u16)?,
                None => Journal::in_memory(config.dim),
            };
            let log = journal.log().clone();
            let stats = Arc::new(ShardStats::default());
            // Seal any open tail (ops whose batch marker was lost to the
            // crash) so it stays one unit in every future replay. Cold
            // start has no published epoch to validate against — 0 can
            // never tear.
            seal_for_replay(&mut journal, 0, &stats);
            // Every recovered unit counts as one replayed batch (the
            // checkpoint of an emptied shard holds no rows: not a batch).
            let mut at = 0;
            loop {
                let (index, _, units) = log.get(at);
                if units.is_empty() {
                    break;
                }
                for unit in &units {
                    if !unit.is_empty() {
                        stats.record_batch(unit.inserts().len() as u64);
                    }
                }
                at = index + units.len() as u64;
            }
            let core = HullBuilder::new(config.dim);
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
            let snap = Arc::new(RwLock::new(Arc::new(snapshot_of(&core, 0))));
            let generation = Arc::new(AtomicU32::new(0));
            let degraded = Arc::new(AtomicBool::new(false));
            let gauges = shard_gauges(id);
            let ctx = ShardCtx {
                dim: config.dim,
                max_batch: config.max_batch,
                workers,
                window: config.window,
                rebuild_ratio: config.rebuild_ratio,
                journal_ratio: config.journal_ratio,
                queue: Arc::clone(&queue),
                snap: Arc::clone(&snap),
                stats: Arc::clone(&stats),
                gauges: gauges.clone(),
                generation: Arc::clone(&generation),
                degraded: Arc::clone(&degraded),
            };
            let mut state = ShardState {
                core,
                journal,
                epoch: 0,
                recorded: 0,
                live: LiveSet::new(),
                spare: None,
            };
            // Cold-start recovery happens *here*, synchronously: when
            // `new` returns, a WAL-backed shard already serves its
            // previous run's surviving points.
            install(&ctx, &mut state);
            let worker = std::thread::spawn(move || shard_supervisor(&ctx, state));
            shards.push(Shard {
                queue,
                snap,
                stats,
                gauges,
                generation,
                degraded,
                log,
                acked: AtomicU64::new(0),
                worker: Mutex::new(Some(worker)),
            });
        }
        Ok(HullService {
            config,
            workers,
            read_only: AtomicBool::new(false),
            replica: OnceLock::new(),
            shards,
        })
    }

    /// Resolved pool worker threads per shard (`config.workers`, with
    /// `0` replaced by the machine's core count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configuration this service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, id: u16) -> Result<&Shard, ServiceError> {
        self.shards
            .get(id as usize)
            .ok_or(ServiceError::BadShard(id))
    }

    fn validate(&self, point: &[i64]) -> Result<(), ServiceError> {
        if point.len() != self.config.dim {
            return Err(ServiceError::BadPoint(format!(
                "expected {} coordinates, got {}",
                self.config.dim,
                point.len()
            )));
        }
        if let Some(c) = point.iter().find(|c| c.abs() > MAX_COORD) {
            return Err(ServiceError::BadPoint(format!(
                "coordinate {c} exceeds MAX_COORD"
            )));
        }
        Ok(())
    }

    /// The unified ingest surface: enqueue a sequence of mutations
    /// (inserts, deletes, expires) for one shard. Every point is
    /// validated **before** any is enqueued, so a malformed batch fails
    /// whole with nothing queued. Enqueueing is then per-item
    /// best-effort: `accepted[i]` is `false` when item `i` hit a full
    /// queue (the caller retries just those). The returned epoch is the
    /// published snapshot epoch observed at enqueue time. Items that
    /// land in one `pop_batch` drain resolve and apply as a single
    /// journal unit. A `Queued` item is the service's **ack**: it now
    /// either reaches the hull/live set or survives a worker death in
    /// the queue/journal.
    pub fn try_mutate(
        &self,
        shard: u16,
        muts: Vec<Mutation>,
    ) -> Result<(Vec<bool>, u64), ServiceError> {
        if self.read_only.load(Ordering::SeqCst) {
            return Err(ServiceError::ReadOnly);
        }
        for m in &muts {
            match m {
                Mutation::Insert(p) | Mutation::Delete(p) => self.validate(p)?,
                Mutation::Expire(_) => {}
            }
        }
        let sh = self.shard(shard)?;
        let mut accepted = Vec::with_capacity(muts.len());
        for m in muts {
            let is_insert = matches!(m, Mutation::Insert(_));
            match sh.queue.try_push(Ingest::Mutate(m)) {
                Ok(()) => {
                    if is_insert {
                        sh.stats.inserts_enqueued.fetch_add(1, Ordering::Relaxed);
                        service_metrics().inserts_enqueued.incr();
                    } else {
                        sh.stats.deletes_enqueued.fetch_add(1, Ordering::Relaxed);
                    }
                    accepted.push(true);
                }
                Err(PushError::Full(_)) => {
                    sh.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                    service_metrics().overloaded.incr();
                    accepted.push(false);
                }
                Err(PushError::Closed(_)) => return Err(ServiceError::Closed),
            }
        }
        Ok((accepted, load_snap(&sh.snap).epoch))
    }

    /// Barrier: blocks until every mutation enqueued before this call
    /// has been applied and republished; returns the publication epoch.
    ///
    /// If the worker dies while holding the barrier, its ack channel dies
    /// with it — the barrier is re-armed on the recovered worker, so a
    /// flush straddling a crash still fences everything queued before it
    /// (the journal replay reapplies the popped prefix first).
    pub fn flush(&self, shard: u16) -> Result<u64, ServiceError> {
        let sh = self.shard(shard)?;
        sh.stats.flushes.fetch_add(1, Ordering::Relaxed);
        service_metrics().flushes.incr();
        loop {
            let (tx, rx) = mpsc::channel();
            // Blocking push: a flush may wait for queue space, but never
            // spins — it rides the same FIFO as the items it fences.
            match sh.queue.push(Ingest::Flush(tx)) {
                Ok(()) => match rx.recv() {
                    Ok(epoch) => return Ok(epoch),
                    // Worker died mid-batch and dropped the sender;
                    // the supervisor is rebuilding. Re-arm the barrier.
                    Err(_) => continue,
                },
                Err(_) => return Err(ServiceError::Closed),
            }
        }
    }

    /// Put the service in (or take it out of) read-only follower mode:
    /// wire writes are rejected with [`ServiceError::ReadOnly`] so a
    /// follower's journal stays a 1:1 mirror of its primary's batch
    /// units. Promotion is `set_read_only(false)` — the shards keep
    /// their epochs, so the promoted history stays monotone.
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::SeqCst);
    }

    /// Whether this service is a read-only follower replica.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Attach the follower puller's shared state (first call wins);
    /// done by [`crate::replica::follow`] before its thread starts.
    pub fn attach_replica_state(&self, state: Arc<crate::replica::ReplicaState>) {
        let _ = self.replica.set(state);
    }

    /// The epoch-staleness bound for a follower read: how many primary
    /// batch units this shard has not applied yet. `None` when this
    /// node never followed a primary, or once it promoted itself (a
    /// promoted follower *is* the primary; its reads are not stale).
    pub fn replica_lag(&self, shard: u16) -> Option<u64> {
        let state = self.replica.get()?;
        if state.promoted() {
            return None;
        }
        let have = self.shard(shard).ok()?.units();
        Some(state.primary_total(shard).saturating_sub(have))
    }

    /// Batch units this shard holds **and serves**: journaled, applied
    /// and published. A follower's resume cursor — its next replication
    /// fetch asks for exactly this index (a unit it journaled but has not
    /// published yet comes back as a duplicate, which the shard drops) —
    /// and the `have` side of [`HullService::replica_lag`], so a read is
    /// plain only once the snapshot it reads holds every unit counted.
    pub fn batch_units(&self, shard: u16) -> Result<u64, ServiceError> {
        Ok(self.shard(shard)?.units())
    }

    /// Ship a replication subscriber the **typed** journal units it
    /// lacks, as many as fit one frame ([`crate::wire::units_per_frame`]): returns
    /// `(index, total, units)` — the run from `from_index`, or from the
    /// pending checkpoint unit (whose `index` may be **ahead** of
    /// `from_index`: units the checkpoint collapsed are no longer
    /// individually available and the follower must apply the
    /// checkpoint instead), and empty, with `index == total`, when the
    /// subscriber is caught up. A follower fetches from its published
    /// unit count (save while an empty shard gathers a bootstrap), so
    /// the fetch is also its ack: it is recorded for the
    /// `chull_replica_*` gauges.
    pub fn repl_unit_fetch(
        &self,
        shard: u16,
        from_index: u64,
    ) -> Result<(u64, u64, Vec<ReplUnit>), ServiceError> {
        let sh = self.shard(shard)?;
        let (index, total, units) = sh.log.get(from_index);
        sh.acked.fetch_max(from_index.min(total), Ordering::SeqCst);
        service_metrics().repl_units_shipped.add(units.len() as u64);
        Ok((index, total, units.iter().map(|u| (**u).clone()).collect()))
    }

    /// Land a replicated shipment (follower puller path, allowed even in
    /// read-only mode): the primary's units at absolute indices `from..`,
    /// as [`HullService::repl_unit_fetch`] shipped them. The shard alone
    /// decides what is new: it drops every unit below its own unit count,
    /// so a duplicated or overlapping shipment is harmless, drops a
    /// shipment that would leave a gap, and journals the rest 1:1 with
    /// the primary's indices (see `apply_replica`). Blocks until the
    /// shipment is applied and published, and returns how many of its
    /// units landed (0 for a stale or gapped shipment). If the shard
    /// worker dies mid-apply it returns 0 and the caller re-derives its
    /// resume cursor from [`HullService::batch_units`] (each unit is
    /// journaled before it touches the hull, so it either survived whole
    /// or not at all).
    pub fn apply_replica_units(
        &self,
        shard: u16,
        from: u64,
        units: Vec<ReplUnit>,
    ) -> Result<u64, ServiceError> {
        for (k, unit) in units.iter().enumerate() {
            if let ReplUnit::Checkpoint { units_after, .. } = unit {
                if *units_after != from + k as u64 + 1 {
                    return Err(ServiceError::BadPoint(format!(
                        "checkpoint to unit {units_after} shipped at index {}",
                        from + k as u64
                    )));
                }
            }
            for p in unit.inserts().iter().chain(unit.tombstones()) {
                self.validate(p)?;
            }
        }
        let sh = self.shard(shard)?;
        if units.is_empty() {
            return Ok(0);
        }
        let (done, rx) = mpsc::channel();
        if sh
            .queue
            .push(Ingest::Replica { from, units, done })
            .is_err()
        {
            return Err(ServiceError::Closed);
        }
        // Err: the worker died mid-apply and the supervisor replays the
        // journal. Never re-enqueue — the caller reconciles via
        // `batch_units`.
        Ok(rx.recv().unwrap_or(0))
    }

    /// The shard's current published snapshot (wait-free for ingest: the
    /// write side holds the lock only to swap an `Arc`). During recovery
    /// this is the last snapshot the dead worker published.
    pub fn snapshot(&self, shard: u16) -> Result<Arc<HullSnapshot>, ServiceError> {
        Ok(load_snap(&self.shard(shard)?.snap))
    }

    /// `Some(generation)` while the shard's supervisor is replaying its
    /// journal after a worker death — reads meanwhile come from the last
    /// good snapshot. `None` when the shard is healthy.
    pub fn degraded(&self, shard: u16) -> Result<Option<u32>, ServiceError> {
        let sh = self.shard(shard)?;
        if sh.degraded.load(Ordering::SeqCst) {
            Ok(Some(sh.generation.load(Ordering::SeqCst)))
        } else {
            Ok(None)
        }
    }

    /// The shard's recovery generation: how many workers it has lost
    /// (0 = the original worker is still alive).
    pub fn generation(&self, shard: u16) -> Result<u32, ServiceError> {
        Ok(self.shard(shard)?.generation.load(Ordering::SeqCst))
    }

    /// Per-shard stats block (for folding query-path kernel counters).
    pub fn stats_for(&self, shard: u16) -> Result<&ShardStats, ServiceError> {
        Ok(&self.shard(shard)?.stats)
    }

    /// Queue depth gauge for one shard.
    pub fn queue_depth(&self, shard: u16) -> Result<usize, ServiceError> {
        Ok(self.shard(shard)?.queue.len())
    }

    /// One JSON line: a single shard's counters, or (for `None`) the
    /// service aggregate with a per-shard breakdown.
    pub fn stats_json(&self, shard: Option<u16>) -> Result<String, ServiceError> {
        match shard {
            Some(id) => {
                let sh = self.shard(id)?;
                let snap = load_snap(&sh.snap);
                Ok(sh.stats.json(id as usize, &snap, sh.queue.len()))
            }
            None => {
                let mut total_applied = 0u64;
                let mut total_facets = 0usize;
                let mut total_recoveries = 0u64;
                let mut parts = Vec::with_capacity(self.shards.len());
                for (i, sh) in self.shards.iter().enumerate() {
                    let snap = load_snap(&sh.snap);
                    total_applied += snap.applied;
                    total_facets += snap.num_facets();
                    total_recoveries += sh.stats.recoveries.load(Ordering::Relaxed);
                    parts.push(sh.stats.json(i, &snap, sh.queue.len()));
                }
                Ok(format!(
                    "{{\"dim\":{},\"shards\":{},\"applied_total\":{total_applied},\
                     \"hull_facets_total\":{total_facets},\
                     \"recoveries_total\":{total_recoveries},\"per_shard\":[{}]}}",
                    self.config.dim,
                    self.shards.len(),
                    parts.join(",")
                ))
            }
        }
    }

    /// Refresh each shard's level gauges (queue depth, dependence depth,
    /// journal length, epoch, live/tombstoned rows) from live state.
    /// Called at scrape time — by the wire `Metrics` dispatch and the
    /// HTTP `/metrics` pre-render hook — so gauges are current even on
    /// an idle service. No-op while telemetry is disarmed.
    pub fn update_scrape_gauges(&self) {
        if !chull_obs::armed() {
            return;
        }
        for sh in &self.shards {
            let snap = load_snap(&sh.snap);
            sh.gauges.queue_depth.set(sh.queue.len() as i64);
            sh.gauges.dep_depth.set(snap.dep_depth() as i64);
            sh.gauges
                .journal_len
                .set(sh.stats.journal_len.load(Ordering::Relaxed) as i64);
            sh.gauges.epoch.set(snap.epoch as i64);
            sh.gauges.workers.set(self.workers as i64);
            sh.gauges.plane_block_len.set(snap.plane_block_len() as i64);
            sh.gauges.hull_vertices.set(snap.hull_vertex_count() as i64);
            sh.gauges
                .live_points
                .set(sh.stats.live_points.load(Ordering::Relaxed) as i64);
            sh.gauges
                .lazy_tombstones
                .set(sh.stats.lazy_tombstones.load(Ordering::Relaxed) as i64);
            let acked = sh.acked.load(Ordering::SeqCst);
            sh.gauges
                .replica_last_acked
                .set(acked.min(i64::MAX as u64) as i64);
            sh.gauges
                .replica_lag_batches
                .set(sh.log.total().saturating_sub(acked).min(i64::MAX as u64) as i64);
        }
    }

    /// Graceful shutdown: close every ingest queue (pending batches still
    /// apply), then join the workers. Idempotent.
    pub fn shutdown(&self) {
        for sh in &self.shards {
            sh.queue.close();
        }
        for sh in &self.shards {
            let handle = match sh.worker.lock() {
                Ok(mut g) => g.take(),
                Err(poisoned) => poisoned.into_inner().take(),
            };
            if let Some(h) = handle {
                // The supervisor catches every worker panic, so an
                // unwinding join is a bug in the supervisor itself.
                h.join().expect("invariant: shard supervisor never unwinds");
            }
        }
    }
}

impl Drop for HullService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything a shard's supervisor thread shares with the service.
struct ShardCtx {
    dim: usize,
    max_batch: usize,
    /// Resolved pool threads for parallel batch apply (never 0).
    workers: usize,
    /// Retention window applied after every local publication.
    window: WindowPolicy,
    /// Tombstone-ratio rebuild trigger (dead entries vs live rows).
    rebuild_ratio: f64,
    /// Auto-compaction trigger (journal ops vs live rows; 0 disables).
    journal_ratio: f64,
    queue: Arc<BoundedQueue<Ingest>>,
    snap: Arc<RwLock<Arc<HullSnapshot>>>,
    stats: Arc<ShardStats>,
    gauges: ShardGauges,
    generation: Arc<AtomicU32>,
    degraded: Arc<AtomicBool>,
}

/// The shard's OS thread: run the drain loop under `catch_unwind`; on a
/// worker panic, rebuild from the journal and re-enter the loop. Never
/// unwinds itself. (`state` arrives pre-built: WAL cold-start replay
/// runs synchronously in [`HullService::new`].)
fn shard_supervisor(ctx: &ShardCtx, mut st: ShardState) {
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| drain_loop(ctx, &mut st)));
        match run {
            // Queue closed and drained: clean exit.
            Ok(()) => return,
            Err(_) => {
                // The worker died mid-batch. Every popped mutation is in
                // the journal (journal-before-apply), so installing from
                // it rebuilds the hull and live set the dead worker was
                // maintaining.
                ctx.degraded.store(true, Ordering::SeqCst);
                let generation = ctx.generation.fetch_add(1, Ordering::SeqCst) + 1;
                let t0 = Instant::now();
                let recorded = st.recorded;
                // Seal an open tail (its marker died with the worker) so
                // every future replay keeps the same batch units — and
                // verify the journal still holds everything this shard
                // already published (typed torn-tail detection, active
                // in release builds too).
                seal_for_replay(&mut st.journal, st.epoch, &ctx.stats);
                install(ctx, &mut st);
                let missing = st.core.applied().saturating_sub(recorded);
                if missing > 0 {
                    ctx.stats.record_batch(missing);
                }
                let us = t0.elapsed().as_micros() as u64;
                ctx.stats.record_recovery(us, generation as u64);
                if chull_obs::armed() {
                    let m = service_metrics();
                    m.recoveries.incr();
                    m.recovery_us.record(us);
                    // The degraded window is exactly the replay: queries
                    // fall back to the stale snapshot for its duration.
                    m.degraded_us.add(us);
                }
                ctx.degraded.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// Consecutive batches one wakeup may process before the worker
/// re-enters the blocking pop (fairness toward producers waiting on
/// `not_full` and toward shutdown). Each round still journals, applies,
/// and publishes its own batch — the bound only caps how long the
/// worker stays away from the condvar while a deep backlog drains.
const DRAIN_ROUNDS_MAX: usize = 16;

/// The per-shard ingest loop: block for a batch, then keep draining
/// non-blockingly while the queue is deeper than one batch (up to
/// [`DRAIN_ROUNDS_MAX`] rounds); each batch is resolved, journaled,
/// marked, applied, and republished. May panic (failpoints, or a real
/// bug) — the supervisor one frame up recovers.
fn drain_loop(ctx: &ShardCtx, st: &mut ShardState) {
    let mut batch: Vec<Ingest> = Vec::with_capacity(ctx.max_batch);
    // Baseline for per-batch ingest-kernel deltas. Re-initialized from the
    // (possibly replayed) hull on every loop (re)entry, so recovery replay
    // work is never double-counted into the ingest counters.
    let mut prev_kernel = st.core.hull().map(|h| h.kernel).unwrap_or_default();
    loop {
        batch.clear();
        if ctx.queue.pop_batch(ctx.max_batch, &mut batch) == 0 {
            // Closed and drained.
            return;
        }
        let mut rounds = 1;
        loop {
            apply_batch(ctx, st, &mut prev_kernel, &mut batch);
            if rounds >= DRAIN_ROUNDS_MAX {
                break;
            }
            batch.clear();
            if ctx.queue.try_pop_batch(ctx.max_batch, &mut batch) == 0 {
                break;
            }
            // A continuation round: the queue was deeper than one batch
            // and the worker kept draining instead of re-parking.
            rounds += 1;
            ctx.stats.queue_drain_rounds.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Process one popped batch: local mutations coalesce into one journal
/// unit; each replicated shipment lands on its own (the 1:1 index mirror
/// replication depends on); flush barriers ack last.
fn apply_batch(
    ctx: &ShardCtx,
    st: &mut ShardState,
    prev_kernel: &mut KernelCounts,
    batch: &mut Vec<Ingest>,
) {
    let mut muts: Vec<Mutation> = Vec::new();
    let mut flushes: Vec<mpsc::Sender<u64>> = Vec::new();
    let mut replicas: Vec<(u64, Vec<ReplUnit>, mpsc::Sender<u64>)> = Vec::new();
    for item in batch.drain(..) {
        match item {
            Ingest::Mutate(m) => muts.push(m),
            Ingest::Flush(tx) => flushes.push(tx),
            Ingest::Replica { from, units, done } => replicas.push((from, units, done)),
        }
    }
    apply_unit(ctx, st, prev_kernel, muts, false);
    for (from, units, done) in replicas {
        let landed = apply_replica(ctx, st, prev_kernel, from, units);
        // Receiver may have given up (puller resubscribing) — fine.
        let _ = done.send(landed);
    }
    for tx in flushes {
        // Receiver may have given up (client disconnect) — fine.
        let _ = tx.send(st.epoch);
    }
}

/// The tombstoned rows that may have changed the hull, deduplicated:
/// only a row whose **last** live copy died can matter, and only when it
/// is not strictly inside (a vertex, a boundary point, or — transiently,
/// for buffered-but-unapplied rows — outside). While still bootstrapping
/// (no hull to classify against) every fully-dead row counts: the boot
/// buffer may hold it.
fn dying_rows(st: &ShardState, tombstones: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let mut scratch = KernelCounts::default();
    let mut seen: HashSet<&[i64]> = HashSet::new();
    tombstones
        .iter()
        .filter(|t| {
            st.live.count(t) == 0
                && seen.insert(t)
                && st
                    .core
                    .hull()
                    .is_none_or(|h| h.classify(t, &mut scratch) != PointLocation::Inside)
        })
        .cloned()
        .collect()
}

/// Resolve, journal, mark, sync, apply, and publish one batch unit
/// (no-op when nothing survives resolution — batch units are never
/// empty). A batch with no mutations (flush barriers only) returns
/// before the window policy runs, so a flush never advances an
/// `Epochs` window and the unit count does not depend on how flushes
/// coalesce with the mutations around them. `replica` marks a
/// follower-applied unit: the window policy does not run (the primary
/// already ran it and shipped the resulting tombstones) and the ratio
/// triggers stay off (the primary ships its checkpoint units instead).
/// A hull-invalidating tombstone triggers the same in-memory
/// [`correct_hull`] on primaries and followers.
fn apply_unit(
    ctx: &ShardCtx,
    st: &mut ShardState,
    prev_kernel: &mut KernelCounts,
    muts: Vec<Mutation>,
    replica: bool,
) {
    if muts.is_empty() {
        return;
    }
    // One relaxed load per batch; timing blocks below pay for
    // `Instant::now` only when telemetry is armed.
    let armed = chull_obs::armed();
    // Resolve every mutation against the live multiset, in arrival
    // order. Journaling then writes inserts before tombstones, which is
    // replay-equivalent to the interleaved order: a delete kills the
    // OLDEST live copy, so survivors are a suffix of each coordinate's
    // arrivals; all of this unit's arrivals share one epoch stamp; and
    // every journaled tombstone found a live copy here, so it finds one
    // on replay too (replay has applied at least as many arrivals by
    // the time its tombstones run).
    let next_epoch = st.epoch + 1;
    let mut inserts: Vec<Vec<i64>> = Vec::new();
    let mut tombstones: Vec<Vec<i64>> = Vec::new();
    let mut misses = 0u64;
    for m in muts {
        match m {
            Mutation::Insert(p) => {
                st.live.insert(p.clone(), next_epoch);
                inserts.push(p);
            }
            Mutation::Delete(p) => match st.live.remove(&p) {
                // A miss is acked but journals nothing: replay would
                // miss identically, so the journal skips it.
                RemoveOutcome::Miss => misses += 1,
                RemoveOutcome::Dec | RemoveOutcome::Gone => tombstones.push(p),
            },
            Mutation::Expire(n) => tombstones.extend(st.live.expire_oldest(n as usize)),
        }
    }
    if !replica {
        let expired = st.live.expire_window(&ctx.window, next_epoch);
        if !expired.is_empty() {
            ctx.stats
                .window_expirations
                .fetch_add(expired.len() as u64, Ordering::Relaxed);
            service_metrics()
                .window_expirations
                .add(expired.len() as u64);
            tombstones.extend(expired);
        }
    }
    if misses > 0 {
        ctx.stats.delete_misses.fetch_add(misses, Ordering::Relaxed);
    }
    if inserts.is_empty() && tombstones.is_empty() {
        return;
    }
    // Journal-before-apply: the whole unit — tombstones included —
    // becomes replayable before any of it touches the hull, so a panic
    // below (even mid-rebuild) loses nothing. Closing the unit writes
    // its marker and flushes the WAL: the commit point. A WAL write
    // error is tolerated (counted), because the in-memory journal stays
    // authoritative for in-process recovery.
    let t_journal = armed.then(Instant::now);
    journal_unit(ctx, &mut st.journal, &inserts, &tombstones);
    if let Some(t0) = t_journal {
        service_metrics()
            .journal_append_us
            .record(t0.elapsed().as_micros() as u64);
    }
    let t_sync = armed.then(Instant::now);
    if st.journal.mark_batch().is_err() {
        wal_err(&ctx.stats);
    }
    if let Some(t0) = t_sync {
        service_metrics()
            .wal_sync_us
            .record(t0.elapsed().as_micros() as u64);
    }
    if !tombstones.is_empty() {
        ctx.stats
            .tombstones
            .fetch_add(tombstones.len() as u64, Ordering::Relaxed);
        service_metrics().tombstones.add(tombstones.len() as u64);
    }
    refresh_levels(ctx, st);
    let t_apply = armed.then(Instant::now);
    let inserted = inserts.len() as u64;
    if inserted > 0 {
        // Failpoint `shard.apply.insert`: may panic (worker death
        // between journal and hull) or stall. Evaluated once per point
        // so armed chaos schedules keep their per-insert fire cadence.
        for _ in &inserts {
            let _ = failpoint::eval(sites::SHARD_APPLY);
        }
        // One parallel batch insert (Algorithm 3 from the current hull);
        // bit-deterministic for any worker count, so recovery replay of
        // the marked unit reproduces this exact state.
        st.core.push_batch(&inserts, ctx.workers);
    }
    // Failpoint `shard.drain.before_publish`: the unit is fully
    // applied but the snapshot swap has not happened — the worst
    // spot to die (recovery must republish it from the journal).
    let _ = failpoint::eval(sites::SHARD_BEFORE_PUBLISH);
    // Any journaled unit — tombstone-only included — bumps the epoch:
    // the epoch tracks journaled batch units. Promoted from a
    // debug-only assert: release builds count and log the drift (a
    // torn tail the journal scan could not see) instead of serving
    // silently from a diverged journal.
    st.epoch += 1;
    if st.epoch != st.journal.batch_count() {
        debug_assert_eq!(
            st.epoch,
            st.journal.batch_count(),
            "epoch tracks journaled batch units"
        );
        ctx.stats.torn_tails.fetch_add(1, Ordering::Relaxed);
        service_metrics().torn_tails.incr();
        eprintln!(
            "journal: epoch {} out of step with {} journaled batch units",
            st.epoch,
            st.journal.batch_count()
        );
    }
    ctx.stats.record_batch(inserted);
    st.recorded += inserted;
    // Classify after the batch applied: a row inserted and deleted in
    // this same unit is in the hull by now, so `classify` sees it.
    let dying = dying_rows(st, &tombstones);
    let (tomb_trigger, journal_trigger) = if replica {
        (false, false)
    } else {
        let lazy = st.live.dead_entries() as f64;
        let live = st.live.live() as f64;
        (
            lazy > 0.0 && lazy > ctx.rebuild_ratio * live,
            ctx.journal_ratio > 0.0
                && (st.journal.len() as f64) > ctx.journal_ratio * live.max(1.0),
        )
    };
    if tomb_trigger || journal_trigger {
        // The survivor rebuild corrects the hull as well.
        rebuild_from_survivors(ctx, st, !tomb_trigger);
    } else {
        if !dying.is_empty() {
            correct_hull(ctx, st, &dying);
        }
        publish(ctx, st);
    }
    if armed {
        let m = service_metrics();
        if inserted > 0 {
            m.batches.incr();
            m.batch_size.record(inserted);
            if let Some(t0) = t_apply {
                let wall = t0.elapsed();
                m.batch_apply_us.record(wall.as_micros() as u64);
                // busy/wall across the pool ≈ realized parallelism of
                // the batch apply (0 when the batch went sequential).
                let busy = st.core.hull().map(|h| h.last_batch.busy_ns).unwrap_or(0);
                if busy > 0 && wall.as_nanos() > 0 {
                    ctx.gauges
                        .parallelism_milli
                        .set((busy as u128 * 1000 / wall.as_nanos()) as i64);
                }
            }
        }
        let now_kernel = st.core.hull().map(|h| h.kernel).unwrap_or_default();
        m.ingest_kernel.fold_delta(&now_kernel, prev_kernel);
        *prev_kernel = now_kernel;
    }
}

/// Append one unit's inserts and tombstones to the open journal unit
/// (the caller closes it), counting tolerated WAL write errors.
fn journal_unit(
    ctx: &ShardCtx,
    journal: &mut Journal,
    inserts: &[Vec<i64>],
    tombstones: &[Vec<i64>],
) {
    for p in inserts {
        if journal.append(p).is_err() {
            wal_err(&ctx.stats);
        }
    }
    for p in tombstones {
        if journal.append_tombstone(p).is_err() {
            wal_err(&ctx.stats);
        }
    }
}

/// Correct the hull in memory after the rows `dying` lost their last
/// live copy: the closed-star [`HullBuilder::repair`] when it applies,
/// the full survivor build ([`HullBuilder::seed_from_bulk`]) otherwise.
/// Both walk the live rows and give the survivors' canonical hull.
/// Neither touches the journal or the live set: the unit whose tombstones
/// got here is journaled already, so a replay re-derives the survivors'
/// hull. Counted as a repair or a repair fallback, never as a rebuild;
/// the caller publishes.
fn correct_hull(ctx: &ShardCtx, st: &mut ShardState, dying: &[Vec<i64>]) {
    // Failpoint `shard.rebuild`: may panic (worker death mid-correction).
    // Safe at any point: the unit whose tombstones triggered it is
    // journaled and synced, so the supervisor's replay reconstructs the
    // live set and the survivors' hull.
    let _ = failpoint::eval(sites::SHARD_REBUILD);
    let t0 = Instant::now();
    let repaired = st.core.repair(st.live.live_rows(), dying, ctx.workers);
    let ok = repaired.is_some();
    st.core = repaired.unwrap_or_else(|| {
        let rows: Vec<&[i64]> = st.live.live_rows().collect();
        HullBuilder::seed_from_bulk(ctx.dim, &rows, ctx.workers).0
    });
    // A correction shrinks `applied` to the live count; re-baseline so a
    // later recovery never double-counts.
    st.recorded = st.core.applied();
    let us = t0.elapsed().as_micros() as u64;
    let counter = if ok {
        &ctx.stats.repairs
    } else {
        &ctx.stats.repair_fallbacks
    };
    counter.fetch_add(1, Ordering::Relaxed);
    ctx.stats.repair_us_total.fetch_add(us, Ordering::Relaxed);
    if chull_obs::armed() {
        let m = service_metrics();
        if ok {
            m.repairs.incr();
        } else {
            m.repair_fallbacks.incr();
        }
        m.repair_us.record(us);
    }
}

/// Rebuild from the live set's survivors and compact: the journal
/// collapses to one checkpoint unit preserving the cumulative unit index
/// (the WAL atomically rewritten, replication shipping it to followers),
/// then [`install`] replays it — a live set of exactly the survivors — and
/// bulk-builds their hull. Only the `rebuild_ratio` and `journal_ratio`
/// triggers get here, and only on a primary; `auto` tags a rebuild that
/// only the journal-ratio trigger asked for (the auto-compaction
/// counter).
fn rebuild_from_survivors(ctx: &ShardCtx, st: &mut ShardState, auto: bool) {
    // Failpoint `shard.rebuild`: may panic (worker death mid-rebuild).
    // Safe at any point in this function: the unit that triggered the
    // rebuild — tombstones included — is journaled and synced, and so is
    // the checkpoint once written, so the supervisor's install serves
    // the survivors either way.
    let _ = failpoint::eval(sites::SHARD_REBUILD);
    let t0 = Instant::now();
    if st.journal.reset_checkpoint(st.live.survivors()).is_err() {
        wal_err(&ctx.stats);
    }
    install(ctx, st);
    count_rebuild(ctx, t0, auto);
}

/// Count one checkpoint install — a ratio rebuild, or a follower landing
/// a primary's checkpoint — that started at `t0`.
fn count_rebuild(ctx: &ShardCtx, t0: Instant, auto: bool) {
    let us = t0.elapsed().as_micros() as u64;
    ctx.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
    ctx.stats.rebuild_us_last.store(us, Ordering::Relaxed);
    ctx.stats.rebuild_us_total.fetch_add(us, Ordering::Relaxed);
    if auto {
        ctx.stats.auto_compactions.fetch_add(1, Ordering::Relaxed);
    }
    if chull_obs::armed() {
        let m = service_metrics();
        m.rebuilds.incr();
        m.rebuild_us.record(us);
        if auto {
            m.auto_compactions.incr();
        }
    }
}

/// Land one replicated shipment: units at absolute indices `from..`;
/// returns how many landed. Units below the shard's own unit count are
/// already held and dropped (a checkpoint at index `i` covers units
/// `..=i`); a shipment that would leave a gap is dropped whole, for the
/// puller to re-fetch from its cursor. A run of `Ops` units onto a shard
/// that already holds units applies like local ingest, unit by unit in
/// order ([`apply_unit`]: window and ratio triggers off — the primary
/// ships their decisions), so a catch-up never rebuilds the whole hull.
/// A shipment that holds a checkpoint, or the first units of an empty
/// shard, is journaled (a checkpoint through
/// [`Journal::install_checkpoint`], which supersedes every unit before
/// it; the units after it through one [`Journal::append_units`]) and
/// then [`install`]ed with one bulk build.
fn apply_replica(
    ctx: &ShardCtx,
    st: &mut ShardState,
    prev_kernel: &mut KernelCounts,
    from: u64,
    mut units: Vec<ReplUnit>,
) -> u64 {
    let held = st.journal.batch_count();
    let skip = held.saturating_sub(from);
    units.drain(..(skip as usize).min(units.len()));
    match units.first() {
        None => return 0,
        Some(ReplUnit::Ops { .. }) if from + skip != held => return 0,
        Some(_) => {}
    }
    let landed = units.len() as u64;
    if held > 0 && units.iter().all(|u| matches!(u, ReplUnit::Ops { .. })) {
        for unit in units {
            if let ReplUnit::Ops {
                inserts,
                tombstones,
            } = unit
            {
                let muts = inserts
                    .into_iter()
                    .map(Mutation::Insert)
                    .chain(tombstones.into_iter().map(Mutation::Delete))
                    .collect();
                apply_unit(ctx, st, prev_kernel, muts, true);
                service_metrics().repl_units_applied.incr();
            }
        }
        return landed;
    }
    let t0 = Instant::now();
    // The last checkpoint supersedes every unit before it.
    let cut = units
        .iter()
        .rposition(|u| matches!(u, ReplUnit::Checkpoint { .. }));
    let after = units.split_off(cut.map_or(0, |at| at + 1));
    if let Some(ReplUnit::Checkpoint {
        units_after,
        survivors,
    }) = units.pop()
    {
        if st
            .journal
            .install_checkpoint(survivors, units_after)
            .is_err()
        {
            wal_err(&ctx.stats);
        }
    }
    let checkpoint = cut.is_some();
    for unit in &after {
        ctx.stats.record_batch(unit.inserts().len() as u64);
    }
    if st.journal.append_units(after).is_err() {
        wal_err(&ctx.stats);
    }
    service_metrics().repl_units_applied.add(landed);
    // Failpoint `shard.drain.before_publish`: the shipment is journaled
    // but not installed — readers still see the previous snapshot.
    let _ = failpoint::eval(sites::SHARD_BEFORE_PUBLISH);
    install(ctx, st);
    if checkpoint {
        count_rebuild(ctx, t0, false);
        // A checkpoint replaces the hull; it is not ingest, so it stays
        // out of the ingest kernel counters.
        *prev_kernel = st.core.hull().map(|h| h.kernel).unwrap_or_default();
    } else if chull_obs::armed() {
        // A catch-up without a checkpoint is ingest, built in one go.
        let m = service_metrics();
        m.batch_apply_us.record(t0.elapsed().as_micros() as u64);
        let now_kernel = st.core.hull().map(|h| h.kernel).unwrap_or_default();
        m.ingest_kernel.fold_delta(&now_kernel, prev_kernel);
        *prev_kernel = now_kernel;
    }
    landed
}

#[cfg(test)]
mod tests {
    use super::*;
    use chull_concurrent::failpoint::{FaultPlan, SiteSpec};
    use chull_core::context::prepare_points;
    use chull_core::seq::incremental_hull_run;
    use chull_geometry::{generators, KernelCounts, PointSet};

    fn cfg(dim: usize, shards: usize) -> ServiceConfig {
        ServiceConfig {
            dim,
            shards,
            queue_capacity: 64,
            max_batch: 16,
            workers: 2,
            ..ServiceConfig::default()
        }
    }

    /// Enqueue `pts` one at a time, in order, spinning through
    /// backpressure.
    fn insert_all(svc: &HullService, shard: u16, pts: &chull_geometry::PointSet) {
        for p in pts.iter() {
            while !svc
                .try_mutate(shard, vec![Mutation::Insert(p.to_vec())])
                .unwrap()
                .0[0]
            {
                std::thread::yield_now();
            }
        }
    }

    fn mutate_all(svc: &HullService, shard: u16, muts: Vec<Mutation>) {
        let mut pending = muts;
        while !pending.is_empty() {
            let (accepted, _) = svc.try_mutate(shard, pending.clone()).unwrap();
            pending = pending
                .into_iter()
                .zip(accepted)
                .filter_map(|(m, ok)| (!ok).then_some(m))
                .collect();
            if !pending.is_empty() {
                std::thread::yield_now();
            }
        }
    }

    /// Canonical facet geometry of Algorithm 2 run offline on `rows`.
    fn offline_canonical(
        rows: &[Vec<i64>],
        dim: usize,
    ) -> std::collections::BTreeSet<Vec<Vec<i64>>> {
        let flat: Vec<i64> = rows.iter().flatten().copied().collect();
        let pts = PointSet::from_flat(dim, flat);
        let run = incremental_hull_run(&pts);
        canonical_coords(pts.flat(), &run.output, dim)
    }

    fn snap_canonical(
        snap: &HullSnapshot,
        dim: usize,
    ) -> std::collections::BTreeSet<Vec<Vec<i64>>> {
        canonical_coords(&snap.flat_points(), &snap.output(), dim)
    }

    #[test]
    fn single_shard_matches_offline_hull() {
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(300, 1 << 20, 11)),
            12,
        );
        let svc = HullService::new(cfg(2, 1)).unwrap();
        insert_all(&svc, 0, &pts);
        svc.flush(0).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert!(snap.ready());
        assert_eq!(snap.num_points(), pts.len());
        let offline = incremental_hull_run(&pts);
        // Same point multiset => identical facet geometry; vertex ids may
        // differ (the shard reorders its seed simplex to the front), so
        // compare canonical coordinate sets.
        let served = canonical_coords(&snap.flat_points(), &snap.output(), 2);
        let expect = canonical_coords(pts.flat(), &offline.output, 2);
        assert_eq!(served, expect);
        svc.shutdown();
    }

    fn canonical_coords(
        flat: &[i64],
        out: &chull_core::HullOutput,
        dim: usize,
    ) -> std::collections::BTreeSet<Vec<Vec<i64>>> {
        out.facets
            .iter()
            .map(|f| {
                let mut verts: Vec<Vec<i64>> = f[..dim]
                    .iter()
                    .map(|&v| flat[v as usize * dim..(v as usize + 1) * dim].to_vec())
                    .collect();
                verts.sort();
                verts
            })
            .collect()
    }

    #[test]
    fn shards_are_independent() {
        let svc = HullService::new(cfg(2, 2)).unwrap();
        for p in [[0, 0], [8, 0], [0, 8], [8, 8]] {
            svc.try_mutate(0, vec![Mutation::Insert(p.to_vec())])
                .unwrap();
        }
        for p in [[100, 100], [101, 100], [100, 101]] {
            svc.try_mutate(1, vec![Mutation::Insert(p.to_vec())])
                .unwrap();
        }
        svc.flush(0).unwrap();
        svc.flush(1).unwrap();
        let s0 = svc.snapshot(0).unwrap();
        let s1 = svc.snapshot(1).unwrap();
        assert_eq!(s0.num_points(), 4);
        assert_eq!(s1.num_points(), 3);
        let mut k = KernelCounts::default();
        assert_eq!(s0.contains(&[4, 4], &mut k), Some(true));
        assert_eq!(s1.contains(&[4, 4], &mut k), Some(false));
    }

    #[test]
    fn bootstrap_buffers_degenerate_prefix() {
        let svc = HullService::new(cfg(2, 1)).unwrap();
        // Collinear prefix: stays in bootstrap.
        for p in [[0, 0], [1, 1], [2, 2], [3, 3]] {
            svc.try_mutate(0, vec![Mutation::Insert(p.to_vec())])
                .unwrap();
        }
        svc.flush(0).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert!(!snap.ready());
        assert_eq!(snap.num_points(), 4);
        // One off-line point completes the simplex; the buffer replays.
        svc.try_mutate(0, vec![Mutation::Insert(vec![5, 0])])
            .unwrap();
        svc.flush(0).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert!(snap.ready());
        assert_eq!(snap.num_points(), 5);
        let mut k = KernelCounts::default();
        assert_eq!(snap.contains(&[2, 1], &mut k), Some(true));
    }

    #[test]
    fn rejects_bad_input() {
        let svc = HullService::new(cfg(2, 1)).unwrap();
        assert!(matches!(
            svc.try_mutate(5, vec![Mutation::Insert(vec![0, 0])]),
            Err(ServiceError::BadShard(5))
        ));
        assert!(matches!(
            svc.try_mutate(0, vec![Mutation::Insert(vec![0, 0, 0])]),
            Err(ServiceError::BadPoint(_))
        ));
        assert!(matches!(
            svc.try_mutate(0, vec![Mutation::Insert(vec![i64::MAX, 0])]),
            Err(ServiceError::BadPoint(_))
        ));
        assert!(matches!(
            svc.try_mutate(0, vec![Mutation::Delete(vec![0, 0, 0])]),
            Err(ServiceError::BadPoint(_))
        ));
        assert!(HullService::new(cfg(1, 1)).is_err());
        assert!(HullService::new(cfg(2, 0)).is_err());
    }

    #[test]
    fn epoch_is_monotone_and_batches_coalesce() {
        let svc = HullService::new(ServiceConfig {
            dim: 2,
            shards: 1,
            queue_capacity: 512,
            max_batch: 64,
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(200, 1 << 16, 3)),
            4,
        );
        insert_all(&svc, 0, &pts);
        let e1 = svc.flush(0).unwrap();
        assert!(e1 >= 1);
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(snap.epoch, e1);
        assert_eq!(snap.applied, 200);
        // Flush with nothing pending must not bump the epoch.
        let e2 = svc.flush(0).unwrap();
        assert_eq!(e2, e1);
        let stats = svc.stats_json(Some(0)).unwrap();
        assert!(stats.contains("\"batched_inserts\":200"), "{stats}");
        assert!(stats.contains("\"journal_len\":200"), "{stats}");
        let agg = svc.stats_json(None).unwrap();
        assert!(agg.contains("\"applied_total\":200"), "{agg}");
    }

    #[test]
    fn delete_miss_is_counted_not_journaled() {
        let svc = HullService::new(cfg(2, 1)).unwrap();
        for p in [[0, 0], [9, 0], [0, 9]] {
            svc.try_mutate(0, vec![Mutation::Insert(p.to_vec())])
                .unwrap();
        }
        let e1 = svc.flush(0).unwrap();
        mutate_all(&svc, 0, vec![Mutation::Delete(vec![7, 7])]);
        let e2 = svc.flush(0).unwrap();
        // A miss journals nothing, so no unit and no epoch bump.
        assert_eq!(e1, e2);
        let st = svc.stats_for(0).unwrap();
        assert_eq!(st.delete_misses.load(Ordering::Relaxed), 1);
        assert_eq!(st.tombstones.load(Ordering::Relaxed), 0);
        svc.shutdown();
    }

    #[test]
    fn delete_reshapes_hull_end_to_end() {
        let mut config = cfg(2, 1);
        // Keep triggers out of the way: the vertex delete itself must
        // force the rebuild.
        config.rebuild_ratio = 1e9;
        config.journal_ratio = 0.0;
        let svc = HullService::new(config).unwrap();
        let square = vec![vec![0, 0], vec![10, 0], vec![0, 10], vec![10, 10]];
        let spike = vec![40, 5];
        let inner = vec![5, 5];
        let mut rows = square.clone();
        rows.push(spike.clone());
        rows.push(inner.clone());
        mutate_all(
            &svc,
            0,
            rows.iter().cloned().map(Mutation::Insert).collect(),
        );
        svc.flush(0).unwrap();
        let mut k = KernelCounts::default();
        assert_eq!(
            svc.snapshot(0).unwrap().contains(&[20, 5], &mut k),
            Some(true)
        );
        // Interior delete: no correction needed, hull unchanged.
        mutate_all(&svc, 0, vec![Mutation::Delete(inner.clone())]);
        svc.flush(0).unwrap();
        let st = svc.stats_for(0).unwrap();
        let corrections =
            || st.repairs.load(Ordering::Relaxed) + st.repair_fallbacks.load(Ordering::Relaxed);
        assert_eq!(corrections(), 0);
        assert_eq!(st.tombstones.load(Ordering::Relaxed), 1);
        // Vertex delete: the hull must shrink back to the square, by an
        // in-memory correction that checkpoints nothing.
        let e0 = svc.flush(0).unwrap();
        mutate_all(&svc, 0, vec![Mutation::Delete(spike.clone())]);
        svc.flush(0).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(corrections(), 1);
        assert_eq!(st.rebuilds.load(Ordering::Relaxed), 0);
        assert_eq!(
            snap.epoch,
            e0 + 1,
            "the tombstone unit is the only new unit"
        );
        assert_eq!(
            svc.snapshot(0).unwrap().contains(&[20, 5], &mut k),
            Some(false)
        );
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(&square, 2));
        // Epochs keep climbing.
        svc.try_mutate(0, vec![Mutation::Insert(vec![5, 20])])
            .unwrap();
        let e = svc.flush(0).unwrap();
        assert!(e > snap.epoch);
        svc.shutdown();
    }

    #[test]
    fn count_window_serves_survivor_hull() {
        for workers in [1, 2, 4] {
            let mut config = cfg(2, 1);
            config.workers = workers;
            config.window = WindowPolicy::Count(60);
            let svc = HullService::new(config).unwrap();
            let pts = prepare_points(
                &PointSet::from_points2(&generators::disk_2d(200, 1 << 16, 31)),
                32,
            );
            insert_all(&svc, 0, &pts);
            svc.flush(0).unwrap();
            let snap = svc.snapshot(0).unwrap();
            let st = svc.stats_for(0).unwrap();
            assert_eq!(st.live_points.load(Ordering::Relaxed), 60);
            assert!(st.window_expirations.load(Ordering::Relaxed) >= 140);
            // A count window keeps exactly the newest 60 rows, however
            // the stream was batched.
            let survivors: Vec<Vec<i64>> = pts
                .iter()
                .skip(pts.len() - 60)
                .map(|p| p.to_vec())
                .collect();
            assert_eq!(snap_canonical(&snap, 2), offline_canonical(&survivors, 2));
            svc.shutdown();
        }
    }

    #[test]
    fn journal_ratio_auto_compacts() {
        let dir = std::env::temp_dir().join(format!(
            "chull-shard-autoc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.rebuild_ratio = 1e9; // isolate the journal trigger
        config.journal_ratio = 2.0;
        let svc = HullService::new(config.clone()).unwrap();
        // Hull vertices far out; interior rows to insert-and-delete so
        // no delete ever touches the hull.
        for p in [[-50, -50], [50, -50], [-50, 50], [50, 50]] {
            svc.try_mutate(0, vec![Mutation::Insert(p.to_vec())])
                .unwrap();
        }
        svc.flush(0).unwrap();
        for i in 0..20i64 {
            mutate_all(&svc, 0, vec![Mutation::Insert(vec![i % 7, i % 5])]);
            svc.flush(0).unwrap();
            mutate_all(&svc, 0, vec![Mutation::Delete(vec![i % 7, i % 5])]);
            svc.flush(0).unwrap();
        }
        let st = svc.stats_for(0).unwrap();
        assert!(st.auto_compactions.load(Ordering::Relaxed) >= 1);
        assert!(st.rebuilds.load(Ordering::Relaxed) >= 1);
        // Compaction shrank the journal: without it the WAL would hold
        // 4 + 40 rows; with the ratio trigger at most two insert/delete
        // pairs ride on top of the 4 checkpointed survivors.
        assert!(st.journal_len.load(Ordering::Relaxed) <= 8);
        assert_eq!(st.live_points.load(Ordering::Relaxed), 4);
        let epoch = svc.flush(0).unwrap();
        svc.shutdown();
        // Restart over the checkpointed WAL: same hull, same epoch
        // (the checkpoint header preserved the unit index).
        let svc = HullService::new(config).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(snap.epoch, epoch);
        assert_eq!(
            snap_canonical(&snap, 2),
            offline_canonical(
                &[vec![-50, -50], vec![50, -50], vec![-50, 50], vec![50, 50]],
                2
            )
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_restart_replays_mixed_ops() {
        let dir = std::env::temp_dir().join(format!(
            "chull-shard-mixed-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.rebuild_ratio = 1e9;
        config.journal_ratio = 0.0;
        let square = vec![vec![0, 0], vec![10, 0], vec![0, 10], vec![10, 10]];
        {
            let svc = HullService::new(config.clone()).unwrap();
            let mut rows = square.clone();
            rows.push(vec![40, 5]);
            mutate_all(
                &svc,
                0,
                rows.iter().cloned().map(Mutation::Insert).collect(),
            );
            svc.flush(0).unwrap();
            // Vertex delete → in-memory correction, no checkpoint; then
            // one more mixed unit, the whole history left in the journal.
            mutate_all(&svc, 0, vec![Mutation::Delete(vec![40, 5])]);
            svc.flush(0).unwrap();
            mutate_all(
                &svc,
                0,
                vec![
                    Mutation::Insert(vec![5, 5]),
                    Mutation::Insert(vec![30, 30]),
                    Mutation::Delete(vec![30, 30]),
                ],
            );
            svc.flush(0).unwrap();
            svc.shutdown();
        }
        // Restart: replay must honor the tombstones (rebuild from
        // survivors), not just the inserts.
        let svc = HullService::new(config).unwrap();
        let snap = svc.snapshot(0).unwrap();
        let mut expect = square.clone();
        expect.push(vec![5, 5]);
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(&expect, 2));
        let st = svc.stats_for(0).unwrap();
        assert_eq!(st.live_points.load(Ordering::Relaxed), 5);
        // Serving continues across the restart: delete another vertex.
        mutate_all(&svc, 0, vec![Mutation::Delete(vec![10, 10])]);
        svc.flush(0).unwrap();
        let snap = svc.snapshot(0).unwrap();
        let expect = vec![vec![0, 0], vec![10, 0], vec![0, 10], vec![5, 5]];
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(&expect, 2));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_rebuild_crash_replay_converges() {
        let square = vec![vec![0, 0], vec![10, 0], vec![0, 10], vec![10, 10]];
        let mut recovered = false;
        for round in 0..20 {
            let mut config = cfg(2, 1);
            config.rebuild_ratio = 1e9;
            config.journal_ratio = 0.0;
            let svc = HullService::new(config).unwrap();
            let mut rows = square.clone();
            rows.push(vec![40, 5]);
            mutate_all(
                &svc,
                0,
                rows.iter().cloned().map(Mutation::Insert).collect(),
            );
            svc.flush(0).unwrap();
            failpoint::arm(FaultPlan::new(0x9E8_0000 + round).site(
                sites::SHARD_REBUILD,
                SiteSpec {
                    panic_every: 1,
                    max_fires: 1,
                    ..SiteSpec::default()
                },
            ));
            // Vertex delete triggers a rebuild; the armed failpoint
            // kills the worker inside it.
            mutate_all(&svc, 0, vec![Mutation::Delete(vec![40, 5])]);
            svc.flush(0).unwrap();
            failpoint::disarm();
            let hit = svc.stats_for(0).unwrap().recoveries.load(Ordering::Relaxed) >= 1;
            // Crashed or not, the served hull must converge to the
            // survivors.
            let snap = svc.snapshot(0).unwrap();
            assert_eq!(snap_canonical(&snap, 2), offline_canonical(&square, 2));
            let mut k = KernelCounts::default();
            assert_eq!(snap.contains(&[20, 5], &mut k), Some(false));
            svc.shutdown();
            if hit {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "no injected panic landed in the rebuild");
    }

    /// A fresh WAL directory for one test.
    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chull-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// 300 disk rows and a spike vertex far outside them, written to the
    /// WAL of `config` by one service and served by a second one over it
    /// — so the hull is bulk-built, and deleting the spike takes the
    /// closed-star repair. (A hull built point by point has every row to
    /// certify, which here costs more than the full build's prefilter:
    /// the repair refuses it.)
    fn bulk_built_spike(config: &ServiceConfig) -> (HullService, Vec<Vec<i64>>, Vec<i64>) {
        let r = 1 << 20;
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(300, r, 65)),
            66,
        );
        let rows: Vec<Vec<i64>> = pts.iter().map(|p| p.to_vec()).collect();
        let spike = vec![4 * r, 7];
        let svc = HullService::new(config.clone()).unwrap();
        let mut all = rows.clone();
        all.push(spike.clone());
        mutate_all(&svc, 0, all.into_iter().map(Mutation::Insert).collect());
        svc.flush(0).unwrap();
        svc.shutdown();
        (HullService::new(config.clone()).unwrap(), rows, spike)
    }

    /// The bulk-built variant of [`mid_rebuild_crash_replay_converges`]:
    /// the armed panic lands inside a closed-star repair (the unarmed
    /// run of the same scenario shows the correction is one), and the
    /// recovered shard serves the survivors' hull.
    #[test]
    fn mid_repair_crash_replay_converges() {
        let dir = temp_wal("mid-repair");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.rebuild_ratio = 1e9;
        config.journal_ratio = 0.0;
        let mut recovered = false;
        for round in 0..21 {
            let _ = std::fs::remove_dir_all(&dir);
            let (svc, rows, spike) = bulk_built_spike(&config);
            let armed = round > 0;
            if armed {
                failpoint::arm(FaultPlan::new(0x9E9_0000 + round).site(
                    sites::SHARD_REBUILD,
                    SiteSpec {
                        panic_every: 1,
                        max_fires: 1,
                        ..SiteSpec::default()
                    },
                ));
            }
            mutate_all(&svc, 0, vec![Mutation::Delete(spike)]);
            svc.flush(0).unwrap();
            failpoint::disarm();
            let st = svc.stats_for(0).unwrap();
            let hit = st.recoveries.load(Ordering::Relaxed) >= 1;
            if !armed {
                assert_eq!(
                    st.repairs.load(Ordering::Relaxed),
                    1,
                    "the spike death repairs"
                );
            }
            assert_eq!(st.rebuilds.load(Ordering::Relaxed), 0);
            let snap = svc.snapshot(0).unwrap();
            assert_eq!(snap_canonical(&snap, 2), offline_canonical(&rows, 2));
            assert_eq!(st.live_points.load(Ordering::Relaxed), rows.len() as u64);
            svc.shutdown();
            if hit {
                recovered = true;
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(recovered, "no injected panic landed in the repair");
    }

    /// Vertex deaths repaired in memory leave the WAL uncompacted: a
    /// restart replays every unit, tombstones included, and must serve
    /// exactly the survivors' hull and live count.
    #[test]
    fn restart_over_repaired_uncheckpointed_wal_serves_survivors() {
        let dir = temp_wal("repaired-wal");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.window = WindowPolicy::Count(150);
        config.rebuild_ratio = 1e9;
        config.journal_ratio = 0.0;
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(1200, 1 << 20, 67)),
            68,
        );
        let rows: Vec<Vec<i64>> = pts.iter().map(|p| p.to_vec()).collect();
        let svc = HullService::new(config.clone()).unwrap();
        for chunk in rows.chunks(16) {
            mutate_all(
                &svc,
                0,
                chunk.iter().cloned().map(Mutation::Insert).collect(),
            );
            svc.flush(0).unwrap();
        }
        let st = svc.stats_for(0).unwrap();
        assert!(
            st.repairs.load(Ordering::Relaxed) >= 1,
            "no vertex death repaired"
        );
        assert_eq!(
            st.rebuilds.load(Ordering::Relaxed),
            0,
            "nothing checkpointed"
        );
        let served = snap_canonical(&svc.snapshot(0).unwrap(), 2);
        let units = svc.flush(0).unwrap();
        svc.shutdown();
        let survivors = &rows[rows.len() - 150..];
        assert_eq!(served, offline_canonical(survivors, 2));

        let svc = HullService::new(config).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(snap.epoch, units, "every unit replayed");
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(survivors, 2));
        let st = svc.stats_for(0).unwrap();
        assert_eq!(st.live_points.load(Ordering::Relaxed), 150);
        assert_eq!(st.rebuilds.load(Ordering::Relaxed), 0);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_panic_recovers_bit_identical_hull() {
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(250, 1 << 18, 21)),
            22,
        );
        let offline = incremental_hull_run(&pts);
        // The failpoint registry is process-global and other tests insert
        // points concurrently, so an injected panic may land on another
        // (equally recoverable) shard. Re-arm until *this* shard has died
        // at least once; each round replays the same workload into a
        // fresh service.
        let mut recovered = false;
        for round in 0..20 {
            let svc = HullService::new(cfg(2, 1)).unwrap();
            failpoint::arm(
                FaultPlan::new(0x5EED_0000 + round)
                    .site(
                        sites::SHARD_APPLY,
                        SiteSpec {
                            panic_every: 97,
                            max_fires: 2,
                            ..SiteSpec::default()
                        },
                    )
                    .site(
                        sites::SHARD_BEFORE_PUBLISH,
                        SiteSpec {
                            panic_every: 11,
                            max_fires: 1,
                            ..SiteSpec::default()
                        },
                    ),
            );
            insert_all(&svc, 0, &pts);
            let flushed = svc.flush(0).unwrap();
            failpoint::disarm();
            let snap = svc.snapshot(0).unwrap();
            assert_eq!(snap.applied, 250, "acked inserts survive the crash");
            assert!(snap.epoch <= flushed || flushed > 0);
            let served = canonical_coords(&snap.flat_points(), &snap.output(), 2);
            let expect = canonical_coords(pts.flat(), &offline.output, 2);
            assert_eq!(served, expect, "recovered hull differs from offline");
            let stats = svc.stats_json(Some(0)).unwrap();
            assert!(stats.contains("\"batched_inserts\":250"), "{stats}");
            let hit = svc.stats_for(0).unwrap().recoveries.load(Ordering::Relaxed) >= 1;
            assert_eq!(svc.generation(0).unwrap() >= 1, hit);
            svc.shutdown();
            if hit {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "no injected panic landed on the test shard");
    }

    #[test]
    fn wal_restart_replays_previous_run() {
        let dir = std::env::temp_dir().join(format!(
            "chull-shard-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = cfg(2, 2);
        config.wal_dir = Some(dir.clone());
        {
            let svc = HullService::new(config.clone()).unwrap();
            for p in [[0, 0], [10, 0], [0, 10], [10, 10]] {
                svc.try_mutate(0, vec![Mutation::Insert(p.to_vec())])
                    .unwrap();
            }
            svc.try_mutate(1, vec![Mutation::Insert(vec![7, 7])])
                .unwrap();
            svc.flush(0).unwrap();
            svc.flush(1).unwrap();
            svc.shutdown();
        }
        // "Restart": a fresh service over the same WAL directory serves
        // the previous run's points before any new insert arrives.
        let svc = HullService::new(config).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(snap.num_points(), 4);
        assert!(snap.ready());
        let mut k = KernelCounts::default();
        assert_eq!(snap.contains(&[5, 5], &mut k), Some(true));
        assert_eq!(svc.snapshot(1).unwrap().num_points(), 1);
        // New inserts append to the recovered state.
        svc.try_mutate(0, vec![Mutation::Insert(vec![20, 5])])
            .unwrap();
        svc.flush(0).unwrap();
        assert_eq!(svc.snapshot(0).unwrap().num_points(), 5);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_start_bulk_build_serves_pre_shutdown_hull() {
        let dir = std::env::temp_dir().join(format!(
            "chull-shard-bulk-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(500, 1 << 20, 23)),
            24,
        );
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        let served = {
            let svc = HullService::new(config.clone()).unwrap();
            insert_all(&svc, 0, &pts);
            svc.flush(0).unwrap();
            let out = snap_canonical(&svc.snapshot(0).unwrap(), 2);
            svc.shutdown();
            out
        };
        // One restart: a single bulk build over the WAL's insert rows.
        let svc = HullService::new(config).unwrap();
        let snap = svc.snapshot(0).unwrap();
        assert!(snap.ready());
        assert_eq!(snap.num_points(), pts.len());
        let stats = svc.stats_for(0).unwrap();
        assert_eq!(stats.bulk_builds.load(Ordering::Relaxed), 1);
        assert!(stats.bulk_pruned.load(Ordering::Relaxed) > 0);
        let restarted = snap_canonical(&snap, 2);
        assert_eq!(restarted, served, "restart changed the served hull");
        let offline = incremental_hull_run(&pts);
        assert_eq!(restarted, canonical_coords(pts.flat(), &offline.output, 2));
        // The bulk-seeded hull keeps serving new inserts.
        svc.try_mutate(0, vec![Mutation::Insert(vec![(1 << 21) + 7, 0])])
            .unwrap();
        svc.flush(0).unwrap();
        let mut k = KernelCounts::default();
        assert_eq!(
            svc.snapshot(0).unwrap().contains(&[(1 << 21), 0], &mut k),
            Some(true)
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// Every answer a reader can get from `snap` for a fixed probe set
    /// around a hull of radius `r`, plus its observable sizes.
    fn observe(snap: &HullSnapshot, r: i64) -> (u64, Vec<[u32; 8]>, usize, usize, String) {
        let mut k = KernelCounts::default();
        let mut answers = String::new();
        for (x, y) in [
            (0, 0),
            (r / 2, r / 3),
            (r, r),
            (-2 * r, 5),
            (r / 7, -r),
            (3, r + 9),
        ] {
            answers += &format!(
                "{:?} {:?} ",
                snap.contains(&[x, y], &mut k),
                snap.visible_count(&[x, y], &mut k)
            );
            answers += &format!("{:?} ", snap.extreme(&[x, y]));
        }
        (
            snap.epoch,
            snap.output().facets,
            snap.plane_block_len(),
            snap.hull_vertex_count(),
            answers,
        )
    }

    /// A snapshot refreshed in place answers exactly like one frozen
    /// from a fresh copy of the same hull.
    fn assert_matches_fresh_freeze(snap: &HullSnapshot, r: i64) {
        let SnapState::Live(h) = &snap.state else {
            panic!("snapshot not live");
        };
        let fresh = HullSnapshot::freeze_live(snap.epoch, snap.applied, (**h).clone());
        assert_eq!(observe(snap, r), observe(&fresh, r));
        assert_eq!(snap.num_facets(), snap.output().num_facets());
    }

    #[test]
    fn held_snapshot_never_changes_while_the_shard_publishes() {
        let r = 1 << 20;
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(900, r, 61)),
            62,
        );
        let rows: Vec<Vec<i64>> = pts.iter().map(|p| p.to_vec()).collect();
        let svc = HullService::new(cfg(2, 1)).unwrap();
        let stats = svc.stats_for(0).unwrap();
        let unit = |svc: &HullService, chunk: &[Vec<i64>]| {
            mutate_all(
                svc,
                0,
                chunk.iter().cloned().map(Mutation::Insert).collect(),
            );
            svc.flush(0).unwrap()
        };
        for chunk in rows[..300].chunks(60) {
            unit(&svc, chunk);
        }
        let held = svc.snapshot(0).unwrap();
        let before = observe(&held, r);
        let cloned = stats.publishes_cloned.load(Ordering::Relaxed);
        for chunk in rows[300..].chunks(60) {
            unit(&svc, chunk);
        }
        let latest = svc.snapshot(0).unwrap();
        assert!(latest.epoch >= held.epoch + 3, "fewer than 3 batches");
        assert_eq!(observe(&held, r), before, "a held snapshot changed");
        // The publish that found the held snapshot as its spare copied.
        assert!(stats.publishes_cloned.load(Ordering::Relaxed) > cloned);
        assert!(stats.publishes_refreshed.load(Ordering::Relaxed) > 0);
        assert_matches_fresh_freeze(&held, r);
        assert_matches_fresh_freeze(&latest, r);
        assert_eq!(snap_canonical(&latest, 2), offline_canonical(&rows, 2));
        let json = svc.stats_json(Some(0)).unwrap();
        assert!(json.contains("\"publishes_refreshed\":"), "{json}");
        svc.shutdown();
    }

    /// A vertex death on a bulk-built hull is repaired in memory — no
    /// rebuild, no checkpoint — and the repaired hull is a new lineage,
    /// so the publish after it copies instead of refreshing.
    #[test]
    fn survivor_repair_publishes_a_fresh_copy() {
        let r = 1 << 20;
        let dir = temp_wal("repair-publish");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.rebuild_ratio = 1e9;
        config.journal_ratio = 0.0;
        let (svc, mut rows, spike) = bulk_built_spike(&config);
        let stats = svc.stats_for(0).unwrap();
        let cloned = stats.publishes_cloned.load(Ordering::Relaxed);
        mutate_all(&svc, 0, vec![Mutation::Delete(spike)]);
        svc.flush(0).unwrap();
        assert_eq!(stats.repairs.load(Ordering::Relaxed), 1);
        assert_eq!(stats.repair_fallbacks.load(Ordering::Relaxed), 0);
        assert_eq!(stats.rebuilds.load(Ordering::Relaxed), 0);
        assert!(stats.publishes_cloned.load(Ordering::Relaxed) > cloned);
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(&rows, 2));
        assert_matches_fresh_freeze(&snap, r);
        drop(snap);
        // Publishing continues on the repaired hull, refreshing again.
        let refreshed = stats.publishes_refreshed.load(Ordering::Relaxed);
        let more: Vec<Vec<i64>> = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(200, r, 69)),
            70,
        )
        .iter()
        .map(|p| p.to_vec())
        .collect();
        for chunk in more.chunks(50) {
            mutate_all(
                &svc,
                0,
                chunk.iter().cloned().map(Mutation::Insert).collect(),
            );
            svc.flush(0).unwrap();
        }
        assert!(stats.publishes_refreshed.load(Ordering::Relaxed) > refreshed);
        rows.extend(more);
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(&rows, 2));
        assert_matches_fresh_freeze(&snap, r);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tombstone-ratio trigger still rebuilds from survivors and
    /// checkpoints: one `rebuilds`, no in-memory correction, and a fresh
    /// lineage published by copy.
    #[test]
    fn ratio_rebuild_publishes_a_fresh_copy() {
        let r = 1 << 20;
        let mut config = cfg(2, 1);
        // Any dead entry passes a zero ratio.
        config.rebuild_ratio = 0.0;
        config.journal_ratio = 0.0;
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(400, r, 63)),
            64,
        );
        let rows: Vec<Vec<i64>> = pts.iter().map(|p| p.to_vec()).collect();
        let svc = HullService::new(config).unwrap();
        let stats = svc.stats_for(0).unwrap();
        mutate_all(
            &svc,
            0,
            rows.iter().cloned().map(Mutation::Insert).collect(),
        );
        let e0 = svc.flush(0).unwrap();
        let (_, vertex) = svc.snapshot(0).unwrap().extreme(&[1, 0]).unwrap();
        let cloned = stats.publishes_cloned.load(Ordering::Relaxed);
        mutate_all(&svc, 0, vec![Mutation::Delete(vertex.clone())]);
        svc.flush(0).unwrap();
        assert_eq!(stats.rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.repairs.load(Ordering::Relaxed) + stats.repair_fallbacks.load(Ordering::Relaxed),
            0
        );
        assert_eq!(
            stats.lazy_tombstones.load(Ordering::Relaxed),
            0,
            "compacted"
        );
        assert!(stats.publishes_cloned.load(Ordering::Relaxed) > cloned);
        let snap = svc.snapshot(0).unwrap();
        assert_eq!(
            snap.epoch,
            e0 + 2,
            "the tombstone unit, then the checkpoint unit"
        );
        let survivors: Vec<Vec<i64>> = rows.iter().filter(|p| **p != vertex).cloned().collect();
        assert_eq!(snap_canonical(&snap, 2), offline_canonical(&survivors, 2));
        assert_matches_fresh_freeze(&snap, r);
        svc.shutdown();
    }

    fn disk_rows(n: usize, seed: u64) -> Vec<Vec<i64>> {
        prepare_points(
            &PointSet::from_points2(&generators::disk_2d(n, 1 << 20, seed)),
            seed + 1,
        )
        .iter()
        .map(|p| p.to_vec())
        .collect()
    }

    fn ops_unit(inserts: &[Vec<i64>], tombstones: &[Vec<i64>]) -> ReplUnit {
        ReplUnit::Ops {
            inserts: inserts.to_vec(),
            tombstones: tombstones.to_vec(),
        }
    }

    /// Insert `p` as one unit of its own and wait for its publish.
    fn insert_unit(svc: &HullService, p: [i64; 2]) {
        mutate_all(svc, 0, vec![Mutation::Insert(p.to_vec())]);
        svc.flush(0).unwrap();
    }

    /// What an install must share with a restart: the canonical hull,
    /// the live and lazily tombstoned rows, and the unit count.
    type Observed = (std::collections::BTreeSet<Vec<Vec<i64>>>, u64, u64, u64);

    fn observed(svc: &HullService) -> Observed {
        let st = svc.stats_for(0).unwrap();
        (
            snap_canonical(&svc.snapshot(0).unwrap(), 2),
            st.live_points.load(Ordering::Relaxed),
            st.lazy_tombstones.load(Ordering::Relaxed),
            svc.batch_units(0).unwrap(),
        )
    }

    /// Install ≡ restart: a copy of `svc`'s WAL restarted with
    /// [`HullService::new`] serves exactly what `svc` serves, and two more
    /// units, inserting `FAR[0]` and `FAR[1]`, expire the same rows on
    /// both — under an `Epochs` window that holds only when the two live
    /// sets carry the same epoch stamps. Before each unit `svc` alone
    /// also takes a flush-only batch, which must journal nothing, expire
    /// nothing, and leave the next unit expiring what the unflushed
    /// restart expires. Returns how many rows the two units expired.
    fn assert_install_matches_restart(svc: &HullService, config: &ServiceConfig) -> u64 {
        svc.flush(0).unwrap();
        let dir = config.wal_dir.as_ref().expect("a WAL to restart from");
        let copy = dir.with_extension("copy");
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        std::fs::copy(
            crate::journal::wal_path(dir, 0),
            crate::journal::wal_path(&copy, 0),
        )
        .unwrap();
        let restarted = HullService::new(ServiceConfig {
            wal_dir: Some(copy.clone()),
            ..config.clone()
        })
        .unwrap();
        assert_eq!(observed(svc), observed(&restarted), "restart differs");
        let expired = |s: &HullService| {
            s.stats_for(0)
                .unwrap()
                .window_expirations
                .load(Ordering::Relaxed)
        };
        let before = expired(svc);
        assert_eq!(before, expired(&restarted));
        for p in &FAR[..2] {
            let (units, expired_before) = (svc.batch_units(0).unwrap(), expired(svc));
            svc.flush(0).unwrap();
            assert_eq!(svc.batch_units(0).unwrap(), units, "a flush journaled");
            assert_eq!(expired(svc), expired_before, "a flush ran the window");
            for s in [svc, &restarted] {
                insert_unit(s, *p);
            }
            assert_eq!(expired(svc), expired(&restarted), "expired other rows");
            assert_eq!(observed(svc), observed(&restarted), "diverged");
        }
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&copy);
        expired(svc) - before
    }

    /// Three far rows the hull ends up as once older rows expire.
    const FAR: [[i64; 2]; 3] = [[1 << 22, 0], [0, 1 << 22], [-(1 << 22), -(1 << 22)]];

    /// A ratio rebuild's install: the checkpoint survivors carry the
    /// checkpoint's unit (3) as their stamp, so under `Epochs(2)` the unit
    /// after it keeps them and the second expires them — in process and
    /// after a restart alike.
    #[test]
    fn ratio_rebuild_install_matches_restart() {
        let dir = temp_wal("install-ratio");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.window = WindowPolicy::Epochs(2);
        config.rebuild_ratio = 0.0;
        config.journal_ratio = 0.0;
        let svc = HullService::new(config.clone()).unwrap();
        let rows = disk_rows(40, 71);
        svc.apply_replica_units(0, 0, vec![ops_unit(&rows, &[])])
            .unwrap();
        mutate_all(&svc, 0, vec![Mutation::Delete(rows[0].clone())]);
        svc.flush(0).unwrap();
        let st = svc.stats_for(0).unwrap();
        assert_eq!(st.rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(
            svc.batch_units(0).unwrap(),
            3,
            "rows, tombstone, checkpoint"
        );
        assert_eq!(st.lazy_tombstones.load(Ordering::Relaxed), 0);
        let expired = assert_install_matches_restart(&svc, &config);
        assert_eq!(
            expired, 39,
            "the second unit after the checkpoint expires it"
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash recovery through the `shard.rebuild` failpoint: the worker
    /// dies correcting the hull after a vertex delete, and the
    /// supervisor's install serves the survivors — stamped with their own
    /// unit (1), the tombstoned arrival still a lazy entry — exactly as a
    /// restart does.
    #[test]
    fn crash_recovery_install_matches_restart() {
        let dir = temp_wal("install-crash");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.window = WindowPolicy::Epochs(3);
        config.rebuild_ratio = 1e9;
        config.journal_ratio = 0.0;
        let rows = disk_rows(40, 73);
        let mut recovered = false;
        for round in 0..20 {
            let _ = std::fs::remove_dir_all(&dir);
            let svc = HullService::new(config.clone()).unwrap();
            svc.apply_replica_units(0, 0, vec![ops_unit(&rows, &[])])
                .unwrap();
            let (_, vertex) = svc.snapshot(0).unwrap().extreme(&[1, 0]).unwrap();
            failpoint::arm(FaultPlan::new(0x1257_0000 + round).site(
                sites::SHARD_REBUILD,
                SiteSpec {
                    panic_every: 1,
                    max_fires: 1,
                    ..SiteSpec::default()
                },
            ));
            mutate_all(&svc, 0, vec![Mutation::Delete(vertex)]);
            svc.flush(0).unwrap();
            failpoint::disarm();
            let st = svc.stats_for(0).unwrap();
            if st.recoveries.load(Ordering::Relaxed) == 0 {
                svc.shutdown();
                continue;
            }
            assert_eq!(svc.batch_units(0).unwrap(), 2, "rows, tombstone");
            assert_eq!(st.lazy_tombstones.load(Ordering::Relaxed), 1);
            let expired = assert_install_matches_restart(&svc, &config);
            assert_eq!(expired, 39, "the second unit after recovery expires them");
            svc.shutdown();
            recovered = true;
            break;
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(recovered, "no injected panic landed in the correction");
    }

    /// A follower landing a primary's checkpoint installs the survivors
    /// stamped with the checkpoint's unit (5), as a restart does.
    #[test]
    fn follower_checkpoint_install_matches_restart() {
        let dir = temp_wal("install-checkpoint");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.window = WindowPolicy::Epochs(2);
        let svc = HullService::new(config.clone()).unwrap();
        let rows = disk_rows(40, 75);
        svc.apply_replica_units(0, 0, vec![ops_unit(&rows, &[])])
            .unwrap();
        let checkpoint = ReplUnit::Checkpoint {
            units_after: 5,
            survivors: rows[..20].to_vec(),
        };
        svc.apply_replica_units(0, 4, vec![checkpoint]).unwrap();
        let st = svc.stats_for(0).unwrap();
        assert_eq!(svc.batch_units(0).unwrap(), 5);
        assert_eq!(st.rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(st.bulk_builds.load(Ordering::Relaxed), 2);
        assert_eq!(st.live_points.load(Ordering::Relaxed), 20);
        assert_eq!(
            snap_canonical(&svc.snapshot(0).unwrap(), 2),
            offline_canonical(&rows[..20], 2)
        );
        let expired = assert_install_matches_restart(&svc, &config);
        assert_eq!(
            expired, 20,
            "the second unit after the checkpoint expires it"
        );
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A follower bootstrap — several units, tombstones among them —
    /// installs with one bulk build, each unit's rows stamped with its
    /// index, as a restart does.
    #[test]
    fn follower_bootstrap_install_matches_restart() {
        let dir = temp_wal("install-bootstrap");
        let mut config = cfg(2, 1);
        config.wal_dir = Some(dir.clone());
        config.window = WindowPolicy::Epochs(4);
        let svc = HullService::new(config.clone()).unwrap();
        let rows = disk_rows(30, 77);
        let (a, b, c) = (&rows[..10], &rows[10..20], &rows[20..]);
        let units = vec![ops_unit(a, &[]), ops_unit(b, &[]), ops_unit(c, &a[..4])];
        svc.apply_replica_units(0, 0, units).unwrap();
        let st = svc.stats_for(0).unwrap();
        assert_eq!(svc.batch_units(0).unwrap(), 3);
        assert_eq!(st.bulk_builds.load(Ordering::Relaxed), 1);
        assert_eq!(st.live_points.load(Ordering::Relaxed), 26);
        assert_eq!(st.lazy_tombstones.load(Ordering::Relaxed), 4);
        assert_eq!(
            snap_canonical(&svc.snapshot(0).unwrap(), 2),
            offline_canonical(&rows[4..], 2)
        );
        let expired = assert_install_matches_restart(&svc, &config);
        assert_eq!(expired, 6, "the second unit after it expires unit 1's rows");
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shipping units `0..5` to a shard that already holds `0..2` lands
    /// only `2..5`: the overlap is dropped, not journaled twice.
    #[test]
    fn overlapping_replica_shipment_lands_once() {
        let svc = HullService::new(cfg(2, 1)).unwrap();
        let rows = disk_rows(50, 79);
        let units: Vec<ReplUnit> = vec![
            ops_unit(&rows[..10], &[]),
            ops_unit(&rows[10..20], &[]),
            ops_unit(&rows[20..30], &rows[..3]),
            ops_unit(&rows[30..40], &[]),
            ops_unit(&rows[40..], &rows[10..15]),
        ];
        assert_eq!(svc.apply_replica_units(0, 0, units[..2].to_vec()), Ok(2));
        assert_eq!(svc.batch_units(0).unwrap(), 2);
        let st = svc.stats_for(0).unwrap();
        let bulk_builds = st.bulk_builds.load(Ordering::Relaxed);
        assert_eq!(
            svc.apply_replica_units(0, 0, units),
            Ok(3),
            "only 2..5 land"
        );
        assert_eq!(
            st.bulk_builds.load(Ordering::Relaxed),
            bulk_builds,
            "a catch-up of ops units lands unit by unit, never as a rebuild"
        );
        assert_eq!(
            svc.batch_units(0).unwrap(),
            5,
            "units 0 and 1 journaled once"
        );
        let live: Vec<Vec<i64>> = rows[3..10].iter().chain(&rows[15..]).cloned().collect();
        assert_eq!(st.live_points.load(Ordering::Relaxed), live.len() as u64);
        assert_eq!(st.lazy_tombstones.load(Ordering::Relaxed), 8);
        assert_eq!(
            snap_canonical(&svc.snapshot(0).unwrap(), 2),
            offline_canonical(&live, 2)
        );
        // A stale single unit is a no-op too, and so is one past a gap.
        let epoch = svc.flush(0).unwrap();
        let stale = svc.apply_replica_units(0, 3, vec![ops_unit(&rows[30..40], &[])]);
        assert_eq!(stale, Ok(0));
        let gapped = svc.apply_replica_units(0, 6, vec![ops_unit(&rows[..5], &[])]);
        assert_eq!(gapped, Ok(0));
        assert_eq!(svc.batch_units(0).unwrap(), 5);
        assert_eq!(svc.flush(0).unwrap(), epoch);
        svc.shutdown();
    }

    /// One fetch ships the window: from 0, every unit in one reply; from
    /// below a checkpoint's base, the checkpoint first; caught up, no
    /// units. Each fetch's cursor is recorded as the subscriber's ack,
    /// clamped to the unit count and never moving back.
    #[test]
    fn repl_unit_fetch_ships_the_window_and_records_the_ack() {
        let svc = HullService::new(cfg(2, 1)).unwrap();
        let rows = disk_rows(40, 81);
        let units = vec![
            ops_unit(&rows[..10], &[]),
            ops_unit(&rows[10..20], &[]),
            ops_unit(&rows[20..30], &rows[..2]),
        ];
        svc.apply_replica_units(0, 0, units.clone()).unwrap();
        let acked = || svc.shards[0].acked.load(Ordering::SeqCst);
        assert_eq!(svc.repl_unit_fetch(0, 0), Ok((0, 3, units.clone())));
        assert_eq!(svc.repl_unit_fetch(0, 2), Ok((2, 3, units[2..].to_vec())));
        assert_eq!(acked(), 2);
        assert_eq!(svc.repl_unit_fetch(0, 0).unwrap().0, 0);
        assert_eq!(acked(), 2, "an older cursor does not move the ack back");

        // Compact to unit 4, then one more unit on top.
        let checkpoint = ReplUnit::Checkpoint {
            units_after: 4,
            survivors: rows[5..30].to_vec(),
        };
        svc.apply_replica_units(0, 3, vec![checkpoint.clone()])
            .unwrap();
        let tail = ops_unit(&rows[30..], &[]);
        svc.apply_replica_units(0, 4, vec![tail.clone()]).unwrap();
        assert_eq!(
            svc.repl_unit_fetch(0, 1),
            Ok((3, 5, vec![checkpoint, tail])),
            "a cursor below the base gets the checkpoint first"
        );

        assert_eq!(svc.repl_unit_fetch(0, 5), Ok((5, 5, vec![])));
        assert_eq!(acked(), 5, "a caught-up fetch is an ack");
        assert_eq!(svc.repl_unit_fetch(0, u64::MAX), Ok((5, 5, vec![])));
        assert_eq!(acked(), 5, "a cursor past the log is clamped");
        svc.shutdown();
    }
}
