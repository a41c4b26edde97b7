//! Replication: journal shipping from a primary to follower replicas.
//!
//! No consensus is needed: the follower applies the primary's
//! journaled **batch units** one at a time, in the primary's index
//! order, each as exactly one journal unit of its own, and every hull
//! build is canonically identical to Algorithm 2 on the same rows — so
//! the follower serves the primary's hull at every unit boundary. An
//! empty follower shard bootstraps the primary's whole journaled prefix
//! with one bulk build (still one journal unit per primary unit). A
//! unit fetched late or twice is harmless, because the follower skips
//! any index it already holds.
//!
//! The protocol is *pull-based*. The primary ships **typed units**
//! (`ReplUnitFetch`): either `Ops` (inserts + tombstones journaled
//! under one marker) or a `Checkpoint` (the survivor set of a
//! tombstone/journal-ratio rebuild, which *replaces* the follower's
//! shard state and moves its cursor past the compacted history). The
//! follower's puller thread asks for the unit at
//! `from_index = ` its own durable batch count, applies it through the
//! same supervised parallel path local ingest uses — exactly one
//! journal unit, so the follower's batch indices mirror the primary's
//! 1:1 — then acks. Because the resume cursor *is* the follower's own
//! batch count, resubscribe-with-resume after any fault (link loss,
//! dropped shipment, puller death mid-apply) is a plain reconnect:
//! nothing is lost, duplicates are harmless, and the lag the primary
//! reports is exact. Followers never run window expiry or rebuild
//! triggers themselves — the primary decides, and ships the decision
//! as a checkpoint unit.
//!
//! Failure model:
//!
//! * the puller runs under `catch_unwind`; an injected
//!   [`sites::REPL_APPLY`] panic (follower death mid-apply) or any
//!   connection error triggers a counted resubscribe with capped
//!   backoff, resuming from the follower's batch count;
//! * a primary that stays unreachable for
//!   [`FollowOptions::promote_after`] consecutive resubscribes causes
//!   **self-promotion**: the follower leaves read-only mode and serves
//!   writes with the hull it has — epochs stay monotone because the
//!   follower's epoch is its (mirrored) batch count;
//! * reads served while the follower trails its primary are wrapped in
//!   the wire `Stale { lag }` status by the dispatch layer (the
//!   epoch-staleness bound, surfaced in-band), via
//!   [`HullService::replica_lag`].

use crate::client::HullClient;
use crate::journal::{Journal, JournalOp};
use crate::metrics::service_metrics;
use crate::shard::HullService;
use crate::wire::ReplUnit;
use chull_concurrent::failpoint::{self, sites, FaultAction};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The inside of a [`ReplLog`]: a window of typed units starting at
/// absolute index `base`. Units below `base` were compacted away; the
/// oldest held unit is then always a `Checkpoint` a lagging subscriber
/// can reset from.
struct LogInner {
    base: u64,
    units: Vec<Arc<ReplUnit>>,
}

/// One shard's in-memory mirror of its journal batch units, shared
/// between the shard worker (producer) and the wire layer (consumer:
/// `ReplUnitFetch`). Invariant: `total() == journal
/// batch count` — the worker pushes each unit before publishing its
/// epoch, and the supervisor rebuilds the mirror from the journal
/// after a crash, so a subscriber that has seen epoch `e` can always
/// fetch every unit below `e` (or the checkpoint superseding them).
pub(crate) struct ReplLog {
    inner: RwLock<LogInner>,
    /// One past the highest unit a subscriber acked durably applied.
    acked: AtomicU64,
}

impl ReplLog {
    pub(crate) fn new() -> ReplLog {
        ReplLog {
            inner: RwLock::new(LogInner {
                base: 0,
                units: Vec::new(),
            }),
            acked: AtomicU64::new(0),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, LogInner> {
        match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, LogInner> {
        match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Rebuild the mirror from the journal — the same source of truth
    /// recovery replays — used at cold start and after a worker death.
    /// A checkpointed journal (`unit_base() > 0`) maps back to a
    /// leading `Checkpoint` unit: its first marked unit holds the
    /// survivor rows (or, when the checkpoint emptied the shard, a
    /// synthetic empty checkpoint precedes the live units).
    pub(crate) fn reset_from(&self, journal: &Journal) {
        fn split(ops: &[JournalOp]) -> ReplUnit {
            let mut inserts = Vec::new();
            let mut tombstones = Vec::new();
            for op in ops {
                match op {
                    JournalOp::Insert(p) => inserts.push(p.clone()),
                    JournalOp::Tombstone(p) => tombstones.push(p.clone()),
                }
            }
            ReplUnit::Ops {
                inserts,
                tombstones,
            }
        }
        let ub = journal.unit_base();
        let (base, units) = if ub == 0 {
            let units = journal.batches().map(|b| Arc::new(split(b))).collect();
            (0, units)
        } else if journal.checkpoint_rows() > 0 {
            // First marked unit = the checkpoint's survivor rows.
            let mut units: Vec<Arc<ReplUnit>> = Vec::new();
            for (i, b) in journal.batches().enumerate() {
                if i == 0 {
                    let survivors = b
                        .iter()
                        .filter_map(|op| match op {
                            JournalOp::Insert(p) => Some(p.clone()),
                            JournalOp::Tombstone(_) => None,
                        })
                        .collect();
                    units.push(Arc::new(ReplUnit::Checkpoint {
                        units_after: ub + 1,
                        survivors,
                    }));
                } else {
                    units.push(Arc::new(split(b)));
                }
            }
            (ub, units)
        } else {
            // Checkpoint emptied the shard: no survivor unit on disk.
            let mut units = vec![Arc::new(ReplUnit::Checkpoint {
                units_after: ub,
                survivors: Vec::new(),
            })];
            units.extend(journal.batches().map(|b| Arc::new(split(b))));
            (ub - 1, units)
        };
        let mut g = self.write();
        g.base = base;
        g.units = units;
    }

    /// Append one just-journaled ops unit.
    pub(crate) fn push_ops(&self, inserts: Vec<Vec<i64>>, tombstones: Vec<Vec<i64>>) {
        self.write().units.push(Arc::new(ReplUnit::Ops {
            inserts,
            tombstones,
        }));
    }

    /// Replace the whole mirror with one checkpoint unit: the primary
    /// rebuilt from `survivors` and its batch count is now
    /// `units_after`. Subscribers below the checkpoint reset from it.
    pub(crate) fn push_checkpoint(&self, units_after: u64, survivors: Vec<Vec<i64>>) {
        let mut g = self.write();
        g.base = units_after.saturating_sub(1);
        g.units = vec![Arc::new(ReplUnit::Checkpoint {
            units_after,
            survivors,
        })];
    }

    /// The unit a subscriber at absolute cursor `from` needs: `None`
    /// when caught up; the checkpoint at `base` when `from` points
    /// into compacted history; otherwise the unit at `from` itself.
    /// The returned index is the unit's absolute position (it may be
    /// *below* `from` for the checkpoint case).
    pub(crate) fn get_abs(&self, from: u64) -> Option<(u64, Arc<ReplUnit>)> {
        let g = self.read();
        let total = g.base + g.units.len() as u64;
        if from >= total {
            return None;
        }
        if from < g.base {
            // Compacted past the cursor: the oldest held unit is the
            // checkpoint the subscriber must reset from.
            return Some((g.base, Arc::clone(&g.units[0])));
        }
        let i = (from - g.base) as usize;
        Some((from, Arc::clone(&g.units[i])))
    }

    /// Batch units represented (== the shard's journal batch count).
    pub(crate) fn total(&self) -> u64 {
        let g = self.read();
        g.base + g.units.len() as u64
    }

    /// Record a subscriber ack; keeps the high-water mark. Returns
    /// `(acked, total)` for the gauge refresh.
    pub(crate) fn record_ack(&self, index: u64) -> (u64, u64) {
        let total = self.total();
        let index = index.min(total);
        let acked = self.acked.fetch_max(index, Ordering::SeqCst).max(index);
        (acked, total)
    }

    /// The ack high-water mark.
    pub(crate) fn acked(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }
}

/// Shared follower-side replication state: what the puller knows about
/// its primary, read by the dispatch layer (staleness bound for the
/// `Stale` wrapper) and by harnesses (fault-coverage assertions).
pub struct ReplicaState {
    /// Per-shard primary batch totals from the last reply seen.
    primary_total: Vec<AtomicU64>,
    applied: AtomicU64,
    resubscribes: AtomicU64,
    dropped: AtomicU64,
    promoted: AtomicBool,
    stop: AtomicBool,
}

impl ReplicaState {
    fn new(shards: usize) -> ReplicaState {
        ReplicaState {
            primary_total: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            applied: AtomicU64::new(0),
            resubscribes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            promoted: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        }
    }

    /// The primary's batch-unit total for `shard`, as last observed.
    pub fn primary_total(&self, shard: u16) -> u64 {
        self.primary_total
            .get(shard as usize)
            .map(|t| t.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    fn note_total(&self, shard: u16, total: u64) {
        if let Some(t) = self.primary_total.get(shard as usize) {
            t.store(total, Ordering::SeqCst);
        }
    }

    /// Batch units this follower has applied through its puller.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Resubscribe-with-resume attempts (link loss, fault, panic).
    pub fn resubscribes(&self) -> u64 {
        self.resubscribes.load(Ordering::SeqCst)
    }

    /// Fetched units dropped before apply by the `replica.apply`
    /// failpoint (each forces a duplicate re-fetch).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Whether this follower promoted itself (primary unreachable).
    pub fn promoted(&self) -> bool {
        self.promoted.load(Ordering::SeqCst)
    }
}

/// Configuration for [`follow`].
#[derive(Debug, Clone)]
pub struct FollowOptions {
    /// The primary's wire address (`host:port`).
    pub primary: String,
    /// Idle poll interval while caught up.
    pub poll: Duration,
    /// Connect deadline per subscription attempt.
    pub connect_deadline: Duration,
    /// Self-promote (leave read-only mode, stop pulling) after this
    /// many consecutive failed resubscribes; `0` never promotes.
    pub promote_after: u32,
}

impl Default for FollowOptions {
    fn default() -> FollowOptions {
        FollowOptions {
            primary: String::new(),
            poll: Duration::from_millis(2),
            connect_deadline: Duration::from_secs(2),
            promote_after: 40,
        }
    }
}

/// A running follower puller; [`ReplicaHandle::stop`] (or drop) joins
/// the thread. The service stays usable afterwards (still read-only
/// unless promoted).
pub struct ReplicaHandle {
    state: Arc<ReplicaState>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// The shared replication state (counters, primary totals).
    pub fn state(&self) -> Arc<ReplicaState> {
        Arc::clone(&self.state)
    }

    /// Signal the puller to exit and join it. Idempotent.
    pub fn stop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Turn `service` into a read-only follower of `opts.primary`: marks it
/// read-only, attaches shared [`ReplicaState`] (enabling the `Stale`
/// read wrapper), and starts the supervised puller thread.
pub fn follow(service: Arc<HullService>, opts: FollowOptions) -> ReplicaHandle {
    let state = Arc::new(ReplicaState::new(service.num_shards()));
    service.set_read_only(true);
    service.attach_replica_state(Arc::clone(&state));
    let st = Arc::clone(&state);
    let thread = std::thread::spawn(move || puller(&service, &st, &opts));
    ReplicaHandle {
        state,
        thread: Some(thread),
    }
}

/// The puller supervisor: run subscription sessions under
/// `catch_unwind`; on any error or injected panic, count a resubscribe,
/// back off (capped), and resume from the follower's own batch count.
fn puller(service: &HullService, state: &ReplicaState, opts: &FollowOptions) {
    let mut backoff = Duration::from_millis(5);
    let mut consecutive_failures = 0u32;
    loop {
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let run = catch_unwind(AssertUnwindSafe(|| session(service, state, opts)));
        match run {
            // Stop requested from inside the session loop.
            Ok(Ok(())) => return,
            Ok(Err(e)) => {
                // Did this session make progress before dying? Progress
                // resets the promotion clock.
                if matches!(e.kind(), io::ErrorKind::ConnectionRefused) {
                    consecutive_failures = consecutive_failures.saturating_add(1);
                } else {
                    consecutive_failures = 1;
                }
            }
            // Injected (or real) panic mid-apply: the shard supervisor
            // already replayed the journal; resume from batch count.
            Err(_) => consecutive_failures = 1,
        }
        state.resubscribes.fetch_add(1, Ordering::SeqCst);
        service_metrics().repl_resubscribes.incr();
        if opts.promote_after != 0 && consecutive_failures >= opts.promote_after {
            // The primary is gone. Promote: leave read-only mode and
            // serve writes from the converged hull. Epochs stay
            // monotone — the follower's epoch is its batch count.
            state.promoted.store(true, Ordering::SeqCst);
            service.set_read_only(false);
            service_metrics().repl_failovers.incr();
            return;
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(200));
    }
}

/// One subscription session: connect, then pull/apply/ack round-robin
/// across shards until an error (resubscribe) or stop. `Ok(())` only on
/// a requested stop.
fn session(service: &HullService, state: &ReplicaState, opts: &FollowOptions) -> io::Result<()> {
    let mut client = HullClient::builder(opts.primary.clone())
        .deadline(opts.connect_deadline)
        .connect()?;
    let shards = service.num_shards() as u16;
    for shard in 0..shards {
        bootstrap_bulk(service, state, &mut client, shard)?;
    }
    loop {
        if state.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut caught_up = true;
        for shard in 0..shards {
            if pull_unit(service, state, &mut client, shard)? {
                caught_up = false;
            }
        }
        if caught_up {
            std::thread::sleep(opts.poll);
        }
    }
}

/// Pull and apply one typed unit for `shard`. Returns whether the
/// shard made (or still needs) progress.
fn pull_unit(
    service: &HullService,
    state: &ReplicaState,
    client: &mut HullClient,
    shard: u16,
) -> io::Result<bool> {
    let dim = service.config().dim;
    let from = service.batch_units(shard).map_err(svc_err)?;
    let (index, total, unit_dim, unit) = client.repl_unit_fetch(shard, from)?;
    state.note_total(shard, total);
    let has_rows = match &unit {
        ReplUnit::Ops {
            inserts,
            tombstones,
        } => !inserts.is_empty() || !tombstones.is_empty(),
        ReplUnit::Checkpoint { survivors, .. } => !survivors.is_empty(),
    };
    if has_rows && unit_dim != dim {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("primary ships dimension {unit_dim}, follower is {dim}"),
        ));
    }
    let mut progressed = false;
    match unit {
        ReplUnit::Checkpoint {
            units_after,
            survivors,
        } => {
            // The primary compacted past our cursor: replace shard
            // state with the survivors and jump to `units_after`. A
            // checkpoint at or below our cursor is a duplicate — skip.
            if units_after > from {
                progressed = true;
                if failpoint::eval(sites::REPL_APPLY) == FaultAction::SpuriousFull {
                    state.dropped.fetch_add(1, Ordering::SeqCst);
                } else {
                    service
                        .apply_replica_checkpoint(shard, units_after, survivors)
                        .map_err(svc_err)?;
                    state.applied.fetch_add(1, Ordering::SeqCst);
                    let durable = service.batch_units(shard).map_err(svc_err)?;
                    let _ = client.repl_ack(shard, durable)?;
                }
            }
        }
        ReplUnit::Ops {
            inserts,
            tombstones,
        } => {
            // `index < from` is a duplicated/reordered shipment of a
            // unit this follower already holds: skip it (idempotent).
            if index == from && (!inserts.is_empty() || !tombstones.is_empty()) {
                progressed = true;
                // Failpoint `replica.apply`: follower death mid-apply
                // (panic → resubscribe-with-resume one frame up) or a
                // dropped fetched unit (forces a duplicate re-fetch).
                if failpoint::eval(sites::REPL_APPLY) == FaultAction::SpuriousFull {
                    state.dropped.fetch_add(1, Ordering::SeqCst);
                } else {
                    service
                        .apply_replica_ops(shard, inserts, tombstones)
                        .map_err(svc_err)?;
                    state.applied.fetch_add(1, Ordering::SeqCst);
                    let durable = service.batch_units(shard).map_err(svc_err)?;
                    let _ = client.repl_ack(shard, durable)?;
                }
            }
        }
    }
    if total > service.batch_units(shard).map_err(svc_err)? {
        progressed = true;
    }
    Ok(progressed)
}

/// Follower **bulk bootstrap**: when a shard is completely empty, scan
/// the primary's journaled prefix and — if it is pure insert history —
/// install it through one bulk build
/// ([`HullService::apply_replica_bulk`], DESIGN §S21) instead of
/// per-unit apply, while still journaling and marking every unit so the
/// follower's batch-index mirror stays 1:1. Any checkpoint or
/// tombstone-bearing unit in the prefix abandons the bootstrap (the
/// per-unit loop resets from the checkpoint instead — that path is
/// already one bulk build).
fn bootstrap_bulk(
    service: &HullService,
    state: &ReplicaState,
    client: &mut HullClient,
    shard: u16,
) -> io::Result<()> {
    if service.batch_units(shard).map_err(svc_err)? != 0 {
        return Ok(());
    }
    let dim = service.config().dim;
    let mut units: Vec<Vec<Vec<i64>>> = Vec::new();
    let mut points = 0usize;
    loop {
        let from = units.len() as u64;
        let (index, total, unit_dim, unit) = client.repl_unit_fetch(shard, from)?;
        state.note_total(shard, total);
        match unit {
            ReplUnit::Checkpoint { .. } => return Ok(()),
            ReplUnit::Ops {
                inserts,
                tombstones,
            } => {
                if index != from || (inserts.is_empty() && tombstones.is_empty()) {
                    break;
                }
                if !tombstones.is_empty() {
                    return Ok(());
                }
                if unit_dim != dim {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("primary ships dimension {unit_dim}, follower is {dim}"),
                    ));
                }
                points += inserts.len();
                units.push(inserts);
                if from + 1 >= total {
                    break;
                }
            }
        }
    }
    if units.is_empty() {
        return Ok(());
    }
    // Failpoint `replica.apply`, once for the whole prefix: a dropped
    // bootstrap leaves the shard empty for the per-unit loop to re-fetch.
    if failpoint::eval(sites::REPL_APPLY) == FaultAction::SpuriousFull {
        state.dropped.fetch_add(1, Ordering::SeqCst);
        return Ok(());
    }
    let applied = units.len() as u64;
    service.apply_replica_bulk(shard, units).map_err(svc_err)?;
    state.applied.fetch_add(applied, Ordering::SeqCst);
    let durable = service.batch_units(shard).map_err(svc_err)?;
    let _ = client.repl_ack(shard, durable)?;
    eprintln!(
        "replica: shard {shard} bootstrapped {points} points / {applied} units via bulk build"
    );
    Ok(())
}

fn svc_err(e: crate::shard::ServiceError) -> io::Error {
    io::Error::other(e.to_string())
}
