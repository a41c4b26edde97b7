//! Replication: journal shipping from a primary to follower replicas.
//!
//! No consensus is needed. What a primary ships is its journal's own
//! units — the shared `Arc<ReplUnit>`s of its [`crate::journal::UnitLog`],
//! no second copy — and the follower journals each at the primary's
//! index, so its unit indices mirror the primary's 1:1. Its state is then
//! a function of the same units (Theorem 4.2: the hull depends on the
//! live set alone), and every hull build is canonically identical to
//! Algorithm 2 on the same rows — so the follower serves the primary's
//! hull at every unit boundary. A unit fetched late, twice, or inside an
//! overlapping shipment is harmless: the follower drops any index it
//! already holds.
//!
//! The protocol is *pull-based*. The primary ships **typed units**
//! (`ReplUnitFetch`): either `Ops` (inserts + tombstones journaled
//! under one marker) or a `Checkpoint` (the survivor set of a
//! tombstone/journal-ratio rebuild, which *replaces* the follower's
//! shard state and moves its cursor past the compacted history). The
//! follower's puller thread asks for the unit at `from_index = ` its own
//! durable batch count and lands it through
//! [`HullService::apply_replica_units`], the one replica entry: an `Ops`
//! unit extends the hull like local ingest, a checkpoint is journaled
//! and installed with one bulk build. The shard alone decides which
//! shipped unit is new and reports how many landed; the puller counts
//! and acks from that. An empty follower shard first **bootstraps**: it
//! fetches the primary's whole window — a leading checkpoint and
//! tombstone units included — and lands it as one shipment, journaled
//! unit for unit under one WAL flush and installed with one bulk build.
//! Because the resume cursor *is* the follower's own (published) batch
//! count, resubscribe-with-resume after any fault (link loss, dropped
//! shipment, puller death mid-apply) is a plain reconnect: nothing is
//! lost, duplicates are harmless, and the lag the primary reports is
//! exact.
//! Followers never run window expiry or rebuild triggers themselves —
//! the primary decides, and ships the decision as a checkpoint unit.
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
use crate::metrics::service_metrics;
use crate::shard::HullService;
use crate::wire::ReplUnit;
use chull_concurrent::failpoint::{self, sites, FaultAction};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    let from = service.batch_units(shard).map_err(svc_err)?;
    let (index, total, unit_dim, unit) = client.repl_unit_fetch(shard, from)?;
    state.note_total(shard, total);
    check_dim(service, unit_dim, &unit)?;
    // An empty `Ops` unit means caught up. Whether any other unit is
    // new is the shard's call (`apply_replica_units` drops what it
    // already holds).
    if matches!(unit, ReplUnit::Ops { .. }) && unit.is_empty() {
        return Ok(total > from);
    }
    // Failpoint `replica.apply`: follower death mid-apply (panic →
    // resubscribe-with-resume one frame up) or a dropped fetched unit
    // (forces a duplicate re-fetch).
    if failpoint::eval(sites::REPL_APPLY) == FaultAction::SpuriousFull {
        state.dropped.fetch_add(1, Ordering::SeqCst);
        return Ok(true);
    }
    let landed = service
        .apply_replica_units(shard, index, vec![unit])
        .map_err(svc_err)?;
    state.applied.fetch_add(landed, Ordering::SeqCst);
    let durable = service.batch_units(shard).map_err(svc_err)?;
    let _ = client.repl_ack(shard, durable)?;
    Ok(landed > 0 || total > durable)
}

/// Follower **bootstrap**: when a shard is completely empty, fetch the
/// primary's whole journaled window — a leading checkpoint, tombstone
/// units and all — and land it as one shipment, which the shard journals
/// unit for unit (the 1:1 index mirror, under one WAL flush) and installs
/// with one bulk build (DESIGN §S21) instead of per-unit apply. A checkpoint fetched midway
/// (the primary compacted meanwhile) supersedes what came before it.
fn bootstrap_bulk(
    service: &HullService,
    state: &ReplicaState,
    client: &mut HullClient,
    shard: u16,
) -> io::Result<()> {
    if service.batch_units(shard).map_err(svc_err)? != 0 {
        return Ok(());
    }
    let mut start = 0u64;
    let mut units: Vec<ReplUnit> = Vec::new();
    loop {
        let next = start + units.len() as u64;
        let (index, total, unit_dim, unit) = client.repl_unit_fetch(shard, next)?;
        state.note_total(shard, total);
        check_dim(service, unit_dim, &unit)?;
        match unit {
            ReplUnit::Checkpoint { .. } => {
                start = index;
                units = vec![unit];
            }
            ReplUnit::Ops { .. } if index == next && !unit.is_empty() => units.push(unit),
            ReplUnit::Ops { .. } => break,
        }
        if start + units.len() as u64 >= total {
            break;
        }
    }
    if units.is_empty() {
        return Ok(());
    }
    // Failpoint `replica.apply`, once for the whole window: a dropped
    // bootstrap leaves the shard empty for the per-unit loop to re-fetch.
    if failpoint::eval(sites::REPL_APPLY) == FaultAction::SpuriousFull {
        state.dropped.fetch_add(1, Ordering::SeqCst);
        return Ok(());
    }
    let points: usize = units.iter().map(|u| u.inserts().len()).sum();
    let applied = service
        .apply_replica_units(shard, start, units)
        .map_err(svc_err)?;
    state.applied.fetch_add(applied, Ordering::SeqCst);
    let durable = service.batch_units(shard).map_err(svc_err)?;
    let _ = client.repl_ack(shard, durable)?;
    eprintln!(
        "replica: shard {shard} bootstrapped {points} points / {applied} units via bulk build"
    );
    Ok(())
}

/// Refuse a unit with rows of another dimension than this follower's.
fn check_dim(service: &HullService, unit_dim: usize, unit: &ReplUnit) -> io::Result<()> {
    let dim = service.config().dim;
    if !unit.is_empty() && unit_dim != dim {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("primary ships dimension {unit_dim}, follower is {dim}"),
        ));
    }
    Ok(())
}

fn svc_err(e: crate::shard::ServiceError) -> io::Error {
    io::Error::other(e.to_string())
}
