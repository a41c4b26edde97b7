//! Pieces the two serving workloads share: server start-up, the query
//! mix at each level (loopback client, in-process service snapshot,
//! in-process online hull), and the loopback client's `Stats` reply.

use crate::util::{ByKind, KINDS};
use chull_core::online::OnlineHull;
use chull_geometry::{KernelCounts, PlaneBlock};
use chull_service::{
    serve, HullClient, HullService, HullSnapshot, Mutation, ServeOptions, ServerHandle,
    ServiceConfig, ServiceError, WindowPolicy,
};
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// What one level (loopback client, in-process service or core) of a
/// serving workload recorded. Samples are `(trial, µs)` pairs.
pub struct Level {
    /// Seconds the ingest (or the writer, on churn) ran.
    pub ingest_s: f64,
    /// Seconds the query phase ran (0 where queries run beside ingest).
    pub query_s: f64,
    pub mutate_us: Vec<(usize, f64)>,
    /// From a `Mutate` sent until the `Flush` after it returns.
    pub visible_us: Vec<(usize, f64)>,
    /// Query samples by kind ([`KINDS`]).
    pub query_us: ByKind,
    /// `Overloaded` refusals absorbed by backoff.
    pub refused: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Every query answered as expected.
    pub answers_ok: bool,
    pub kernel: KernelCounts,
}

impl Default for Level {
    fn default() -> Level {
        Level {
            ingest_s: 0.0,
            query_s: 0.0,
            mutate_us: Vec::new(),
            visible_us: Vec::new(),
            query_us: ByKind::default(),
            refused: 0,
            attempted: 0,
            failed: 0,
            answers_ok: true,
            kernel: KernelCounts::default(),
        }
    }
}

impl Level {
    /// Record query `i`'s latency, started in `trial`.
    pub fn query(&mut self, i: usize, trial: usize, us: f64) {
        self.query_us[i % KINDS].push((trial, us));
    }

    /// Every query sample, of all kinds.
    pub fn queries(&self) -> Vec<(usize, f64)> {
        self.query_us.concat()
    }

    /// Merge another thread's samples and counts (not its times).
    pub fn absorb(&mut self, o: Level) {
        self.mutate_us.extend(o.mutate_us);
        self.visible_us.extend(o.visible_us);
        for (mine, theirs) in self.query_us.iter_mut().zip(o.query_us) {
            mine.extend(theirs);
        }
        self.refused += o.refused;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.answers_ok &= o.answers_ok;
        self.kernel.merge(&o.kernel);
    }
}

/// Dispatcher threads the event-loop server starts when asked for its
/// default (`ServeOptions::dispatchers == 0`).
pub fn default_dispatchers() -> usize {
    chull_concurrent::pool::default_threads().clamp(2, 4)
}

/// One shard, default sizing, the given WAL directory and window.
pub fn config(dim: usize, wal: PathBuf, window: WindowPolicy) -> ServiceConfig {
    ServiceConfig {
        dim,
        shards: 1,
        wal_dir: Some(wal),
        window,
        ..Default::default()
    }
}

/// Start a loopback server with default options around `cfg`.
pub fn start(cfg: ServiceConfig) -> ServerHandle {
    serve(ServeOptions {
        config: cfg,
        ..Default::default()
    })
    .expect("bind a loopback server")
}

/// Open a client connection to `server`.
pub fn connect(server: &ServerHandle) -> HullClient {
    HullClient::builder(server.local_addr().to_string())
        .connect()
        .expect("connect to the loopback server")
}

/// A point just outside a hull that has `p` as a vertex near the
/// boundary of a centred ball: `p` pushed out by 1/256 of its length.
pub fn just_outside(p: &[i64]) -> Vec<i64> {
    p.iter().map(|&x| x + x / 256 + x.signum()).collect()
}

/// The `i`-th extreme-query direction: an axis, alternating sign.
pub fn direction(i: usize, dim: usize) -> Vec<i64> {
    let mut d = vec![0i64; dim];
    d[(i / 4) % dim] = if (i / 8) % 2 == 0 { 1 } else { -1 };
    d
}

// The query mix, 25% of each of the `KINDS` kinds: contains of a point
// known to be inside or on the hull (must answer true), contains of a
// point outside, visible from that outside point, extreme in an axis
// direction. Each function returns whether the answer was the expected
// one.

/// Query `i` of the mix over the wire.
pub fn client_query(c: &mut HullClient, i: usize, inside: &[i64], outside: &[i64]) -> io::Result<bool> {
    Ok(match i % 4 {
        0 => c.contains(0, inside)? == Some(true),
        1 => c.contains(0, outside)?.is_some(),
        2 => c.visible(0, outside)?.is_some(),
        _ => c.extreme(0, &direction(i, inside.len()))?.is_some(),
    })
}

/// Query `i` of the mix against an in-process service's published
/// snapshot, as the server's dispatcher runs it.
pub fn service_query(
    svc: &HullService,
    i: usize,
    inside: &[i64],
    outside: &[i64],
    k: &mut KernelCounts,
) -> bool {
    let snap: std::sync::Arc<HullSnapshot> = svc.snapshot(0).expect("shard 0 exists");
    match i % 4 {
        0 => snap.contains(inside, k) == Some(true),
        1 => snap.contains(outside, k).is_some(),
        2 => snap.visible_count(outside, k).is_some(),
        _ => snap.extreme(&direction(i, inside.len())).is_some(),
    }
}

/// A live online hull with the read accelerators a snapshot carries.
pub struct CoreView<'a> {
    /// The hull.
    pub hull: &'a OnlineHull,
    /// Its packed-plane filter block.
    pub block: PlaneBlock,
    /// Its vertex ids, ascending.
    pub verts: Vec<u32>,
}

impl<'a> CoreView<'a> {
    /// Build the accelerators for `hull`.
    pub fn new(hull: &'a OnlineHull) -> CoreView<'a> {
        CoreView {
            hull,
            block: hull.plane_block(),
            verts: hull.hull_vertices(),
        }
    }

    /// Query `i` of the mix against the online hull directly.
    pub fn query(&self, i: usize, inside: &[i64], outside: &[i64], k: &mut KernelCounts) -> bool {
        let (h, block) = (self.hull, Some(&self.block));
        match i % 4 {
            0 => h.contains_with(inside, k, block),
            1 => {
                h.contains_with(outside, k, block);
                true
            }
            2 => {
                h.visible_facets_with(outside, k, block);
                true
            }
            _ => {
                h.extreme_with(&direction(i, inside.len()), &self.verts);
                true
            }
        }
    }
}

/// Enqueue `muts` on shard 0 of an in-process service, resending the
/// items the full queue refused after a doubling pause (the client's
/// backoff shape, without its jitter). Returns the refusals absorbed.
pub fn service_mutate(svc: &HullService, muts: Vec<Mutation>) -> Result<u64, ServiceError> {
    let mut pending = muts;
    let mut refused = 0u64;
    let mut delay = Duration::from_micros(100);
    loop {
        let (accepted, _) = svc.try_mutate(0, pending.clone())?;
        let retry: Vec<Mutation> = pending
            .into_iter()
            .zip(accepted)
            .filter(|(_, ok)| !ok)
            .map(|(m, _)| m)
            .collect();
        if retry.is_empty() {
            return Ok(refused);
        }
        refused += retry.len() as u64;
        std::thread::sleep(delay);
        delay = (delay * 2).min(Duration::from_millis(50));
        pending = retry;
    }
}

/// Size in bytes of shard 0's WAL under `dir`.
pub fn wal_bytes(dir: &std::path::Path) -> f64 {
    std::fs::metadata(chull_service::wal_path(dir, 0))
        .map(|m| m.len() as f64)
        .unwrap_or(0.0)
}
