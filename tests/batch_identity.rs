//! Batched-serve identity: points streamed through multi-point `Mutate`
//! frames, coalesced by the shard queue, and applied as **parallel**
//! batch inserts (Algorithm 3's `ProcessRidge` recursion on a worker
//! pool) must produce hulls **bit-identical** to the offline sequential
//! Algorithm 2 — for any worker count — and identical to one-point
//! frames applied on one worker. Also covered: chaos recovery replaying
//! journaled batch units with monotone epochs.
//!
//! The failpoint registry is process-global and an armed schedule would
//! leak worker panics into unrelated servers in this binary, so every
//! test takes one shared lock.

use convex_hull_suite::concurrent::failpoint::{self, sites, FaultPlan, SiteSpec};
use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::geometry::{generators, PointSet};
use convex_hull_suite::service::{
    serve, HullClient, Mutation, MutationBatch, ServeOptions, ServiceConfig, SnapshotReply,
};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn test_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    match GUARD.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn opts(dim: usize, workers: usize) -> ServeOptions {
    ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 1024,
            max_batch: 128,
            workers,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A hull as an order-free set of facets, each facet the sorted list of
/// its vertices' coordinate rows (vertex ids differ between runs with
/// different insertion orders; coordinates cannot).
fn canonical(facets: impl Iterator<Item = Vec<Vec<i64>>>) -> BTreeSet<Vec<Vec<i64>>> {
    facets
        .map(|mut f| {
            f.sort();
            f
        })
        .collect()
}

fn canonical_offline(pts: &PointSet) -> BTreeSet<Vec<Vec<i64>>> {
    let run = incremental_hull_run(pts);
    let dim = pts.dim();
    canonical(run.output.facets.iter().map(|f| {
        f[..dim]
            .iter()
            .map(|&v| pts.point(v as usize).to_vec())
            .collect()
    }))
}

fn canonical_served(snap: &SnapshotReply) -> BTreeSet<Vec<Vec<i64>>> {
    canonical(
        snap.facets
            .iter()
            .map(|f| f.iter().map(|&v| snap.points[v as usize].clone()).collect()),
    )
}

fn rows_of(pts: &PointSet) -> Vec<Vec<i64>> {
    (0..pts.len()).map(|i| pts.point(i).to_vec()).collect()
}

/// One insert-only `Mutate` envelope over `rows`.
fn inserts(rows: &[Vec<i64>]) -> MutationBatch {
    rows.iter()
        .map(|r| Mutation::Insert(r.clone()))
        .collect::<Vec<_>>()
        .into()
}

/// Stream `rows` into shard 0 as `chunk`-sized `Mutate` frames from
/// `clients` concurrent connections, then snapshot.
fn serve_batched(
    dim: usize,
    rows: &[Vec<i64>],
    workers: usize,
    chunk: usize,
    clients: usize,
) -> SnapshotReply {
    let mut server = serve(opts(dim, workers)).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
                let mine: Vec<Vec<i64>> = rows.iter().skip(c).step_by(clients).cloned().collect();
                let mut last_epoch = 0;
                for batch in mine.chunks(chunk) {
                    let reply = client.mutate(0, inserts(batch)).unwrap();
                    assert!(
                        reply.epoch >= last_epoch,
                        "epochs observed by one client must be monotone"
                    );
                    last_epoch = reply.epoch;
                }
            });
        }
    });
    let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
    client.flush(0).unwrap();
    let snap = client.snapshot(0).unwrap();
    server.shutdown();
    snap
}

/// The single-insert baseline: one point per `Mutate` frame, applied
/// on one worker.
fn serve_single_insert(dim: usize, rows: &[Vec<i64>]) -> SnapshotReply {
    let mut server = serve(opts(dim, 1)).unwrap();
    let addr = server.local_addr();
    let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
    for row in rows {
        client
            .mutate(0, MutationBatch::new().insert(row.clone()))
            .unwrap();
    }
    client.flush(0).unwrap();
    let snap = client.snapshot(0).unwrap();
    server.shutdown();
    snap
}

fn batched_matches_everything(dim: usize, pts: PointSet) {
    let rows = rows_of(&pts);
    let offline = canonical_offline(&pts);
    let single = canonical_served(&serve_single_insert(dim, &rows));
    assert_eq!(
        single, offline,
        "dim {dim}: single-insert serve differs from offline Algorithm 2"
    );
    for workers in [1, 2, 4] {
        let snap = serve_batched(dim, &rows, workers, 48, 2);
        assert_eq!(
            snap.points.len(),
            rows.len(),
            "dim {dim} workers {workers}: every batched point must be applied"
        );
        let served = canonical_served(&snap);
        assert_eq!(
            served, offline,
            "dim {dim} workers {workers}: batched serve differs from offline Algorithm 2"
        );
        assert_eq!(
            served, single,
            "dim {dim} workers {workers}: batched serve differs from single-insert serve"
        );
    }
}

#[test]
fn batched_serve_matches_offline_2d() {
    let _g = test_lock();
    batched_matches_everything(2, generators::cube_d(2, 600, 1_000_000, 7));
}

#[test]
fn batched_serve_matches_offline_3d() {
    let _g = test_lock();
    batched_matches_everything(3, generators::ball_d(3, 400, 1_000_000, 11));
}

/// Pull one numeric counter out of a stats JSON line.
fn grab(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("stats json missing {key}: {json}"))
        + pat.len();
    json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("stats counter is a number")
}

/// Chaos re-run with batched ingest: a seeded schedule kills the worker
/// mid-apply; the supervisor replays the journal **in batch units**
/// through the same parallel path. The recovered hull must be
/// bit-identical to offline Algorithm 2, and epochs stay monotone
/// through the kill (one epoch per journaled batch unit).
#[test]
fn chaos_kill_with_batched_ingest_recovers_bit_identical() {
    let _g = test_lock();
    let n = 360;
    let pts = generators::cube_d(3, n, 1_000_000, 0xC4);
    let rows = rows_of(&pts);
    let mut server = serve(opts(3, 4)).unwrap();
    let addr = server.local_addr();
    failpoint::arm(FaultPlan::new(0xBA7C_5EED).site(
        sites::SHARD_APPLY,
        SiteSpec {
            panic_every: 97,
            max_fires: 2,
            ..SiteSpec::default()
        },
    ));
    let mut epochs = Vec::new();
    {
        let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
        for batch in rows.chunks(24) {
            let mut attempts = 0;
            loop {
                match client.mutate(0, inserts(batch)) {
                    Ok(reply) => {
                        epochs.push(reply.epoch);
                        break;
                    }
                    Err(e) => {
                        attempts += 1;
                        assert!(attempts < 100, "batch insert kept failing under chaos: {e}");
                        client = HullClient::builder(addr.to_string()).connect().unwrap();
                    }
                }
            }
        }
        // Drain through the armed failpoints so the kills (and their
        // batch-unit replays) deterministically happen before disarm.
        epochs.push(client.flush(0).unwrap());
    }
    failpoint::disarm();
    let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
    let snap = client.snapshot(0).unwrap();
    assert_eq!(
        snap.points.len(),
        n,
        "every acked batch point must survive the worker kills"
    );
    assert_eq!(
        canonical_served(&snap),
        canonical_offline(&pts),
        "batch-replayed hull differs from offline Algorithm 2"
    );
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "epochs must be monotone through recovery: {epochs:?}"
    );
    let stats = client.stats(Some(0)).unwrap();
    assert!(
        grab(&stats, "recoveries") >= 1,
        "schedule never killed the worker: {stats}"
    );
    assert_eq!(grab(&stats, "batched_inserts"), n as u64, "{stats}");
    // The fairness-bounded drain loop surfaces its continuation rounds.
    let _ = grab(&stats, "queue_drain_rounds");
    server.shutdown();
}
