//! End-to-end serving correctness: several concurrent clients stream a
//! point set into one shard over loopback TCP, and the served hull must be
//! **bit-identical** (as a set of facet coordinate tuples) to the offline
//! sequential Algorithm 2 (`seq::incremental_hull_run`) on the same
//! multiset. Both paths run the same staged exact kernel, so agreement is
//! exact, not approximate — insertion order (client interleaving vs. the
//! offline random order) must not matter.

use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::geometry::generators;
use convex_hull_suite::geometry::PointSet;
use convex_hull_suite::service::{
    serve, HullClient, MutationBatch, ServeOptions, ServiceConfig, SnapshotReply,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 4;

fn opts(dim: usize, queue_capacity: usize, max_batch: usize) -> ServeOptions {
    ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 2,
            queue_capacity,
            max_batch,
            workers: 2,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A hull as an order-free set of facets, each facet the sorted list of its
/// vertices' coordinate rows. Vertex *ids* differ between the served and
/// offline runs (different insertion orders), coordinates cannot.
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

/// Stream `pts` into shard 0 from `CLIENTS` concurrent connections, then
/// compare the served snapshot against the offline hull.
fn roundtrip(pts: PointSet, queue_capacity: usize, max_batch: usize) -> u64 {
    let mut server = serve(opts(pts.dim(), queue_capacity, max_batch)).unwrap();
    let addr = server.local_addr();
    let n = pts.len();
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    let rejections = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let rows = &rows;
            let rejections = Arc::clone(&rejections);
            s.spawn(move || {
                let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
                for row in rows.iter().skip(c).step_by(CLIENTS) {
                    let r = client
                        .mutate(0, MutationBatch::new().insert(row.clone()))
                        .unwrap();
                    rejections.fetch_add(r.rejections, Ordering::Relaxed);
                }
            });
        }
    });
    let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
    client.flush(0).unwrap();
    let snap = client.snapshot(0).unwrap();
    assert_eq!(snap.points.len(), n, "every enqueued point must be applied");
    assert_eq!(
        canonical_served(&snap),
        canonical_offline(&pts),
        "served hull differs from offline Algorithm 2"
    );
    // The shard multiset must match too, order aside.
    let mut served_rows = snap.points.clone();
    let mut sent_rows = rows;
    served_rows.sort();
    sent_rows.sort();
    assert_eq!(served_rows, sent_rows);
    server.shutdown();
    rejections.load(Ordering::Relaxed)
}

#[test]
fn concurrent_clients_match_offline_2d() {
    roundtrip(generators::cube_d(2, 600, 1_000_000, 7), 256, 64);
}

#[test]
fn concurrent_clients_match_offline_3d() {
    roundtrip(generators::ball_d(3, 400, 1_000_000, 11), 256, 64);
}

#[test]
fn backpressure_preserves_exactly_once() {
    // A 2-slot queue with 1-item batches forces Overloaded replies under 4
    // hammering clients; `mutate` absorbs them, and the hull must still
    // match the offline run exactly (no loss, no duplication).
    let rejections = roundtrip(generators::cube_d(2, 240, 1_000_000, 13), 2, 1);
    // Not asserted > 0: rejection count depends on scheduling. The exact-
    // hull assertions above are the invariant; this just surfaces activity.
    eprintln!("backpressure test absorbed {rejections} Overloaded replies");
}
