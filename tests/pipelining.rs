//! Pipelining: many tagged requests in flight on one
//! connection, replies correlated by id (possibly out of order), and
//! the served hull bit-identical to the same workload issued
//! sequentially.
//!
//! What is pinned down here (DESIGN §S19):
//!
//! * **correlation** — `HullClient::pipeline` sends N tagged frames
//!   back-to-back before reading anything; every reply carries the id
//!   of its request, and the restored pairing must answer exactly like
//!   the same requests issued one at a time against the same state
//!   (byte-identical reply encodings for read-only ops);
//! * **ordering freedom without hull divergence** — tagged insert-only
//!   `Mutate` frames may be applied in any order across the dispatcher
//!   pool, so the hull is compared as a canonical facet-coordinate set
//!   against a sequential twin server (order-independence of a set of
//!   inserts is Theorem 4.2 of the paper, the same property the chaos
//!   harness leans on);
//! * **depth beyond the in-flight cap** — a pipeline much deeper than
//!   the server's per-connection tagged concurrency limit (64) parks
//!   frames and still answers every one exactly once.

use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::geometry::{generators, PointSet};
use convex_hull_suite::service::wire::{Request, Response};
use convex_hull_suite::service::{
    serve, HullClient, Mutation, MutationBatch, ServeOptions, ServerHandle, ServiceConfig,
};
use std::collections::BTreeSet;

fn server() -> ServerHandle {
    serve(ServeOptions {
        config: ServiceConfig {
            dim: 2,
            shards: 2,
            queue_capacity: 1024,
            max_batch: 32,
            workers: 2,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

fn client(addr: std::net::SocketAddr) -> HullClient {
    HullClient::builder(addr.to_string()).connect().unwrap()
}

/// A hull as an order-free set of facets, each the sorted list of its
/// vertices' coordinates (vertex ids depend on insertion order, which
/// pipelining deliberately scrambles; coordinates cannot).
fn canonical_facets(snap: &convex_hull_suite::service::SnapshotReply) -> BTreeSet<Vec<Vec<i64>>> {
    snap.facets
        .iter()
        .map(|f| {
            let mut rows: Vec<Vec<i64>> =
                f.iter().map(|&v| snap.points[v as usize].clone()).collect();
            rows.sort();
            rows
        })
        .collect()
}

fn canonical_offline(pts: &PointSet) -> BTreeSet<Vec<Vec<i64>>> {
    let run = incremental_hull_run(pts);
    let dim = pts.dim();
    run.output
        .facets
        .iter()
        .map(|f| {
            let mut rows: Vec<Vec<i64>> = f[..dim]
                .iter()
                .map(|&v| pts.point(v as usize).to_vec())
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

#[test]
fn pipelined_inserts_and_queries_match_sequential_twin() {
    let n = 200;
    let pts = generators::ball_d(2, n, 1_000_000, 7);
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();

    // Pipelined server: interleaved one-insert Mutate frames across
    // both shards, 100 tagged requests per burst.
    let mut piped = server();
    let mut pc = client(piped.local_addr());
    for chunk in rows.chunks(100) {
        let reqs: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(i, p)| Request::Mutate {
                shard: (i % 2) as u16,
                muts: vec![Mutation::Insert(p.clone())],
            })
            .collect();
        for resp in pc.pipeline(&reqs).unwrap() {
            assert!(
                matches!(&resp, Response::Mutated { accepted, .. } if accepted == &[true]),
                "pipelined insert: {resp:?}"
            );
        }
    }
    for resp in pc
        .pipeline(&[Request::Flush { shard: 0 }, Request::Flush { shard: 1 }])
        .unwrap()
    {
        assert!(matches!(resp, Response::Flushed { .. }), "{resp:?}");
    }

    // Sequential twin: identical rows, identical shard split, one
    // request at a time.
    let mut seq = server();
    let mut sc = client(seq.local_addr());
    for chunk in rows.chunks(100) {
        for (i, p) in chunk.iter().enumerate() {
            sc.mutate((i % 2) as u16, MutationBatch::new().insert(p.clone()))
                .unwrap();
        }
    }
    sc.flush(0).unwrap();
    sc.flush(1).unwrap();

    // The hulls agree facet-for-facet with each other and the offline
    // Algorithm 2, per shard.
    for shard in 0..2u16 {
        let a = pc.snapshot(shard).unwrap();
        let b = sc.snapshot(shard).unwrap();
        assert_eq!(a.points.len(), b.points.len(), "shard {shard}");
        assert_eq!(
            canonical_facets(&a),
            canonical_facets(&b),
            "shard {shard}: pipelined hull != sequential hull"
        );
        let shard_rows: Vec<Vec<i64>> = rows
            .chunks(100)
            .flat_map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(i, _)| (i % 2) as u16 == shard)
                    .map(|(_, p)| p.clone())
            })
            .collect();
        let mut sub = PointSet::new(2);
        for r in &shard_rows {
            sub.push(r);
        }
        assert_eq!(
            canonical_facets(&a),
            canonical_offline(&sub),
            "shard {shard}: served hull != offline Algorithm 2"
        );
    }

    // Read-only queries on the frozen state: the pipelined replies must
    // be byte-identical to the same requests issued sequentially on the
    // same connection.
    let queries: Vec<Request> = (0..40)
        .flat_map(|i| {
            let p = pts.point(i * 3 % n).to_vec();
            vec![
                Request::Contains {
                    shard: (i % 2) as u16,
                    point: p.clone(),
                },
                Request::Visible {
                    shard: (i % 2) as u16,
                    point: p,
                },
            ]
        })
        .collect();
    let piped_replies = pc.pipeline(&queries).unwrap();
    for (req, piped_reply) in queries.iter().zip(&piped_replies) {
        let seq_reply = pc.raw(req).unwrap();
        assert_eq!(
            piped_reply.encode(),
            seq_reply.encode(),
            "reply divergence for {req:?}"
        );
    }

    piped.shutdown();
    seq.shutdown();
}

/// A pipeline several times deeper than the server's per-connection
/// tagged in-flight cap (64): the surplus parks, everything answers
/// exactly once, and correlation holds at depth.
#[test]
fn pipeline_deeper_than_inflight_cap_answers_every_request() {
    let mut srv = server();
    let mut c = client(srv.local_addr());
    for p in [[0, 0], [40, 0], [0, 40], [40, 40]] {
        c.mutate(0, MutationBatch::new().insert(p)).unwrap();
    }
    c.flush(0).unwrap();
    let depth = 512;
    let reqs: Vec<Request> = (0..depth)
        .map(|i| Request::Contains {
            shard: 0,
            point: vec![(i % 80) as i64 - 20, (i / 8) as i64 % 60],
        })
        .collect();
    let replies = c.pipeline(&reqs).unwrap();
    assert_eq!(replies.len(), depth);
    for (req, reply) in reqs.iter().zip(&replies) {
        let expect = c.raw(req).unwrap();
        assert_eq!(
            reply.encode(),
            expect.encode(),
            "depth-{depth} pipeline diverged on {req:?}"
        );
    }
    srv.shutdown();
}
