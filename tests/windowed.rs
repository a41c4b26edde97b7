//! Sliding-window & deletion hulls end to end (DESIGN §S22): a served
//! shard under a retention window — or explicit `Delete`s — must answer
//! with a hull **canonically identical** to the offline sequential
//! Algorithm 2 run on exactly the surviving points, for any worker
//! count. Theorem 4.2 makes this checkable: the hull of a point set is
//! independent of insertion order, so "rebuild from survivors" has one
//! right answer no matter how batches interleaved or how many rebuilds
//! the tombstone ratio triggered along the way.
//!
//! What is pinned down here:
//!
//! * **count windows** — seven workload shapes x {1,2,4} workers x two
//!   window sizes: the served hull equals offline Algorithm 2 on the
//!   newest `window` rows, and the live-point gauge agrees;
//! * **epoch windows** — rows older than N publication epochs retire;
//! * **explicit deletes** — a model [`LiveSet`] predicts the survivor
//!   multiset (deletes kill the oldest live copy; misses are counted,
//!   not errors) and the served hull matches offline on it;
//! * **mid-rebuild crash** — a failpoint panic inside the survivor
//!   rebuild, recovered in-process by the supervisor AND across a full
//!   process restart from the WAL: both converge to the survivor hull
//!   (the checkpoint either committed or is replayed from the old ops).
//!
//! The failpoint registry is process-global, so every test here takes a
//! shared mutex (armed or not — a concurrent armed test would leak
//! panics into an unarmed server).

use convex_hull_suite::concurrent::failpoint::{self, sites, FaultPlan, SiteSpec};
use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::core::LiveSet;
use convex_hull_suite::geometry::{generators, PointSet};
use convex_hull_suite::service::{
    serve, HullClient, Mutation, MutationBatch, ServeOptions, ServiceConfig, SnapshotReply,
    WindowPolicy,
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

fn opts(dim: usize, workers: usize, window: WindowPolicy) -> ServeOptions {
    ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 1024,
            max_batch: 64,
            workers,
            wal_dir: None,
            window,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A hull as an order-free set of facets, each facet the sorted list of
/// its vertices' coordinate rows (vertex ids depend on rebuild history;
/// coordinates cannot).
fn canonical(facets: impl Iterator<Item = Vec<Vec<i64>>>) -> BTreeSet<Vec<Vec<i64>>> {
    facets
        .map(|mut f| {
            f.sort();
            f
        })
        .collect()
}

fn canonical_offline(rows: &[Vec<i64>], dim: usize) -> BTreeSet<Vec<Vec<i64>>> {
    let pts = PointSet::from_rows(dim, rows);
    let run = incremental_hull_run(&pts);
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

/// Stream `rows` into shard 0 as 16-mutation envelopes from one
/// connection (order preserved, so the survivor set is deterministic),
/// flush, snapshot, and return the stats line too.
fn serve_windowed(
    dim: usize,
    rows: &[Vec<i64>],
    workers: usize,
    window: WindowPolicy,
) -> (SnapshotReply, String) {
    let mut server = serve(opts(dim, workers, window)).unwrap();
    let mut client = HullClient::builder(server.local_addr().to_string())
        .connect()
        .unwrap();
    for chunk in rows.chunks(16) {
        let muts: Vec<Mutation> = chunk.iter().map(|p| Mutation::Insert(p.clone())).collect();
        client.mutate(0, muts.into()).unwrap();
    }
    client.flush(0).unwrap();
    let snap = client.snapshot(0).unwrap();
    let stats = client.stats(Some(0)).unwrap();
    server.shutdown();
    (snap, stats)
}

/// The tentpole property, across shape diversity: seven workloads
/// (grids, cubes, balls, spheres, gaussians; 2D and 3D), each served
/// with 1, 2, and 4 workers under two count windows. The hull must be
/// the offline Algorithm 2 hull of exactly the newest `window` rows.
#[test]
fn count_window_matches_offline_on_survivors_across_workloads() {
    let _g = test_lock();
    let n = 240;
    let workloads: Vec<(usize, PointSet)> = vec![
        (2, generators::cube_d(2, n, 1_000_000, 7)),
        (2, generators::ball_d(2, n, 1_000_000, 11)),
        (2, generators::near_sphere_d(2, n, 1_000_000, 13)),
        (2, generators::gaussian_d(2, n, 50_000.0, 17)),
        (3, generators::cube_d(3, n, 1_000_000, 19)),
        (3, generators::ball_d(3, n, 1_000_000, 23)),
        (3, generators::near_sphere_d(3, n, 1_000_000, 29)),
    ];
    for (w, (dim, pts)) in workloads.iter().enumerate() {
        let rows = rows_of(pts);
        for workers in [1usize, 2, 4] {
            for window in [24usize, 96] {
                let (snap, stats) =
                    serve_windowed(*dim, &rows, workers, WindowPolicy::Count(window));
                let survivors = &rows[rows.len() - window..];
                assert_eq!(
                    grab(&stats, "live_points"),
                    window as u64,
                    "workload {w} dim {dim} workers {workers} window {window}: {stats}"
                );
                assert_eq!(
                    grab(&stats, "window_expirations"),
                    (rows.len() - window) as u64,
                    "workload {w}: every out-of-window row must be expired: {stats}"
                );
                assert_eq!(
                    canonical_served(&snap),
                    canonical_offline(survivors, *dim),
                    "workload {w} dim {dim} workers {workers} window {window}: \
                     served hull differs from offline Algorithm 2 on the survivors"
                );
            }
        }
    }
}

/// Epoch windows: rows older than N publication epochs retire. One
/// envelope per flush makes epochs deterministic enough to pin the
/// boundary: after the final flush, only rows younger than N epochs
/// survive, and the hull matches offline on them.
#[test]
fn epoch_window_retires_old_rows() {
    let _g = test_lock();
    let mut server = serve(opts(2, 2, WindowPolicy::Epochs(3))).unwrap();
    let mut client = HullClient::builder(server.local_addr().to_string())
        .connect()
        .unwrap();
    // Five generations, one flushed publication each: a big square that
    // must eventually fall out of the window, then four copies of a
    // small one. Queue coalescing may split a generation into several
    // epochs, which only ages the early generations FASTER — the final
    // generation is always age 0 at its own publication, so it can
    // never expire, and the assertions below lean only on it.
    let big = vec![vec![0, 0], vec![100, 0], vec![0, 100], vec![100, 100]];
    let small = vec![vec![40, 40], vec![60, 40], vec![40, 60], vec![60, 60]];
    for rows in [&big, &small, &small, &small, &small] {
        let muts: Vec<Mutation> = rows.iter().map(|p| Mutation::Insert(p.clone())).collect();
        client.mutate(0, muts.into()).unwrap();
        client.flush(0).unwrap();
    }
    // The square entered at epoch 1; by the last flush (epoch >= 5) it
    // is at least 4 epochs old and must be gone.
    let stats = client.stats(Some(0)).unwrap();
    assert!(
        grab(&stats, "window_expirations") >= 4,
        "the first generation must have expired: {stats}"
    );
    assert_eq!(
        client.contains(0, &[99, 99]).unwrap(),
        Some(false),
        "expired corner still inside the served hull"
    );
    assert_eq!(
        client.contains(0, &[50, 50]).unwrap(),
        Some(true),
        "the newest generation must still serve its hull"
    );
    server.shutdown();
}

/// Explicit deletes against a model [`LiveSet`]: interleave inserts and
/// deletes (some hitting hull vertices, some interior, some misses) in
/// one mutation stream; the served hull must match offline Algorithm 2
/// on the model's survivors, and the miss counter must agree.
#[test]
fn explicit_deletes_match_model_liveset() {
    let _g = test_lock();
    for (dim, pts) in [
        (2usize, generators::cube_d(2, 300, 1_000_000, 31)),
        (3usize, generators::ball_d(3, 300, 1_000_000, 37)),
    ] {
        let rows = rows_of(&pts);
        for workers in [1usize, 4] {
            let mut server = serve(opts(dim, workers, WindowPolicy::None)).unwrap();
            let mut client = HullClient::builder(server.local_addr().to_string())
                .connect()
                .unwrap();
            let mut model = LiveSet::new();
            let mut misses = 0u64;
            let mut batch = MutationBatch::new();
            for (i, row) in rows.iter().enumerate() {
                model.insert(row.clone(), 0);
                batch = batch.insert(row.clone());
                // Delete every third row shortly after it arrived, and
                // every tenth twice (the second is a guaranteed miss
                // unless the coordinate repeated).
                if i % 3 == 0 {
                    for _ in 0..if i % 30 == 0 { 2 } else { 1 } {
                        if model.count(row) == 0 {
                            misses += 1;
                        } else {
                            model.remove(row);
                        }
                        batch = batch.delete(row.clone());
                    }
                }
                if batch.len() >= 24 {
                    client.mutate(0, std::mem::take(&mut batch)).unwrap();
                }
            }
            if !batch.is_empty() {
                client.mutate(0, batch).unwrap();
            }
            client.flush(0).unwrap();
            let survivors = model.survivors();
            let stats = client.stats(Some(0)).unwrap();
            assert_eq!(
                grab(&stats, "live_points"),
                survivors.len() as u64,
                "dim {dim} workers {workers}: {stats}"
            );
            assert_eq!(
                grab(&stats, "delete_misses"),
                misses,
                "dim {dim} workers {workers}: miss accounting diverged: {stats}"
            );
            let snap = client.snapshot(0).unwrap();
            assert_eq!(
                canonical_served(&snap),
                canonical_offline(&survivors, dim),
                "dim {dim} workers {workers}: served hull differs from \
                 offline Algorithm 2 on the model's survivors"
            );
            server.shutdown();
        }
    }
}

/// `Expire(n)` — the explicit window advance — tombstones exactly the n
/// oldest live rows, end to end through the wire envelope.
#[test]
fn explicit_expire_retires_oldest() {
    let _g = test_lock();
    let mut server = serve(opts(2, 2, WindowPolicy::None)).unwrap();
    let mut client = HullClient::builder(server.local_addr().to_string())
        .connect()
        .unwrap();
    // Big square first, then a smaller one; expiring 4 kills the big.
    let batch = MutationBatch::new()
        .insert([0, 0])
        .insert([80, 0])
        .insert([0, 80])
        .insert([80, 80])
        .insert([20, 20])
        .insert([60, 20])
        .insert([20, 60])
        .insert([60, 60])
        .expire(4);
    client.mutate(0, batch).unwrap();
    client.flush(0).unwrap();
    assert_eq!(client.contains(0, &[70, 70]).unwrap(), Some(false));
    assert_eq!(client.contains(0, &[40, 40]).unwrap(), Some(true));
    let stats = client.stats(Some(0)).unwrap();
    assert_eq!(grab(&stats, "live_points"), 4, "{stats}");
    assert_eq!(grab(&stats, "tombstones"), 4, "{stats}");
    server.shutdown();
}

/// Mid-rebuild crash, both recovery surfaces. A failpoint panic lands
/// inside the survivor rebuild; the supervisor replays the journal
/// in-process and must converge to the survivor hull. Then the whole
/// process "restarts": a second server over the same WAL directory
/// replays inserts AND tombstones (whether or not the crashed rebuild
/// got its checkpoint out) and must serve the same survivor hull.
#[test]
fn mid_rebuild_crash_recovers_survivor_hull_in_process_and_from_wal() {
    let _g = test_lock();
    let dir = std::env::temp_dir().join(format!(
        "chull-windowed-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let square = vec![vec![0, 0], vec![10, 0], vec![0, 10], vec![10, 10]];
    let mut recovered = false;
    for round in 0..20u64 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = opts(2, 2, WindowPolicy::None);
        config.config.wal_dir = Some(dir.clone());
        // Only the hull-invalidating delete below may trigger the
        // rebuild, so the armed panic deterministically lands in it.
        config.config.rebuild_ratio = 1e9;
        config.config.journal_ratio = 0.0;
        let mut server = serve(config).unwrap();
        let addr = server.local_addr();
        let mut client = HullClient::builder(addr.to_string()).connect().unwrap();
        let mut batch = MutationBatch::new();
        for p in &square {
            batch = batch.insert(p.clone());
        }
        client.mutate(0, batch.insert([40, 5])).unwrap();
        client.flush(0).unwrap();
        failpoint::arm(FaultPlan::new(0x51DE_0000 + round).site(
            sites::SHARD_REBUILD,
            SiteSpec {
                panic_every: 1,
                max_fires: 1,
                ..SiteSpec::default()
            },
        ));
        // Deleting the hull vertex forces the rebuild; the armed
        // failpoint kills the worker inside it.
        client
            .mutate(0, MutationBatch::new().delete([40, 5]))
            .unwrap();
        client.flush(0).unwrap();
        failpoint::disarm();
        let stats = client.stats(Some(0)).unwrap();
        let hit = grab(&stats, "recoveries") >= 1;
        // Crashed or not, the in-process hull converges to the square.
        let snap = client.snapshot(0).unwrap();
        assert_eq!(
            canonical_served(&snap),
            canonical_offline(&square, 2),
            "round {round}: recovered hull differs from the survivors"
        );
        assert_eq!(client.contains(0, &[20, 5]).unwrap(), Some(false));
        server.shutdown();

        // Full restart over the same WAL: replay must resolve the
        // tombstone (checkpointed or not) and serve the survivor hull.
        let mut config = opts(2, 2, WindowPolicy::None);
        config.config.wal_dir = Some(dir.clone());
        let mut restarted = serve(config).unwrap();
        let mut client = HullClient::builder(restarted.local_addr().to_string())
            .connect()
            .unwrap();
        let snap = client.snapshot(0).unwrap();
        assert_eq!(
            canonical_served(&snap),
            canonical_offline(&square, 2),
            "round {round}: WAL-restarted hull differs from the survivors"
        );
        assert_eq!(client.contains(0, &[20, 5]).unwrap(), Some(false));
        restarted.shutdown();
        if hit {
            recovered = true;
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(recovered, "no injected panic landed in the rebuild");
}

/// The bulk-built variant of
/// [`mid_rebuild_crash_recovers_survivor_hull_in_process_and_from_wal`]:
/// the hull is served from a WAL restart (one bulk build), so deleting
/// its spike vertex takes the closed-star repair — in-memory, with no
/// checkpoint — and the armed panic lands inside that repair. Round 0
/// runs unarmed and pins that the correction is a repair. Both the
/// in-process recovery and a full restart over the same WAL (which now
/// replays the tombstone unit, never checkpointed) must serve the
/// survivor hull and live count.
#[test]
fn mid_repair_crash_recovers_bulk_built_survivor_hull_in_process_and_from_wal() {
    let _g = test_lock();
    let dir = std::env::temp_dir().join(format!(
        "chull-windowed-repair-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let r = 1 << 20;
    let disk = rows_of(&generators::ball_d(2, 300, r, 71));
    let spike = vec![4 * r, 7];
    let config = || {
        let mut o = opts(2, 2, WindowPolicy::None);
        o.config.wal_dir = Some(dir.clone());
        o.config.rebuild_ratio = 1e9;
        o.config.journal_ratio = 0.0;
        o
    };
    let connect =
        |addr: std::net::SocketAddr| HullClient::builder(addr.to_string()).connect().unwrap();
    let mut recovered = false;
    for round in 0..21u64 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut writer = serve(config()).unwrap();
        let mut client = connect(writer.local_addr());
        for chunk in disk.chunks(16) {
            let muts: Vec<Mutation> = chunk.iter().map(|p| Mutation::Insert(p.clone())).collect();
            client.mutate(0, muts.into()).unwrap();
        }
        client
            .mutate(0, MutationBatch::new().insert(spike.clone()))
            .unwrap();
        client.flush(0).unwrap();
        writer.shutdown();

        // Restart: the hull is now one bulk build over the WAL.
        let mut server = serve(config()).unwrap();
        let mut client = connect(server.local_addr());
        let armed = round > 0;
        if armed {
            failpoint::arm(FaultPlan::new(0x51DF_0000 + round).site(
                sites::SHARD_REBUILD,
                SiteSpec {
                    panic_every: 1,
                    max_fires: 1,
                    ..SiteSpec::default()
                },
            ));
        }
        client
            .mutate(0, MutationBatch::new().delete(spike.clone()))
            .unwrap();
        client.flush(0).unwrap();
        failpoint::disarm();
        let stats = client.stats(Some(0)).unwrap();
        let hit = grab(&stats, "recoveries") >= 1;
        if !armed {
            assert_eq!(
                grab(&stats, "repairs"),
                1,
                "the spike death repairs: {stats}"
            );
        }
        assert_eq!(grab(&stats, "rebuilds"), 0, "nothing checkpoints: {stats}");
        assert_eq!(grab(&stats, "live_points"), disk.len() as u64, "{stats}");
        assert_eq!(
            canonical_served(&client.snapshot(0).unwrap()),
            canonical_offline(&disk, 2),
            "round {round}: recovered hull differs from the survivors"
        );
        assert_eq!(client.contains(0, &[2 * r, 4]).unwrap(), Some(false));
        server.shutdown();

        let mut restarted = serve(config()).unwrap();
        let mut client = connect(restarted.local_addr());
        let stats = client.stats(Some(0)).unwrap();
        assert_eq!(grab(&stats, "live_points"), disk.len() as u64, "{stats}");
        assert_eq!(
            canonical_served(&client.snapshot(0).unwrap()),
            canonical_offline(&disk, 2),
            "round {round}: WAL-restarted hull differs from the survivors"
        );
        restarted.shutdown();
        if hit {
            recovered = true;
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(recovered, "no injected panic landed in the repair");
}
