//! Replicated serving end-to-end: journal shipping to follower
//! replicas, staleness-bounded reads, client fallback failover, the
//! `hull route` front end, follower self-promotion, and a kill-a-node
//! chaos run against real `hull serve` processes.
//!
//! The invariant under test everywhere (DESIGN §S20): because a
//! follower applies the primary's journal units in index order and
//! skips any index it already holds, it may fetch units late, twice, or
//! not at all for a while — dropped shipments, dropped applies, link
//! loss, puller death — and still converge **bit-identical** (as a set
//! of facet coordinate tuples) to the offline sequential Algorithm 2 on
//! the primary's point multiset. Staleness meanwhile is bounded
//! in-band: reads served while the follower trails are wrapped in the
//! wire `Stale { lag }` status.
//!
//! The failpoint registry is process-global, so every test here takes a
//! shared mutex before touching a server (armed or not — a concurrent
//! armed test would leak faults into an unarmed one).

mod common;

use common::spawn_hull_serve;
use convex_hull_suite::concurrent::failpoint::{self, sites, FaultPlan, SiteSpec};
use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::geometry::{generators, PointSet};
use convex_hull_suite::service::{
    route, serve, FollowOptions, HullClient, MutationBatch, ReplUnit, RouterOptions, ServeOptions,
    ServiceConfig, SnapshotReply,
};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serialize tests: the failpoint registry is process-global and the
/// box is small — replication clusters should not time-share.
fn repl_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    match GUARD.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn opts(dim: usize) -> ServeOptions {
    ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 256,
            max_batch: 16,
            workers: 2,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn follower_opts(dim: usize, primary: SocketAddr, promote_after: u32) -> ServeOptions {
    ServeOptions {
        follow: Some(FollowOptions {
            primary: primary.to_string(),
            poll: Duration::from_millis(1),
            connect_deadline: Duration::from_millis(500),
            promote_after,
        }),
        ..opts(dim)
    }
}

/// A hull as an order-free set of facets, each facet the sorted list of
/// its vertices' coordinate rows — vertex ids differ between nodes that
/// applied units in different interleavings; coordinates cannot.
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

fn connect(addr: SocketAddr) -> HullClient {
    HullClient::builder(addr.to_string())
        .deadline(Duration::from_secs(2))
        .connect()
        .expect("connect")
}

fn insert_all(c: &mut HullClient, rows: &[Vec<i64>]) {
    for row in rows {
        c.mutate(0, MutationBatch::new().insert(row.clone()))
            .expect("insert");
    }
    c.flush(0).expect("flush");
}

/// Poll `cond` for up to 15 s (generous: the box is one core and chaos
/// backoff caps at 200 ms).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(15) {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Dropped shipments, dropped applies, and link resubscribes must not
/// keep a follower from converging bit-identical to offline Algorithm 2
/// — and while it trails, its reads carry the `Stale { lag }` bound.
#[test]
fn follower_converges_bit_identical_and_bounds_staleness() {
    let _guard = repl_lock();
    let pts = generators::cube_d(2, 96, 1_000_000, 11);
    let rows = rows_of(&pts);

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows);
    let primary_units = primary.service().batch_units(0).unwrap();
    assert!(primary_units >= 1, "workload produced no batch units");

    // Phase 1: every fetched unit is dropped before apply — the
    // follower learns the primary's total but applies nothing, so its
    // reads must carry the full lag as the staleness bound.
    failpoint::arm(FaultPlan::new(0xA11CE).site(
        sites::REPL_APPLY,
        SiteSpec {
            full_ppm: 1_000_000,
            ..SiteSpec::default()
        },
    ));
    let mut follower = serve(follower_opts(2, primary.local_addr(), 0)).unwrap();
    let state = follower.replica_state().expect("follower has a puller");
    wait_until("drops to accumulate", || state.dropped() >= 3);
    assert_eq!(state.applied(), 0, "dropped units must not be applied");

    let mut fc = connect(follower.local_addr());
    let snap = fc.snapshot(0).unwrap();
    assert!(snap.points.is_empty(), "nothing applied yet");
    assert_eq!(
        fc.last_stale(),
        Some(primary_units),
        "read while fully behind must carry the whole lag as its bound"
    );

    // Phase 2: link heals; the follower resumes from its own batch
    // count, re-fetches what it dropped, and converges.
    failpoint::disarm();
    wait_until("follower to catch up", || {
        follower.service().batch_units(0).unwrap() == primary_units
    });
    assert!(state.applied() >= primary_units);
    let snap = fc.snapshot(0).unwrap();
    assert_eq!(fc.last_stale(), None, "caught-up reads are not stale");
    assert_eq!(
        canonical_served(&snap),
        canonical_offline(&pts),
        "converged follower differs from offline Algorithm 2"
    );

    // Phase 3: the primary keeps ingesting while its shipping side
    // drops frames (`Overloaded` → counted resubscribe-with-resume).
    failpoint::arm(FaultPlan::new(0xBEEF).site(
        sites::REPL_SHIP,
        SiteSpec {
            full_ppm: 400_000,
            max_fires: 6,
            ..SiteSpec::default()
        },
    ));
    let more = generators::cube_d(2, 64, 1_000_000, 12);
    insert_all(&mut pc, &rows_of(&more));
    let grown = primary.service().batch_units(0).unwrap();
    assert!(grown > primary_units);
    wait_until("follower to catch up through dropped shipments", || {
        follower.service().batch_units(0).unwrap() == grown
    });
    failpoint::disarm();
    assert!(
        state.resubscribes() >= 1,
        "dropped shipments must surface as counted resubscribes"
    );

    let mut all = PointSet::from_rows(2, &rows);
    for row in rows_of(&more) {
        all.push(&row);
    }
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&all),
        "follower diverged from offline Algorithm 2 after link chaos"
    );

    follower.shutdown();
    primary.shutdown();
}

/// Satellite: a client with ordered fallback addresses redials through
/// them when its primary dies mid-session, re-handshakes on the new
/// node, and keeps answering.
#[test]
fn client_fails_over_to_fallback_follower() {
    let _guard = repl_lock();
    failpoint::disarm();
    let pts = generators::cube_d(2, 48, 1_000_000, 21);

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows_of(&pts));
    let units = primary.service().batch_units(0).unwrap();
    let mut follower = serve(follower_opts(2, primary.local_addr(), 0)).unwrap();
    wait_until("follower to catch up", || {
        follower.service().batch_units(0).unwrap() == units
    });

    let mut c = HullClient::builder(primary.local_addr().to_string())
        .fallback(follower.local_addr().to_string())
        .deadline(Duration::from_secs(2))
        .connect()
        .unwrap();
    let far = vec![3_000_000i64, 3_000_000];
    assert_eq!(c.contains(0, &far).unwrap(), Some(false));
    assert_eq!(c.failovers(), 0);

    primary.shutdown();
    // The next call hits the dead connection, redials the (refused)
    // primary, then fails over to the follower and resends.
    assert_eq!(
        c.contains(0, &far).unwrap(),
        Some(false),
        "failover must resume the interrupted call"
    );
    assert_eq!(c.failovers(), 1, "exactly one fallback switch");
    assert_eq!(
        c.last_stale(),
        None,
        "the follower was caught up when its primary died — lag 0"
    );

    follower.shutdown();
}

/// Tentpole: the `route` front end keeps reads available when the
/// primary dies — writes route to the surviving node (which refuses
/// them until it promotes), and the router's failover count moves.
#[test]
fn router_keeps_reads_available_through_primary_death() {
    let _guard = repl_lock();
    failpoint::disarm();
    let pts = generators::cube_d(2, 64, 1_000_000, 31);
    let rows = rows_of(&pts);

    let mut primary = serve(opts(2)).unwrap();
    let mut follower = serve(follower_opts(2, primary.local_addr(), 0)).unwrap();
    let mut router = route(RouterOptions {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![
            primary.local_addr().to_string(),
            follower.local_addr().to_string(),
        ],
        probe_interval: Duration::from_millis(50),
        deadline: Duration::from_millis(500),
    })
    .unwrap();

    // Writes through the router land on the primary and replicate out.
    let mut rc = connect(router.local_addr());
    insert_all(&mut rc, &rows);
    let units = primary.service().batch_units(0).unwrap();
    assert!(units >= 1);
    wait_until("follower to catch up", || {
        follower.service().batch_units(0).unwrap() == units
    });
    assert_eq!(
        canonical_served(&rc.snapshot(0).unwrap()),
        canonical_offline(&pts),
        "routed read differs from offline Algorithm 2"
    );
    assert!(router.forwarded() > 0);

    primary.shutdown();
    // Reads stay available: whichever node the ring owner was, the
    // surviving follower answers (the router marks the dead node down
    // on first failure and retries immediately).
    let snap = rc.snapshot(0).expect("reads must survive the primary");
    assert_eq!(canonical_served(&snap), canonical_offline(&pts));

    // Writes deterministically fail over to the follower, which — not
    // yet promoted — refuses them in-band; the failover still counts.
    let err = loop {
        match rc.mutate(0, MutationBatch::new().insert(rows[0].clone())) {
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => break e,
        }
    };
    assert!(
        err.to_string().contains("read-only follower replica"),
        "unexpected write-path error: {err}"
    );
    assert!(router.failovers() >= 1, "failover must be counted");

    router.shutdown();
    follower.shutdown();
}

/// A follower whose primary stays unreachable for `promote_after`
/// consecutive resubscribes promotes itself: leaves read-only mode,
/// accepts writes, and its epochs stay monotone (the follower's epoch
/// is its mirrored batch count).
#[test]
fn follower_promotes_and_accepts_writes() {
    let _guard = repl_lock();
    failpoint::disarm();
    let pts = generators::cube_d(2, 48, 1_000_000, 41);
    let rows = rows_of(&pts);

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows);
    let units = primary.service().batch_units(0).unwrap();
    let mut follower = serve(follower_opts(2, primary.local_addr(), 3)).unwrap();
    let state = follower.replica_state().unwrap();
    wait_until("follower to catch up", || {
        follower.service().batch_units(0).unwrap() == units
    });
    let epoch_before = follower.service().snapshot(0).unwrap().epoch;

    primary.shutdown();
    wait_until("self-promotion", || state.promoted());
    assert!(
        !follower.service().is_read_only(),
        "a promoted follower serves writes"
    );

    let more = generators::cube_d(2, 24, 1_000_000, 42);
    let mut fc = connect(follower.local_addr());
    insert_all(&mut fc, &rows_of(&more));
    let epoch_after = fc.flush(0).unwrap();
    assert!(
        epoch_after > epoch_before,
        "epochs must stay monotone across promotion ({epoch_before} -> {epoch_after})"
    );
    assert_eq!(
        fc.last_stale(),
        None,
        "a promoted node's reads are not stale"
    );

    let mut all = PointSet::from_rows(2, &rows);
    for row in rows_of(&more) {
        all.push(&row);
    }
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&all),
        "promoted hull differs from offline Algorithm 2"
    );
    follower.shutdown();
}

/// A follower joining a primary with history bootstraps its empty shard by
/// pulling the primary's whole journaled prefix and installing it
/// through one bulk build — while still mirroring
/// every batch unit 1:1, so the resume cursor, incremental tail
/// replication, and the converged hull are all exactly what per-unit
/// pulling would have produced.
#[test]
fn follower_bootstraps_via_bulk_build() {
    let _guard = repl_lock();
    failpoint::disarm();
    let pts = generators::cube_d(2, 400, 1_000_000, 61);
    let rows = rows_of(&pts);

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows);
    let units = primary.service().batch_units(0).unwrap();
    assert!(units >= 2, "bootstrap needs a multi-unit journal");

    let fopts = follower_opts(2, primary.local_addr(), 0);
    let mut follower = serve(fopts).unwrap();
    let state = follower.replica_state().unwrap();
    wait_until("follower to bootstrap", || {
        follower.service().batch_units(0).unwrap() == units
    });
    // The shard publishes the units before the replica counts them.
    wait_until("replica to count the bootstrap", || {
        state.applied() >= units
    });
    let fservice = follower.service();
    let stats = fservice.stats_for(0).unwrap();
    assert_eq!(
        stats.bulk_builds.load(Ordering::Relaxed),
        1,
        "bootstrap must take exactly one bulk build"
    );
    assert!(stats.bulk_pruned.load(Ordering::Relaxed) > 0);
    assert_eq!(
        state.applied(),
        units,
        "bootstrap must mirror every batch unit"
    );
    let mut fc = connect(follower.local_addr());
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&pts)
    );

    // The tail after bootstrap replicates unit-by-unit as usual.
    let more = generators::cube_d(2, 48, 1_000_000, 62);
    insert_all(&mut pc, &rows_of(&more));
    let grown = primary.service().batch_units(0).unwrap();
    wait_until("incremental tail after bootstrap", || {
        follower.service().batch_units(0).unwrap() == grown
    });
    assert_eq!(
        stats.bulk_builds.load(Ordering::Relaxed),
        1,
        "the incremental tail must not re-trigger bulk builds"
    );
    let mut all = PointSet::from_rows(2, &rows);
    for row in rows_of(&more) {
        all.push(&row);
    }
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&all),
        "bulk-bootstrapped follower diverged on the incremental tail"
    );
    follower.shutdown();
    primary.shutdown();
}

/// A window too large for one reply frame still bootstraps with one bulk
/// build and one publish: the follower fetches frame after frame before
/// it lands anything. Each of the primary's units inserts fresh interior
/// rows and deletes the previous unit's, so the shipment is big on the
/// wire and its live set small.
#[test]
fn follower_bootstraps_a_window_over_one_frame_in_one_install() {
    let _guard = repl_lock();
    failpoint::disarm();
    const UNITS: usize = 20;
    const ROWS: usize = 30_000;
    let fresh = |k: usize| -> Vec<Vec<i64>> {
        (0..ROWS)
            .map(|i| {
                let x = (k * ROWS + i) as i64 * 7_919;
                vec![1 + x % 99_998, 1 + (x / 99_998) % 99_998]
            })
            .collect()
    };
    let corners = vec![
        vec![0, 0],
        vec![100_000, 0],
        vec![0, 100_000],
        vec![100_000, 100_000],
    ];
    let mut units = vec![ReplUnit::Ops {
        inserts: corners,
        tombstones: Vec::new(),
    }];
    for k in 0..UNITS {
        units.push(ReplUnit::Ops {
            inserts: fresh(k),
            tombstones: if k == 0 { Vec::new() } else { fresh(k - 1) },
        });
    }
    let total = units.len() as u64;

    let mut primary = serve(opts(2)).unwrap();
    let pservice = primary.service();
    assert_eq!(pservice.apply_replica_units(0, 0, units), Ok(total));
    let first_frame = pservice.repl_unit_fetch(0, 0).unwrap().2.len() as u64;
    assert!(
        first_frame < total,
        "the window must span more than one frame"
    );

    let mut follower = serve(follower_opts(2, primary.local_addr(), 0)).unwrap();
    let fservice = follower.service();
    wait_until("follower to bootstrap", || {
        fservice.batch_units(0).unwrap() == total
    });
    let stats = fservice.stats_for(0).unwrap();
    let publishes = stats.publishes_refreshed.load(Ordering::Relaxed)
        + stats.publishes_cloned.load(Ordering::Relaxed);
    assert_eq!(stats.bulk_builds.load(Ordering::Relaxed), 1);
    assert_eq!(publishes, 2, "cold start, then the one bootstrap install");
    assert_eq!(stats.live_points.load(Ordering::Relaxed), (4 + ROWS) as u64);
    let (mut pc, mut fc) = (
        connect(primary.local_addr()),
        connect(follower.local_addr()),
    );
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_served(&pc.snapshot(0).unwrap())
    );
    follower.shutdown();
    primary.shutdown();
}

/// The staleness bound counts what readers can see, not what the
/// journal holds: while a follower's install is held open between
/// journaling a shipment and publishing it, its reads still come from the
/// previous snapshot and must carry the whole lag; they turn plain only
/// with the publish.
#[test]
fn follower_reads_stay_stale_until_the_install_publishes() {
    let _guard = repl_lock();
    let pts = generators::cube_d(2, 120, 1_000_000, 63);
    let rows = rows_of(&pts);

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows);
    let units = primary.service().batch_units(0).unwrap();

    // The primary is idle from here on, so the one delay lands on the
    // follower's bootstrap install, after the shipment is journaled.
    failpoint::arm(FaultPlan::new(0x57A1E).site(
        sites::SHARD_BEFORE_PUBLISH,
        SiteSpec {
            delay_ppm: 1_000_000,
            delay_us: 3_000_000,
            max_fires: 1,
            ..SiteSpec::default()
        },
    ));
    let mut follower = serve(follower_opts(2, primary.local_addr(), 0)).unwrap();
    wait_until("the bootstrap install to stall", || {
        failpoint::fires(sites::SHARD_BEFORE_PUBLISH) == 1
    });
    let mut fc = connect(follower.local_addr());
    let snap = fc.snapshot(0).unwrap();
    assert!(snap.points.is_empty(), "nothing published yet");
    assert_eq!(
        fc.last_stale(),
        Some(units),
        "a journaled but unpublished shipment must not shrink the lag"
    );
    assert_eq!(follower.service().batch_units(0).unwrap(), 0);

    wait_until("the install to publish", || {
        follower.service().batch_units(0).unwrap() == units
    });
    failpoint::disarm();
    let snap = fc.snapshot(0).unwrap();
    assert_eq!(fc.last_stale(), None, "published reads are plain");
    assert_eq!(canonical_served(&snap), canonical_offline(&pts));
    follower.shutdown();
    primary.shutdown();
}

/// The kill-a-node chaos drill, against real processes: SIGKILL the
/// primary mid-cluster while a reader polls `contains` through a
/// `route` front end, and assert that every read in flight across the
/// kill, the router's failover and the follower's self-promotion is
/// answered, and answered right. After promotion, writes through the
/// router land again and the promoted hull is bit-identical to offline
/// Algorithm 2 on the primary's points.
#[test]
fn sigkill_primary_promoted_follower_serves_identical_hull() {
    let _guard = repl_lock();
    let pts = generators::cube_d(2, 64, 1_000_000, 51);
    let rows = rows_of(&pts);
    // The centroid of the points lies inside their hull: one probe with
    // one known answer.
    let centroid: Vec<i64> = (0..2)
        .map(|k| rows.iter().map(|r| r[k]).sum::<i64>() / rows.len() as i64)
        .collect();

    let (mut primary, paddr, _) = spawn_hull_serve(&[]);
    let (_follower, faddr, _) =
        spawn_hull_serve(&["--follow", &paddr.to_string(), "--promote-after", "5"]);
    let mut router = route(RouterOptions {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![paddr.to_string(), faddr.to_string()],
        probe_interval: Duration::from_millis(20),
        deadline: Duration::from_millis(500),
    })
    .unwrap();
    let raddr = router.local_addr();

    let mut pc = connect(paddr);
    insert_all(&mut pc, &rows);
    let (_, total, _, _) = pc.repl_unit_fetch(0, u64::MAX).unwrap();
    assert!(total >= 1);

    // The follower serves the replication surface too — its own unit
    // total is the catch-up cursor, observable externally.
    let mut fc = connect(faddr);
    wait_until("follower process to catch up", || {
        fc.repl_unit_fetch(0, u64::MAX).map(|(_, t, _, _)| t).ok() == Some(total)
    });

    /// Stops the reader on drop, so a failed assertion below cannot
    /// leave the scope joining a reader that polls forever.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let (done, killed) = (AtomicBool::new(false), AtomicBool::new(false));
    let (answered, after_kill, failed) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut rc = connect(raddr);
            let (mut answered, mut after_kill, mut failed) = (0u64, 0u64, Vec::new());
            while !done.load(Ordering::SeqCst) {
                let post = killed.load(Ordering::SeqCst);
                match rc.contains(0, &centroid) {
                    Ok(Some(true)) => answered += 1,
                    other => failed.push(format!("{other:?}")),
                }
                after_kill += u64::from(post);
                std::thread::sleep(Duration::from_micros(200));
            }
            (answered, after_kill, failed)
        });
        let stop = Stop(&done);
        wait_until("reads through the router before the kill", || {
            router.forwarded() >= 10
        });

        // Kill -9: no drain, no goodbye. The degraded window starts here.
        primary.0.kill().expect("SIGKILL primary");
        let _ = primary.0.wait();
        killed.store(true, Ordering::SeqCst);

        // Availability through the window: the follower answers reads
        // immediately (read-only, lag 0 — its primary died caught-up).
        let snap = fc.snapshot(0).expect("reads must survive the kill");
        assert_eq!(canonical_served(&snap), canonical_offline(&pts));

        // Writes through the router start succeeding once the follower
        // promotes and the write path fails over to it. A duplicate of
        // an existing point is the probe — harmless to the hull by
        // Theorem 4.2, whatever moment it lands.
        let mut wc = connect(raddr);
        wait_until("follower self-promotion", || {
            wc.mutate(0, MutationBatch::new().insert(rows[0].clone()))
                .is_ok()
        });
        drop(stop);
        reader.join().expect("reader thread")
    });
    assert!(
        failed.is_empty(),
        "{} of {} reads through the router failed across the kill and promotion: {failed:?}",
        failed.len(),
        answered + failed.len() as u64,
    );
    assert!(after_kill > 0, "no read ran between the kill and promotion");
    assert!(router.failovers() >= 1, "write failover must be counted");

    let mut rc = connect(raddr);
    rc.flush(0).unwrap();
    let snap = rc.snapshot(0).unwrap();
    assert_eq!(
        canonical_served(&snap),
        canonical_offline(&pts),
        "promoted hull differs from offline Algorithm 2 after SIGKILL"
    );
    router.shutdown();
    fc.shutdown_server().unwrap();
}

/// Deletes replicate. Tombstone units ship typed (wire
/// `ReplUnitFetch`), a tombstone-ratio or hull-invalidating rebuild on
/// the primary ships a **checkpoint** unit that collapses the dead
/// history, and the follower — bootstrapping *after* all of it — must
/// converge canonically to offline Algorithm 2 on the survivors alone.
/// When the primary then dies, the promoted follower keeps serving the
/// survivor hull and accepts new mutations.
#[test]
fn follower_mirrors_deletes_and_checkpoints() {
    let _guard = repl_lock();
    failpoint::disarm();
    let pts = generators::cube_d(2, 120, 1_000_000, 53);
    let rows = rows_of(&pts);

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows);
    // Delete two thirds of the rows: the dead entries pass
    // `rebuild_ratio`, so the tombstone-ratio trigger rebuilds and
    // checkpoints the journal. (Hull vertices are among them, but a
    // vertex death alone is repaired in memory and checkpoints nothing.)
    let doomed = &rows[..80];
    for chunk in doomed.chunks(16) {
        let mut b = MutationBatch::new();
        for p in chunk {
            b = b.delete(p.clone());
        }
        pc.mutate(0, b).unwrap();
    }
    pc.flush(0).unwrap();
    let rebuilds = primary
        .service()
        .stats_for(0)
        .unwrap()
        .rebuilds
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        rebuilds >= 1,
        "deleting two thirds of the rows must have forced a survivor rebuild"
    );
    let units = primary.service().batch_units(0).unwrap();
    let survivors = PointSet::from_rows(2, &rows[80..]);

    // Fresh follower: everything it pulls is post-hoc — the checkpoint
    // unit (skipping the dead history) plus whatever ops units remain.
    let mut follower = serve(follower_opts(2, primary.local_addr(), 2)).unwrap();
    wait_until("follower to mirror deletes and checkpoints", || {
        follower.service().batch_units(0).unwrap() == units
    });
    let mut fc = connect(follower.local_addr());
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&survivors),
        "follower hull differs from offline Algorithm 2 on the survivors"
    );

    // Failover: the primary dies; the follower promotes and keeps
    // serving the survivor hull. The promotion probe is a duplicate of
    // a surviving point — canonically harmless whenever it lands.
    primary.shutdown();
    wait_until("follower self-promotion", || {
        fc.mutate(0, MutationBatch::new().insert(rows[80].clone()))
            .is_ok()
    });
    // New mutations flow on the promoted node: insert a far-outside
    // point and delete it again — the hull must end where it started.
    fc.mutate(
        0,
        MutationBatch::new()
            .insert([3_000_000, 3_000_000])
            .delete([3_000_000, 3_000_000]),
    )
    .unwrap();
    fc.flush(0).unwrap();
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&survivors),
        "promoted follower lost the survivor hull after post-failover churn"
    );
    follower.shutdown();
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

/// A fresh follower of a churned primary — whose journal starts with a
/// ratio checkpoint and goes on with tombstone units — bootstraps the
/// whole window with one bulk build, ends on the primary's unit count,
/// and serves offline Algorithm 2 on the survivors.
#[test]
fn follower_bootstraps_from_a_churned_primary() {
    let _guard = repl_lock();
    failpoint::disarm();
    let rows = rows_of(&generators::cube_d(2, 120, 1_000_000, 57));
    let more = rows_of(&generators::cube_d(2, 30, 1_000_000, 58));

    let mut primary = serve(opts(2)).unwrap();
    let mut pc = connect(primary.local_addr());
    insert_all(&mut pc, &rows);
    // Two thirds deleted: the tombstone-ratio trigger checkpoints.
    let mut b = MutationBatch::new();
    for p in &rows[..80] {
        b = b.delete(p.clone());
    }
    pc.mutate(0, b).unwrap();
    pc.flush(0).unwrap();
    // Then more history on top of the checkpoint: inserts and deletes,
    // a unit at a time, too few to trip the ratio again.
    insert_all(&mut pc, &more);
    for p in rows[80..85].iter().chain(&more[..5]) {
        pc.mutate(0, MutationBatch::new().delete(p.clone()))
            .unwrap();
        pc.flush(0).unwrap();
    }
    let svc = primary.service();
    let st = svc.stats_for(0).unwrap();
    assert!(st.rebuilds.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    let units = svc.batch_units(0).unwrap();
    let (index, _, _, window) = pc.repl_unit_fetch(0, 0).unwrap();
    assert!(
        index > 0 && matches!(window[0], ReplUnit::Checkpoint { .. }),
        "the primary's journal starts with a checkpoint"
    );
    assert_eq!(index + window.len() as u64, units, "one fetch ships it all");
    let tombstone_units = window[1..]
        .iter()
        .filter(|unit| !unit.tombstones().is_empty())
        .count();
    assert!(tombstone_units >= 10, "every later delete is a unit");
    let survivors: Vec<Vec<i64>> = rows[85..].iter().chain(&more[5..]).cloned().collect();

    let (_follower, faddr, stderr) = spawn_hull_serve(&[
        "--follow",
        &primary.local_addr().to_string(),
        "--promote-after",
        "600",
    ]);
    let mut fc = connect(faddr);
    wait_until("follower to bootstrap", || {
        fc.repl_unit_fetch(0, u64::MAX).map(|(_, t, _, _)| t).ok() == Some(units)
    });
    let line = stderr
        .iter()
        .find(|l| l.contains("bootstrapped"))
        .expect("the bootstrap line");
    assert!(line.ends_with("via bulk build"), "{line}");
    let stats = fc.stats(Some(0)).unwrap();
    assert_eq!(grab(&stats, "bulk_builds"), 1, "one bulk build: {stats}");
    assert_eq!(
        canonical_served(&fc.snapshot(0).unwrap()),
        canonical_offline(&PointSet::from_rows(2, &survivors)),
        "bootstrapped follower differs from offline Algorithm 2 on the survivors"
    );
    fc.shutdown_server().unwrap();
    primary.shutdown();
}
