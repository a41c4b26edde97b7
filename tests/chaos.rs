//! Chaos harness: seeded kill/corrupt schedules against a **live** hull
//! server with concurrent clients streaming 2D and 3D workloads.
//!
//! The failure model under test (DESIGN §S15):
//!
//! * a shard worker that dies mid-batch is detected by its supervisor,
//!   which replays the shard's append-only insert journal and
//!   republishes — so after the dust settles the served hull must be
//!   **bit-identical** (as a set of facet coordinate tuples) to the
//!   offline sequential Algorithm 2 on the same point multiset
//!   (order-independence, Theorem 4.2, is what makes replay a correct
//!   recovery strategy);
//! * every acked insert survives: acks happen at enqueue, batches are
//!   journaled (and WAL-synced) *before* any point is applied, so a
//!   crash between journal and publish loses nothing;
//! * with an on-disk WAL the same guarantee extends across whole-process
//!   restarts, including a torn record at the WAL tail;
//! * the canned `FaultPlan::chaos` schedule (worker panics, truncated
//!   frame writes, spurious backpressure, accept latency) may duplicate
//!   an insert via client resend-after-lost-response — duplicates are
//!   harmless to the hull, so that test asserts set equality and exact
//!   facet agreement rather than multiset equality.
//!
//! The failpoint registry is process-global, so every test here takes a
//! shared mutex before arming it.

use convex_hull_suite::concurrent::failpoint::{self, sites, FaultPlan, SiteSpec};
use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::geometry::{generators, PointSet};
use convex_hull_suite::service::{
    serve, HullClient, MutationBatch, ServeOptions, ServiceConfig, SnapshotReply,
};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serialize tests that arm the process-global failpoint registry.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    match GUARD.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn opts(dim: usize, wal_dir: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 256,
            max_batch: 32,
            workers: 2,
            wal_dir,
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

fn connect_retry(addr: SocketAddr) -> HullClient {
    for _ in 0..200 {
        if let Ok(c) = HullClient::builder(addr.to_string()).connect() {
            return c;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not connect to {addr}");
}

/// Stream `rows` into shard 0 from `clients` concurrent connections,
/// tolerating torn connections the single built-in redial cannot save
/// (a fresh chaos fault can hit the redial too) by reconnecting with a
/// fresh client and resending. Every row is acked at least once when
/// this returns.
fn insert_all(addr: SocketAddr, rows: &[Vec<i64>], clients: usize) {
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut client = connect_retry(addr);
                for row in rows.iter().skip(c).step_by(clients) {
                    let mut attempts = 0;
                    loop {
                        match client.mutate(0, MutationBatch::new().insert(row.clone())) {
                            Ok(_) => break,
                            Err(e) => {
                                attempts += 1;
                                assert!(attempts < 100, "insert kept failing under chaos: {e}");
                                client = connect_retry(addr);
                            }
                        }
                    }
                }
            });
        }
    });
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

/// One seeded kill schedule: deterministic worker panics while applying
/// and before publishing, then assert full recovery.
fn kill_schedule_run(seed: u64, dim: usize, n: usize) {
    let pts = generators::cube_d(dim, n, 1_000_000, seed % 97 + 3);
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    let mut server = serve(opts(dim, None)).unwrap();
    let addr = server.local_addr();
    failpoint::arm(
        FaultPlan::new(seed)
            .site(
                sites::SHARD_APPLY,
                SiteSpec {
                    panic_every: 47,
                    max_fires: 3,
                    ..SiteSpec::default()
                },
            )
            .site(
                sites::SHARD_BEFORE_PUBLISH,
                SiteSpec {
                    panic_ppm: 40_000,
                    max_fires: 2,
                    ..SiteSpec::default()
                },
            ),
    );
    insert_all(addr, &rows, 3);
    // Acks happen at enqueue, so the clients can finish before the worker
    // has applied enough inserts to trip the deterministic schedule —
    // drain everything through the armed failpoints before disarming.
    let mut client = connect_retry(addr);
    client.flush(0).unwrap();
    failpoint::disarm();
    let snap = client.snapshot(0).unwrap();
    assert_eq!(
        snap.points.len(),
        n,
        "seed {seed:#x} dim {dim}: every acked insert must survive worker crashes"
    );
    assert_eq!(
        canonical_served(&snap),
        canonical_offline(&pts),
        "seed {seed:#x} dim {dim}: recovered hull differs from offline Algorithm 2"
    );
    let stats = client.stats(Some(0)).unwrap();
    assert!(
        grab(&stats, "recoveries") >= 1,
        "seed {seed:#x} dim {dim}: schedule never killed the worker: {stats}"
    );
    assert_eq!(grab(&stats, "batched_inserts"), n as u64, "{stats}");
    server.shutdown();
}

#[test]
fn seeded_kill_schedules_recover_bit_identical_2d() {
    let _g = chaos_lock();
    for seed in [0xC4A0_0001u64, 0xC4A0_0002, 0xC4A0_0003] {
        kill_schedule_run(seed, 2, 360);
    }
}

#[test]
fn seeded_kill_schedules_recover_bit_identical_3d() {
    let _g = chaos_lock();
    for seed in [0xC4A0_1001u64, 0xC4A0_1002, 0xC4A0_1003] {
        kill_schedule_run(seed, 3, 240);
    }
}

/// The canned `--chaos-seed` schedule: worker panics *and* truncated
/// frame writes *and* spurious queue-full *and* accept latency, all at
/// once. Truncated responses can make a client resend an already-queued
/// insert, so the points may contain duplicates — assert set equality
/// plus exact facet agreement instead of multiset equality.
#[test]
fn canned_chaos_schedule_serves_exact_hull() {
    let _g = chaos_lock();
    let n = 300;
    let pts = generators::ball_d(2, n, 1_000_000, 23);
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    let mut server = serve(opts(2, None)).unwrap();
    let addr = server.local_addr();
    failpoint::arm(FaultPlan::chaos(0xDEAD_5EED));
    insert_all(addr, &rows, 4);
    failpoint::disarm();
    let mut client = connect_retry(addr);
    client.flush(0).unwrap();
    let snap = client.snapshot(0).unwrap();
    assert!(
        snap.points.len() >= n,
        "acked inserts lost: {} served < {n} sent",
        snap.points.len()
    );
    let sent: BTreeSet<&Vec<i64>> = rows.iter().collect();
    let served: BTreeSet<&Vec<i64>> = snap.points.iter().collect();
    assert_eq!(
        sent, served,
        "served point set must equal the sent set (duplicates aside)"
    );
    assert_eq!(
        canonical_served(&snap),
        canonical_offline(&pts),
        "hull under canned chaos differs from offline Algorithm 2"
    );
    server.shutdown();
}

/// Crash-safe replay across a whole-process restart: run a server with
/// an on-disk WAL (killing its worker once mid-run), shut it down,
/// damage the WAL tail with a torn record, and restart — the new server
/// must recover every point, match the offline hull, and keep accepting
/// inserts.
#[test]
fn wal_recovery_across_restart_with_torn_tail() {
    let _g = chaos_lock();
    let dir = std::env::temp_dir().join(format!(
        "chull-chaos-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let n = 140;
    let pts = generators::cube_d(2, n, 1_000_000, 41);
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    {
        let mut server = serve(opts(2, Some(dir.clone()))).unwrap();
        let addr = server.local_addr();
        failpoint::arm(FaultPlan::new(0xAA11).site(
            sites::SHARD_APPLY,
            SiteSpec {
                panic_every: 53,
                max_fires: 1,
                ..SiteSpec::default()
            },
        ));
        insert_all(addr, &rows, 2);
        // Drain through the armed failpoint so the single kill (and its
        // journal replay) deterministically happens before shutdown.
        let mut client = connect_retry(addr);
        client.flush(0).unwrap();
        failpoint::disarm();
        assert_eq!(client.snapshot(0).unwrap().points.len(), n);
        server.shutdown();
    }
    // A record header claiming 42 payload bytes, followed by only two:
    // the torn tail a mid-append crash leaves behind.
    {
        use std::io::Write;
        let wal = dir.join("shard-0.wal");
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[42, 0, 0, 0, 0xDE, 0xAD]).unwrap();
    }
    {
        let mut server = serve(opts(2, Some(dir.clone()))).unwrap();
        let addr = server.local_addr();
        let mut client = connect_retry(addr);
        let snap = client.snapshot(0).unwrap();
        assert_eq!(
            snap.points.len(),
            n,
            "restart must replay every synced insert despite the torn tail"
        );
        assert_eq!(
            canonical_served(&snap),
            canonical_offline(&pts),
            "restarted hull differs from offline Algorithm 2"
        );
        // The recovered shard keeps working: append one more point.
        client
            .mutate(0, MutationBatch::new().insert([2_000_000, 2_000_000]))
            .unwrap();
        client.flush(0).unwrap();
        assert_eq!(client.snapshot(0).unwrap().points.len(), n + 1);
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic on the accept path (failpoint `server.accept`) must be
/// **contained**: `shutdown()`/`Drop` return normally instead of
/// propagating the accept thread's panic into the caller, and the
/// panic message is surfaced through `ServerHandle::accept_fault`.
/// The reactor thread runs the accept path.
#[test]
fn accept_thread_panic_is_contained_and_surfaced() {
    let _g = chaos_lock();
    let mut server = serve(opts(2, None)).unwrap();
    let addr = server.local_addr();
    assert!(server.accept_fault().is_none());
    failpoint::arm(FaultPlan::new(0xACC0).site(
        sites::SERVER_ACCEPT,
        SiteSpec {
            panic_every: 1,
            max_fires: 1,
            ..SiteSpec::default()
        },
    ));
    // The first accept trips the panic; the connect itself still
    // completes at the OS backlog level. The reactor records its own
    // fault on the way out.
    let _ = std::net::TcpStream::connect(addr);
    let t0 = std::time::Instant::now();
    while server.accept_fault().is_none() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
        let _ = std::net::TcpStream::connect(addr);
    }
    failpoint::disarm();
    let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        server.shutdown();
    }));
    assert!(
        contained.is_ok(),
        "shutdown propagated the accept-thread panic"
    );
    assert!(
        server.accept_fault().is_some(),
        "accept-path panic was swallowed, not surfaced"
    );
}
