//! Load generator for the `chull-service` hull server (experiments E17,
//! E18, E20–E25).
//!
//! Starts an in-process server on loopback, streams a workload into one
//! shard from several concurrent client connections, then runs a mixed
//! query phase against the published snapshot. Records throughput and
//! client-observed latency percentiles per workload and writes them to a
//! JSON file (default `BENCH_service.json`).
//!
//! The E20 workloads (`batch_apply_*`) A/B the parallel in-shard batch
//! apply: the same stream goes through one-point `Mutate` frames on one
//! worker, through batched `Mutate` frames on one worker (coalescing
//! alone), and through batched frames on a 4-worker pool (Algorithm 3
//! on the serving path) — timed to **applied** (flush returns), not to
//! enqueue ack.
//!
//! The E18 workload (`chaos_recovery_2d`) arms a deterministic
//! failpoint that kills the shard worker exactly once, mid-stream, and
//! measures the cost of supervised recovery: journal-replay time, the
//! degraded-read window a polling reader observes, and the largest
//! insert-ack stall any client saw — then verifies the recovered hull
//! is bit-identical to the offline Algorithm 2 on the served points.
//!
//! The E22 workload (`service_fanin`) opens hundreds to tens of
//! thousands of concurrent connections from a single-threaded
//! `chull-net` poller client — one in-flight `Contains` per connection —
//! against the event-loop server (at 512 and at the full `--fanin`
//! target), recording connect time, sustained requests/sec, and
//! per-request p50/p99.
//!
//! The E23 workload (`replicated_failover_2d`) stands up a replicated
//! cluster — a primary in a child process, an in-process follower
//! replica, and a `route` front end — ingests through the router, then
//! `SIGKILL`s the primary under a polling reader: it records the
//! read-unavailability window, the `Degraded`/`Stale` read counts, the
//! time until the self-promoted follower accepts writes again, and
//! verifies the promoted hull bit-identical to offline Algorithm 2.
//!
//! The E25 workload (`churn_2d`, via `--churn-only`) measures windowed
//! / deletion churn throughput vs window size over the `Mutate`
//! envelope: an insert-only baseline, a server-side count-window arm,
//! and an explicit-delete arm per window size, each asserting the
//! served hull canonically identical to offline Algorithm 2 on the
//! surviving suffix.
//!
//! ```text
//! USAGE: service_load [--out FILE] [--clients C] [--quick]
//!                     [--fanin N] [--fanin-only] [--repl-only] [--churn-only]
//! ```
//!
//! `--quick` shrinks the workloads for CI smoke runs; `--fanin-only`
//! runs just the E22 rows (the CI 10k-connection smoke); `--repl-only`
//! runs just the E23 kill-a-node drill; `--churn-only` runs just the
//! E25 window-churn sweep.
//! Latencies are
//! *round-trip* (request written to reply decoded) over loopback TCP, so
//! they include wire encode/decode and the socket — the serving cost a
//! real client would see, not just the geometry.

use chull_concurrent::failpoint::{self, sites, FaultPlan, SiteSpec};
use chull_core::seq::incremental_hull_run;
use chull_core::telemetry::engine_metrics;
use chull_geometry::generators;
use chull_geometry::PointSet;
use chull_service::{
    serve, HullClient, Mutation, MutationBatch, ServeOptions, ServiceConfig, WindowPolicy,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One workload's measured figures.
struct LoadResult {
    workload: String,
    dim: usize,
    n_points: usize,
    clients: usize,
    inserts_per_sec: f64,
    insert_p50_us: f64,
    insert_p99_us: f64,
    overloaded: u64,
    n_queries: usize,
    queries_per_sec: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    hull_facets: usize,
    /// Per-insert dependence-depth window for this workload, from the
    /// `chull_insert_dep_depth{engine="online"}` histogram (0s when the
    /// `no-obs` build disarms telemetry).
    dep_depth_records: u64,
    dep_depth_p50: u64,
    dep_depth_max: u64,
    /// `H_n`, the harmonic number of the workload size — Theorem 4.2
    /// bounds the expected dependence depth by `O(σ·H_n)`.
    harmonic_h_n: f64,
}

/// `H_n = Σ_{k=1..n} 1/k`.
fn harmonic(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Run one workload: ingest all of `pts` into shard 0 from `clients`
/// connections, flush, then issue `queries_per_client` mixed queries from
/// each connection.
fn run_workload(
    name: &str,
    pts: &PointSet,
    clients: usize,
    queries_per_client: usize,
) -> LoadResult {
    let dim = pts.dim();
    let mut server = serve(ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let n = pts.len();
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    let overloaded = Arc::new(AtomicU64::new(0));
    // Telemetry window for this workload's dependence-depth histogram
    // (the serving path runs the online engine; workloads are serial in
    // main, so the process-global delta is this workload's alone).
    let depth_before = engine_metrics().online_insert_depth.snapshot();

    // Ingest phase: each client owns an interleaved slice of the stream.
    let t0 = Instant::now();
    let mut insert_lat_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rows = &rows;
                let overloaded = Arc::clone(&overloaded);
                s.spawn(move || {
                    let mut client = HullClient::builder(addr.to_string())
                        .connect()
                        .expect("connect");
                    let mut lat = Vec::with_capacity(rows.len() / clients + 1);
                    for row in rows.iter().skip(c).step_by(clients) {
                        let q0 = Instant::now();
                        let rej = client
                            .mutate(0, MutationBatch::new().insert(row.clone()))
                            .expect("insert")
                            .rejections;
                        lat.push(q0.elapsed().as_secs_f64() * 1e6);
                        overloaded.fetch_add(rej, Ordering::Relaxed);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let ingest_secs = t0.elapsed().as_secs_f64();

    let mut client = HullClient::builder(addr.to_string())
        .connect()
        .expect("connect");
    client.flush(0).expect("flush");
    let snap = client.snapshot(0).expect("snapshot");
    assert_eq!(snap.points.len(), n, "ingest lost points");

    // Query phase: 50% contains (half inside, half far outside), 25%
    // visible, 25% extreme — all against the published snapshot.
    let t1 = Instant::now();
    let mut query_lat_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let rows = &rows;
                s.spawn(move || {
                    let mut client = HullClient::builder(addr.to_string())
                        .connect()
                        .expect("connect");
                    let mut lat = Vec::with_capacity(queries_per_client);
                    for i in 0..queries_per_client {
                        let row = &rows[(i * clients + c) % rows.len()];
                        let q0 = Instant::now();
                        match i % 4 {
                            0 => {
                                client.contains(0, row).expect("contains");
                            }
                            1 => {
                                let far: Vec<i64> = row.iter().map(|&x| 2 * x + 3).collect();
                                client.contains(0, &far).expect("contains");
                            }
                            2 => {
                                client.visible(0, row).expect("visible");
                            }
                            _ => {
                                let mut d = vec![0i64; row.len()];
                                d[i % row.len()] = if i % 8 < 4 { 1 } else { -1 };
                                client.extreme(0, &d).expect("extreme");
                            }
                        }
                        lat.push(q0.elapsed().as_secs_f64() * 1e6);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let query_secs = t1.elapsed().as_secs_f64();
    server.shutdown();
    let depth = engine_metrics()
        .online_insert_depth
        .snapshot()
        .delta_since(&depth_before);

    insert_lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    query_lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n_queries = clients * queries_per_client;
    let res = LoadResult {
        workload: name.to_string(),
        dim,
        n_points: n,
        clients,
        inserts_per_sec: n as f64 / ingest_secs,
        insert_p50_us: percentile(&insert_lat_us, 0.50),
        insert_p99_us: percentile(&insert_lat_us, 0.99),
        overloaded: overloaded.load(Ordering::Relaxed),
        n_queries,
        queries_per_sec: n_queries as f64 / query_secs,
        query_p50_us: percentile(&query_lat_us, 0.50),
        query_p99_us: percentile(&query_lat_us, 0.99),
        hull_facets: snap.facets.len(),
        dep_depth_records: depth.count,
        dep_depth_p50: depth.quantile(0.5),
        dep_depth_max: depth.quantile(1.0),
        harmonic_h_n: harmonic(n),
    };
    println!(
        "{:<28} {:>8} pts  {:>10.0} ins/s (p50 {:>6.1}us p99 {:>7.1}us, {} overloaded)  {:>10.0} qry/s (p50 {:>6.1}us p99 {:>7.1}us)  {} facets",
        res.workload,
        res.n_points,
        res.inserts_per_sec,
        res.insert_p50_us,
        res.insert_p99_us,
        res.overloaded,
        res.queries_per_sec,
        res.query_p50_us,
        res.query_p99_us,
        res.hull_facets
    );
    if res.dep_depth_records > 0 {
        // Theorem 4.2 live: the deepest per-insert dependence chain
        // should track H_n (≈ ln n), not n.
        println!(
            "{:<28} dep depth: {} records, p50 {} max {}  vs H_n = {:.1} (max/H_n = {:.2})",
            "",
            res.dep_depth_records,
            res.dep_depth_p50,
            res.dep_depth_max,
            res.harmonic_h_n,
            res.dep_depth_max as f64 / res.harmonic_h_n
        );
    }
    res
}

/// E18: kill the shard worker exactly once, mid-stream, and measure
/// supervised recovery end to end. Returns one pre-formatted JSON row.
fn run_chaos_recovery(pts: &PointSet, clients: usize) -> String {
    let dim = pts.dim();
    let n = pts.len();
    let mut server = serve(ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();

    // Deterministic single kill: the worker dies applying insert n/2
    // (`panic_every` counts applies; `max_fires: 1` makes it one-shot).
    failpoint::arm(FaultPlan::new(0xC4A0_5EED).site(
        sites::SHARD_APPLY,
        SiteSpec {
            panic_every: (n as u32 / 2).max(1),
            max_fires: 1,
            ..SiteSpec::default()
        },
    ));

    let done = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let (max_gap_us, degraded_reads, degraded_window_us) = std::thread::scope(|s| {
        // Polling reader: observes the degraded window around recovery.
        let probe = {
            let done = Arc::clone(&done);
            let origin = vec![0i64; dim];
            s.spawn(move || {
                let mut client = HullClient::builder(addr.to_string())
                    .connect()
                    .expect("connect");
                let mut reads = 0u64;
                let mut first: Option<Instant> = None;
                let mut last: Option<Instant> = None;
                while !done.load(Ordering::SeqCst) {
                    let _ = client.contains(0, &origin);
                    if client.last_degraded().is_some() {
                        reads += 1;
                        first.get_or_insert_with(Instant::now);
                        last = Some(Instant::now());
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                let window = match (first, last) {
                    (Some(a), Some(b)) => b.duration_since(a).as_micros() as u64,
                    _ => 0,
                };
                (reads, window)
            })
        };
        let writers: Vec<_> = (0..clients)
            .map(|c| {
                let rows = &rows;
                s.spawn(move || {
                    let mut client = HullClient::builder(addr.to_string())
                        .connect()
                        .expect("connect");
                    let mut max_gap = 0u64;
                    let mut last_ack = Instant::now();
                    for row in rows.iter().skip(c).step_by(clients) {
                        client
                            .mutate(0, MutationBatch::new().insert(row.clone()))
                            .expect("insert");
                        let now = Instant::now();
                        max_gap = max_gap.max(now.duration_since(last_ack).as_micros() as u64);
                        last_ack = now;
                    }
                    max_gap
                })
            })
            .collect();
        let max_gap = writers
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .max()
            .unwrap_or(0);
        done.store(true, Ordering::SeqCst);
        let (reads, window) = probe.join().expect("probe");
        (max_gap, reads, window)
    });
    let ingest_secs = t0.elapsed().as_secs_f64();
    failpoint::disarm();

    let mut client = HullClient::builder(addr.to_string())
        .connect()
        .expect("connect");
    client.flush(0).expect("flush");
    let snap = client.snapshot(0).expect("snapshot");
    let stats = client.stats(Some(0)).expect("stats");
    server.shutdown();
    assert_eq!(snap.points.len(), n, "acked inserts lost across the crash");

    // Bit-identical check: offline Algorithm 2 over the served points
    // must produce the same canonical facet set.
    let flat: Vec<i64> = snap.points.iter().flatten().copied().collect();
    let served_set = PointSet::from_flat(dim, flat.clone());
    let offline = incremental_hull_run(&served_set);
    let canon = |facets: &[Vec<u32>]| -> std::collections::BTreeSet<Vec<Vec<i64>>> {
        facets
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
    };
    let offline_facets: Vec<Vec<u32>> = offline.output.facets.iter().map(|f| f.to_vec()).collect();
    let bit_identical = canon(&snap.facets) == canon(&offline_facets);
    assert!(bit_identical, "recovered hull differs from offline");

    let grab = |key: &str| -> u64 {
        stats
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };
    let recoveries = grab("recoveries");
    let recovery_us = grab("recovery_us_last");
    assert!(recoveries >= 1, "injected kill did not fire: {stats}");
    println!(
        "{:<28} {:>8} pts  {:>10.0} ins/s  {} recoveries (replay {}us)  max ack gap {}us  degraded window {}us ({} reads)",
        "chaos_recovery_2d", n, n as f64 / ingest_secs, recoveries, recovery_us,
        max_gap_us, degraded_window_us, degraded_reads
    );
    format!(
        "  {{\"workload\": \"chaos_recovery_2d\", \"dim\": {dim}, \"n_points\": {n}, \
         \"clients\": {clients}, \"inserts_per_sec\": {:.0}, \"recoveries\": {recoveries}, \
         \"recovery_replay_us\": {recovery_us}, \"max_ack_gap_us\": {max_gap_us}, \
         \"degraded_window_us\": {degraded_window_us}, \"degraded_reads\": {degraded_reads}, \
         \"bit_identical_after_recovery\": {bit_identical}}}",
        n as f64 / ingest_secs,
    )
}

/// Kills the child process on drop unless it was already reaped — so a
/// panicking parent (any failed `expect`/`assert!` mid-workload) can't
/// leak a re-exec'd server that outlives the bench and squats on a
/// port. The harness's intentional `SIGKILL` and graceful-exit paths go
/// through [`ChildGuard::kill_now`] / [`ChildGuard::wait`], which
/// disarm the guard.
struct ChildGuard(Option<std::process::Child>);

impl ChildGuard {
    fn new(child: std::process::Child) -> ChildGuard {
        ChildGuard(Some(child))
    }

    fn inner(&mut self) -> &mut std::process::Child {
        self.0.as_mut().expect("child already reaped")
    }

    /// `SIGKILL` + reap now (the E23 drill's intentional crash).
    fn kill_now(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// The child is exiting on its own (graceful shutdown): reap it.
    fn wait(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Internal child mode (`--repl-primary`): a primary hull server in a
/// process of its own, so the E23 kill is a real `SIGKILL` — no drain,
/// no goodbye — not an in-process graceful shutdown.
fn repl_primary_main() {
    use std::io::Write as _;
    let handle = serve(ServeOptions {
        config: ServiceConfig {
            dim: 2,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    println!("REPL_ADDR {}", handle.local_addr());
    std::io::stdout().flush().expect("flush addr banner");
    handle.join();
}

/// The E23 workload (`replicated_failover_2d`): a primary process, an
/// in-process follower replica, and a `route` front end. Ingest through
/// the router, wait for replication to converge, then `SIGKILL` the
/// primary while a reader polls through the router — measuring the
/// read-unavailability window, the `Degraded`/`Stale`-wrapped read
/// counts, and the time until the promoted follower accepts writes —
/// and finally assert the promoted hull is bit-identical to offline
/// Algorithm 2 on the ingested points.
fn run_replicated_failover(pts: &PointSet, clients: usize) -> String {
    use chull_service::{route, FollowOptions, RouterOptions, ServerHandle};
    let dim = pts.dim();
    let n = pts.len();
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();

    // The primary lives in a child process so the kill is SIGKILL.
    let exe = std::env::current_exe().expect("own path");
    let mut child = ChildGuard::new(
        std::process::Command::new(&exe)
            .arg("--repl-primary")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawning primary process"),
    );
    let primary_addr = {
        use std::io::BufRead as _;
        let out = child.inner().stdout.take().expect("child stdout");
        let line = std::io::BufReader::new(out)
            .lines()
            .next()
            .expect("primary exited before its banner")
            .expect("banner io");
        line.strip_prefix("REPL_ADDR ")
            .expect("banner format")
            .trim()
            .to_string()
    };

    let mut follower: ServerHandle = serve(ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            ..Default::default()
        },
        follow: Some(FollowOptions {
            primary: primary_addr.clone(),
            poll: Duration::from_millis(1),
            connect_deadline: Duration::from_millis(500),
            promote_after: 10,
        }),
        ..Default::default()
    })
    .expect("bind follower");
    let mut router = route(RouterOptions {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![primary_addr.clone(), follower.local_addr().to_string()],
        probe_interval: Duration::from_millis(20),
        deadline: Duration::from_millis(500),
    })
    .expect("bind router");
    let raddr = router.local_addr();

    // Ingest through the router (writes land on the primary).
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let rows = &rows;
            s.spawn(move || {
                let mut client = HullClient::builder(raddr.to_string())
                    .connect()
                    .expect("connect router");
                for row in rows.iter().skip(c).step_by(clients) {
                    client
                        .mutate(0, MutationBatch::new().insert(row.clone()))
                        .expect("insert");
                }
            });
        }
    });
    let ingest_secs = t0.elapsed().as_secs_f64();

    // Converge: the follower's batch-unit count catches the primary's.
    let mut pc = HullClient::builder(primary_addr.clone())
        .connect()
        .expect("connect primary");
    pc.flush(0).expect("flush");
    let (_, total, _, _) = pc.repl_unit_fetch(0, u64::MAX).expect("primary total");
    let deadline = Instant::now() + Duration::from_secs(30);
    while follower.service().batch_units(0).expect("units") < total {
        assert!(Instant::now() < deadline, "replication never converged");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Kill -9 the primary under a polling reader.
    let done = Arc::new(AtomicBool::new(false));
    let kill_at = Arc::new(std::sync::OnceLock::<Instant>::new());
    let (failed_reads, degraded_reads, stale_reads, unavailable_us, promote_us) = {
        let probe_done = Arc::clone(&done);
        let probe_kill_at = Arc::clone(&kill_at);
        let origin = vec![0i64; dim];
        let probe = std::thread::spawn(move || {
            let (done, kill_at) = (probe_done, probe_kill_at);
            let mut client = HullClient::builder(raddr.to_string())
                .connect()
                .expect("connect router");
            let mut failed = 0u64;
            let mut degraded = 0u64;
            let mut stale = 0u64;
            let mut restored: Option<Instant> = None;
            while !done.load(Ordering::SeqCst) {
                match client.contains(0, &origin) {
                    Ok(_) => {
                        if kill_at.get().is_some() && restored.is_none() {
                            restored = Some(Instant::now());
                        }
                        if client.last_degraded().is_some() {
                            degraded += 1;
                        }
                        if client.last_stale().is_some() {
                            stale += 1;
                        }
                    }
                    // In-band routing errors ("no healthy backend"):
                    // the connection to the router survives them.
                    Err(_) => failed += 1,
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            let unavailable = match (kill_at.get(), restored) {
                (Some(k), Some(r)) => r.duration_since(*k).as_micros() as u64,
                _ => 0,
            };
            (failed, degraded, stale, unavailable)
        });
        std::thread::sleep(Duration::from_millis(50));
        kill_at.set(Instant::now()).expect("one kill");
        child.kill_now();

        // Writes through the router resume once the follower promotes
        // and the write path fails over to it; probe with a duplicate
        // of an already-ingested point (harmless, Theorem 4.2).
        let mut wc = HullClient::builder(raddr.to_string())
            .connect()
            .expect("connect router");
        let wdeadline = Instant::now() + Duration::from_secs(30);
        while wc
            .mutate(0, MutationBatch::new().insert(rows[0].clone()))
            .is_err()
        {
            assert!(Instant::now() < wdeadline, "follower never promoted");
            std::thread::sleep(Duration::from_millis(5));
        }
        let promote_us = kill_at
            .get()
            .map(|k| Instant::now().duration_since(*k).as_micros() as u64)
            .unwrap_or(0);
        done.store(true, Ordering::SeqCst);
        let (failed, degraded, stale, unavailable) = probe.join().expect("probe");
        (failed, degraded, stale, unavailable, promote_us)
    };

    // Bit-identical: the promoted follower's hull vs offline Algorithm 2.
    let mut fc = HullClient::builder(raddr.to_string())
        .connect()
        .expect("connect router");
    fc.flush(0).expect("flush promoted");
    let snap = fc.snapshot(0).expect("snapshot promoted");
    // `>=`: the write probe lands duplicate rows on purpose.
    assert!(snap.points.len() >= n, "acked inserts lost across the kill");
    let flat: Vec<i64> = snap.points.iter().flatten().copied().collect();
    let served_set = PointSet::from_flat(dim, flat.clone());
    let offline = incremental_hull_run(&served_set);
    let canon = |facets: &[Vec<u32>]| -> std::collections::BTreeSet<Vec<Vec<i64>>> {
        facets
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
    };
    let offline_facets: Vec<Vec<u32>> = offline.output.facets.iter().map(|f| f.to_vec()).collect();
    let bit_identical = canon(&snap.facets) == canon(&offline_facets);
    assert!(bit_identical, "promoted hull differs from offline");
    let failovers = router.failovers();
    router.shutdown();
    follower.shutdown();

    println!(
        "{:<28} {:>8} pts  {:>10.0} ins/s  kill->reads {}us  kill->writes {}us  \
         {} failed / {} degraded / {} stale reads  {} router failovers",
        "replicated_failover_2d",
        n,
        n as f64 / ingest_secs,
        unavailable_us,
        promote_us,
        failed_reads,
        degraded_reads,
        stale_reads,
        failovers
    );
    format!(
        "  {{\"workload\": \"replicated_failover_2d\", \"dim\": {dim}, \"n_points\": {n}, \
         \"clients\": {clients}, \"inserts_per_sec\": {:.0}, \"degraded_window_us\": {unavailable_us}, \
         \"promote_window_us\": {promote_us}, \"failed_reads\": {failed_reads}, \
         \"degraded_reads\": {degraded_reads}, \"stale_reads\": {stale_reads}, \
         \"router_failovers\": {failovers}, \"bit_identical_after_failover\": {bit_identical}}}",
        n as f64 / ingest_secs,
    )
}

/// One E20 arm: stream `pts` into shard 0 and time until **applied**
/// (ingest + flush), so the figure measures the apply engine, not just
/// enqueue acks. `batch` = 0 streams one point per `Mutate` frame;
/// otherwise points go in `batch`-sized frames. Returns applied points/sec plus the shard's
/// drain-continuation-round count.
fn run_applied_ingest(pts: &PointSet, clients: usize, batch: usize, workers: usize) -> (f64, u64) {
    let dim = pts.dim();
    let n = pts.len();
    let mut server = serve(ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let rows = &rows;
            s.spawn(move || {
                let mut client = HullClient::builder(addr.to_string())
                    .connect()
                    .expect("connect");
                let mine: Vec<Vec<i64>> = rows.iter().skip(c).step_by(clients).cloned().collect();
                if batch == 0 {
                    for row in &mine {
                        client
                            .mutate(0, MutationBatch::new().insert(row.clone()))
                            .expect("insert");
                    }
                } else {
                    for chunk in mine.chunks(batch) {
                        let muts: Vec<Mutation> =
                            chunk.iter().map(|p| Mutation::Insert(p.clone())).collect();
                        client.mutate(0, muts.into()).expect("insert batch");
                    }
                }
            });
        }
    });
    let mut client = HullClient::builder(addr.to_string())
        .connect()
        .expect("connect");
    client.flush(0).expect("flush");
    let applied_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        client.snapshot(0).expect("snapshot").points.len(),
        n,
        "applied ingest lost points"
    );
    let stats = client.stats(Some(0)).expect("stats");
    let drain_rounds = stats
        .split("\"queue_drain_rounds\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    server.shutdown();
    (n as f64 / applied_secs, drain_rounds)
}

/// E20: parallel in-shard batch apply A/B. Per workload: a single-insert
/// baseline (one point per frame, 1 worker), batched
/// frames on 1 worker (isolates coalescing from parallelism), and
/// batched frames on a ≥4-worker pool (Algorithm 3 on the serving
/// path). Returns pre-formatted JSON rows.
fn run_batch_apply_ab(name: &str, pts: &PointSet, clients: usize, batch: usize) -> Vec<String> {
    let dim = pts.dim();
    let n = pts.len();
    let (single_ps, single_rounds) = run_applied_ingest(pts, clients, 0, 1);
    let arms = [
        ("single_insert_w1", 0, 1, single_ps, single_rounds),
        {
            let (ps, rounds) = run_applied_ingest(pts, clients, batch, 1);
            ("batched_w1", batch, 1, ps, rounds)
        },
        {
            let (ps, rounds) = run_applied_ingest(pts, clients, batch, 4);
            ("batched_w4", batch, 4, ps, rounds)
        },
    ];
    arms.iter()
        .map(|(mode, b, workers, ps, rounds)| {
            let speedup = ps / single_ps;
            println!(
                "{:<28} {:>8} pts  {:>10.0} applied/s  ({mode}, batch {b}, {workers} workers, {speedup:.2}x vs single-insert, {rounds} drain rounds)",
                name, n, ps
            );
            format!(
                "  {{\"workload\": \"{name}\", \"dim\": {dim}, \"n_points\": {n}, \
                 \"clients\": {clients}, \"mode\": \"{mode}\", \"batch\": {b}, \
                 \"workers\": {workers}, \"applied_per_sec\": {ps:.0}, \
                 \"speedup_vs_single_insert\": {speedup:.2}, \
                 \"queue_drain_rounds\": {rounds}}}"
            )
        })
        .collect()
}

/// E22: connection fan-in. `conns_wanted` concurrent connections, all
/// driven by **one** client thread over a `chull-net` poller (one
/// in-flight `Contains` per connection, `probes` requests each),
/// against the event-loop server. Measures connect-phase time,
/// sustained requests/sec, and client-observed per-request
/// percentiles — the figure of merit is a p99 that stays flat as
/// `conns` grows.
fn run_fanin(conns_wanted: usize, probes: usize) -> String {
    use chull_net::{poller, ByteBuf, FrameDecoder, Interest, Token};
    use chull_service::wire::{Request, Response, MAX_FRAME};
    use std::io::BufRead as _;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    // A loopback connection costs one fd on each side. RLIMIT_NOFILE is
    // per-process, so the server runs as a re-exec'd child of this
    // binary (`--fanin-server`): client and server each get a whole
    // nofile budget instead of splitting one 2-ways. Raise ours, and
    // clamp the fan-in when the hard limit still wins.
    let want = (conns_wanted + 256) as u64;
    let limit = chull_net::raise_nofile_limit(want);
    let conns = if limit < want {
        let fit = (limit.saturating_sub(256)).max(1) as usize;
        eprintln!("service_load: nofile limit {limit} clamps fan-in {conns_wanted} -> {fit} conns");
        fit.min(conns_wanted)
    } else {
        conns_wanted
    };

    let mut child = ChildGuard::new(
        std::process::Command::new(std::env::current_exe().expect("current_exe for fan-in server"))
            .args(["--fanin-server", &conns.to_string()])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn fan-in server child"),
    );
    let addr: std::net::SocketAddr = {
        let out = child.inner().stdout.take().expect("child stdout");
        let mut line = String::new();
        std::io::BufReader::new(out)
            .read_line(&mut line)
            .expect("read child addr banner");
        line.trim()
            .strip_prefix("FANIN_ADDR ")
            .unwrap_or_else(|| panic!("bad fan-in server banner: {line:?}"))
            .parse()
            .expect("child addr")
    };
    {
        // Seed a small hull so every probe does real point location and
        // has one known answer.
        let mut seed = HullClient::builder(addr.to_string())
            .connect()
            .expect("connect");
        for p in [[0, 0], [1_000, 0], [0, 1_000], [1_000, 1_000]] {
            seed.mutate(0, MutationBatch::new().insert(p))
                .expect("seed insert");
        }
        seed.flush(0).expect("seed flush");
    }
    let probe_frame = {
        let payload = Request::Contains {
            shard: 0,
            point: vec![500, 500],
        }
        .encode();
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&payload);
        f
    };

    struct FanConn {
        stream: TcpStream,
        dec: FrameDecoder,
        wbuf: ByteBuf,
        interest: Interest,
        sent_at: Instant,
        remaining: usize,
    }
    fn flush(c: &mut FanConn) -> bool {
        while !c.wbuf.is_empty() {
            match c.wbuf.write_to(&mut c.stream) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    let p = poller().expect("poller");
    let t_connect = Instant::now();
    let mut ring: Vec<FanConn> = Vec::with_capacity(conns);
    for i in 0..conns {
        // Sequential blocking connects can outrun the accept loop's
        // backlog at 10k-connection scale; back off briefly and retry.
        let stream = (0..50)
            .find_map(|attempt| {
                if attempt > 0 {
                    std::thread::sleep(Duration::from_millis(20 * attempt));
                }
                TcpStream::connect(addr).ok()
            })
            .unwrap_or_else(|| panic!("fan-in connect {i} kept failing"));
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        ring.push(FanConn {
            stream,
            dec: FrameDecoder::new(MAX_FRAME),
            wbuf: ByteBuf::new(),
            interest: Interest::READABLE,
            sent_at: Instant::now(),
            remaining: probes,
        });
    }
    let connect_secs = t_connect.elapsed().as_secs_f64();

    // Prime one in-flight probe per connection, then pump readiness.
    let t_load = Instant::now();
    let total = conns * probes;
    let mut lat_us: Vec<f64> = Vec::with_capacity(total);
    for (i, c) in ring.iter_mut().enumerate() {
        c.wbuf.extend(&probe_frame);
        c.sent_at = Instant::now();
        assert!(flush(c), "conn {i} failed first send");
        c.interest = if c.wbuf.is_empty() {
            Interest::READABLE
        } else {
            Interest::BOTH
        };
        p.register(c.stream.as_raw_fd(), Token(i), c.interest)
            .expect("register");
    }
    let mut done = 0usize;
    let mut events = Vec::new();
    while done < total {
        events.clear();
        p.wait(&mut events, Some(Duration::from_secs(10)))
            .expect("poll wait");
        assert!(
            !events.is_empty(),
            "fan-in stalled at {done}/{total} replies (conns={conns})"
        );
        for ev in &events {
            let i = ev.token.0;
            let c = &mut ring[i];
            assert!(!ev.error, "conn {i} entered an error state");
            if ev.writable && !flush(c) {
                panic!("conn {i} write failed");
            }
            if ev.readable || ev.hangup {
                loop {
                    match c.dec.read_from(&mut c.stream) {
                        Ok(0) => panic!("server closed fan-in conn {i} early"),
                        Ok(_) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => panic!("conn {i} read failed: {e}"),
                    }
                }
                while let Some(payload) = c.dec.next_frame().expect("frame decode") {
                    let resp = Response::decode(&payload).expect("reply decode");
                    assert!(
                        matches!(resp, Response::Bool(true)),
                        "probe reply: {resp:?}"
                    );
                    lat_us.push(c.sent_at.elapsed().as_secs_f64() * 1e6);
                    c.remaining -= 1;
                    done += 1;
                    if c.remaining > 0 {
                        c.wbuf.extend(&probe_frame);
                        c.sent_at = Instant::now();
                        if !flush(c) {
                            panic!("conn {i} write failed");
                        }
                    }
                }
            }
            let want = if c.wbuf.is_empty() {
                Interest::READABLE
            } else {
                Interest::BOTH
            };
            if want != c.interest {
                c.interest = want;
                p.reregister(c.stream.as_raw_fd(), Token(i), want)
                    .expect("reregister");
            }
        }
    }
    let load_secs = t_load.elapsed().as_secs_f64();
    for c in &ring {
        let _ = p.deregister(c.stream.as_raw_fd());
    }
    drop(ring);
    HullClient::builder(addr.to_string())
        .connect()
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("remote shutdown");
    child.wait();

    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rps = total as f64 / load_secs;
    let p50 = percentile(&lat_us, 0.50);
    let p99 = percentile(&lat_us, 0.99);
    println!(
        "{:<28} {:>8} conns (event, poller {})  connect {:.2}s  {:>9.0} req/s (p50 {:>6.1}us p99 {:>8.1}us, {} probes/conn)",
        "service_fanin", conns, p.name(), connect_secs, rps, p50, p99, probes
    );
    format!(
        "  {{\"workload\": \"service_fanin\", \"backend\": \"event\", \"poller\": \"{}\", \
         \"conns\": {conns}, \"conns_wanted\": {conns_wanted}, \"probes_per_conn\": {probes}, \
         \"n_requests\": {total}, \"connect_secs\": {connect_secs:.3}, \
         \"requests_per_sec\": {rps:.0}, \"req_p50_us\": {p50:.1}, \"req_p99_us\": {p99:.1}}}",
        p.name()
    )
}

/// E25 (`churn_2d`): sliding-window / deletion churn throughput vs
/// window size. One ingest client streams `pts` in 64-mutation v6
/// `Mutate` envelopes; the live set is bounded at `window` points
/// either by the server's count-window policy (`mode == "window"`:
/// pure inserts, the shard expires its own oldest rows) or by explicit
/// client-side deletes (`mode == "delete"`: each envelope pairs the
/// insert of point `i` with a `Delete` of point `i - window`).
/// `window == 0` is the insert-only baseline. Single-client ingest
/// keeps the surviving set deterministic — the newest `window` points
/// in stream order — so the served hull is asserted canonically
/// identical to offline Algorithm 2 on exactly those survivors.
fn run_churn(pts: &PointSet, mode: &str, window: usize) -> String {
    let dim = pts.dim();
    let n = pts.len();
    let rows: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    let mut server = serve(ServeOptions {
        config: ServiceConfig {
            dim,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            window: if mode == "window" && window > 0 {
                WindowPolicy::Count(window)
            } else {
                WindowPolicy::None
            },
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let mut client = HullClient::builder(addr.to_string())
        .connect()
        .expect("connect");
    let mut total_muts = 0usize;
    let t0 = Instant::now();
    let mut batch = MutationBatch::new();
    for (i, row) in rows.iter().enumerate() {
        batch = batch.insert(row.clone());
        if mode == "delete" && window > 0 && i >= window {
            batch = batch.delete(rows[i - window].clone());
        }
        if batch.len() >= 64 || i + 1 == n {
            total_muts += batch.len();
            client
                .mutate(0, std::mem::take(&mut batch))
                .expect("mutate");
        }
    }
    client.flush(0).expect("flush");
    let churn_secs = t0.elapsed().as_secs_f64();
    let snap = client.snapshot(0).expect("snapshot");
    let stats = client.stats(Some(0)).expect("stats");
    server.shutdown();

    // Canonical check: facets of the served hull vs offline Algorithm 2
    // on the deterministic survivor suffix.
    let survivors: &[Vec<i64>] = if window == 0 {
        &rows
    } else {
        &rows[n - window..]
    };
    let canon = |facets: &[Vec<u32>], flat: &[i64]| -> std::collections::BTreeSet<Vec<Vec<i64>>> {
        facets
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
    };
    let served_flat: Vec<i64> = snap.points.iter().flatten().copied().collect();
    let surv_flat: Vec<i64> = survivors.iter().flatten().copied().collect();
    let offline = incremental_hull_run(&PointSet::from_flat(dim, surv_flat.clone()));
    let offline_facets: Vec<Vec<u32>> = offline.output.facets.iter().map(|f| f.to_vec()).collect();
    assert_eq!(
        canon(&snap.facets, &served_flat),
        canon(&offline_facets, &surv_flat),
        "windowed hull differs from offline on survivors (mode {mode}, window {window})"
    );

    let grab = |key: &str| -> u64 {
        stats
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    };
    let (tombstones, expirations) = (grab("tombstones"), grab("window_expirations"));
    let (rebuilds, autoc) = (grab("rebuilds"), grab("auto_compactions"));
    let live = grab("live_points");
    if window > 0 {
        assert_eq!(live as usize, window, "live set missed the window bound");
    }
    let mps = total_muts as f64 / churn_secs;
    println!(
        "{:<28} {:>8} pts  {:>10.0} muts/s  ({mode}, window {window}: {tombstones} tombstones, \
         {expirations} expired, {rebuilds} rebuilds / {autoc} auto, {live} live, {} facets)",
        "churn_2d",
        n,
        mps,
        snap.facets.len()
    );
    format!(
        "  {{\"workload\": \"churn_2d\", \"mode\": \"{mode}\", \"window\": {window}, \
         \"dim\": {dim}, \"n_points\": {n}, \"mutations\": {total_muts}, \
         \"mutations_per_sec\": {mps:.0}, \"tombstones\": {tombstones}, \
         \"window_expirations\": {expirations}, \"rebuilds\": {rebuilds}, \
         \"auto_compactions\": {autoc}, \"live_points\": {live}, \
         \"canonical_identical\": true}}"
    )
}

fn write_json(path: &str, results: &[LoadResult], extra_rows: &[String]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"dim\": {}, \"n_points\": {}, \"clients\": {}, \
             \"inserts_per_sec\": {:.0}, \"insert_p50_us\": {:.1}, \"insert_p99_us\": {:.1}, \
             \"overloaded\": {}, \"n_queries\": {}, \"queries_per_sec\": {:.0}, \
             \"query_p50_us\": {:.1}, \"query_p99_us\": {:.1}, \"hull_facets\": {}, \
             \"dep_depth_records\": {}, \"dep_depth_p50\": {}, \"dep_depth_max\": {}, \
             \"harmonic_h_n\": {:.2}}}{}\n",
            r.workload,
            r.dim,
            r.n_points,
            r.clients,
            r.inserts_per_sec,
            r.insert_p50_us,
            r.insert_p99_us,
            r.overloaded,
            r.n_queries,
            r.queries_per_sec,
            r.query_p50_us,
            r.query_p99_us,
            r.hull_facets,
            r.dep_depth_records,
            r.dep_depth_p50,
            r.dep_depth_max,
            r.harmonic_h_n,
            if i + 1 < results.len() || !extra_rows.is_empty() {
                ","
            } else {
                ""
            }
        ));
    }
    for (i, row) in extra_rows.iter().enumerate() {
        out.push_str(row);
        out.push_str(if i + 1 < extra_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Internal child mode (`--fanin-server CONNS`): serve on an
/// ephemeral loopback port in a process of our own — so the E22 fan-in
/// gets two whole RLIMIT_NOFILE budgets — print the address banner, and
/// run until the parent sends a wire `Shutdown`.
fn fanin_server_main(conns: usize) {
    use std::io::Write as _;
    chull_net::raise_nofile_limit((conns + 256) as u64);
    let handle = serve(ServeOptions {
        config: ServiceConfig {
            dim: 2,
            shards: 1,
            queue_capacity: 4096,
            max_batch: 256,
            workers: 0,
            wal_dir: None,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    println!("FANIN_ADDR {}", handle.local_addr());
    std::io::stdout().flush().expect("flush addr banner");
    handle.join();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--fanin-server") {
        let conns = args
            .get(1)
            .expect("--fanin-server needs a conns hint")
            .parse()
            .expect("bad conns hint");
        fanin_server_main(conns);
        return;
    }
    if args.first().map(String::as_str) == Some("--repl-primary") {
        repl_primary_main();
        return;
    }
    let mut out_path = "BENCH_service.json".to_string();
    let mut clients = 4usize;
    let mut quick = false;
    let mut fanin = 10_000usize;
    let mut fanin_only = false;
    let mut repl_only = false;
    let mut churn_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--clients" => {
                clients = it
                    .next()
                    .expect("--clients needs a value")
                    .parse()
                    .expect("bad --clients value");
            }
            "--quick" => quick = true,
            "--fanin" => {
                fanin = it
                    .next()
                    .expect("--fanin needs a value")
                    .parse()
                    .expect("bad --fanin value");
            }
            "--fanin-only" => fanin_only = true,
            "--repl-only" => repl_only = true,
            "--churn-only" => churn_only = true,
            other => {
                eprintln!(
                    "USAGE: service_load [--out FILE] [--clients C] [--quick] \
                     [--fanin N] [--fanin-only] [--repl-only] [--churn-only]"
                );
                panic!("unknown flag '{other}'");
            }
        }
    }
    if repl_only {
        let n = if quick { 2_000 } else { 25_000 };
        let row = run_replicated_failover(&generators::cube_d(2, n, 1_000_000, 88), clients);
        write_json(&out_path, &[], &[row]).expect("writing results");
        println!("wrote {out_path}");
        return;
    }
    // E25: churn throughput vs window size, windowed-expiry and
    // explicit-delete arms, plus the insert-only baseline.
    let run_churn_rows = |quick: bool| -> Vec<String> {
        let n = if quick { 2_000 } else { 50_000 };
        let windows: &[usize] = if quick {
            &[256, 1_024]
        } else {
            &[2_048, 16_384]
        };
        let pts = generators::cube_d(2, n, 1_000_000, 55);
        let mut rows = vec![run_churn(&pts, "insert_only", 0)];
        for &w in windows {
            rows.push(run_churn(&pts, "window", w));
            rows.push(run_churn(&pts, "delete", w));
        }
        rows
    };
    if churn_only {
        let rows = run_churn_rows(quick);
        write_json(&out_path, &[], &rows).expect("writing results");
        println!("wrote {out_path}");
        return;
    }
    // E22: a moderate fan-in, then the full fan-in target.
    let fanin_probes = if quick { 4 } else { 20 };
    let run_fanin_rows = || -> Vec<String> {
        vec![
            run_fanin(512.min(fanin), fanin_probes),
            run_fanin(fanin, fanin_probes),
        ]
    };
    if fanin_only {
        let rows = run_fanin_rows();
        write_json(&out_path, &[], &rows).expect("writing results");
        println!("wrote {out_path}");
        return;
    }
    let (n2, n3, q) = if quick {
        (2_000, 1_000, 500)
    } else {
        (50_000, 20_000, 5_000)
    };
    let results = vec![
        run_workload(
            "disk_2d/uniform",
            &generators::cube_d(2, n2, 1_000_000, 42),
            clients,
            q,
        ),
        run_workload(
            "near_circle_2d",
            &generators::near_sphere_d(2, n2 / 2, 1_000_000, 42),
            clients,
            q,
        ),
        run_workload(
            "ball_3d/uniform",
            &generators::ball_d(3, n3, 1_000_000, 42),
            clients,
            q,
        ),
    ];
    let mut extra = run_batch_apply_ab(
        "batch_apply_3d",
        &generators::ball_d(3, n3, 1_000_000, 42),
        clients,
        if quick { 64 } else { 256 },
    );
    extra.extend(run_batch_apply_ab(
        "batch_apply_2d",
        &generators::cube_d(2, n2, 1_000_000, 42),
        clients,
        if quick { 64 } else { 256 },
    ));
    extra.push(run_chaos_recovery(
        &generators::cube_d(2, n2, 1_000_000, 77),
        clients,
    ));
    extra.push(run_replicated_failover(
        &generators::cube_d(2, n2 / 2, 1_000_000, 88),
        clients,
    ));
    extra.extend(run_churn_rows(quick));
    extra.extend(run_fanin_rows());
    write_json(&out_path, &results, &extra).expect("writing results");
    println!("wrote {out_path}");
}
