//! `hull` — a command-line convex hull tool over the suite.
//!
//! **Offline mode** (default): reads whitespace-separated integer
//! coordinates (one point per line) from a file or stdin, computes the
//! hull with the requested algorithm, and prints the hull facets (as
//! 0-based input indices) plus instrumentation.
//!
//! **Serving mode**: `hull serve` runs the long-lived `chull-service`
//! hull server (`--follow PRIMARY` turns it into a read-only follower
//! replica shipping the primary's journal); `hull route` fronts a
//! primary + followers with a consistent-hashing failover router;
//! `hull query` talks to any of them over the wire protocol;
//! `hull metrics` scrapes a server's telemetry (Prometheus text over
//! HTTP `/metrics` or the in-band wire `Metrics` op) and pretty-prints
//! it. `hull serve` and `hull route` shut down gracefully on
//! SIGTERM/SIGINT. The serving commands are unix-only.
//!
//! ```text
//! USAGE: hull [--dim D] [--algo seq|par|rounds|chain] [--seed S]
//!             [--stats] [--stats-json] [FILE]
//!        hull serve [--addr H:P] [--dim D] [--shards N] [--queue-cap C]
//!                   [--batch B] [--workers W] [--wal DIR]
//!                   [--window N | --window-epochs N] [--rebuild-ratio R]
//!                   [--journal-ratio R]
//!                   [--metrics-addr H:P] [--chaos-seed S] [--oneshot] [--stats-json]
//!                   [--dispatchers N]
//!                   [--follow PRIMARY] [--promote-after N]
//!        hull compact [--dim D] [--workers W] --wal DIR
//!        hull route [--addr H:P] [--probe-ms MS] NODE...
//!        hull query ADDR OP [SHARD] [COORDS...]
//!          OP: insert|delete|expire|contains|visible|extreme|stats|snapshot|
//!              flush|metrics|shutdown|script  (script reads one OP line per
//!              stdin line; consecutive same-shard mutations ride one
//!              Mutate envelope)
//!        hull metrics [--raw] ADDR
//! ```
//!
//! Examples:
//! ```text
//! $ printf '0 0\n4 0\n0 4\n4 4\n2 2\n' | hull
//! $ hull --dim 3 --algo par --stats points3d.txt
//! $ hull serve --addr 127.0.0.1:4077 --metrics-addr 127.0.0.1:9107 &
//! $ hull query 127.0.0.1:4077 insert 0 3 4
//! $ hull query 127.0.0.1:4077 contains 0 1 1
//! $ hull metrics 127.0.0.1:9107          # or the wire addr: 127.0.0.1:4077
//! ```

use convex_hull_suite::core::baseline::monotone_chain;
use convex_hull_suite::core::context::prepare_points_with_perm;
use convex_hull_suite::core::par::rounds::rounds_hull;
use convex_hull_suite::core::par::{parallel_hull, ParOptions};
use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::core::{HullOutput, HullStats};
use convex_hull_suite::geometry::{Point2i, PointSet};
use convex_hull_suite::service::{
    route, serve, FollowOptions, HullClient, MutationBatch, RouterOptions, ServeOptions,
    WindowPolicy,
};
use std::io::Read;

/// Parsed command-line options.
#[derive(Debug, PartialEq, Eq)]
struct Options {
    dim: usize,
    algo: Algo,
    seed: u64,
    stats: bool,
    stats_json: bool,
    file: Option<String>,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Algo {
    Seq,
    Par,
    Rounds,
    Chain,
}

fn usage() -> ! {
    eprintln!(
        "USAGE: hull [--dim D] [--algo seq|par|rounds|chain] [--seed S] [--stats] [--stats-json] [FILE]\n\
         \x20      hull serve [--addr H:P] [--dim D] [--shards N] [--queue-cap C] [--batch B]\n\
         \x20                 [--workers W] [--wal DIR] [--metrics-addr H:P]\n\
         \x20                 [--window N | --window-epochs N] [--rebuild-ratio R] [--journal-ratio R]\n\
         \x20                 [--chaos-seed S] [--oneshot] [--stats-json]\n\
         \x20                 [--dispatchers N] [--follow PRIMARY] [--promote-after N]\n\
         \x20        --workers W caps the threads one batch applies with (0 = auto, 1 = sequential baseline;\n\
         \x20        beyond 1 they come from one shared pool of at most {max_helpers} helpers);\n\
         \x20        --wal DIR persists per-shard insert WALs under DIR (crash-safe restart: the\n\
         \x20        hull is rebuilt by one bulk build, canonically identical to the lost one);\n\
         \x20        --window N keeps only the newest N points per shard (sliding window: older\n\
         \x20        rows are tombstoned after every publication); --window-epochs N retires rows\n\
         \x20        older than N publication epochs instead; --rebuild-ratio R rebuilds the hull\n\
         \x20        from survivors once tombstoned entries exceed R x live rows (default 0.5);\n\
         \x20        --journal-ratio R auto-compacts the journal once it holds more than R ops per\n\
         \x20        live row (default 4.0, 0 = off);\n\
         \x20        --metrics-addr H:P serves Prometheus text on plain HTTP GET /metrics;\n\
         \x20        --chaos-seed S arms the canned fault-injection schedule (testing only);\n\
         \x20        --dispatchers N sizes the event loop's request pool (0 = auto);\n\
         \x20        --follow PRIMARY runs a read-only follower replica shipping PRIMARY's journal\n\
         \x20        units (incompatible with --wal — followers resync from the primary);\n\
         \x20        --promote-after N self-promotes to writable after N consecutive failed\n\
         \x20        resubscribes (0 = never)\n\
         \x20      hull compact [--dim D] [--workers W] --wal DIR\n\
         \x20        collapse each shard-*.wal under DIR into one bulk-built checkpoint unit:\n\
         \x20        strictly-interior points are pruned, the hull served after restart is\n\
         \x20        identical, epochs reset to 1 (followers must re-bootstrap)\n\
         \x20      hull route [--addr H:P] [--probe-ms MS] NODE...\n\
         \x20        consistent-hash reads across NODEs (first NODE = write primary), health-check\n\
         \x20        every MS ms, and fail over with Degraded-wrapped replies when a node dies\n\
         \x20      hull query ADDR OP [SHARD] [COORDS...]\n\
         \x20        OP: insert|delete|contains|visible|extreme SHARD C1..CD\n\
         \x20            expire SHARD N (tombstone the N oldest live rows) | stats [SHARD] |\n\
         \x20            snapshot SHARD | flush SHARD | metrics | shutdown |\n\
         \x20            script (reads one OP line per stdin line, one connection)\n\
         \x20      hull metrics [--raw] ADDR\n\
         \x20        scrape ADDR (HTTP /metrics, falling back to the wire Metrics op) and\n\
         \x20        pretty-print a sorted table; --raw emits the exposition text verbatim\n\
         Offline mode reads one point per line (D whitespace-separated integers); FILE defaults to stdin.",
        max_helpers = convex_hull_suite::concurrent::pool::MAX_HELPERS
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        dim: 2,
        algo: Algo::Seq,
        seed: 42,
        stats: false,
        stats_json: false,
        file: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dim" => {
                opts.dim = it
                    .next()
                    .ok_or("--dim needs a value")?
                    .parse()
                    .map_err(|_| "bad --dim value")?;
            }
            "--algo" => {
                opts.algo = match it.next().ok_or("--algo needs a value")?.as_str() {
                    "seq" => Algo::Seq,
                    "par" => Algo::Par,
                    "rounds" => Algo::Rounds,
                    "chain" => Algo::Chain,
                    other => return Err(format!("unknown algorithm '{other}'")),
                };
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed value")?;
            }
            "--stats" => opts.stats = true,
            "--stats-json" => opts.stats_json = true,
            "--help" | "-h" => return Err("help".to_string()),
            f if !f.starts_with('-') => {
                if opts.file.is_some() {
                    return Err("multiple input files".to_string());
                }
                opts.file = Some(f.to_string());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.dim < 2 || opts.dim > 8 {
        return Err("--dim must be in 2..=8".to_string());
    }
    if opts.algo == Algo::Chain && opts.dim != 2 {
        return Err("--algo chain is 2D only".to_string());
    }
    if opts.algo == Algo::Chain && opts.stats_json {
        return Err("--stats-json needs an instrumented algorithm (not chain)".to_string());
    }
    Ok(opts)
}

/// Parse whitespace-separated integer points, one per line.
fn parse_points(input: &str, dim: usize) -> Result<PointSet, String> {
    let mut ps = PointSet::new(dim);
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let coords: Result<Vec<i64>, _> =
            line.split_whitespace().map(|t| t.parse::<i64>()).collect();
        let coords = coords.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if coords.len() != dim {
            return Err(format!(
                "line {}: expected {dim} coordinates, got {}",
                lineno + 1,
                coords.len()
            ));
        }
        ps.push(&coords);
    }
    if ps.len() < dim + 1 {
        return Err(format!(
            "need at least {} points for a {dim}D hull",
            dim + 1
        ));
    }
    Ok(ps)
}

fn print_output(
    out: &HullOutput,
    stats: Option<&HullStats>,
    stats_json: Option<&HullStats>,
    perm: Option<&[usize]>,
) {
    for f in &out.facets {
        let ids: Vec<String> = f[..out.dim]
            .iter()
            .map(|&v| match perm {
                Some(p) => p[v as usize].to_string(),
                None => v.to_string(),
            })
            .collect();
        println!("{}", ids.join(" "));
    }
    if let Some(s) = stats {
        eprintln!(
            "# n={} dim={} hull_facets={} facets_created={} visibility_tests={} dep_depth={} recursion_depth={} rounds={}",
            s.n,
            s.dim,
            s.hull_facets,
            s.facets_created,
            s.visibility_tests,
            s.dep_depth,
            s.recursion_depth,
            s.rounds
        );
        eprintln!(
            "# kernel: filter_hits={} i128_fallbacks={} bigint_fallbacks={}",
            s.filter_hits, s.i128_fallbacks, s.bigint_fallbacks
        );
    }
    if let Some(s) = stats_json {
        println!("{}", s.to_json());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("compact") => compact_main(&args[1..]),
        Some("route") => route_main(&args[1..]),
        Some("query") => query_main(&args[1..]),
        Some("metrics") => metrics_main(&args[1..]),
        _ => offline_main(&args),
    }
}

/// Bind `SIGTERM`/`SIGINT` to an eventfd and watch it from a thread:
/// when a signal lands, run `on_signal` (graceful shutdown) exactly
/// once. The handler itself only does async-signal-safe work (one
/// `write(2)`); everything else happens on the watcher thread. No-op
/// off Linux.
fn on_termination_signal(on_signal: impl FnOnce() + Send + 'static) {
    #[cfg(target_os = "linux")]
    {
        use convex_hull_suite::net::sys::{sys_poll, sys_termination_eventfd, PollFd, POLLIN};
        let efd = match sys_termination_eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                eprintln!("hull: cannot bind termination signals: {e}");
                return;
            }
        };
        std::thread::spawn(move || {
            // Rebind the whole guard: disjoint closure capture would
            // otherwise move only the `Copy` fd number in, drop the
            // guard at the end of `on_termination_signal`, and close
            // the eventfd under the poll (instant phantom POLLNVAL
            // wake-ups = spurious shutdowns).
            let efd = efd;
            let mut fds = [PollFd {
                fd: efd.0,
                events: POLLIN,
                revents: 0,
            }];
            loop {
                match sys_poll(&mut fds, -1) {
                    Ok(n) if n > 0 => break,
                    // EINTR (the signal interrupting poll itself): retry;
                    // the eventfd write still lands.
                    _ => continue,
                }
            }
            eprintln!("hull: termination signal received, shutting down");
            on_signal();
        });
    }
    #[cfg(not(target_os = "linux"))]
    let _ = on_signal;
}

fn offline_main(args: &[String]) {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
        }
    };
    let mut input = String::new();
    match &opts.file {
        Some(f) => {
            input = std::fs::read_to_string(f).unwrap_or_else(|e| {
                eprintln!("error reading {f}: {e}");
                std::process::exit(1);
            });
        }
        None => {
            std::io::stdin()
                .read_to_string(&mut input)
                .expect("reading stdin");
        }
    }
    let pts = parse_points(&input, opts.dim).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    if opts.algo == Algo::Chain {
        let raw: Vec<Point2i> = (0..pts.len())
            .map(|i| Point2i::new(pts.point(i)[0], pts.point(i)[1]))
            .collect();
        let out = monotone_chain::hull_output(&raw);
        print_output(&out, None, None, None);
        return;
    }

    // The incremental algorithms want a random insertion order; translate
    // facet indices back to the input order via the permutation.
    let (prepared, perm) = prepare_points_with_perm(&pts, opts.seed);
    let (output, stats) = match opts.algo {
        Algo::Seq => {
            let run = incremental_hull_run(&prepared);
            (run.output, run.stats)
        }
        Algo::Par => {
            let run = parallel_hull(&prepared, ParOptions::default());
            (run.output, run.stats)
        }
        Algo::Rounds => {
            let run = rounds_hull(&prepared, false);
            (run.output, run.stats)
        }
        Algo::Chain => unreachable!(),
    };
    print_output(
        &output,
        opts.stats.then_some(&stats),
        opts.stats_json.then_some(&stats),
        Some(&perm),
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn serve_main(args: &[String]) {
    // The event loop holds one descriptor per client connection: lift
    // the soft RLIMIT_NOFILE (often 1 024) to the hard limit, so fan-in
    // is bounded by what the host allows rather than by the default.
    convex_hull_suite::net::raise_nofile_limit(u64::MAX);
    let mut opts = ServeOptions {
        addr: "127.0.0.1:4077".to_string(),
        ..Default::default()
    };
    let mut stats_json = false;
    let mut chaos_seed: Option<u64> = None;
    let mut follow: Option<String> = None;
    let mut promote_after: Option<u32> = None;
    let mut it = args.iter();
    let next = |what: &str, it: &mut std::slice::Iter<String>| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{what} needs a value")))
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => opts.addr = next("--addr", &mut it),
            "--dim" => {
                opts.config.dim = next("--dim", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --dim value"));
            }
            "--shards" => {
                opts.config.shards = next("--shards", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --shards value"));
            }
            "--queue-cap" => {
                opts.config.queue_capacity = next("--queue-cap", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --queue-cap value"));
            }
            "--batch" => {
                opts.config.max_batch = next("--batch", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --batch value"));
            }
            "--workers" => {
                opts.config.workers = next("--workers", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --workers value"));
            }
            "--wal" => {
                opts.config.wal_dir = Some(std::path::PathBuf::from(next("--wal", &mut it)));
            }
            "--window" => {
                opts.config.window = WindowPolicy::Count(
                    next("--window", &mut it)
                        .parse()
                        .unwrap_or_else(|_| die("bad --window value")),
                );
            }
            "--window-epochs" => {
                opts.config.window = WindowPolicy::Epochs(
                    next("--window-epochs", &mut it)
                        .parse()
                        .unwrap_or_else(|_| die("bad --window-epochs value")),
                );
            }
            "--rebuild-ratio" => {
                opts.config.rebuild_ratio = next("--rebuild-ratio", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --rebuild-ratio value"));
            }
            "--journal-ratio" => {
                opts.config.journal_ratio = next("--journal-ratio", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --journal-ratio value"));
            }
            "--metrics-addr" => {
                opts.metrics_addr = Some(next("--metrics-addr", &mut it));
            }
            "--chaos-seed" => {
                chaos_seed = Some(
                    next("--chaos-seed", &mut it)
                        .parse()
                        .unwrap_or_else(|_| die("bad --chaos-seed value")),
                );
            }
            "--follow" => follow = Some(next("--follow", &mut it)),
            "--promote-after" => {
                promote_after = Some(
                    next("--promote-after", &mut it)
                        .parse()
                        .unwrap_or_else(|_| die("bad --promote-after value")),
                );
            }
            "--dispatchers" => {
                opts.dispatchers = next("--dispatchers", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --dispatchers value"));
            }
            "--oneshot" => opts.oneshot = true,
            "--stats-json" => stats_json = true,
            "--help" | "-h" => usage(),
            other => die(&format!("unknown serve flag '{other}'")),
        }
    }
    if opts.config.dim < 2 || opts.config.dim > 8 {
        die("--dim must be in 2..=8");
    }
    if opts.config.shards == 0 || opts.config.shards > u16::MAX as usize {
        die("--shards must be in 1..=65535");
    }
    if let Some(primary) = follow {
        if opts.config.wal_dir.is_some() {
            die(
                "follower replicas resync from the primary on restart; --wal is primary-only \
                 (a stale follower WAL would skew the batch-index mirror)",
            );
        }
        if !matches!(opts.config.window, WindowPolicy::None) {
            die(
                "--window/--window-epochs are primary-only: followers mirror the primary's \
                 tombstones instead of running their own retention policy",
            );
        }
        let mut f = FollowOptions {
            primary,
            ..FollowOptions::default()
        };
        if let Some(n) = promote_after {
            f.promote_after = n;
        }
        opts.follow = Some(f);
    } else if promote_after.is_some() {
        die("--promote-after only applies with --follow");
    }
    if let Some(seed) = chaos_seed {
        // Fault injection for resilience testing: replayable from the
        // seed alone. Workers will die and recover; clients see
        // `Degraded` replies during replay windows.
        convex_hull_suite::concurrent::failpoint::arm(
            convex_hull_suite::concurrent::failpoint::FaultPlan::chaos(seed),
        );
        eprintln!("hull: chaos schedule armed (seed {seed})");
    }
    let following = opts.follow.as_ref().map(|f| f.primary.clone());
    let handle = serve(opts).unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    // SIGTERM/SIGINT run the same graceful path as a remote `Shutdown`
    // op: stop accepting, drain the shards (which leaves every applied
    // batch unit sealed in the WAL — the open tail only exists inside a
    // batch apply), then exit through the normal join below. Installed
    // BEFORE the readiness line: harnesses send the signal as soon as
    // they see "listening on", and one landing before the handler is
    // bound would kill the process raw.
    let wire_addr = handle.local_addr();
    on_termination_signal(move || {
        let ok = HullClient::builder(wire_addr.to_string())
            .deadline(std::time::Duration::from_secs(2))
            .connect()
            .and_then(|mut c| c.shutdown_server());
        if let Err(e) = ok {
            eprintln!("hull: graceful shutdown request failed ({e}); exiting hard");
            std::process::exit(1);
        }
    });
    // The resolved address goes to stderr so facet/stat stdout stays clean
    // and scripts with `--addr host:0` can learn the picked port.
    eprintln!("hull: listening on {}", handle.local_addr());
    if let Some(primary) = following {
        eprintln!("hull: following {primary} (read-only replica)");
    }
    if let Some(maddr) = handle.metrics_addr() {
        eprintln!("hull: metrics on http://{maddr}/metrics");
    }
    let final_stats = handle.join_stats();
    if stats_json {
        println!("{final_stats}");
    }
}

/// `hull compact --wal DIR`: collapse each shard's journal into one
/// bulk-built checkpoint. The live rows go through the one bulk
/// constructor (`HullBuilder::seed_from_bulk`, DESIGN §S21); the
/// prefilter survivors that do not classify strictly inside the built
/// hull — every vertex and every point on the hull boundary, in
/// original arrival order — are rewritten atomically (tmp + rename) as
/// **one** journal batch unit. A flat shard (still bootstrapping) keeps
/// every row. Tombstones (deletes and window expirations) are resolved
/// before the build, so only rows still live enter the checkpoint. A
/// restart over the compacted WAL serves the identical hull
/// while replaying a fraction of the inserts. Epochs reset to 1, so
/// replication cursors into the old journal are invalidated: followers
/// of a compacted primary must re-bootstrap from scratch.
fn compact_main(args: &[String]) {
    use convex_hull_suite::core::bulk::prefilter;
    use convex_hull_suite::core::online::{HullBuilder, PointLocation};
    use convex_hull_suite::geometry::KernelCounts;
    use convex_hull_suite::service::{rewrite_wal, Journal};

    let mut dim = 2usize;
    let mut wal: Option<std::path::PathBuf> = None;
    let mut workers = 0usize;
    let mut it = args.iter();
    let next = |what: &str, it: &mut std::slice::Iter<String>| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{what} needs a value")))
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--wal" => wal = Some(std::path::PathBuf::from(next("--wal", &mut it))),
            "--dim" => {
                dim = next("--dim", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --dim value"));
            }
            "--workers" => {
                workers = next("--workers", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --workers value"));
            }
            "--help" | "-h" => usage(),
            other => die(&format!("unknown compact flag '{other}'")),
        }
    }
    if !(2..=8).contains(&dim) {
        die("--dim must be in 2..=8");
    }
    let dir = wal.unwrap_or_else(|| die("compact needs --wal DIR"));
    // Every `shard-N.wal` under DIR, in shard order.
    let mut shards: Vec<u16> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| die(&format!("read {}: {e}", dir.display())))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            name.to_str()?
                .strip_prefix("shard-")?
                .strip_suffix(".wal")?
                .parse()
                .ok()
        })
        .collect();
    shards.sort_unstable();
    if shards.is_empty() {
        die(&format!("no shard-*.wal files under {}", dir.display()));
    }
    for shard in shards {
        let journal = Journal::with_wal(dim, &dir, shard)
            .unwrap_or_else(|e| die(&format!("open shard {shard} WAL: {e}")));
        if journal.tail_damaged() {
            eprintln!(
                "hull: shard {shard}: dropped a torn WAL tail ({} ops recovered)",
                journal.len()
            );
        }
        let units = journal.batch_count();
        let ops = journal.len();
        // The same replay a restart runs, so the survivors are exactly
        // what a restart would serve.
        let rows = journal.replay().survivors();
        let kept: Vec<Vec<i64>> = match HullBuilder::seed_from_bulk(dim, &rows, workers).0.hull() {
            // Ascending survivor ids == original arrival order, so the
            // compacted journal replays with the same seed-basis choice.
            Some(hull) => {
                let mut counts = KernelCounts::default();
                prefilter(&PointSet::from_rows(dim, &rows))
                    .into_iter()
                    .map(|i| &rows[i as usize])
                    .filter(|r| hull.classify(r, &mut counts) != PointLocation::Inside)
                    .cloned()
                    .collect()
            }
            None => rows,
        };
        let bytes = rewrite_wal(dim, &dir, shard, &kept)
            .unwrap_or_else(|e| die(&format!("rewrite shard {shard} WAL: {e}")));
        println!(
            "shard {shard}: {ops} ops / {units} units -> {} inserts / 1 unit ({bytes} bytes)",
            kept.len(),
        );
    }
}

fn route_main(args: &[String]) {
    let mut opts = RouterOptions {
        addr: "127.0.0.1:4090".to_string(),
        ..RouterOptions::default()
    };
    let mut it = args.iter();
    let next = |what: &str, it: &mut std::slice::Iter<String>| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{what} needs a value")))
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => opts.addr = next("--addr", &mut it),
            "--probe-ms" => {
                let ms: u64 = next("--probe-ms", &mut it)
                    .parse()
                    .unwrap_or_else(|_| die("bad --probe-ms value"));
                opts.probe_interval = std::time::Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => usage(),
            node if !node.starts_with('-') => opts.nodes.push(node.to_string()),
            other => die(&format!("unknown route flag '{other}'")),
        }
    }
    if opts.nodes.is_empty() {
        die("route needs at least one NODE address (the first is the write primary)");
    }
    let nodes = opts.nodes.len();
    let mut handle = route(opts).unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    // Park until SIGTERM/SIGINT, then stop the listener threads cleanly
    // (backends are left running — the router holds no hull state).
    // Installed before the readiness line, same as `serve`: a signal
    // landing before the handler is bound would kill the process raw.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    on_termination_signal(move || {
        let _ = tx.send(());
    });
    eprintln!(
        "hull: routing on {} across {nodes} node{}",
        handle.local_addr(),
        if nodes == 1 { "" } else { "s" }
    );
    let _ = rx.recv();
    handle.shutdown();
}

fn parse_shard(tok: Option<&String>) -> u16 {
    tok.unwrap_or_else(|| die("missing shard id"))
        .parse()
        .unwrap_or_else(|_| die("bad shard id"))
}

fn parse_coords(toks: &[String]) -> Vec<i64> {
    if toks.is_empty() {
        die("missing coordinates");
    }
    toks.iter()
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| die(&format!("bad coordinate '{t}'")))
        })
        .collect()
}

/// Execute one query op (tokens: `OP [SHARD] [COORDS...]`) and render the
/// reply as a single stdout line.
fn run_query_op(client: &mut HullClient, toks: &[String]) -> std::io::Result<String> {
    let op = toks.first().map(String::as_str).unwrap_or_else(|| usage());
    Ok(match op {
        "insert" => {
            let shard = parse_shard(toks.get(1));
            client.mutate(shard, MutationBatch::new().insert(parse_coords(&toks[2..])))?;
            "queued".to_string()
        }
        "delete" => {
            let shard = parse_shard(toks.get(1));
            client.mutate(shard, MutationBatch::new().delete(parse_coords(&toks[2..])))?;
            "queued".to_string()
        }
        "expire" => {
            let shard = parse_shard(toks.get(1));
            let n: u32 = toks
                .get(2)
                .unwrap_or_else(|| die("expire needs a count"))
                .parse()
                .unwrap_or_else(|_| die("bad expire count"));
            client.mutate(shard, MutationBatch::new().expire(n))?;
            "queued".to_string()
        }
        "contains" => {
            let shard = parse_shard(toks.get(1));
            let point = parse_coords(&toks[2..]);
            match client.contains(shard, &point)? {
                Some(b) => b.to_string(),
                None => "not-ready".to_string(),
            }
        }
        "visible" => {
            let shard = parse_shard(toks.get(1));
            let point = parse_coords(&toks[2..]);
            match client.visible(shard, &point)? {
                Some(n) => format!("visible {n}"),
                None => "not-ready".to_string(),
            }
        }
        "extreme" => {
            let shard = parse_shard(toks.get(1));
            let dir = parse_coords(&toks[2..]);
            match client.extreme(shard, &dir)? {
                Some((v, coords)) => {
                    let c: Vec<String> = coords.iter().map(|x| x.to_string()).collect();
                    format!("extreme v={v} at {}", c.join(" "))
                }
                None => "not-ready".to_string(),
            }
        }
        "stats" => client.stats(toks.get(1).map(|t| parse_shard(Some(t))))?,
        "snapshot" => {
            let snap = client.snapshot(parse_shard(toks.get(1)))?;
            format!(
                "snapshot epoch={} points={} facets={}",
                snap.epoch,
                snap.points.len(),
                snap.facets.len()
            )
        }
        "flush" => format!("flushed epoch={}", client.flush(parse_shard(toks.get(1)))?),
        "metrics" => client.metrics()?,
        "shutdown" => {
            client.shutdown_server()?;
            "shutting-down".to_string()
        }
        other => die(&format!("unknown query op '{other}'")),
    })
}

fn query_main(args: &[String]) {
    if args.len() < 2 {
        usage();
    }
    let addr = &args[0];
    let mut client = HullClient::builder(addr.to_string())
        .connect()
        .unwrap_or_else(|e| die(&format!("connect {addr}: {e}")));
    if args[1] == "script" {
        // One connection, one op per stdin line — the shape the oneshot CI
        // smoke test needs (the server exits when this connection closes).
        // Consecutive mutations (insert/delete/expire) to the same shard
        // coalesce into a single `Mutate` envelope, still printing one
        // `queued` line per op.
        let mut input = String::new();
        std::io::stdin()
            .read_to_string(&mut input)
            .expect("reading stdin");
        let mut pending: Option<(u16, MutationBatch)> = None;
        let flush_pending =
            |client: &mut HullClient, pending: &mut Option<(u16, MutationBatch)>| {
                if let Some((shard, batch)) = pending.take() {
                    let n = batch.len();
                    match client.mutate(shard, batch) {
                        Ok(_) => {
                            for _ in 0..n {
                                println!("queued");
                            }
                        }
                        Err(e) => die(&format!("mutate (shard {shard}): {e}")),
                    }
                }
            };
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            if matches!(toks[0].as_str(), "insert" | "delete" | "expire") {
                let shard = parse_shard(toks.get(1));
                let batch = match &pending {
                    Some((s, _)) if *s == shard => pending.take().expect("just matched").1,
                    _ => {
                        flush_pending(&mut client, &mut pending);
                        MutationBatch::new()
                    }
                };
                let batch = match toks[0].as_str() {
                    "insert" => batch.insert(parse_coords(&toks[2..])),
                    "delete" => batch.delete(parse_coords(&toks[2..])),
                    _ => batch.expire(
                        toks.get(2)
                            .unwrap_or_else(|| die("expire needs a count"))
                            .parse()
                            .unwrap_or_else(|_| die("bad expire count")),
                    ),
                };
                pending = Some((shard, batch));
                continue;
            }
            flush_pending(&mut client, &mut pending);
            match run_query_op(&mut client, &toks) {
                Ok(reply) => println!("{reply}"),
                Err(e) => die(&format!("{line}: {e}")),
            }
        }
        flush_pending(&mut client, &mut pending);
    } else {
        match run_query_op(&mut client, &args[1..]) {
            Ok(reply) => println!("{reply}"),
            Err(e) => die(&e.to_string()),
        }
    }
}

/// Fetch the Prometheus exposition from `addr`: try a plain HTTP
/// `GET /metrics` first (the `--metrics-addr` listener), then fall back
/// to the wire `Metrics` op (the query port), so either address works.
fn scrape_metrics(addr: &str) -> std::io::Result<String> {
    match http_get_metrics(addr) {
        Ok(text) => Ok(text),
        Err(_) => HullClient::builder(addr.to_string()).connect()?.metrics(),
    }
}

/// Minimal HTTP/1.0 GET; returns the body of a 200 reply.
fn http_get_metrics(addr: &str) -> std::io::Result<String> {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(2)))?;
    write!(stream, "GET /metrics HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    if !raw.starts_with("HTTP/") {
        return Err(bad("not an HTTP reply"));
    }
    let status_ok = raw
        .lines()
        .next()
        .is_some_and(|l| l.split_whitespace().nth(1) == Some("200"));
    if !status_ok {
        return Err(bad("HTTP status not 200"));
    }
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(bad("truncated HTTP reply")),
    }
}

/// One parsed exposition sample: `name{labels} value`.
struct MetricSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str) -> Option<MetricSample> {
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match head.split_once('{') {
        Some((n, rest)) => {
            let inner = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in inner.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=')?;
                labels.push((k.to_string(), v.trim_matches('"').to_string()));
            }
            (n.to_string(), labels)
        }
        None => (head.to_string(), Vec::new()),
    };
    Some(MetricSample {
        name,
        labels,
        value,
    })
}

fn label_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", parts.join(","))
}

/// Cumulative-bucket quantile: the smallest `le` whose cumulative count
/// covers fraction `q` of the total.
fn bucket_quantile(buckets: &[(f64, f64)], count: f64, q: f64) -> f64 {
    let target = q * count;
    for &(le, cum) in buckets {
        if cum >= target {
            return le;
        }
    }
    buckets.last().map(|&(le, _)| le).unwrap_or(0.0)
}

/// Render the exposition as a sorted human table: one line per scalar
/// series, histograms summarized to `count/sum/p50/p95/p99`.
fn pretty_metrics(text: &str) -> String {
    use std::collections::BTreeMap;
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    // Histogram accumulators keyed by (family, label-suffix).
    struct Hist {
        buckets: Vec<(f64, f64)>,
        sum: f64,
        count: f64,
    }
    let mut hists: BTreeMap<(String, String), Hist> = BTreeMap::new();
    let mut scalars: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                kinds.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let Some(s) = parse_sample(line) else {
            continue;
        };
        let (family, part) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| s.name.strip_suffix(suf).map(|f| (f.to_string(), *suf)))
            .unwrap_or_else(|| (s.name.clone(), ""));
        if !part.is_empty() && kinds.get(&family).map(String::as_str) == Some("histogram") {
            let non_le: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            let h = hists
                .entry((family, label_suffix(&non_le)))
                .or_insert(Hist {
                    buckets: Vec::new(),
                    sum: 0.0,
                    count: 0.0,
                });
            match part {
                "_bucket" => {
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| {
                            if v == "+Inf" {
                                f64::INFINITY
                            } else {
                                v.parse().unwrap_or(f64::INFINITY)
                            }
                        })
                        .unwrap_or(f64::INFINITY);
                    h.buckets.push((le, s.value));
                }
                "_sum" => h.sum = s.value,
                _ => h.count = s.value,
            }
        } else {
            scalars.insert(format!("{}{}", s.name, label_suffix(&s.labels)), s.value);
        }
    }
    let mut rows: Vec<(String, String)> = Vec::new();
    for (name, v) in &scalars {
        rows.push((name.clone(), format!("{v}")));
    }
    for ((family, labels), h) in &hists {
        let mut buckets = h.buckets.clone();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let fin = |x: f64| {
            if x.is_finite() {
                format!("{x}")
            } else {
                "+Inf".to_string()
            }
        };
        rows.push((
            format!("{family}{labels}"),
            if h.count == 0.0 {
                "count=0".to_string()
            } else {
                format!(
                    "count={} sum={} p50={} p95={} p99={}",
                    h.count,
                    h.sum,
                    fin(bucket_quantile(&buckets, h.count, 0.50)),
                    fin(bucket_quantile(&buckets, h.count, 0.95)),
                    fin(bucket_quantile(&buckets, h.count, 0.99)),
                )
            },
        ));
    }
    rows.sort();
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, val) in rows {
        out.push_str(&format!("{name:<width$}  {val}\n"));
    }
    out
}

fn metrics_main(args: &[String]) {
    let mut raw = false;
    let mut addr: Option<&String> = None;
    for a in args {
        match a.as_str() {
            "--raw" => raw = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => {
                if addr.is_some() {
                    die("multiple addresses");
                }
                addr = Some(a);
            }
            other => die(&format!("unknown metrics flag '{other}'")),
        }
    }
    let addr = addr.unwrap_or_else(|| usage());
    let text = scrape_metrics(addr).unwrap_or_else(|e| die(&format!("scrape {addr}: {e}")));
    if raw {
        print!("{text}");
    } else {
        print!("{}", pretty_metrics(&text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_args_defaults_and_flags() {
        let o = parse_args(&s(&[])).unwrap();
        assert_eq!(o.dim, 2);
        assert_eq!(o.algo, Algo::Seq);
        let o = parse_args(&s(&[
            "--dim", "3", "--algo", "par", "--seed", "7", "--stats", "f.txt",
        ]))
        .unwrap();
        assert_eq!(o.dim, 3);
        assert_eq!(o.algo, Algo::Par);
        assert_eq!(o.seed, 7);
        assert!(o.stats);
        assert_eq!(o.file.as_deref(), Some("f.txt"));
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        assert!(parse_args(&s(&["--dim"])).is_err());
        assert!(parse_args(&s(&["--dim", "1"])).is_err());
        assert!(parse_args(&s(&["--dim", "9"])).is_err());
        assert!(parse_args(&s(&["--algo", "magic"])).is_err());
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["a.txt", "b.txt"])).is_err());
        assert!(parse_args(&s(&["--dim", "3", "--algo", "chain"])).is_err());
        assert!(parse_args(&s(&["--algo", "chain", "--stats-json"])).is_err());
    }

    #[test]
    fn parse_args_stats_json() {
        let o = parse_args(&s(&["--stats-json"])).unwrap();
        assert!(o.stats_json);
        assert!(!o.stats);
    }

    #[test]
    fn parse_points_happy_path() {
        let ps = parse_points("0 0\n4 0\n# comment\n\n0 4\n4 4\n", 2).unwrap();
        assert_eq!(ps.len(), 4);
        assert_eq!(ps.point(2), &[0, 4]);
    }

    #[test]
    fn parse_sample_forms() {
        let s = parse_sample("chull_server_accepts_total 3").unwrap();
        assert_eq!(s.name, "chull_server_accepts_total");
        assert!(s.labels.is_empty());
        assert_eq!(s.value, 3.0);
        let s = parse_sample("chull_server_request_us_bucket{op=\"insert\",le=\"255\"} 7").unwrap();
        assert_eq!(s.name, "chull_server_request_us_bucket");
        assert_eq!(
            s.labels,
            vec![
                ("op".to_string(), "insert".to_string()),
                ("le".to_string(), "255".to_string())
            ]
        );
        assert!(parse_sample("# HELP nope nope").is_none());
    }

    #[test]
    fn pretty_metrics_summarizes_histograms() {
        let text = "\
# HELP lat_us latency\n\
# TYPE lat_us histogram\n\
lat_us_bucket{le=\"1\"} 5\n\
lat_us_bucket{le=\"3\"} 9\n\
lat_us_bucket{le=\"+Inf\"} 10\n\
lat_us_sum 42\n\
lat_us_count 10\n\
# TYPE hits_total counter\n\
hits_total 7\n";
        let out = pretty_metrics(text);
        assert!(out.contains("hits_total"), "{out}");
        let hist_line = out.lines().find(|l| l.starts_with("lat_us")).unwrap();
        assert!(hist_line.contains("count=10"), "{hist_line}");
        assert!(hist_line.contains("sum=42"), "{hist_line}");
        // p50 of 10 obs: cum 5 at le=1 covers it; p95 and p99 need 9.5/9.9.
        assert!(hist_line.contains("p50=1"), "{hist_line}");
        assert!(hist_line.contains("p95=+Inf"), "{hist_line}");
    }

    #[test]
    fn pretty_metrics_groups_histograms_by_label() {
        let text = "\
# TYPE req_us histogram\n\
req_us_bucket{op=\"a\",le=\"+Inf\"} 2\n\
req_us_sum{op=\"a\"} 8\n\
req_us_count{op=\"a\"} 2\n\
req_us_bucket{op=\"b\",le=\"+Inf\"} 1\n\
req_us_sum{op=\"b\"} 3\n\
req_us_count{op=\"b\"} 1\n";
        let out = pretty_metrics(text);
        assert!(out.contains("req_us{op=a}"), "{out}");
        assert!(out.contains("req_us{op=b}"), "{out}");
    }

    #[test]
    fn parse_points_errors() {
        assert!(parse_points("1 2 3\n", 2).is_err());
        assert!(parse_points("1 x\n2 3\n4 5\n6 7\n", 2).is_err());
        assert!(parse_points("1 2\n3 4\n", 2).is_err()); // too few
    }
}
