//! End-to-end telemetry exposition: a live server scraped two ways.
//!
//! One server, one workload; then the Prometheus text is fetched both
//! in-band (wire `Metrics` op) and out-of-band (plain HTTP
//! `GET /metrics`). The two scrapes must expose the same metric
//! families, every layer the ISSUE demands must be present (queue,
//! shard pipeline, journal/WAL, kernel, depth, per-op request series),
//! and the dependence-depth histogram must be non-empty and consistent
//! with the `Stats` JSON's `dep_depth` gauge (Theorem 4.2's observable:
//! depth stays logarithmic, so the histogram max is far below n).

use convex_hull_suite::geometry::{generators, PointSet};
use convex_hull_suite::service::{
    serve, HullClient, MutationBatch, ReplUnit, ServeOptions, ServiceConfig,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;

fn serve_opts() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        config: ServiceConfig {
            dim: 2,
            shards: 2,
            queue_capacity: 256,
            max_batch: 32,
            workers: 2,
            wal_dir: None,
            ..Default::default()
        },
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// Metric family names: every non-comment sample line's bare name with
/// histogram-part suffixes stripped.
fn families(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split([' ', '{']).next())
        .map(|n| {
            n.trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count")
                .to_string()
        })
        .collect()
}

/// Sum of a histogram family's `_count` samples across label sets.
fn hist_count(text: &str, family: &str) -> u64 {
    let prefix = format!("{family}_count");
    text.lines()
        .filter(|l| l.starts_with(&prefix))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

fn json_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}")) + pat.len();
    json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn wire_and_http_scrapes_agree_and_cover_every_layer() {
    let mut server = serve(serve_opts()).unwrap();
    let maddr = server.metrics_addr().expect("metrics listener requested");
    let mut c = HullClient::builder(server.local_addr().to_string())
        .connect()
        .unwrap();

    // A workload big enough to exercise queue coalescing, batching, and
    // a real history graph (depth > 1) on both shards.
    let pts = PointSet::from_points2(&generators::disk_2d(120, 1 << 18, 77));
    for (i, p) in pts.iter().enumerate() {
        let shard = (i % 2) as u16;
        c.mutate(shard, MutationBatch::new().insert(p.to_vec()))
            .unwrap();
    }
    c.flush(0).unwrap();
    c.flush(1).unwrap();
    assert_eq!(c.contains(0, &[0, 0]).unwrap(), Some(true));
    assert!(c.visible(1, &[1 << 19, 0]).unwrap().is_some());

    // Exercise the replication surface so its op series and gauges
    // carry real values: ship shard 0's whole window, then fetch again
    // from unit 1, which acks unit 0 applied.
    let (index, total, dim, units) = c.repl_unit_fetch(0, 0).unwrap();
    assert_eq!((index, dim), (0, 2));
    assert!(
        total >= 1
            && units.len() as u64 == total
            && matches!(&units[0], ReplUnit::Ops { inserts, .. } if !inserts.is_empty()),
        "window not shipped"
    );
    let (index, _, _, rest) = c.repl_unit_fetch(0, 1).unwrap();
    assert_eq!(
        (index, rest.len() as u64),
        (1, total - 1),
        "a fetch from 1 ships the rest"
    );

    // Delete shard 0's extreme vertices until one death takes the
    // closed-star repair: the first correction of a hull built point by
    // point falls back to the full build, which the repair then builds on.
    let corrections = |c: &mut HullClient| {
        let stats = c.stats(Some(0)).unwrap();
        (
            json_field(&stats, "repairs"),
            json_field(&stats, "repair_fallbacks"),
        )
    };
    for dir in [
        [1, 0],
        [0, 1],
        [-1, 0],
        [0, -1],
        [1, 1],
        [-1, -1],
        [1, -1],
        [-1, 1],
    ] {
        if corrections(&mut c).0 > 0 {
            break;
        }
        let (_, vertex) = c.extreme(0, &dir).unwrap().expect("shard 0 is live");
        c.mutate(0, MutationBatch::new().delete(vertex)).unwrap();
        c.flush(0).unwrap();
    }
    let (repairs, fallbacks) = corrections(&mut c);
    assert!(
        repairs >= 1,
        "no vertex death repaired ({fallbacks} fallbacks)"
    );
    let rebuilds = json_field(&c.stats(Some(0)).unwrap(), "rebuilds");
    assert_eq!(rebuilds, 0, "vertex deaths must not rebuild");

    let wire_text = c.metrics().unwrap();
    let http_reply = http_get(maddr, "/metrics");
    assert!(http_reply.starts_with("HTTP/1.0 200"), "{http_reply}");
    assert!(
        http_reply.contains("text/plain; version=0.0.4"),
        "{http_reply}"
    );
    let http_text = http_reply.split("\r\n\r\n").nth(1).unwrap();

    // Same registry, same families, whichever door you come in through.
    let wf = families(&wire_text);
    let hf = families(http_text);
    assert_eq!(wf, hf, "wire and HTTP scrapes expose different families");

    // Every instrumented layer shows up.
    for family in [
        "chull_queue_push_total",
        "chull_queue_pop_batch_items",
        "chull_service_inserts_enqueued_total",
        "chull_shard_batches_total",
        "chull_shard_batch_inserts",
        "chull_shard_batch_apply_us",
        "chull_journal_append_us",
        "chull_wal_sync_us",
        "chull_shard_queue_depth",
        "chull_shard_dep_depth",
        "chull_shard_epoch",
        "chull_shard_journal_len",
        "chull_kernel_visibility_tests_total",
        "chull_insert_dep_depth",
        "chull_insert_visited_nodes",
        "chull_server_requests_total",
        "chull_server_request_us",
        "chull_server_accepts_total",
        "chull_service_flushes_total",
        // Replication layer (PR 8): shipped/applied counters, the
        // resubscribe/failover counters, and the per-shard lag gauges.
        "chull_replica_units_shipped_total",
        "chull_replica_units_applied_total",
        "chull_replica_resubscribes_total",
        "chull_replica_failovers_total",
        "chull_replica_lag_batches",
        "chull_replica_last_acked",
        // Deletion layer: in-memory corrections and ratio rebuilds.
        "chull_shard_repairs_total",
        "chull_shard_repair_us",
        "chull_shard_rebuilds_total",
    ] {
        assert!(wf.contains(family), "family {family} missing:\n{wire_text}");
    }

    // The fetch cursor above landed in the per-shard replication gauges
    // as the subscriber's ack.
    let acked_needle = "chull_replica_last_acked{shard=\"0\"} 1";
    assert!(
        wire_text.contains(acked_needle),
        "wire scrape lacks `{acked_needle}`:\n{wire_text}"
    );

    // The depth histogram is non-empty: one record per applied insert
    // past the seed simplex, on the online engine label.
    let depth_records = hist_count(&wire_text, "chull_insert_dep_depth");
    assert!(depth_records > 0, "empty depth histogram:\n{wire_text}");

    // Consistency with the Stats op: the per-shard dep_depth gauge in
    // the JSON equals the chull_shard_dep_depth gauge at quiescence.
    for shard in [0u16, 1u16] {
        let stats = c.stats(Some(shard)).unwrap();
        let dep = json_field(&stats, "dep_depth");
        assert!(dep >= 1, "flushed live hull must have depth >= 1: {stats}");
        let needle = format!("chull_shard_dep_depth{{shard=\"{shard}\"}} {dep}");
        assert!(
            wire_text.contains(&needle),
            "wire scrape lacks `{needle}`:\n{wire_text}"
        );
        // Theorem 4.2 sanity: depth is logarithmic, nowhere near n.
        assert!(dep < 60, "dep_depth {dep} not logarithmic-ish");
    }

    // The in-memory corrections, by outcome, agree with the Stats op
    // (shard 1 saw no deletes), and each one was timed.
    let sample = |needle: &str| -> u64 {
        wire_text
            .lines()
            .find_map(|l| l.strip_prefix(needle))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no sample `{needle}`:\n{wire_text}"))
    };
    assert_eq!(
        sample("chull_shard_repairs_total{outcome=\"repaired\"}"),
        repairs
    );
    assert_eq!(
        sample("chull_shard_repairs_total{outcome=\"fallback\"}"),
        fallbacks
    );
    assert_eq!(
        hist_count(&wire_text, "chull_shard_repair_us"),
        repairs + fallbacks
    );
    assert_eq!(sample("chull_shard_rebuilds_total"), 0);

    // Per-op request accounting covered the ops this test issued.
    for op in [
        "mutate",
        "flush",
        "contains",
        "visible",
        "extreme",
        "stats",
        "metrics",
        "repl_unit",
    ] {
        let needle = format!("chull_server_requests_total{{op=\"{op}\"}}");
        assert!(wire_text.contains(&needle), "missing {needle}");
    }

    server.shutdown();
}
