//! Service-level metric handles: one lazy-registered struct per layer.
//!
//! Naming: everything is `chull_*`; durations are microsecond
//! histograms suffixed `_us`; monotone counts end `_total`. Per-shard
//! levels (queue depth, journal length, dependence depth, epoch) are
//! gauges labeled `shard="N"`, refreshed by the owning worker after
//! each batch and by [`crate::shard::HullService::update_scrape_gauges`]
//! at scrape time; per-op request series are labeled `op="..."`.

use chull_geometry::KernelCounts;
use chull_obs::{registry, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Staged-kernel counters mirrored as Prometheus series, labeled by
/// `path` (`ingest` for shard workers, `query` for read requests).
pub struct KernelCounters {
    /// `chull_kernel_visibility_tests_total`.
    pub tests: Arc<Counter>,
    /// `chull_kernel_filter_hits_total` (f64 filter decided the sign).
    pub filter_hits: Arc<Counter>,
    /// `chull_kernel_i128_fallbacks_total`.
    pub i128_fallbacks: Arc<Counter>,
    /// `chull_kernel_bigint_fallbacks_total`.
    pub bigint_fallbacks: Arc<Counter>,
}

impl KernelCounters {
    fn register(path: &'static str) -> KernelCounters {
        let r = registry();
        let l: &[(&str, &str)] = &[("path", path)];
        KernelCounters {
            tests: r.counter_with(
                "chull_kernel_visibility_tests_total",
                l,
                "Staged-kernel visibility tests, by path (ingest = shard workers, query = reads).",
            ),
            filter_hits: r.counter_with(
                "chull_kernel_filter_hits_total",
                l,
                "Visibility tests decided by the f64 semi-static filter.",
            ),
            i128_fallbacks: r.counter_with(
                "chull_kernel_i128_fallbacks_total",
                l,
                "Visibility tests that fell back to checked i128 arithmetic.",
            ),
            bigint_fallbacks: r.counter_with(
                "chull_kernel_bigint_fallbacks_total",
                l,
                "Visibility tests that fell back to exact BigInt arithmetic.",
            ),
        }
    }

    /// Fold a whole [`KernelCounts`] tally in.
    pub fn fold(&self, c: &KernelCounts) {
        self.tests.add(c.tests);
        self.filter_hits.add(c.filter_hits);
        self.i128_fallbacks.add(c.i128_fallbacks);
        self.bigint_fallbacks.add(c.bigint_fallbacks);
    }

    /// Fold only the growth from `prev` to `now` (per-batch deltas from
    /// a hull's cumulative tally).
    pub fn fold_delta(&self, now: &KernelCounts, prev: &KernelCounts) {
        self.tests.add(now.tests.saturating_sub(prev.tests));
        self.filter_hits
            .add(now.filter_hits.saturating_sub(prev.filter_hits));
        self.i128_fallbacks
            .add(now.i128_fallbacks.saturating_sub(prev.i128_fallbacks));
        self.bigint_fallbacks
            .add(now.bigint_fallbacks.saturating_sub(prev.bigint_fallbacks));
    }
}

/// Process-wide service series (shared across all shards/connections).
pub struct ServiceMetrics {
    /// Inserts accepted into a shard queue.
    pub inserts_enqueued: Arc<Counter>,
    /// Inserts rejected with `Overloaded` backpressure.
    pub overloaded: Arc<Counter>,
    /// Flush barriers served.
    pub flushes: Arc<Counter>,
    /// Batches applied by shard workers.
    pub batches: Arc<Counter>,
    /// Inserts per applied batch.
    pub batch_size: Arc<Histogram>,
    /// Wall time to geometrically apply one batch (µs).
    pub batch_apply_us: Arc<Histogram>,
    /// Wall time to journal one batch before applying it (µs).
    pub journal_append_us: Arc<Histogram>,
    /// Wall time to close one batch unit: write its WAL marker and flush
    /// the WAL buffer (one `write(2)`, no fsync) (µs).
    pub wal_sync_us: Arc<Histogram>,
    /// WAL append/sync errors (journal stays authoritative in memory).
    pub wal_errors: Arc<Counter>,
    /// Shard worker recoveries (supervisor replays after a panic).
    pub recoveries: Arc<Counter>,
    /// Journal replay time per recovery (µs).
    pub recovery_us: Arc<Histogram>,
    /// Shard installs (cold start, recovery, ratio rebuild, follower
    /// catch-up) done by one bulk build.
    pub bulk_builds: Arc<Counter>,
    /// Wall time of one bulk build (prefilter + batch install), µs.
    pub bulk_build_us: Arc<Histogram>,
    /// Torn journal tails detected at replay sealing (should stay 0).
    pub torn_tails: Arc<Counter>,
    /// Total time shards have spent degraded (µs).
    pub degraded_us: Arc<Counter>,
    /// Connections accepted by the server.
    pub accepts: Arc<Counter>,
    /// Currently open client connections.
    pub connections_active: Arc<Gauge>,
    /// Connections accepted, cumulatively (alias of `accepts` under the
    /// connection-lifecycle name so `accepted - closed = active` holds
    /// within one metric family).
    pub connections_accepted: Arc<Counter>,
    /// Connections closed (EOF, error, deadline reap, or shutdown).
    pub connections_closed: Arc<Counter>,
    /// Reactor readiness wakeups (epoll_wait returns with ≥1 event).
    pub readiness_wakeups: Arc<Counter>,
    /// Reactor threads that died by panic and were contained.
    pub accept_thread_panics: Arc<Counter>,
    /// Client-side transparent reconnect-and-resumes.
    pub client_reconnects: Arc<Counter>,
    /// Client-side `Overloaded` rejections absorbed by `mutate`.
    pub client_rejections: Arc<Counter>,
    /// Journal batch units shipped to replication subscribers.
    pub repl_units_shipped: Arc<Counter>,
    /// Replicated batch units applied by this follower.
    pub repl_units_applied: Arc<Counter>,
    /// Follower resubscribes (link loss, fault, or puller death).
    pub repl_resubscribes: Arc<Counter>,
    /// Client/router failovers to a fallback address.
    pub repl_failovers: Arc<Counter>,
    /// Delete/expire tombstones journaled by shard workers.
    pub tombstones: Arc<Counter>,
    /// Points expired by per-shard window policies.
    pub window_expirations: Arc<Counter>,
    /// Ratio-triggered hull rebuilds from the live survivor set (each a
    /// checkpoint on a primary).
    pub rebuilds: Arc<Counter>,
    /// Wall time of one survivor rebuild (µs).
    pub rebuild_us: Arc<Histogram>,
    /// Rebuilds triggered by the journal-growth ratio (auto-compaction).
    pub auto_compactions: Arc<Counter>,
    /// In-memory hull corrections done by the closed-star repair.
    pub repairs: Arc<Counter>,
    /// In-memory hull corrections the repair refused (full build).
    pub repair_fallbacks: Arc<Counter>,
    /// Wall time of one in-memory hull correction (µs).
    pub repair_us: Arc<Histogram>,
    /// Wall time of one snapshot publish (refresh or copy + swap), µs.
    pub publish_us: Arc<Histogram>,
    /// Publishes that refreshed the retired snapshot in place.
    pub publishes_refreshed: Arc<Counter>,
    /// Publishes that froze a fresh copy of the hull instead.
    pub publishes_cloned: Arc<Counter>,
    /// Kernel work done applying inserts on shard workers.
    pub ingest_kernel: KernelCounters,
    /// Kernel work done serving read queries.
    pub query_kernel: KernelCounters,
}

/// The process-global service metric handles (registered on first use).
pub fn service_metrics() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        ServiceMetrics {
            inserts_enqueued: r.counter(
                "chull_service_inserts_enqueued_total",
                "Inserts accepted into a shard ingest queue.",
            ),
            overloaded: r.counter(
                "chull_service_overloaded_total",
                "Inserts rejected with Overloaded backpressure.",
            ),
            flushes: r.counter("chull_service_flushes_total", "Flush barriers served."),
            batches: r.counter(
                "chull_shard_batches_total",
                "Batches applied by shard workers.",
            ),
            batch_size: r.histogram(
                "chull_shard_batch_inserts",
                "Inserts per applied shard batch (pop_batch coalescing at work).",
            ),
            batch_apply_us: r.histogram(
                "chull_shard_batch_apply_us",
                "Microseconds to apply one batch to the online hull.",
            ),
            journal_append_us: r.histogram(
                "chull_journal_append_us",
                "Microseconds to journal one batch before applying it.",
            ),
            wal_sync_us: r.histogram(
                "chull_wal_sync_us",
                "Microseconds to write and flush (no fsync) one batch unit's WAL marker.",
            ),
            wal_errors: r.counter(
                "chull_wal_errors_total",
                "WAL append/sync errors (in-memory journal stays authoritative).",
            ),
            recoveries: r.counter(
                "chull_shard_recoveries_total",
                "Shard worker recoveries (supervised journal replays).",
            ),
            recovery_us: r.histogram(
                "chull_shard_recovery_us",
                "Microseconds to replay the journal after a worker death.",
            ),
            bulk_builds: r.counter(
                "chull_shard_bulk_builds_total",
                "Shard installs (cold start, recovery, ratio rebuild, follower catch-up) done by the bulk constructor.",
            ),
            bulk_build_us: r.histogram(
                "chull_shard_bulk_build_us",
                "Microseconds of one bulk build (prefilter + batch install).",
            ),
            torn_tails: r.counter(
                "chull_journal_torn_tails_total",
                "Torn journal tails detected when sealing for replay.",
            ),
            degraded_us: r.counter(
                "chull_shard_degraded_us_total",
                "Total microseconds shards have spent serving degraded reads.",
            ),
            accepts: r.counter(
                "chull_server_accepts_total",
                "TCP connections accepted by the wire server.",
            ),
            connections_active: r.gauge(
                "chull_server_connections_active",
                "Client connections currently open.",
            ),
            connections_accepted: r.counter(
                "chull_server_connections_accepted_total",
                "Client connections accepted since start.",
            ),
            connections_closed: r.counter(
                "chull_server_connections_closed_total",
                "Client connections closed (EOF, error, deadline, shutdown).",
            ),
            readiness_wakeups: r.counter(
                "chull_server_readiness_wakeups_total",
                "Reactor poller wakeups that delivered at least one event.",
            ),
            accept_thread_panics: r.counter(
                "chull_server_accept_thread_panics_total",
                "Accept/reactor threads that panicked and were contained.",
            ),
            client_reconnects: r.counter(
                "chull_client_reconnects_total",
                "Client transparent reconnect-and-resume redials.",
            ),
            client_rejections: r.counter(
                "chull_client_insert_rejections_total",
                "Overloaded rejections absorbed by client mutate backoff.",
            ),
            repl_units_shipped: r.counter(
                "chull_replica_units_shipped_total",
                "Journal batch units shipped to replication subscribers.",
            ),
            repl_units_applied: r.counter(
                "chull_replica_units_applied_total",
                "Replicated batch units applied by this follower.",
            ),
            repl_resubscribes: r.counter(
                "chull_replica_resubscribes_total",
                "Follower resubscribe-with-resume attempts after a link fault.",
            ),
            repl_failovers: r.counter(
                "chull_replica_failovers_total",
                "Client/router failovers from a dead address to a fallback.",
            ),
            tombstones: r.counter(
                "chull_shard_tombstones_total",
                "Delete/expire tombstones journaled by shard workers.",
            ),
            window_expirations: r.counter(
                "chull_shard_window_expirations_total",
                "Points expired by per-shard window policies.",
            ),
            rebuilds: r.counter(
                "chull_shard_rebuilds_total",
                "Ratio-triggered hull rebuilds from the live survivor set.",
            ),
            rebuild_us: r.histogram(
                "chull_shard_rebuild_us",
                "Microseconds of one ratio-triggered rebuild from survivors (bulk build + checkpoint).",
            ),
            auto_compactions: r.counter(
                "chull_shard_auto_compactions_total",
                "Rebuilds triggered by the journal-growth ratio (auto-compaction).",
            ),
            repairs: r.counter_with(
                "chull_shard_repairs_total",
                &[("outcome", "repaired")],
                "In-memory hull corrections, by outcome (closed-star repair, or full-build fallback).",
            ),
            repair_fallbacks: r.counter_with(
                "chull_shard_repairs_total",
                &[("outcome", "fallback")],
                "In-memory hull corrections, by outcome (closed-star repair, or full-build fallback).",
            ),
            repair_us: r.histogram(
                "chull_shard_repair_us",
                "Microseconds of one in-memory hull correction (repair or full-build fallback).",
            ),
            publish_us: r.histogram(
                "chull_shard_publish_us",
                "Microseconds to publish one snapshot (in-place refresh or full copy).",
            ),
            publishes_refreshed: r.counter_with(
                "chull_shard_publishes_total",
                &[("path", "refreshed")],
                "Snapshot publishes, by path (refreshed in place, or cloned whole).",
            ),
            publishes_cloned: r.counter_with(
                "chull_shard_publishes_total",
                &[("path", "cloned")],
                "Snapshot publishes, by path (refreshed in place, or cloned whole).",
            ),
            ingest_kernel: KernelCounters::register("ingest"),
            query_kernel: KernelCounters::register("query"),
        }
    })
}

/// Read-path telemetry for the sublinear query pipeline (history-graph
/// descent + packed-plane filter). Folded per request by the server's
/// query dispatch; the per-shard accelerator *levels* (plane-block
/// length, hull vertex count) live in [`ShardGauges`] and refresh at
/// scrape time.
pub struct QueryMetrics {
    /// `chull_query_descent_steps`: history nodes visited per point-
    /// location query (expected `O(log n)`; compare against
    /// `chull_shard_plane_block_len` for the linear baseline).
    pub descent_steps: Arc<Histogram>,
    /// `chull_query_planes_filtered_total`: candidate planes whose sign
    /// the f64 SoA filter certified (no exact arithmetic needed).
    pub planes_filtered: Arc<Counter>,
    /// `chull_query_exact_fallbacks_total`: candidate planes that fell
    /// through to the exact i128/BigInt stages.
    pub exact_fallbacks: Arc<Counter>,
}

impl QueryMetrics {
    /// Fold one query's kernel tally in.
    pub fn fold(&self, c: &KernelCounts) {
        self.descent_steps.record(c.descent_steps);
        self.planes_filtered.add(c.filter_hits);
        self.exact_fallbacks
            .add(c.i128_fallbacks + c.bigint_fallbacks);
    }
}

/// The process-global query-path metric handles (registered on first use).
pub fn query_metrics() -> &'static QueryMetrics {
    static M: OnceLock<QueryMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        QueryMetrics {
            descent_steps: r.histogram(
                "chull_query_descent_steps",
                "History-graph nodes visited per point-location query.",
            ),
            planes_filtered: r.counter(
                "chull_query_planes_filtered_total",
                "Query candidate planes certified by the f64 SoA filter.",
            ),
            exact_fallbacks: r.counter(
                "chull_query_exact_fallbacks_total",
                "Query candidate planes that needed exact i128/BigInt evaluation.",
            ),
        }
    })
}

/// Per-op request series: count + dispatch latency.
pub struct OpMetrics {
    /// `chull_server_requests_total{op=...}`.
    pub total: Arc<Counter>,
    /// `chull_server_request_us{op=...}`.
    pub latency_us: Arc<Histogram>,
}

/// Handles for one wire op, one series per [`crate::wire::OP_TABLE`]
/// name (`"invalid"` covers undecodable requests). Unknown names map to
/// `"invalid"`.
pub fn op_metrics(op: &str) -> &'static OpMetrics {
    static M: OnceLock<HashMap<&'static str, OpMetrics>> = OnceLock::new();
    let map = M.get_or_init(|| {
        let r = registry();
        crate::wire::OP_TABLE
            .iter()
            .map(|s| s.name)
            // The tag wrapper is transparent: a tagged request counts
            // under the op it wraps.
            .filter(|&name| name != "tagged")
            .chain(["invalid"])
            .map(|op| {
                (
                    op,
                    OpMetrics {
                        total: r.counter_with(
                            "chull_server_requests_total",
                            &[("op", op)],
                            "Requests dispatched, by wire op.",
                        ),
                        latency_us: r.histogram_with(
                            "chull_server_request_us",
                            &[("op", op)],
                            "Request dispatch latency in microseconds, by wire op.",
                        ),
                    },
                )
            })
            .collect()
    });
    map.get(op).unwrap_or_else(|| &map["invalid"])
}

/// Per-shard level gauges (one set per shard id, labeled `shard="N"`).
#[derive(Clone)]
pub struct ShardGauges {
    /// Items currently in the shard's ingest queue.
    pub queue_depth: Arc<Gauge>,
    /// The published snapshot's dependence depth (`OnlineHull::dep_depth`).
    pub dep_depth: Arc<Gauge>,
    /// Entries in the shard's insert journal.
    pub journal_len: Arc<Gauge>,
    /// The shard's publication epoch.
    pub epoch: Arc<Gauge>,
    /// Realized parallelism of the last batch apply, in thousandths
    /// (busy_ns * 1000 / wall_ns); 0 while no parallel batch has run.
    pub parallelism_milli: Arc<Gauge>,
    /// Pool worker threads the shard applies batches with.
    pub workers: Arc<Gauge>,
    /// Planes in the published snapshot's packed filter block (= facets
    /// ever created; the denominator `descent_steps` is sublinear in).
    pub plane_block_len: Arc<Gauge>,
    /// Vertices on the published snapshot's hull (the `Extreme` scan
    /// length).
    pub hull_vertices: Arc<Gauge>,
    /// Batch units the slowest acked subscriber trails this shard by
    /// (primary side; 0 with no subscribers).
    pub replica_lag_batches: Arc<Gauge>,
    /// One past the highest batch unit a subscriber has acked durably
    /// applied (primary side).
    pub replica_last_acked: Arc<Gauge>,
    /// Distinct live (inserted, not yet deleted/expired) rows.
    pub live_points: Arc<Gauge>,
    /// Tombstoned rows awaiting the next survivor rebuild.
    pub lazy_tombstones: Arc<Gauge>,
}

/// Register (or fetch) the gauge set for shard `shard`.
pub fn shard_gauges(shard: usize) -> ShardGauges {
    let r = registry();
    let s = shard.to_string();
    let l: &[(&str, &str)] = &[("shard", s.as_str())];
    ShardGauges {
        queue_depth: r.gauge_with(
            "chull_shard_queue_depth",
            l,
            "Items currently queued for the shard worker.",
        ),
        dep_depth: r.gauge_with(
            "chull_shard_dep_depth",
            l,
            "Dependence depth of the shard's published hull (Theorem 4.2 observable).",
        ),
        journal_len: r.gauge_with(
            "chull_shard_journal_len",
            l,
            "Entries in the shard's append-only insert journal.",
        ),
        epoch: r.gauge_with(
            "chull_shard_epoch",
            l,
            "The shard's snapshot publication epoch.",
        ),
        parallelism_milli: r.gauge_with(
            "chull_shard_batch_parallelism_milli",
            l,
            "Realized parallelism of the last batch apply (busy/wall, in thousandths).",
        ),
        workers: r.gauge_with(
            "chull_shard_workers",
            l,
            "Pool worker threads the shard applies batches with.",
        ),
        plane_block_len: r.gauge_with(
            "chull_shard_plane_block_len",
            l,
            "Planes in the published snapshot's packed SoA filter block.",
        ),
        hull_vertices: r.gauge_with(
            "chull_shard_hull_vertices",
            l,
            "Vertices on the published snapshot's hull.",
        ),
        replica_lag_batches: r.gauge_with(
            "chull_replica_lag_batches",
            l,
            "Batch units the last-acked replication subscriber trails this shard by.",
        ),
        replica_last_acked: r.gauge_with(
            "chull_replica_last_acked",
            l,
            "One past the highest journal batch unit acked by a replication subscriber.",
        ),
        live_points: r.gauge_with(
            "chull_shard_live_points",
            l,
            "Distinct live (inserted, not yet deleted/expired) rows.",
        ),
        lazy_tombstones: r.gauge_with(
            "chull_shard_lazy_tombstones",
            l,
            "Tombstoned rows awaiting the next survivor rebuild.",
        ),
    }
}
