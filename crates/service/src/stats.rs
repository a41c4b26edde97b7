//! Service-level observability: lock-free per-shard counters, folded into
//! one JSON line for the wire `Stats` request and the CLI `--stats-json`.

use crate::snapshot::HullSnapshot;
use chull_geometry::KernelCounts;
use std::sync::atomic::{AtomicU64, Ordering};

/// Staged-kernel counters as five atomics, so concurrent readers can fold
/// their per-call [`KernelCounts`] accumulators in without coordination.
#[derive(Default)]
pub struct AtomicKernel {
    tests: AtomicU64,
    filter_hits: AtomicU64,
    i128_fallbacks: AtomicU64,
    bigint_fallbacks: AtomicU64,
    descent_steps: AtomicU64,
}

impl AtomicKernel {
    /// Fold a per-call tally in.
    pub fn fold(&self, c: &KernelCounts) {
        self.tests.fetch_add(c.tests, Ordering::Relaxed);
        self.filter_hits.fetch_add(c.filter_hits, Ordering::Relaxed);
        self.i128_fallbacks
            .fetch_add(c.i128_fallbacks, Ordering::Relaxed);
        self.bigint_fallbacks
            .fetch_add(c.bigint_fallbacks, Ordering::Relaxed);
        self.descent_steps
            .fetch_add(c.descent_steps, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn load(&self) -> KernelCounts {
        KernelCounts {
            tests: self.tests.load(Ordering::Relaxed),
            filter_hits: self.filter_hits.load(Ordering::Relaxed),
            i128_fallbacks: self.i128_fallbacks.load(Ordering::Relaxed),
            bigint_fallbacks: self.bigint_fallbacks.load(Ordering::Relaxed),
            descent_steps: self.descent_steps.load(Ordering::Relaxed),
        }
    }
}

fn kernel_json(c: &KernelCounts) -> String {
    format!(
        "{{\"tests\":{},\"filter_hits\":{},\"i128_fallbacks\":{},\"bigint_fallbacks\":{},\
         \"descent_steps\":{}}}",
        c.tests, c.filter_hits, c.i128_fallbacks, c.bigint_fallbacks, c.descent_steps
    )
}

/// Per-shard request and pipeline counters. All monotone atomics; exact
/// at quiescence, momentarily racy gauges otherwise — fine for serving
/// dashboards.
#[derive(Default)]
pub struct ShardStats {
    /// Inserts accepted into the ingest queue.
    pub inserts_enqueued: AtomicU64,
    /// Inserts rejected with `Overloaded` (queue at capacity).
    pub overloaded: AtomicU64,
    /// `Contains` requests served.
    pub queries_contains: AtomicU64,
    /// `Visible` requests served.
    pub queries_visible: AtomicU64,
    /// `Extreme` requests served.
    pub queries_extreme: AtomicU64,
    /// `Snapshot` requests served.
    pub snapshots: AtomicU64,
    /// `Flush` barriers served.
    pub flushes: AtomicU64,
    /// Ingest batches applied by the shard worker.
    pub batches_applied: AtomicU64,
    /// Inserts applied through those batches.
    pub batched_inserts: AtomicU64,
    /// Largest single batch coalesced so far.
    pub max_batch: AtomicU64,
    /// Extra drain rounds: batches the worker pulled without re-parking
    /// because the queue was still non-empty after the previous batch
    /// (a deep backlog drains in one wakeup, up to a fairness bound).
    pub queue_drain_rounds: AtomicU64,
    /// Staged-kernel counters from the read path (history descents run by
    /// `Contains`/`Visible` against published snapshots).
    pub query_kernel: AtomicKernel,
    /// Worker deaths recovered by the shard supervisor.
    pub recoveries: AtomicU64,
    /// Duration of the most recent recovery (journal replay + republish),
    /// in microseconds.
    pub recovery_us_last: AtomicU64,
    /// Total time spent recovering, in microseconds (equals the shard's
    /// cumulative degraded-read window).
    pub recovery_us_total: AtomicU64,
    /// Shard recovery generation (mirrors the supervisor's counter; 0
    /// until the first worker death).
    pub generation: AtomicU64,
    /// Inserts durably journaled (gauge, updated per batch).
    pub journal_len: AtomicU64,
    /// WAL write/flush failures tolerated (the in-memory journal remains
    /// authoritative for in-process recovery).
    pub wal_errors: AtomicU64,
    /// Torn journal tails detected at replay sealing (typed
    /// `JournalError::TornTail`): the journal held fewer batch units than
    /// the shard had published. Should stay 0; non-zero means a recovery
    /// rebuilt from an incomplete journal.
    pub torn_tails: AtomicU64,
    /// Journal rebuilds (cold start, supervised recovery, follower
    /// bootstrap) done by one bulk build (DESIGN §S21); degenerate
    /// journals that fall back to incremental replay are not counted.
    pub bulk_builds: AtomicU64,
    /// Points the bulk prefilter dropped as strictly interior across
    /// those builds (never candidates, never touched the batch install).
    pub bulk_pruned: AtomicU64,
    /// Deletes and expires accepted into the ingest queue (wire
    /// `Mutate`).
    pub deletes_enqueued: AtomicU64,
    /// Deletes that found no live copy (acked, nothing journaled).
    pub delete_misses: AtomicU64,
    /// Tombstones journaled (explicit deletes, expires, and window
    /// expirations that killed a live copy).
    pub tombstones: AtomicU64,
    /// Rows tombstoned by the shard's retention window specifically.
    pub window_expirations: AtomicU64,
    /// Live rows in the shard's multiset (gauge, updated per batch).
    pub live_points: AtomicU64,
    /// Dead live-set entries awaiting the next compacting rebuild
    /// (gauge).
    pub lazy_tombstones: AtomicU64,
    /// Ratio-triggered hull rebuilds from survivors (`rebuild_ratio` or
    /// `journal_ratio`), each checkpointing the journal, plus follower
    /// installs of a primary's checkpoint. In-memory hull corrections
    /// never count here (see `repairs`).
    pub rebuilds: AtomicU64,
    /// Rebuilds triggered purely by the journal-ratio auto-compaction
    /// policy.
    pub auto_compactions: AtomicU64,
    /// Duration of the most recent rebuild, in microseconds.
    pub rebuild_us_last: AtomicU64,
    /// Total time spent rebuilding, in microseconds.
    pub rebuild_us_total: AtomicU64,
    /// In-memory hull corrections after a hull-invalidating tombstone
    /// (worker or replay) done by the closed-star repair.
    pub repairs: AtomicU64,
    /// In-memory hull corrections the repair refused, done by the full
    /// survivor build instead.
    pub repair_fallbacks: AtomicU64,
    /// Total time spent on in-memory corrections (repairs and
    /// fallbacks), in microseconds.
    pub repair_us_total: AtomicU64,
    /// Snapshot publishes that refreshed the retired snapshot in place.
    pub publishes_refreshed: AtomicU64,
    /// Snapshot publishes that froze a fresh copy of the hull (a reader
    /// still held the retired snapshot, or the hull was replaced).
    pub publishes_cloned: AtomicU64,
}

impl ShardStats {
    /// Record one applied batch of `n` inserts.
    pub fn record_batch(&self, n: u64) {
        self.batches_applied.fetch_add(1, Ordering::Relaxed);
        self.batched_inserts.fetch_add(n, Ordering::Relaxed);
        self.max_batch.fetch_max(n, Ordering::Relaxed);
    }

    /// Record one completed recovery that took `us` microseconds.
    pub fn record_recovery(&self, us: u64, generation: u64) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.recovery_us_last.store(us, Ordering::Relaxed);
        self.recovery_us_total.fetch_add(us, Ordering::Relaxed);
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// One shard's counters as a JSON object, joined with the snapshot
    /// gauges (epoch, applied points, hull size) and the live queue depth.
    pub fn json(&self, shard: usize, snap: &HullSnapshot, queue_depth: usize) -> String {
        let ingest = snap.ingest_kernel();
        format!(
            "{{\"shard\":{shard},\"epoch\":{},\"applied\":{},\"ready\":{},\
             \"points\":{},\"hull_facets\":{},\"dep_depth\":{},\"queue_depth\":{queue_depth},\
             \"inserts_enqueued\":{},\"overloaded\":{},\
             \"queries_contains\":{},\"queries_visible\":{},\"queries_extreme\":{},\
             \"snapshots\":{},\"flushes\":{},\
             \"batches_applied\":{},\"batched_inserts\":{},\"max_batch\":{},\
             \"queue_drain_rounds\":{},\
             \"recoveries\":{},\"recovery_us_last\":{},\"recovery_us_total\":{},\
             \"generation\":{},\"journal_len\":{},\"wal_errors\":{},\
             \"torn_tails\":{},\"bulk_builds\":{},\"bulk_pruned\":{},\
             \"deletes_enqueued\":{},\"delete_misses\":{},\"tombstones\":{},\
             \"window_expirations\":{},\"live_points\":{},\"lazy_tombstones\":{},\
             \"rebuilds\":{},\"auto_compactions\":{},\
             \"rebuild_us_last\":{},\"rebuild_us_total\":{},\
             \"repairs\":{},\"repair_fallbacks\":{},\"repair_us_total\":{},\
             \"publishes_refreshed\":{},\"publishes_cloned\":{},\
             \"ingest_kernel\":{},\"query_kernel\":{}}}",
            snap.epoch,
            snap.applied,
            snap.ready(),
            snap.num_points(),
            snap.num_facets(),
            snap.dep_depth(),
            self.inserts_enqueued.load(Ordering::Relaxed),
            self.overloaded.load(Ordering::Relaxed),
            self.queries_contains.load(Ordering::Relaxed),
            self.queries_visible.load(Ordering::Relaxed),
            self.queries_extreme.load(Ordering::Relaxed),
            self.snapshots.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
            self.batches_applied.load(Ordering::Relaxed),
            self.batched_inserts.load(Ordering::Relaxed),
            self.max_batch.load(Ordering::Relaxed),
            self.queue_drain_rounds.load(Ordering::Relaxed),
            self.recoveries.load(Ordering::Relaxed),
            self.recovery_us_last.load(Ordering::Relaxed),
            self.recovery_us_total.load(Ordering::Relaxed),
            self.generation.load(Ordering::Relaxed),
            self.journal_len.load(Ordering::Relaxed),
            self.wal_errors.load(Ordering::Relaxed),
            self.torn_tails.load(Ordering::Relaxed),
            self.bulk_builds.load(Ordering::Relaxed),
            self.bulk_pruned.load(Ordering::Relaxed),
            self.deletes_enqueued.load(Ordering::Relaxed),
            self.delete_misses.load(Ordering::Relaxed),
            self.tombstones.load(Ordering::Relaxed),
            self.window_expirations.load(Ordering::Relaxed),
            self.live_points.load(Ordering::Relaxed),
            self.lazy_tombstones.load(Ordering::Relaxed),
            self.rebuilds.load(Ordering::Relaxed),
            self.auto_compactions.load(Ordering::Relaxed),
            self.rebuild_us_last.load(Ordering::Relaxed),
            self.rebuild_us_total.load(Ordering::Relaxed),
            self.repairs.load(Ordering::Relaxed),
            self.repair_fallbacks.load(Ordering::Relaxed),
            self.repair_us_total.load(Ordering::Relaxed),
            self.publishes_refreshed.load(Ordering::Relaxed),
            self.publishes_cloned.load(Ordering::Relaxed),
            kernel_json(&ingest),
            kernel_json(&self.query_kernel.load()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_and_load_roundtrip() {
        let k = AtomicKernel::default();
        k.fold(&KernelCounts {
            tests: 5,
            filter_hits: 3,
            i128_fallbacks: 1,
            bigint_fallbacks: 1,
            descent_steps: 9,
        });
        k.fold(&KernelCounts {
            tests: 2,
            filter_hits: 2,
            i128_fallbacks: 0,
            bigint_fallbacks: 0,
            descent_steps: 4,
        });
        let c = k.load();
        assert_eq!(c.tests, 7);
        assert_eq!(c.filter_hits, 5);
        assert_eq!(c.descent_steps, 13);
        assert_eq!(
            c.tests,
            c.filter_hits + c.i128_fallbacks + c.bigint_fallbacks
        );
    }

    #[test]
    fn json_has_every_counter() {
        let s = ShardStats::default();
        s.record_batch(4);
        s.record_batch(9);
        s.record_recovery(250, 1);
        let j = s.json(2, &HullSnapshot::empty(3), 5);
        for key in [
            "\"shard\":2",
            "\"queue_depth\":5",
            "\"batches_applied\":2",
            "\"batched_inserts\":13",
            "\"max_batch\":9",
            "\"queue_drain_rounds\":0",
            "\"recoveries\":1",
            "\"recovery_us_last\":250",
            "\"generation\":1",
            "\"wal_errors\":0",
            "\"torn_tails\":0",
            "\"bulk_builds\":0",
            "\"bulk_pruned\":0",
            "\"deletes_enqueued\":0",
            "\"delete_misses\":0",
            "\"tombstones\":0",
            "\"window_expirations\":0",
            "\"live_points\":0",
            "\"lazy_tombstones\":0",
            "\"rebuilds\":0",
            "\"auto_compactions\":0",
            "\"rebuild_us_last\":0",
            "\"rebuild_us_total\":0",
            "\"repairs\":0",
            "\"repair_fallbacks\":0",
            "\"repair_us_total\":0",
            "\"publishes_refreshed\":0",
            "\"publishes_cloned\":0",
            "\"ready\":false",
            "\"dep_depth\":0",
            "\"ingest_kernel\":{\"tests\":0",
            "\"query_kernel\":{\"tests\":0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains('\n'));
    }
}
