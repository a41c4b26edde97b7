//! Lock-free telemetry for the hull engines and the serving subsystem.
//!
//! Everything here is std-only and built around one contract: **the
//! disarmed cost of an instrumentation site is a single relaxed atomic
//! load**. Offline engine runs (the `hull` CLI, unit tests, benches
//! that measure the algorithms themselves) never pay for telemetry;
//! [`arm`] is flipped exactly once, by `chull_service::server::serve`,
//! because a long-lived server is precisely the process that must be
//! observable.
//!
//! Primitives:
//!
//! * [`Counter`] — monotone u64, cache-line-sharded per-thread stripes
//!   (same philosophy as `concurrent::counters::StripedCounter`),
//!   folded on read; exact at quiescence.
//! * [`Gauge`] — a single signed last-value cell (set/add), for
//!   levels such as queue depth or publication epoch.
//! * [`Histogram`] — 65 log₂ buckets over `u64` with exact `sum`,
//!   `count` and `max` side-totals; snapshots are mergeable and
//!   diffable, and quantile readout is clamped to the observed max.
//! * [`trace`](mod@trace) — a bounded ring-buffer event tracer with seeded
//!   sampling (ChaCha8 from one u64, replayable like
//!   `concurrent::failpoint`).
//! * [`registry`](mod@registry) — the process-global name → metric table rendered as
//!   Prometheus text exposition, served over the wire protocol
//!   (`Metrics` op) and plain HTTP ([`serve_metrics_http`]).
//!
//! With the `noop` cargo feature, [`armed`] is a compile-time `false`
//! and every record path folds away — the basis of the `BENCH_obs.json`
//! A/B overhead gate.

#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod http;
pub mod registry;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use histogram::{bucket_index, bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use http::{serve_metrics_http, MetricsHttpHandle, RenderHook};
pub use registry::{registry, Registry};
pub use trace::{trace, trace_arm, trace_disarm, trace_events, trace_stats, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation sites record. One relaxed load; with the
/// `noop` feature this is a compile-time `false` and callers'
/// `if armed()` blocks are dead code.
#[inline(always)]
pub fn armed() -> bool {
    cfg!(not(feature = "noop")) && ARMED.load(Ordering::Relaxed)
}

/// Turn recording on, process-wide. Idempotent; called by the server
/// on startup. Tests that arm never disarm (arming is behavior-neutral
/// and the flag is global to the test binary).
pub fn arm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Turn recording back off (already-folded values are kept).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}
