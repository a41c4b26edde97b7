//! # chull-service
//!
//! A long-lived convex hull **server** over the SPAA 2020 reproduction's
//! online hull: the history (influence) graph already gives expected
//! `O(log n)` point location per query (Section 4 of the paper), so this
//! crate packages it as a concurrent serving subsystem:
//!
//! * [`shard::HullService`] — the shard manager: independent
//!   epoch-versioned [`online hulls`](chull_core::online::OnlineHull),
//!   one worker thread per shard, copy-on-write snapshot publication
//!   (an `Arc<HullSnapshot>` swapped under a short critical section) so
//!   reads never block ingest;
//! * batched ingest — a bounded MPMC queue
//!   ([`chull_concurrent::BoundedQueue`]) coalesces inserts into batches
//!   applied through the staged exact kernel, with explicit backpressure
//!   (`Overloaded` replies) instead of unbounded buffering;
//! * [`wire`] — one length-prefixed binary protocol over std TCP:
//!   `Mutate` (the only write op: inserts, deletes and window
//!   expirations in one envelope), the `Contains`/`Visible`/`Extreme`
//!   queries, `Stats`, `Snapshot`, `Flush`, `Shutdown`, `Metrics`, a
//!   `Hello` version check, `Tagged` correlation-id frames for
//!   pipelining, `ReplUnitFetch`/`ReplAck` journal shipping, and the
//!   `Degraded`/`Stale` status wrappers;
//! * [`replica`] — follower replicas: a puller thread pulls a primary's
//!   typed journal units (pull-based, resume cursor = its own unit
//!   count, so faults reduce to reconnects), journals each at the
//!   primary's index, and self-promotes if the primary stays
//!   unreachable; a shard's state is a function of its journal, so the
//!   follower's hull matches the primary's without consensus;
//! * [`router`] — a thin front end that consistent-hashes read traffic
//!   across a primary + followers, health-checks via `Stats`, and fails
//!   reads over (wrapped `Degraded`) when a node dies;
//! * [`server::serve`] — the **event-loop** server (a `chull-net` epoll
//!   reactor + dispatcher pool, scaling to tens of thousands of
//!   connections with out-of-order pipelined replies), with graceful
//!   shutdown and per-request deadlines; unix-only, like `chull-net`;
//! * [`metrics`] — `chull_obs`-backed telemetry handles: per-op request
//!   series, shard gauges, pipeline latency histograms, and kernel
//!   counters, exposed via the wire `Metrics` op and the optional
//!   plain-HTTP `GET /metrics` listener (`ServeOptions::metrics_addr`);
//! * [`client::HullClient`] — the blocking client used by the `hull`
//!   CLI, the integration tests, and the load generator in `chull-bench`;
//!   opened through [`client::HullClientBuilder`] (address, connect
//!   deadline, retry policy, fallbacks), with
//!   [`client::HullClient::mutate`] streaming whole
//!   [`client::MutationBatch`]es (inserts, deletes, window expirations)
//!   as `Mutate` envelopes.
//!
//! Shards serve **windowed / deletable** hulls:
//! `Delete` tombstones a live point, a per-shard
//! [`chull_core::WindowPolicy`] expires the oldest live points, a hull
//! vertex's death is corrected in memory by a closed-star repair
//! ([`chull_core::online::HullBuilder::repair`]), and when tombstones
//! (or journal growth) pass a configurable ratio the worker collapses
//! its journal to one checkpoint unit of the survivors and installs the
//! hull from it through the parallel bulk builder — crash-safe across
//! WAL replay, supervised recovery, and follower replication.
//!
//! Correctness bar: the served hull is **bit-identical** to the offline
//! sequential Algorithm 2 on the same point multiset (the loopback
//! integration test in the workspace root proves it under concurrent
//! clients), because both paths run the same staged exact predicates.

#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
mod event_server;
pub mod journal;
pub mod metrics;
pub mod replica;
pub mod router;
#[cfg(unix)]
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod wire;

pub use chull_core::WindowPolicy;
pub use client::{
    HullClient, HullClientBuilder, MutateReply, MutationBatch, RetryPolicy, SnapshotReply,
};
pub use journal::{rewrite_wal, wal_path, Journal, JournalError, UnitLog};
pub use metrics::{op_metrics, service_metrics, OpMetrics, ServiceMetrics, ShardGauges};
pub use replica::{follow, FollowOptions, ReplicaHandle, ReplicaState};
pub use router::{route, RouterHandle, RouterOptions};
#[cfg(unix)]
pub use server::{serve, ServeOptions, ServerHandle};
pub use shard::{HullService, ServiceConfig, ServiceError};
pub use snapshot::HullSnapshot;
pub use stats::{AtomicKernel, ShardStats};
pub use wire::{Mutation, ReplUnit, WireError};
