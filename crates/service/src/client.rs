//! A blocking client for the hull wire protocol — used by the `hull
//! query` CLI, the loopback tests, the chaos harness, and the load
//! generator.
//!
//! Hardening (matching the server's failure model):
//!
//! * [`HullClient::mutate`] absorbs `Overloaded` backpressure with
//!   **capped exponential backoff plus seeded jitter** under an overall
//!   deadline ([`RetryPolicy`]) — replayable from a single seed, and the
//!   jitter decorrelates a fleet of load-generator threads;
//! * a broken connection (server restart, failpoint-truncated frame)
//!   triggers one **reconnect-and-resume** per request: the client
//!   remembers the resolved address and transparently redials. A resend
//!   after a lost *response* is not harmless: it can add a second live
//!   copy of an inserted point or evict a second copy with a delete
//!   (the shard's live set is refcounted), so the chaos harness asserts
//!   acked-⊆-served rather than exact multiset equality. Keying writes
//!   so that a resend applies once is ROADMAP item 3;
//! * `Degraded` replies are unwrapped to their inner answer and surfaced
//!   via [`HullClient::last_degraded`]; likewise `Stale` wrappers
//!   (follower replicas trailing their primary) are unwrapped and the
//!   staleness bound surfaced via [`HullClient::last_stale`];
//! * an ordered **fallback address list**
//!   ([`HullClientBuilder::fallback`]) turns reconnect-and-resume into
//!   failover: when redialing the current address fails, the client
//!   walks the fallbacks, re-checks the protocol version on the node
//!   that accepts, and resumes there ([`HullClient::failovers`] counts
//!   the switches). Pointing the fallbacks at follower replicas keeps
//!   reads available across a primary crash.
//!
//! Connections are opened through [`HullClientBuilder`]
//! (`HullClient::builder(addr)`), which sets the connect deadline and
//! the default retry policy, and sends a `Hello` with
//! [`PROTOCOL_VERSION`]: a server that speaks another version refuses
//! it, and `connect` fails with `ErrorKind::Unsupported`.
//!
//! **Writes go through [`HullClient::mutate`]**: a [`MutationBatch`] of
//! inserts, deletes, and window expirations applied by the shard as one
//! journal unit, one `Mutate` frame per attempt. [`HullClient::pipeline`]
//! issues many tagged requests back-to-back before reading any reply.

use crate::wire::{
    read_frame, write_frame, Mutation, ReplUnit, Request, Response, ALL_SHARDS, PROTOCOL_VERSION,
};
use chull_geometry::rng::ChaCha8Rng;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A decoded `Snapshot` reply.
#[derive(Debug, Clone)]
pub struct SnapshotReply {
    /// Publication epoch.
    pub epoch: u64,
    /// Dimension.
    pub dim: usize,
    /// Points, one `Vec` per point, in the shard's vertex-id order.
    pub points: Vec<Vec<i64>>,
    /// Facets as vertex-id tuples into `points`.
    pub facets: Vec<Vec<u32>>,
}

/// Backoff shape for [`HullClient::mutate`]: delay doubles from
/// `base` up to `cap`, each sleep jittered uniformly into its upper
/// half, until `deadline` elapses overall.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First backoff delay.
    pub base: Duration,
    /// Largest single delay.
    pub cap: Duration,
    /// Overall budget; past it the retry loop fails with `TimedOut`.
    pub deadline: Duration,
    /// Jitter seed — same seed, same jitter sequence (replayability).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(50),
            deadline: Duration::from_secs(30),
            seed: 0x07E5_7BAC_C0FF,
        }
    }
}

/// Configures and opens a [`HullClient`] connection: address, connect
/// deadline, backoff policy, and failover targets. Entry point:
/// [`HullClient::builder`].
///
/// ```no_run
/// # fn main() -> std::io::Result<()> {
/// use chull_service::HullClient;
/// let mut c = HullClient::builder("127.0.0.1:4040")
///     .deadline(std::time::Duration::from_secs(2))
///     .connect()?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct HullClientBuilder {
    addr: String,
    fallbacks: Vec<String>,
    deadline: Option<Duration>,
    policy: RetryPolicy,
}

impl HullClientBuilder {
    /// Start a builder for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> HullClientBuilder {
        HullClientBuilder {
            addr: addr.into(),
            fallbacks: Vec::new(),
            deadline: None,
            policy: RetryPolicy::default(),
        }
    }

    /// Append an ordered fallback address: when a redial of the current
    /// address fails mid-session, the client fails over to the first
    /// fallback that accepts (re-running the `Hello` version check
    /// there, since the fallback may be a different build). Typically the
    /// follower replicas of the primary in `addr`.
    pub fn fallback(mut self, addr: impl Into<String>) -> HullClientBuilder {
        self.fallbacks.push(addr.into());
        self
    }

    /// Bound connection establishment (default: the OS connect timeout).
    pub fn deadline(mut self, d: Duration) -> HullClientBuilder {
        self.deadline = Some(d);
        self
    }

    /// Backoff shape used by [`HullClient::mutate`].
    pub fn retry_policy(mut self, p: RetryPolicy) -> HullClientBuilder {
        self.policy = p;
        self
    }

    /// Resolve, connect, and check the protocol version with a `Hello`.
    /// A server that refuses [`PROTOCOL_VERSION`] fails the connect
    /// with `ErrorKind::Unsupported`.
    pub fn connect(self) -> io::Result<HullClient> {
        let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing")
        })?;
        let stream = match self.deadline {
            Some(d) => TcpStream::connect_timeout(&addr, d)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        let mut client = HullClient {
            stream,
            addr: Some(addr),
            fallbacks: self.fallbacks,
            deadline: self.deadline,
            last_degraded: None,
            last_stale: None,
            reconnects: 0,
            failovers: 0,
            calls: 0,
            policy: self.policy,
        };
        client.handshake()?;
        Ok(client)
    }
}

/// Builder for one mutation envelope: inserts, deletes, and window
/// expirations the shard applies as a single journal unit (one epoch).
///
/// ```
/// use chull_service::MutationBatch;
/// let batch = MutationBatch::new()
///     .insert([0, 0])
///     .insert([10, 0])
///     .delete([0, 0])
///     .expire(1);
/// assert_eq!(batch.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    muts: Vec<Mutation>,
}

impl MutationBatch {
    /// An empty envelope.
    pub fn new() -> MutationBatch {
        MutationBatch::default()
    }

    /// Append an insert.
    pub fn insert(mut self, point: impl Into<Vec<i64>>) -> MutationBatch {
        self.muts.push(Mutation::Insert(point.into()));
        self
    }

    /// Append a delete (tombstones the oldest live copy of the point;
    /// a miss is counted server-side and ignored).
    pub fn delete(mut self, point: impl Into<Vec<i64>>) -> MutationBatch {
        self.muts.push(Mutation::Delete(point.into()));
        self
    }

    /// Append an expiration of the `n` oldest live points.
    pub fn expire(mut self, n: u32) -> MutationBatch {
        self.muts.push(Mutation::Expire(n));
        self
    }

    /// Mutations queued so far.
    pub fn len(&self) -> usize {
        self.muts.len()
    }

    /// Whether the envelope holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.muts.is_empty()
    }

    /// The raw mutation list, in application order.
    pub fn into_mutations(self) -> Vec<Mutation> {
        self.muts
    }
}

impl From<Vec<Mutation>> for MutationBatch {
    fn from(muts: Vec<Mutation>) -> MutationBatch {
        MutationBatch { muts }
    }
}

/// Outcome of [`HullClient::mutate`]: every mutation was queued.
#[derive(Debug, Clone, Copy)]
pub struct MutateReply {
    /// Publication epoch observed when the (last slice of the)
    /// envelope was enqueued; `0` for an empty envelope.
    pub epoch: u64,
    /// `Overloaded` rejections absorbed by backoff along the way.
    pub rejections: u64,
}

/// One connection to a hull server; methods are synchronous
/// request/response calls. Not thread-safe — use one client per thread
/// (connections are cheap).
pub struct HullClient {
    stream: TcpStream,
    /// Resolved peer address, kept for reconnect-and-resume; replaced
    /// when a redial fails over to a fallback.
    addr: Option<SocketAddr>,
    /// Ordered failover targets tried after the current address refuses
    /// a redial (resolved lazily, at failover time).
    fallbacks: Vec<String>,
    /// Connect deadline, reused for redials.
    deadline: Option<Duration>,
    /// Generation from the most recent reply iff it was `Degraded`.
    last_degraded: Option<u32>,
    /// Staleness bound (batch units behind the primary) from the most
    /// recent reply iff it was `Stale` — a follower replica answered.
    last_stale: Option<u64>,
    /// Reconnects performed so far (observability for the chaos tests).
    reconnects: u64,
    /// Redials that switched to a fallback address.
    failovers: u64,
    /// Calls made, mixed into the per-call jitter stream.
    calls: u64,
    /// Default backoff shape for retrying methods.
    policy: RetryPolicy,
}

fn unexpected(resp: Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response: {resp:?}"),
    )
}

fn server_error(msg: String) -> io::Error {
    io::Error::other(format!("server error: {msg}"))
}

/// Connection failures worth one transparent redial (the server — or a
/// failpoint — dropped the connection, not the request semantics).
fn reconnectable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

impl HullClient {
    /// Configure a connection: deadline, retry policy, fallbacks.
    pub fn builder(addr: impl Into<String>) -> HullClientBuilder {
        HullClientBuilder::new(addr)
    }

    /// Generation of the most recent reply if it was `Degraded` (the
    /// shard's worker was being recovered and the answer came from the
    /// last good snapshot); `None` if the last reply was healthy.
    pub fn last_degraded(&self) -> Option<u32> {
        self.last_degraded
    }

    /// Staleness bound of the most recent reply if it was `Stale` (a
    /// follower replica answered while `lag` primary batch units behind);
    /// `None` if the last reply was current.
    pub fn last_stale(&self) -> Option<u64> {
        self.last_stale
    }

    /// Reconnect-and-resume redials performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Redials that failed over to a fallback address.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Check the protocol version on the current connection (at
    /// connect and after a failover — the new node may be a different
    /// build). Any answer but `Hello` with [`PROTOCOL_VERSION`] is
    /// `Unsupported`.
    fn handshake(&mut self) -> io::Result<()> {
        let refused = |why: String| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                format!("server refused protocol v{PROTOCOL_VERSION}: {why}"),
            )
        };
        let reply = match self.exchange(&Request::Hello {
            version: PROTOCOL_VERSION,
        }) {
            Ok(reply) => reply,
            // A server of another version may answer in a format this
            // build cannot even decode.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Err(refused(format!("unreadable reply ({e})")))
            }
            Err(e) => return Err(e),
        };
        match reply {
            Response::Hello { version } if version == PROTOCOL_VERSION => Ok(()),
            Response::Hello { version } => Err(refused(format!("it speaks v{version}"))),
            Response::Error(m) => Err(refused(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Redial after a dropped connection: the current address first,
    /// then each fallback in order. A connect that lands on a different
    /// address is a **failover** — the client re-runs the handshake
    /// there and resumes.
    fn redial(&mut self, last: io::Error) -> io::Result<()> {
        let primary = self.addr;
        let fallback_addrs: Vec<SocketAddr> = self
            .fallbacks
            .iter()
            .filter_map(|f| f.to_socket_addrs().ok().and_then(|mut it| it.next()))
            .collect();
        let mut last = last;
        for addr in primary.into_iter().chain(fallback_addrs) {
            let dial = match self.deadline {
                Some(d) => TcpStream::connect_timeout(&addr, d),
                None => TcpStream::connect(addr),
            };
            match dial {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    self.stream = stream;
                    self.reconnects += 1;
                    crate::metrics::service_metrics().client_reconnects.incr();
                    if Some(addr) != primary {
                        self.addr = Some(addr);
                        self.failovers += 1;
                        crate::metrics::service_metrics().repl_failovers.incr();
                        self.handshake()?;
                    }
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn exchange(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        Response::decode(&payload).map_err(io::Error::from)
    }

    /// Send one request and read its reply (any variant, `Degraded`
    /// included). A dropped connection is redialed once and the request
    /// resent. A resend after a lost response can apply a `Mutate`
    /// twice — a second live copy per insert, a second eviction per
    /// delete — which the refcounted live set does not absorb (see the
    /// module docs; ROADMAP item 3 keys writes so a resend applies once).
    pub fn raw(&mut self, req: &Request) -> io::Result<Response> {
        self.calls += 1;
        match self.exchange(req) {
            Ok(resp) => Ok(resp),
            Err(e) if reconnectable(e.kind()) => {
                if self.addr.is_none() && self.fallbacks.is_empty() {
                    return Err(e);
                }
                self.redial(e)?;
                self.exchange(req)
            }
            Err(e) => Err(e),
        }
    }

    /// Issue `reqs` back-to-back as `Tagged` frames — all writes
    /// first, then all reads — and return the replies **in request
    /// order**, whatever order the server completed them in (tagged
    /// requests may execute concurrently across shards and reply out of
    /// order; the correlation id restores the pairing).
    ///
    /// Replies are returned raw (a `Degraded` wrapper is *not*
    /// unwrapped) and no reconnect-and-resume is attempted: a
    /// connection lost mid-pipeline loses the whole pipeline. Keep batches modest (the server parks at most 1024
    /// frames per connection and pauses reads above 1 MiB of undrained
    /// replies, so a huge write-all-then-read-all pipeline can deadlock
    /// against its own backpressure); a few hundred requests is safe.
    pub fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        self.calls += reqs.len() as u64;
        for (id, req) in reqs.iter().enumerate() {
            let tagged = Request::Tagged {
                id: id as u64,
                inner: Box::new(req.clone()),
            };
            write_frame(&mut self.stream, &tagged.encode())?;
        }
        let mut out: Vec<Option<Response>> = (0..reqs.len()).map(|_| None).collect();
        let mut pending = reqs.len();
        while pending > 0 {
            let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-pipeline")
            })?;
            match Response::decode(&payload).map_err(io::Error::from)? {
                Response::Tagged { id, inner } => {
                    let slot = out.get_mut(id as usize).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("reply tagged {id}, but only {} requests sent", reqs.len()),
                        )
                    })?;
                    if slot.replace(*inner).is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("duplicate reply for tag {id}"),
                        ));
                    }
                    pending -= 1;
                }
                other => return Err(unexpected(other)),
            }
        }
        Ok(out.into_iter().map(|r| r.expect("all tags seen")).collect())
    }

    /// [`raw`](HullClient::raw), then unwrap the read-status wrappers
    /// into the inner answer — `Stale` (outer, follower staleness
    /// bound) then `Degraded` (recovery generation) — recording each.
    fn ask(&mut self, req: &Request) -> io::Result<Response> {
        let mut resp = self.raw(req)?;
        self.last_stale = None;
        self.last_degraded = None;
        if let Response::Stale { lag, inner } = resp {
            self.last_stale = Some(lag);
            resp = *inner;
        }
        if let Response::Degraded { generation, inner } = resp {
            self.last_degraded = Some(generation);
            resp = *inner;
        }
        Ok(resp)
    }

    /// Apply a [`MutationBatch`] to `shard`, absorbing `Overloaded`
    /// pushback on the rejected suffix with the client's
    /// [`RetryPolicy`] until every mutation is queued (`TimedOut` past
    /// the deadline). **The unified write entry point**: inserts,
    /// deletes, and window expirations in one frame, applied by the
    /// shard worker as one journal unit (one epoch). One `Mutate` frame
    /// per attempt: the rejected mutations are resent together after a
    /// jittered backoff.
    pub fn mutate(&mut self, shard: u16, batch: MutationBatch) -> io::Result<MutateReply> {
        if batch.is_empty() {
            return Ok(MutateReply {
                epoch: 0,
                rejections: 0,
            });
        }
        let policy = self.policy.clone();
        let start = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(policy.seed ^ self.calls);
        let mut delay = policy.base.max(Duration::from_micros(1));
        let mut pending = batch.muts;
        let mut rejections = 0u64;
        let epoch = loop {
            let resp = self.ask(&Request::Mutate {
                shard,
                muts: pending.clone(),
            })?;
            match resp {
                Response::Mutated { accepted, epoch } => {
                    if accepted.len() != pending.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "mutate reply covers {} mutations, sent {}",
                                accepted.len(),
                                pending.len()
                            ),
                        ));
                    }
                    let mut retry = Vec::new();
                    for (m, ok) in pending.drain(..).zip(&accepted) {
                        if !*ok {
                            retry.push(m);
                        }
                    }
                    if retry.is_empty() {
                        break epoch;
                    }
                    rejections += retry.len() as u64;
                    if start.elapsed() >= policy.deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("{} mutations still overloaded", retry.len()),
                        ));
                    }
                    let us = delay.as_micros() as u64;
                    let jittered = rng.gen_range(us / 2 + 1..us + 1);
                    std::thread::sleep(Duration::from_micros(jittered));
                    delay = (delay * 2).min(policy.cap);
                    pending = retry;
                }
                Response::Error(m) => return Err(server_error(m)),
                other => return Err(unexpected(other)),
            }
        };
        if rejections > 0 {
            crate::metrics::service_metrics()
                .client_rejections
                .add(rejections);
        }
        Ok(MutateReply { epoch, rejections })
    }

    /// Membership query; `None` while the shard is bootstrapping.
    pub fn contains(&mut self, shard: u16, point: &[i64]) -> io::Result<Option<bool>> {
        match self.ask(&Request::Contains {
            shard,
            point: point.to_vec(),
        })? {
            Response::Bool(b) => Ok(Some(b)),
            Response::NotReady => Ok(None),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Number of facets visible from the point; `None` while bootstrapping.
    pub fn visible(&mut self, shard: u16, point: &[i64]) -> io::Result<Option<u32>> {
        match self.ask(&Request::Visible {
            shard,
            point: point.to_vec(),
        })? {
            Response::VisibleCount(n) => Ok(Some(n)),
            Response::NotReady => Ok(None),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Extreme vertex in a direction; `None` while bootstrapping.
    pub fn extreme(&mut self, shard: u16, dir: &[i64]) -> io::Result<Option<(u32, Vec<i64>)>> {
        match self.ask(&Request::Extreme {
            shard,
            direction: dir.to_vec(),
        })? {
            Response::Extreme { vertex, coords } => Ok(Some((vertex, coords))),
            Response::NotReady => Ok(None),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Service counters as JSON (`None` aggregates all shards).
    pub fn stats(&mut self, shard: Option<u16>) -> io::Result<String> {
        match self.ask(&Request::Stats {
            shard: shard.unwrap_or(ALL_SHARDS),
        })? {
            Response::Stats(json) => Ok(json),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// The shard's current points and hull facets.
    pub fn snapshot(&mut self, shard: u16) -> io::Result<SnapshotReply> {
        match self.ask(&Request::Snapshot { shard })? {
            Response::Snapshot {
                epoch,
                dim,
                points,
                facets,
            } => Ok(SnapshotReply {
                epoch,
                dim,
                points: points.chunks(dim).map(|c| c.to_vec()).collect(),
                facets: facets.chunks(dim).map(|c| c.to_vec()).collect(),
            }),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Barrier: every mutation this client enqueued before the call is
    /// applied once this returns. Returns the publication epoch.
    pub fn flush(&mut self, shard: u16) -> io::Result<u64> {
        match self.ask(&Request::Flush { shard })? {
            Response::Flushed { epoch } => Ok(epoch),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// The server's telemetry registry as Prometheus text exposition —
    /// the same text its HTTP `/metrics` listener serves, fetched in-band
    /// over the wire protocol.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.ask(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.ask(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Pull typed replication units: every journal unit from
    /// `from_index` on that fits one frame, as `(index, total, dim,
    /// units)` with `units` at indices `index..`. Each unit is either
    /// ordinary ops (inserts plus tombstones) or a survivor checkpoint
    /// that replaces everything before it. No units means caught up —
    /// poll again later. The primary records `from_index` as this
    /// subscriber's ack. A shipment dropped by the primary's
    /// `replica.ship` failpoint surfaces as `WouldBlock`.
    pub fn repl_unit_fetch(
        &mut self,
        shard: u16,
        from_index: u64,
    ) -> io::Result<(u64, u64, usize, Vec<ReplUnit>)> {
        match self.ask(&Request::ReplUnitFetch { shard, from_index })? {
            Response::ReplUnits {
                index,
                total,
                dim,
                units,
            } => Ok((index, total, dim, units)),
            Response::Overloaded => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "primary dropped the replication shipment",
            )),
            Response::Error(m) => Err(server_error(m)),
            other => Err(unexpected(other)),
        }
    }
}
