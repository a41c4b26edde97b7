//! A thin failover router in front of a replicated hull cluster.
//!
//! `hull route` speaks the same framed wire protocol as the servers it
//! fronts: each client frame is decoded just enough to pick a backend
//! node, forwarded verbatim as a request object, and the backend's
//! reply relayed. Routing policy:
//!
//! * **writes** (`Mutate`, `Flush`, replication ops, `Shutdown`) go to the first *healthy* node in
//!   configuration order
//!   — node 0 is the write primary; while it is down, writes land on
//!   the next node, which rejects them (`read-only follower replica`)
//!   until it self-promotes, at which point writes resume there;
//! * **reads** are consistent-hashed per shard over a vnode ring across
//!   all healthy nodes, so follower replicas absorb read load and a
//!   node's death only remaps its ring arcs;
//! * a health thread probes every node's `Stats` op on a short period;
//! * when a read lands on a node other than its ring owner (the owner
//!   is down), the reply is wrapped in the existing `Degraded`
//!   status — the same in-band signal the single-node server uses
//!   during journal replay — with the router's failover count as the
//!   generation, unless the reply already carries a status wrapper.
//!
//! The router holds no hull state and needs no consensus: any replica
//! can answer any read (staleness is bounded in-band by the `Stale`
//! wrapper the follower itself applies), and a promoted follower holds
//! the hull of every unit it replicated from the primary.

use crate::client::HullClient;
use crate::wire::{read_frame, write_frame, Request, Response};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Vnodes per node on the read ring: enough that losing one node
/// spreads its arcs roughly evenly over the survivors.
const VNODES: u64 = 40;

/// Configuration for [`route`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Address to listen on (`host:port`, port 0 for ephemeral).
    pub addr: String,
    /// Backend nodes in priority order; `nodes[0]` is the write primary.
    pub nodes: Vec<String>,
    /// Health-probe period.
    pub probe_interval: Duration,
    /// Connect/request deadline for health probes and backend dials.
    pub deadline: Duration,
}

impl Default for RouterOptions {
    fn default() -> RouterOptions {
        RouterOptions {
            addr: "127.0.0.1:0".to_string(),
            nodes: Vec::new(),
            probe_interval: Duration::from_millis(200),
            deadline: Duration::from_millis(500),
        }
    }
}

struct Backend {
    addr: String,
    healthy: AtomicBool,
}

struct RouterShared {
    nodes: Vec<Backend>,
    /// Sorted vnode ring: (hash point, node index).
    ring: Vec<(u64, usize)>,
    shutdown: AtomicBool,
    failovers: AtomicU32,
    forwarded: AtomicU64,
    deadline: Duration,
}

/// SplitMix64 — the ring only needs a well-mixed deterministic hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RouterShared {
    fn healthy(&self, idx: usize) -> bool {
        self.nodes[idx].healthy.load(Ordering::SeqCst)
    }

    /// The ring owner for `shard`, then fallbacks walking the ring —
    /// first entry that is healthy wins. `None` if every node is down.
    fn read_node(&self, shard: u16) -> Option<(usize, bool)> {
        if self.ring.is_empty() {
            return None;
        }
        let h = mix64(shard as u64 ^ 0xC0DE);
        let start = self.ring.partition_point(|(p, _)| *p < h) % self.ring.len();
        let owner = self.ring[start].1;
        let mut seen = 0usize;
        let mut i = start;
        while seen < self.ring.len() {
            let (_, node) = self.ring[i];
            if self.healthy(node) {
                return Some((node, node != owner));
            }
            i = (i + 1) % self.ring.len();
            seen += 1;
        }
        None
    }

    /// The write target: first healthy node in priority order, primary
    /// first. The bool is "not the primary" (a failover).
    fn write_node(&self) -> Option<(usize, bool)> {
        (0..self.nodes.len())
            .find(|&i| self.healthy(i))
            .map(|i| (i, i != 0))
    }
}

/// A running router; dropping it (or calling
/// [`RouterHandle::shutdown`]) stops the listener.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Reads answered by a node other than their ring owner, plus
    /// writes answered by a non-primary.
    pub fn failovers(&self) -> u32 {
        self.shared.failovers.load(Ordering::SeqCst)
    }

    /// Frames forwarded to a backend so far.
    pub fn forwarded(&self) -> u64 {
        self.shared.forwarded.load(Ordering::SeqCst)
    }

    /// Stop accepting and join the router threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the router: bind `opts.addr`, probe `opts.nodes`, forward.
pub fn route(opts: RouterOptions) -> io::Result<RouterHandle> {
    if opts.nodes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one backend node",
        ));
    }
    let listener = TcpListener::bind(&opts.addr)?;
    let local_addr = listener.local_addr()?;
    let mut ring: Vec<(u64, usize)> = Vec::with_capacity(opts.nodes.len() * VNODES as usize);
    for (idx, node) in opts.nodes.iter().enumerate() {
        let base = node.bytes().fold(0u64, |a, b| mix64(a ^ b as u64));
        for v in 0..VNODES {
            ring.push((mix64(base ^ mix64(v)), idx));
        }
    }
    ring.sort_unstable();
    let shared = Arc::new(RouterShared {
        nodes: opts
            .nodes
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                // Optimistic start; the first probe round corrects it.
                healthy: AtomicBool::new(true),
            })
            .collect(),
        ring,
        shutdown: AtomicBool::new(false),
        failovers: AtomicU32::new(0),
        forwarded: AtomicU64::new(0),
        deadline: opts.deadline,
    });
    let prober = {
        let shared = Arc::clone(&shared);
        let interval = opts.probe_interval;
        std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                for node in &shared.nodes {
                    let up = HullClient::builder(node.addr.clone())
                        .deadline(shared.deadline)
                        .connect()
                        .and_then(|mut c| c.stats(None))
                        .is_ok();
                    node.healthy.store(up, Ordering::SeqCst);
                }
                std::thread::sleep(interval);
            }
        })
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let _ = serve_connection(&shared, stream);
                });
            }
        })
    };
    Ok(RouterHandle {
        shared,
        local_addr,
        accept: Some(accept),
        prober: Some(prober),
    })
}

/// The shard a request addresses, for ring placement.
fn shard_of(req: &Request) -> u16 {
    match req {
        Request::Contains { shard, .. }
        | Request::Visible { shard, .. }
        | Request::Extreme { shard, .. }
        | Request::Stats { shard }
        | Request::Snapshot { shard }
        | Request::Flush { shard }
        | Request::Mutate { shard, .. }
        | Request::ReplUnitFetch { shard, .. } => *shard,
        Request::Tagged { inner, .. } => shard_of(inner),
        Request::Hello { .. } | Request::Shutdown | Request::Metrics => 0,
    }
}

/// Whether the request mutates hull state (must reach the primary).
fn is_write(req: &Request) -> bool {
    match req {
        Request::Mutate { .. }
        | Request::Flush { .. }
        | Request::Shutdown
        | Request::ReplUnitFetch { .. } => true,
        Request::Tagged { inner, .. } => is_write(inner),
        _ => false,
    }
}

/// Whether a failover answering this request should be surfaced with
/// the `Degraded` wrapper. Administrative exchanges — the `Hello`
/// version check, `Metrics`, `Shutdown` — are about the connection or the
/// process, not shard data; wrapping them would break clients that
/// (correctly) expect their bare reply shapes.
fn wrappable(req: &Request) -> bool {
    match req {
        Request::Hello { .. } | Request::Metrics | Request::Shutdown => false,
        Request::Tagged { inner, .. } => wrappable(inner),
        _ => true,
    }
}

/// Mark a failover reply `Degraded` (the in-band "not the node you
/// asked for" signal), preserving wrapper-order legality: `Degraded` is
/// the innermost status wrapper, so replies already carrying any status
/// (or an error) pass through untouched; `Tagged` is recursed into.
fn wrap_failover(resp: Response, generation: u32) -> Response {
    match resp {
        Response::Tagged { id, inner } => Response::Tagged {
            id,
            inner: Box::new(wrap_failover(*inner, generation)),
        },
        Response::Degraded { .. } | Response::Stale { .. } | Response::Error(_) => resp,
        inner => Response::Degraded {
            generation,
            inner: Box::new(inner),
        },
    }
}

/// One client connection: decode each frame, pick a backend, forward,
/// relay the reply. Backend connections are opened lazily per client
/// connection and cached by node index.
fn serve_connection(shared: &RouterShared, mut client: TcpStream) -> io::Result<()> {
    client.set_nodelay(true)?;
    let mut backends: HashMap<usize, HullClient> = HashMap::new();
    while let Some(payload) = read_frame(&mut client)? {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let reply = match Request::decode(&payload) {
            Ok(req) => forward(shared, &mut backends, &req),
            Err(e) => Response::Error(e.to_string()),
        };
        write_frame(&mut client, &reply.encode())?;
    }
    Ok(())
}

/// Route one decoded request to a backend and return the reply; backend
/// failure mid-request retries once on the next healthy node.
fn forward(
    shared: &RouterShared,
    backends: &mut HashMap<usize, HullClient>,
    req: &Request,
) -> Response {
    let attempt =
        |backends: &mut HashMap<usize, HullClient>, node: usize| -> io::Result<Response> {
            if let std::collections::hash_map::Entry::Vacant(slot) = backends.entry(node) {
                let c = HullClient::builder(shared.nodes[node].addr.clone())
                    .deadline(shared.deadline)
                    .connect()?;
                slot.insert(c);
            }
            let r = backends.get_mut(&node).expect("just inserted").raw(req);
            if r.is_err() {
                // Drop the cached connection; the prober will flip health.
                backends.remove(&node);
            }
            r
        };
    let pick = if is_write(req) {
        shared.write_node()
    } else {
        shared.read_node(shard_of(req))
    };
    let Some((node, mut failed_over)) = pick else {
        return Response::Error("no healthy backend node".to_string());
    };
    shared.forwarded.fetch_add(1, Ordering::SeqCst);
    let resp = match attempt(backends, node) {
        Ok(resp) => resp,
        Err(_) => {
            // The picked node just died under us: mark it down and try
            // the next healthy one immediately (don't wait for the
            // prober round).
            shared.nodes[node].healthy.store(false, Ordering::SeqCst);
            let next = if is_write(req) {
                shared.write_node()
            } else {
                shared.read_node(shard_of(req))
            };
            match next {
                Some((retry, _)) if retry != node => {
                    failed_over = true;
                    match attempt(backends, retry) {
                        Ok(resp) => resp,
                        Err(e) => Response::Error(format!("backend unreachable: {e}")),
                    }
                }
                _ => Response::Error("no healthy backend node".to_string()),
            }
        }
    };
    if failed_over {
        let generation = shared.failovers.fetch_add(1, Ordering::SeqCst) + 1;
        crate::metrics::service_metrics().repl_failovers.incr();
        if wrappable(req) {
            wrap_failover(resp, generation)
        } else {
            resp
        }
    } else {
        resp
    }
}
