//! The event-loop server (DESIGN §S19): one reactor thread
//! multiplexing every connection over a `chull-net` readiness poller,
//! with a small dispatcher pool executing requests off the loop.
//!
//! ```text
//!            readiness                 bounded by
//!            events                    MAX_TAGGED_INFLIGHT/PARKED_CAP
//!  sockets ──► reactor ── parked frames ──► job queue ── dispatchers
//!     ▲            ▲                                         │
//!     │            │ eventfd waker                           │ dispatch()
//!     └── write ◄──┴───────── completions ◄──────────────────┘
//! ```
//!
//! The reactor **never executes a request**: queries are cheap but a
//! `Flush` barrier blocks until the shard worker drains, and one
//! blocked reactor is a blocked server. Dispatchers run
//! [`crate::server::process_payload`] — the decode/dispatch core — and
//! push the encoded reply to a completion list, waking the reactor to finish the write when the
//! socket is ready.
//!
//! Pipelining invariants:
//!
//! * untagged frames on one connection execute strictly one at a time
//!   in arrival order, so completion order equals issue order and
//!   request/reply clients need no reorder buffer;
//! * `Tagged` frames dispatch as capacity allows and may complete out
//!   of order — the correlation id, not position, pairs replies;
//! * all frames on a connection *begin* execution in arrival order
//!   (the parked queue is FIFO; a head that cannot dispatch blocks the
//!   frames behind it).
//!
//! Robustness (under non-blocking I/O):
//!
//! * a started frame (first byte seen, frame incomplete) must finish
//!   within `request_timeout` — slow-loris dribblers are reaped by the
//!   deadline sweep without touching healthy connections;
//! * a peer that stops reading its replies hits the same deadline on
//!   the write side (plus a byte high-water mark that pauses reads);
//! * shutdown is graceful: stop accepting, let in-flight requests
//!   finish within a grace period, drain and join the dispatchers;
//! * the `server.accept` failpoint fires per accepted connection and
//!   `wire.write_frame` truncation applies to queued replies, so chaos
//!   schedules can stall the accept path and tear replies mid-frame.
//!
//! Tokens 0 and 1 are the listener and the waker; connection `key` in
//! the slab maps to token `key + 2`, and a per-connection generation
//! counter sheds completions that outlive their connection (slab keys
//! are reused).

use crate::metrics::service_metrics;
use crate::server::{
    panic_message, process_payload, record_accept_fault, trigger_shutdown, ServeOptions, Shared,
};
use crate::wire::Response;
use chull_concurrent::failpoint::{self, sites, FaultAction};
use chull_net::{encode_frame_into, ByteBuf, FrameDecoder, Interest, Poller, Slab, Token};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reactor tick: the deadline-sweep granularity (idle wait cap).
const TICK: Duration = Duration::from_millis(25);
/// Most tagged requests one connection may have executing at once;
/// frames beyond this park in arrival order.
const MAX_TAGGED_INFLIGHT: usize = 64;
/// Most parked (parsed, undispatched) frames per connection before the
/// reactor stops reading from it.
const PARKED_CAP: usize = 1024;
/// Pending reply bytes above which reads pause (peer not draining).
const WBUF_HIGH: usize = 1 << 20;
/// `accept` errno values for "out of file descriptors" (process and
/// system table), the same on Linux and the BSDs.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
/// How long a listener parked on `EMFILE`/`ENFILE` waits before it
/// retries `accept` when no connection of its own closes first: the
/// descriptor that frees may be held elsewhere in the process (WAL files,
/// the metrics server, a follower's puller) or, for `ENFILE`, by another
/// process.
const STARVED_RETRY: Duration = Duration::from_millis(100);
const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);
const TOKEN_BASE: usize = 2;

/// Wakes the reactor out of `Poller::wait` (eventfd on Linux; the
/// portable poller relies on the bounded tick instead).
enum ReactorWaker {
    #[cfg(target_os = "linux")]
    Eventfd(chull_net::Waker),
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    Tick,
}

impl ReactorWaker {
    fn wake(&self) {
        match self {
            #[cfg(target_os = "linux")]
            ReactorWaker::Eventfd(w) => {
                let _ = w.wake();
            }
            ReactorWaker::Tick => {}
        }
    }

    fn drain(&self) {
        match self {
            #[cfg(target_os = "linux")]
            ReactorWaker::Eventfd(w) => w.drain(),
            ReactorWaker::Tick => {}
        }
    }
}

/// One frame handed to the dispatcher pool.
struct Job {
    key: usize,
    gen: u64,
    payload: Vec<u8>,
}

/// A closable MPMC injector for the dispatcher pool (condvar-blocking
/// pop; the shard queues' lock-free `BoundedQueue` fits worker loops,
/// not a pool that must also wake on close).
struct JobQueue {
    q: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            q: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut g = self.q.lock().unwrap_or_else(|p| p.into_inner());
        g.0.push_back(job);
        drop(g);
        self.cv.notify_one();
    }

    /// Blocks for work; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut g = self.q.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(j) = g.0.pop_front() {
                return Some(j);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        self.q.lock().unwrap_or_else(|p| p.into_inner()).1 = true;
        self.cv.notify_all();
    }
}

/// A finished request on its way back to the reactor.
struct Completion {
    key: usize,
    gen: u64,
    /// The response was `Tagged` (frees a tagged in-flight slot rather
    /// than the connection's single untagged slot).
    tagged: bool,
    /// Encoded reply payload (framing added when queued to the socket).
    payload: Vec<u8>,
    shutdown_after: bool,
}

#[derive(Default)]
struct Completions(Mutex<Vec<Completion>>);

impl Completions {
    fn push(&self, c: Completion) {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).push(c);
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    gen: u64,
    decoder: FrameDecoder,
    wbuf: ByteBuf,
    interest: Interest,
    /// Parsed frames waiting for a dispatch slot (FIFO).
    parked: VecDeque<Vec<u8>>,
    untagged_inflight: bool,
    tagged_inflight: usize,
    /// Deadline for completing the partially-received frame.
    frame_deadline: Option<Instant>,
    /// Deadline for draining `wbuf` (peer not reading).
    write_deadline: Option<Instant>,
    /// Peer half-closed (EOF read); finish in-flight work, then close.
    peer_closed: bool,
    /// Close as soon as `wbuf` drains (protocol fault or torn write).
    closing: bool,
    /// Reply written for a `Shutdown` request: once drained, trigger
    /// server shutdown and close.
    shutdown_after_drain: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Conn {
        Conn {
            stream,
            gen,
            decoder: FrameDecoder::new(crate::wire::MAX_FRAME),
            wbuf: ByteBuf::new(),
            interest: Interest::READABLE,
            parked: VecDeque::new(),
            untagged_inflight: false,
            tagged_inflight: 0,
            frame_deadline: None,
            write_deadline: None,
            peer_closed: false,
            closing: false,
            shutdown_after_drain: false,
        }
    }

    fn inflight(&self) -> usize {
        self.tagged_inflight + self.untagged_inflight as usize
    }

    /// Nothing left to read, execute, or write.
    fn drained(&self) -> bool {
        self.inflight() == 0 && self.parked.is_empty() && self.wbuf.is_empty()
    }
}

/// Start the reactor + dispatcher pool; returns the reactor thread
/// handle (the `accept` slot of `ServerHandle` — joining it joins the
/// dispatchers too).
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    shared: Arc<Shared>,
    opts: &ServeOptions,
) -> io::Result<std::thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller: Arc<dyn Poller> = Arc::from(chull_net::poller()?);
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    #[cfg(target_os = "linux")]
    let waker = Arc::new(ReactorWaker::Eventfd(chull_net::Waker::new(
        &*poller,
        TOKEN_WAKER,
    )?));
    #[cfg(not(target_os = "linux"))]
    let waker = Arc::new(ReactorWaker::Tick);
    {
        let w = Arc::clone(&waker);
        let _ = shared.waker.set(Arc::new(move || w.wake()));
    }
    let jobs = Arc::new(JobQueue::new());
    let completions = Arc::new(Completions::default());
    let n_dispatchers = match opts.dispatchers {
        0 => std::thread::available_parallelism()
            .map(|p| p.get().min(4))
            .unwrap_or(2)
            .max(2),
        n => n,
    };
    let mut dispatchers = Vec::with_capacity(n_dispatchers);
    for i in 0..n_dispatchers {
        let jobs = Arc::clone(&jobs);
        let completions = Arc::clone(&completions);
        let shared = Arc::clone(&shared);
        let waker = Arc::clone(&waker);
        dispatchers.push(
            std::thread::Builder::new()
                .name(format!("hull-dispatch-{i}"))
                .spawn(move || dispatcher_loop(&jobs, &completions, &shared, &waker))?,
        );
    }
    let oneshot = opts.oneshot;
    let request_timeout = opts.request_timeout;
    std::thread::Builder::new()
        .name("hull-reactor".to_string())
        .spawn(move || {
            let mut reactor = Reactor {
                poller,
                listener,
                shared: Arc::clone(&shared),
                waker,
                jobs: Arc::clone(&jobs),
                completions,
                conns: Slab::new(),
                next_gen: 0,
                request_timeout,
                oneshot,
                oneshot_accepted: false,
                accepting: true,
                fd_starved: None,
                shutdown_grace: None,
            };
            // Contain reactor panics (e.g. an armed failpoint with a
            // panic spec at `server.accept`): record the fault, keep
            // the process alive, let shutdown drain the shards.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reactor.run()));
            match run {
                Ok(Ok(())) => {}
                Ok(Err(e)) => record_accept_fault(&shared, format!("reactor io error: {e}")),
                Err(p) => record_accept_fault(
                    &shared,
                    format!("reactor panicked: {}", panic_message(p.as_ref())),
                ),
            }
            jobs.close();
            for d in dispatchers {
                let _ = d.join();
            }
        })
}

fn dispatcher_loop(
    jobs: &JobQueue,
    completions: &Completions,
    shared: &Shared,
    waker: &ReactorWaker,
) {
    while let Some(job) = jobs.pop() {
        let (response, shutdown_after) = process_payload(&shared.service, &job.payload);
        let tagged = matches!(response, Response::Tagged { .. });
        completions.push(Completion {
            key: job.key,
            gen: job.gen,
            tagged,
            payload: response.encode(),
            shutdown_after,
        });
        waker.wake();
    }
}

struct Reactor {
    poller: Arc<dyn Poller>,
    listener: TcpListener,
    shared: Arc<Shared>,
    waker: Arc<ReactorWaker>,
    jobs: Arc<JobQueue>,
    completions: Arc<Completions>,
    conns: Slab<Conn>,
    next_gen: u64,
    request_timeout: Duration,
    oneshot: bool,
    oneshot_accepted: bool,
    accepting: bool,
    /// When the listener was parked because `accept` ran out of
    /// descriptors; the next closed connection re-registers it, or the
    /// loop does once [`STARVED_RETRY`] has passed.
    fd_starved: Option<Instant>,
    shutdown_grace: Option<Instant>,
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut events = Vec::with_capacity(256);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && self.shutdown_grace.is_none() {
                self.begin_shutdown();
            }
            if self.shutdown_grace.is_some() {
                self.reap_idle_for_shutdown();
                let expired = self.shutdown_grace.is_some_and(|g| Instant::now() >= g);
                if self.conns.is_empty() || expired {
                    break;
                }
            }
            events.clear();
            self.poller.wait(&mut events, Some(TICK))?;
            if !events.is_empty() {
                service_metrics().readiness_wakeups.incr();
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    Token(t) => {
                        let key = t - TOKEN_BASE;
                        if ev.error {
                            self.close_conn(key);
                            continue;
                        }
                        if ev.readable || ev.hangup {
                            self.on_readable(key);
                        }
                        if ev.writable {
                            self.flush_writes(key);
                            self.update_interest(key);
                        }
                    }
                }
            }
            self.drain_completions();
            self.sweep_deadlines();
            if self
                .fd_starved
                .is_some_and(|t| t.elapsed() >= STARVED_RETRY)
            {
                self.resume_accepting();
            }
        }
        // Shutdown: drop whatever is left (grace expired or none open).
        for key in self.conns.keys() {
            self.close_conn(key);
        }
        Ok(())
    }

    fn begin_shutdown(&mut self) {
        self.shutdown_grace = Some(Instant::now() + self.request_timeout);
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        if self.accepting {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.accepting = false;
        }
    }

    /// During shutdown, close every connection with no work in flight;
    /// ones mid-request get the grace period to finish.
    fn reap_idle_for_shutdown(&mut self) {
        for key in self.conns.keys() {
            let drained = self.conns.get(key).is_some_and(Conn::drained);
            if drained {
                self.close_conn(key);
            }
        }
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    // The backlog keeps the listener readable, so polling
                    // it now would spin; park it until a descriptor frees.
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
                    self.fd_starved = Some(Instant::now());
                    break;
                }
                Err(_) => break,
            };
            // Failpoint `server.accept`: a chaos schedule may stall (or
            // kill) the accept path.
            let _ = failpoint::eval(sites::SERVER_ACCEPT);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let m = service_metrics();
            m.accepts.incr();
            m.connections_accepted.incr();
            m.connections_active.add(1);
            self.next_gen += 1;
            let fd = stream.as_raw_fd();
            let key = self.conns.insert(Conn::new(stream, self.next_gen));
            if self
                .poller
                .register(fd, Token(key + TOKEN_BASE), Interest::READABLE)
                .is_err()
            {
                self.conns.remove(key);
                m.connections_closed.incr();
                m.connections_active.add(-1);
                continue;
            }
            if self.oneshot {
                // Serve exactly one connection; shut down when it goes.
                self.oneshot_accepted = true;
                self.stop_accepting();
                break;
            }
        }
    }

    fn on_readable(&mut self, key: usize) {
        let deadline_base = Instant::now() + self.request_timeout;
        let outcome = {
            let Some(conn) = self.conns.get_mut(key) else {
                return;
            };
            // Pull everything the socket has (level triggering
            // re-delivers if the parked cap makes us stop early).
            let io_ok = loop {
                match conn.decoder.read_from(&mut conn.stream) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break true;
                    }
                    Ok(_) => {
                        if conn.parked.len() >= PARKED_CAP {
                            break true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break false,
                }
            };
            if !io_ok {
                Err(())
            } else {
                // Parse complete frames into the parked queue (bounded).
                let mut partial = false;
                let parse_ok = loop {
                    if conn.parked.len() >= PARKED_CAP {
                        break true;
                    }
                    match conn.decoder.next_frame() {
                        Ok(Some(frame)) => conn.parked.push_back(frame),
                        Ok(None) => {
                            partial = conn.decoder.has_partial();
                            break true;
                        }
                        // Oversized length prefix: protocol-broken peer.
                        Err(_) => break false,
                    }
                };
                if !parse_ok || (conn.peer_closed && partial) {
                    // A torn frame can never complete once the peer
                    // half-closed; an oversized one never should.
                    Err(())
                } else {
                    if partial {
                        conn.frame_deadline.get_or_insert(deadline_base);
                    } else {
                        conn.frame_deadline = None;
                    }
                    Ok(())
                }
            }
        };
        if outcome.is_err() {
            self.close_conn(key);
            return;
        }
        self.dispatch_parked(key);
        if self
            .conns
            .get(key)
            .is_some_and(|c| c.peer_closed && c.drained())
        {
            self.close_conn(key);
            return;
        }
        self.update_interest(key);
    }

    /// Move parked frames to the dispatcher pool, FIFO, while capacity
    /// allows: tagged frames up to [`MAX_TAGGED_INFLIGHT`] concurrent,
    /// untagged strictly one at a time (ordering invariant).
    fn dispatch_parked(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        while let Some(front) = conn.parked.front() {
            let tagged = front.first() == Some(&0x0F);
            if tagged {
                if conn.tagged_inflight >= MAX_TAGGED_INFLIGHT {
                    break;
                }
                conn.tagged_inflight += 1;
            } else {
                if conn.untagged_inflight {
                    break;
                }
                conn.untagged_inflight = true;
            }
            let payload = conn.parked.pop_front().expect("front checked");
            self.jobs.push(Job {
                key,
                gen: conn.gen,
                payload,
            });
        }
    }

    fn drain_completions(&mut self) {
        for c in self.completions.take() {
            // Generation check: the slot may have been freed and reused
            // since this job was dispatched; a stale reply must not
            // reach the new tenant.
            let Some(conn) = self.conns.get_mut(c.key) else {
                continue;
            };
            if conn.gen != c.gen {
                continue;
            }
            if c.tagged {
                conn.tagged_inflight -= 1;
            } else {
                conn.untagged_inflight = false;
            }
            // Failpoint `wire.write_frame`: a chaos schedule may tear
            // the reply mid-frame — queue the prefix and drop the
            // connection once it flushes.
            if let FaultAction::TruncateWrite(n) = failpoint::eval(sites::WIRE_WRITE_FRAME) {
                let mut full = Vec::with_capacity(4 + c.payload.len());
                full.extend_from_slice(&(c.payload.len() as u32).to_le_bytes());
                full.extend_from_slice(&c.payload);
                let cut = n.min(full.len());
                conn.wbuf.extend(&full[..cut]);
                conn.closing = true;
            } else {
                encode_frame_into(&mut conn.wbuf, &c.payload);
            }
            if c.shutdown_after {
                conn.shutdown_after_drain = true;
            }
            self.dispatch_parked(c.key);
            self.flush_writes(c.key);
            self.update_interest(c.key);
        }
    }

    fn flush_writes(&mut self, key: usize) {
        enum After {
            Keep,
            Close,
            ShutdownAndClose,
        }
        let deadline_base = Instant::now() + self.request_timeout;
        let after = {
            let Some(conn) = self.conns.get_mut(key) else {
                return;
            };
            let io_ok = loop {
                if conn.wbuf.is_empty() {
                    break true;
                }
                match conn.wbuf.write_to(&mut conn.stream) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break false,
                }
            };
            if !io_ok {
                After::Close
            } else if conn.wbuf.is_empty() {
                conn.write_deadline = None;
                if conn.shutdown_after_drain {
                    After::ShutdownAndClose
                } else if conn.closing || (conn.peer_closed && conn.drained()) {
                    After::Close
                } else {
                    After::Keep
                }
            } else {
                conn.write_deadline.get_or_insert(deadline_base);
                After::Keep
            }
        };
        match after {
            After::Keep => {}
            After::Close => self.close_conn(key),
            After::ShutdownAndClose => {
                trigger_shutdown(&self.shared);
                self.close_conn(key);
            }
        }
    }

    /// Reconcile the poller registration with what the connection can
    /// make progress on: reads pause under backpressure (parked queue
    /// or reply bytes over the high-water mark), writes only while
    /// bytes are pending.
    fn update_interest(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(key) else {
            return;
        };
        let paused = conn.parked.len() >= PARKED_CAP || conn.wbuf.len() > WBUF_HIGH;
        let want = Interest {
            readable: !paused && !conn.peer_closed,
            writable: !conn.wbuf.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), Token(key + TOKEN_BASE), want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Re-register a listener parked on `EMFILE`/`ENFILE`; a failed
    /// register parks it for another [`STARVED_RETRY`].
    fn resume_accepting(&mut self) {
        if self.fd_starved.is_none() || !self.accepting {
            return;
        }
        let fd = self.listener.as_raw_fd();
        self.fd_starved = match self.poller.register(fd, TOKEN_LISTENER, Interest::READABLE) {
            Ok(()) => None,
            Err(_) => Some(Instant::now()),
        };
    }

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for key in self.conns.keys() {
            let expired = self.conns.get(key).is_some_and(|c| {
                c.frame_deadline.is_some_and(|d| now >= d)
                    || c.write_deadline.is_some_and(|d| now >= d)
            });
            if expired {
                self.close_conn(key);
            }
        }
    }

    fn close_conn(&mut self, key: usize) {
        let Some(conn) = self.conns.remove(key) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let m = service_metrics();
        m.connections_closed.incr();
        m.connections_active.add(-1);
        drop(conn);
        self.resume_accepting();
        if self.oneshot && self.oneshot_accepted && self.conns.is_empty() {
            trigger_shutdown(&self.shared);
        }
    }
}
