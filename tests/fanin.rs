//! Connection fan-in on the event-loop server: a `hull serve` process
//! holds 512, then 10 000 concurrent client connections, keeps one
//! `Contains` probe in flight on each, and answers every probe on every
//! connection without closing any (DESIGN §S19, EXPERIMENTS §E22).
//!
//! The server runs as its own process, so client and server each get a
//! whole `RLIMIT_NOFILE` budget: a loopback connection costs one
//! descriptor on each side. `hull serve` lifts its soft limit to the
//! hard limit at startup; this side asks for what it needs and clamps
//! the fan-in (and says so) when the hard limit is lower.
//!
//! A server that runs out of descriptors parks its listener instead of
//! spinning on a listener the backlog keeps readable, and takes the
//! backlog up again as its connections close, or on a timer when the
//! descriptor that frees is not one of its connections.

#![cfg(unix)]

mod common;

use common::{spawn_announced, spawn_hull_serve};
use convex_hull_suite::net::raise_nofile_limit;
use convex_hull_suite::service::wire::{read_frame, write_frame, Request, Response};
use convex_hull_suite::service::{HullClient, MutationBatch};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Descriptors kept back for everything that is not a probe connection.
const SPARE_FDS: usize = 256;

/// Probe rounds per fan-in: each round writes one probe to every
/// connection, then reads every reply.
const ROUNDS: usize = 2;

/// The smallest fan-in a clamped run may fall to: below it the test
/// would pass on a handful of connections and show nothing.
const MIN_FAN_IN: usize = 512;

/// The fan-in this process can hold: `wanted`, or fewer when the hard
/// `RLIMIT_NOFILE` cannot cover it plus [`SPARE_FDS`]. Fails when the
/// limit leaves fewer than [`MIN_FAN_IN`] connections.
fn clamp_to_nofile(wanted: usize) -> usize {
    let want = (wanted + SPARE_FDS) as u64;
    let limit = raise_nofile_limit(want);
    if limit >= want {
        return wanted;
    }
    let fit = limit.saturating_sub(SPARE_FDS as u64) as usize;
    assert!(
        fit >= MIN_FAN_IN,
        "nofile hard limit {limit} leaves {fit} connections, under the {MIN_FAN_IN} minimum"
    );
    eprintln!("fanin: nofile limit {limit} clamps fan-in {wanted} -> {fit} conns");
    fit
}

/// Open `conns` connections to `addr`, then run [`ROUNDS`] rounds of one
/// `Contains` in flight per connection, asserting every reply.
fn fan_in(addr: SocketAddr, conns: usize) {
    let mut ring: Vec<TcpStream> = (0..conns)
        .map(|i| {
            // Sequential connects can outrun the accept loop's backlog at
            // this scale; back off briefly and retry. A server that stops
            // accepting (out of descriptors) fails the test in seconds.
            let stream = (0..10)
                .find_map(|attempt| {
                    if attempt > 0 {
                        std::thread::sleep(Duration::from_millis(20 * attempt));
                    }
                    TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()
                })
                .unwrap_or_else(|| panic!("fan-in connect {i} kept failing"));
            stream.set_nodelay(true).expect("nodelay");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            stream
        })
        .collect();
    let probe = Request::Contains {
        shard: 0,
        point: vec![500, 500],
    }
    .encode();
    for round in 0..ROUNDS {
        for (i, s) in ring.iter_mut().enumerate() {
            write_frame(s, &probe).unwrap_or_else(|e| panic!("conn {i} write: {e}"));
        }
        for (i, s) in ring.iter_mut().enumerate() {
            let payload = read_frame(s)
                .unwrap_or_else(|e| panic!("conn {i} read (round {round}): {e}"))
                .unwrap_or_else(|| panic!("server closed conn {i} (round {round})"));
            let reply = Response::decode(&payload).expect("reply decode");
            assert!(
                matches!(reply, Response::Bool(true)),
                "conn {i} round {round}: {reply:?}"
            );
        }
    }
}

#[test]
fn event_loop_answers_every_probe_at_512_and_10k_connections() {
    let (mut server, addr, _) = spawn_hull_serve(&[]);
    // Every probe does real point location and has one known answer.
    seed_square(addr);
    for wanted in [512, 10_000] {
        fan_in(addr, clamp_to_nofile(wanted));
    }
    HullClient::builder(addr.to_string())
        .connect()
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("remote shutdown");
    let status = server.0.wait().expect("wait for hull serve");
    assert!(status.success(), "hull serve exited with {status}");
}

/// Seed the four corners on shard 0, so a `Contains` probe at
/// `(500, 500)` has one known answer.
fn seed_square(addr: SocketAddr) {
    let mut seed = HullClient::builder(addr.to_string())
        .connect()
        .expect("connect");
    for p in [[0, 0], [1_000, 0], [0, 1_000], [1_000, 1_000]] {
        seed.mutate(0, MutationBatch::new().insert(p))
            .expect("seed insert");
    }
    seed.flush(0).expect("seed flush");
}

/// CPU seconds (user + system) process `pid` has used so far, from
/// `/proc/<pid>/stat` (in USER_HZ = 100 ticks per second).
#[cfg(target_os = "linux")]
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n - 3)
            .expect("stat field")
            .parse()
            .expect("ticks")
    };
    (field(14) + field(15)) / 100.0
}

/// Under a hard `RLIMIT_NOFILE` of 64, 128 connections leave the tail in
/// the listen backlog. The server must idle meanwhile (no accept spin on
/// `EMFILE`), and once 16 connections close, the head of the backlog
/// gets its `Contains` answered.
#[cfg(target_os = "linux")]
#[test]
fn out_of_descriptors_parks_the_listener_until_a_connection_closes() {
    const NOFILE: u32 = 64;
    raise_nofile_limit(512);
    let mut launcher = std::process::Command::new("sh");
    launcher.args([
        "-c",
        &format!("ulimit -n {NOFILE}; exec \"$0\" \"$@\""),
        env!("CARGO_BIN_EXE_hull"),
    ]);
    let (server, addr, _) = spawn_announced(launcher, &[]);
    let pid = server.0.id();
    let limits = std::fs::read_to_string(format!("/proc/{pid}/limits")).expect("limits");
    let nofile = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .expect("nofile line");
    assert_eq!(
        nofile
            .split_whitespace()
            .skip(3)
            .take(2)
            .collect::<Vec<_>>(),
        [NOFILE.to_string(), NOFILE.to_string()],
        "{nofile}"
    );
    seed_square(addr);
    let probe = Request::Contains {
        shard: 0,
        point: vec![500, 500],
    }
    .encode();
    let answer = |s: &mut TcpStream| {
        let payload = read_frame(s).ok()??;
        Response::decode(&payload).ok()
    };
    // Probe each connection as it opens: the first that stays unanswered
    // is the head of the backlog; the rest just open behind it.
    let mut conns: Vec<TcpStream> = Vec::new();
    let mut head = None;
    for i in 0..128 {
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("connect {i}: {e}"));
        if head.is_none() {
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            write_frame(&mut s, &probe).unwrap();
            match answer(&mut s) {
                Some(reply) => assert_eq!(reply, Response::Bool(true), "conn {i}"),
                None => head = Some(i),
            }
        }
        conns.push(s);
    }
    let head = head.expect("128 connections never exhausted 64 descriptors");
    assert!(head >= 16, "only {head} connections were accepted");

    let (cpu0, t0) = (cpu_seconds(pid), Instant::now());
    std::thread::sleep(Duration::from_secs(2));
    let busy = cpu_seconds(pid) - cpu0;
    assert!(
        busy < 0.5,
        "server burned {busy:.2} s of CPU in {:.2} s with a full backlog",
        t0.elapsed().as_secs_f64()
    );

    drop(conns.drain(..16));
    let backlogged = &mut conns[head - 16];
    backlogged
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(
        answer(backlogged),
        Some(Response::Bool(true)),
        "the backlog head was never served after connections closed"
    );
}

/// `struct rlimit` on 64-bit Linux.
#[cfg(target_os = "linux")]
#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prlimit(pid: i32, resource: i32, new: *const Rlimit, old: *mut Rlimit) -> i32;
}

/// Set process `pid`'s soft `RLIMIT_NOFILE` to `cur` (its hard limit
/// unchanged) and return the soft limit it had.
#[cfg(target_os = "linux")]
fn set_soft_nofile(pid: u32, cur: u64) -> u64 {
    const RLIMIT_NOFILE: i32 = 7;
    let mut old = Rlimit { cur: 0, max: 0 };
    let rc = unsafe { prlimit(pid as i32, RLIMIT_NOFILE, std::ptr::null(), &mut old) };
    assert_eq!(rc, 0, "prlimit read: {}", std::io::Error::last_os_error());
    let new = Rlimit { cur, max: old.max };
    let rc = unsafe { prlimit(pid as i32, RLIMIT_NOFILE, &new, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "prlimit set: {}", std::io::Error::last_os_error());
    old.cur
}

/// Descriptors open in process `pid`.
#[cfg(target_os = "linux")]
fn open_fds(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("read fd dir")
        .count()
}

/// The descriptor that frees need not be one of the server's own
/// connections (the rest of the process holds some, and for `ENFILE`
/// another process does). With no connection open, the server's soft
/// `RLIMIT_NOFILE` drops to 0, so accepting the next connection fails;
/// the server must idle meanwhile and, once the limit is restored with
/// no connection having closed, still answer the waiting `Contains`.
#[cfg(target_os = "linux")]
#[test]
fn out_of_descriptors_with_no_connection_open_retries_accept() {
    let (server, addr, _) = spawn_hull_serve(&[]);
    let pid = server.0.id();
    let idle = open_fds(pid);
    seed_square(addr);
    // The seeding connection must be gone before the limit drops, or its
    // close (not the retry) would take the listener up again.
    let t0 = Instant::now();
    while open_fds(pid) > idle {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "seed conn never closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let soft = set_soft_nofile(pid, 0);
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
    write_frame(
        &mut s,
        &Request::Contains {
            shard: 0,
            point: vec![500, 500],
        }
        .encode(),
    )
    .unwrap();

    let (cpu0, t0) = (cpu_seconds(pid), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let busy = cpu_seconds(pid) - cpu0;
    assert!(
        busy < 0.25,
        "server burned {busy:.2} s of CPU in {:.2} s out of descriptors",
        t0.elapsed().as_secs_f64()
    );

    set_soft_nofile(pid, soft);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = read_frame(&mut s)
        .expect("waiting connection read")
        .expect("server closed the waiting connection");
    assert_eq!(
        Response::decode(&reply).expect("reply decode"),
        Response::Bool(true),
        "the waiting connection was answered wrong"
    );
}
