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

#![cfg(unix)]

mod common;

use common::spawn_hull_serve;
use convex_hull_suite::net::raise_nofile_limit;
use convex_hull_suite::service::wire::{read_frame, write_frame, Request, Response};
use convex_hull_suite::service::{HullClient, MutationBatch};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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
    {
        // Seed the four corners so every probe does real point location
        // and has one known answer.
        let mut seed = HullClient::builder(addr.to_string())
            .connect()
            .expect("connect");
        for p in [[0, 0], [1_000, 0], [0, 1_000], [1_000, 1_000]] {
            seed.mutate(0, MutationBatch::new().insert(p))
                .expect("seed insert");
        }
        seed.flush(0).expect("seed flush");
    }
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
