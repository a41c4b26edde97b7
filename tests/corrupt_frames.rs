//! Corrupt-frame corpus: the wire decoder and the live server must
//! treat every malformed byte sequence as data, never as a crash.
//!
//! Two layers:
//!
//! * **decoder fuzz** — a seeded corpus of mutated frames (truncations,
//!   flipped bytes, forged length fields, appended garbage, pure noise)
//!   driven through `Request::decode` / `Response::decode`; every
//!   mutant must yield `Ok` or a typed `WireError`, never a panic;
//! * **live server** — a raw TCP peer sends garbage payloads (server
//!   replies `Error` and keeps the connection), stalls mid-header or
//!   mid-frame (server drops the connection within
//!   `request_timeout`, never pinning a thread), forges an
//!   oversized length prefix (dropped immediately), and slow-loris
//!   dribbles a frame one byte at a time — all while a healthy client
//!   on another connection keeps being served;
//! * **refusal** — well-formed frames of the retired ops (`0x01`
//!   `Insert`, `0x0A` `InsertBatch`, `0x0C`–`0x0E` `*Scan`, `0x10`
//!   `ReplSubscribe`, `0x11` `ReplAck`) and a `Hello` with any version but
//!   `PROTOCOL_VERSION` get `Error` replies on a connection that keeps
//!   serving, and the client refuses a server that speaks another
//!   version.

use convex_hull_suite::geometry::rng::ChaCha8Rng;
use convex_hull_suite::service::wire::{
    read_frame, units_per_frame, write_frame, Mutation, ReplUnit, Request, Response, WireError,
    ALL_SHARDS, MAX_FRAME, PROTOCOL_VERSION,
};
use convex_hull_suite::service::{serve, HullClient, MutationBatch, ServeOptions, ServiceConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// `u16` shard 0 then a wire point (`u8` dim + `i64` LE coordinates).
fn shard0_point(op: u8, coords: &[i64]) -> Vec<u8> {
    let mut b = vec![op, 0, 0, coords.len() as u8];
    for c in coords {
        b.extend_from_slice(&c.to_le_bytes());
    }
    b
}

/// Well-formed frames of the retired ops, byte for byte as the last
/// encoder that spoke them wrote them: `(opcode, payload)`.
fn retired_frames() -> Vec<(u8, Vec<u8>)> {
    // 0x0A InsertBatch: u32 count, then that many wire points.
    let mut batch = vec![0x0A, 0, 0];
    batch.extend_from_slice(&2u32.to_le_bytes());
    batch.extend_from_slice(&shard0_point(0, &[1, 2])[3..]);
    batch.extend_from_slice(&shard0_point(0, &[-3, 4])[3..]);
    // 0x10 ReplSubscribe: u64 from_index.
    let mut subscribe = vec![0x10, 0, 0];
    subscribe.extend_from_slice(&3u64.to_le_bytes());
    // 0x11 ReplAck: u64 index.
    let mut ack = vec![0x11, 0, 0];
    ack.extend_from_slice(&9u64.to_le_bytes());
    vec![
        (0x01, shard0_point(0x01, &[3, -4])), // Insert
        (0x0A, batch),                        // InsertBatch
        (0x0C, shard0_point(0x0C, &[1, 1])),  // ContainsScan
        (0x0D, shard0_point(0x0D, &[1, 1])),  // VisibleScan
        (0x0E, shard0_point(0x0E, &[1, 0])),  // ExtremeScan
        (0x10, subscribe),                    // ReplSubscribe
        (0x11, ack),                          // ReplAck
    ]
}

fn corpus() -> Vec<Vec<u8>> {
    let reqs = [
        Request::Contains {
            shard: 1,
            point: vec![1, 2, 3],
        },
        Request::Extreme {
            shard: 0,
            direction: vec![1, 0],
        },
        Request::Stats { shard: ALL_SHARDS },
        Request::Snapshot { shard: 0 },
        Request::Flush { shard: 0 },
        Request::Shutdown,
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        // The replication fetch nested under the tag wrapper.
        Request::Tagged {
            id: 77,
            inner: Box::new(Request::ReplUnitFetch {
                shard: 1,
                from_index: 0,
            }),
        },
        // The mutation envelope (all three mutation kinds) and the typed
        // replication fetch, bare and under the tag wrapper.
        Request::Mutate {
            shard: 0,
            muts: vec![
                Mutation::Insert(vec![5, 5]),
                Mutation::Delete(vec![3, -4]),
                Mutation::Expire(2),
            ],
        },
        Request::ReplUnitFetch {
            shard: 1,
            from_index: 4,
        },
        Request::Tagged {
            id: 12,
            inner: Box::new(Request::Mutate {
                shard: 0,
                muts: vec![Mutation::Insert(vec![1, 1])],
            }),
        },
    ];
    let resps = [
        Response::Bool(true),
        Response::VisibleCount(7),
        Response::Extreme {
            vertex: 2,
            coords: vec![5, 6],
        },
        Response::Stats("{\"requests\":3}".to_string()),
        Response::Snapshot {
            epoch: 4,
            dim: 2,
            points: vec![0, 0, 9, 0, 0, 9],
            facets: vec![0, 1, 1, 2, 0, 2],
        },
        Response::Flushed { epoch: 11 },
        Response::Overloaded,
        Response::NotReady,
        Response::Degraded {
            generation: 2,
            inner: Box::new(Response::Bool(false)),
        },
        Response::Error("nope".to_string()),
        Response::Hello {
            version: PROTOCOL_VERSION,
        },
        // Replication replies and the Stale staleness wrapper, at every
        // legal nesting depth (Tagged ⊃ Stale ⊃ Degraded).
        Response::Stale {
            lag: 4,
            inner: Box::new(Response::Bool(true)),
        },
        Response::Stale {
            lag: 1,
            inner: Box::new(Response::Degraded {
                generation: 2,
                inner: Box::new(Response::VisibleCount(1)),
            }),
        },
        Response::Tagged {
            id: 9,
            inner: Box::new(Response::Stale {
                lag: 2,
                inner: Box::new(Response::Bool(false)),
            }),
        },
        // The per-mutation accepted bitmap and both typed replication
        // unit shapes.
        Response::Mutated {
            accepted: vec![true, false, true],
            epoch: 6,
        },
        Response::ReplUnits {
            index: 1,
            total: 4,
            dim: 2,
            units: vec![
                ReplUnit::Ops {
                    inserts: vec![vec![1, 2]],
                    tombstones: vec![vec![3, 4]],
                },
                ReplUnit::Checkpoint {
                    units_after: 3,
                    survivors: vec![vec![0, 0], vec![9, 9]],
                },
            ],
        },
        Response::ReplUnits {
            index: 3,
            total: 3,
            dim: 2,
            units: vec![],
        },
    ];
    let mut out: Vec<Vec<u8>> = reqs.iter().map(|r| r.encode()).collect();
    out.extend(resps.iter().map(|r| r.encode()));
    out.extend(retired_frames().into_iter().map(|(_, f)| f));
    out
}

/// One seeded mutation: truncate, flip a byte, forge a 4-byte length
/// window, append garbage, or replace with pure noise.
fn mutate(rng: &mut ChaCha8Rng, base: &[u8]) -> Vec<u8> {
    let mut b = base.to_vec();
    match rng.next_u64() % 5 {
        0 => {
            let k = rng.next_u64() as usize % (b.len() + 1);
            b.truncate(k);
        }
        1 => {
            if !b.is_empty() {
                let i = rng.next_u64() as usize % b.len();
                b[i] ^= (rng.next_u64() as u8) | 1;
            }
        }
        2 => {
            if b.len() >= 4 {
                let i = rng.next_u64() as usize % (b.len() - 3);
                let forged = (u32::MAX - (rng.next_u64() as u32 % 1024)).to_le_bytes();
                b[i..i + 4].copy_from_slice(&forged);
            }
        }
        3 => {
            for _ in 0..(rng.next_u64() % 9) {
                b.push(rng.next_u64() as u8);
            }
        }
        _ => {
            let len = rng.next_u64() as usize % 64;
            b = (0..len).map(|_| rng.next_u64() as u8).collect();
        }
    }
    b
}

#[test]
fn decode_never_panics_on_seeded_corrupt_corpus() {
    let corpus = corpus();
    let mut rejected = 0u64;
    for seed in [0xF0CC_0001u64, 0xF0CC_0002, 0xF0CC_0003] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for round in 0..1500 {
            let base = &corpus[rng.next_u64() as usize % corpus.len()];
            let m = mutate(&mut rng, base);
            let outcome = std::panic::catch_unwind(|| {
                let a = Request::decode(&m).is_err();
                let b = Response::decode(&m).is_err();
                (a, b)
            });
            match outcome {
                Ok((req_err, resp_err)) => {
                    if req_err && resp_err {
                        rejected += 1;
                    }
                }
                Err(_) => panic!("decode panicked on seed {seed:#x} round {round}: {m:02x?}"),
            }
        }
    }
    // Sanity: the corpus actually exercises the error paths.
    assert!(rejected > 1000, "only {rejected} mutants were rejected");
}

/// A `ReplUnits` reply carries the longest run of units whose frame fits
/// `MAX_FRAME` even inside a `Tagged` wrapper, and at least one unit.
#[test]
fn repl_units_reply_is_cut_at_one_frame() {
    // One 1 MiB row per unit: the frame size does not depend on row width.
    let unit = |len: usize| ReplUnit::Ops {
        inserts: vec![vec![0; len]],
        tombstones: vec![vec![1, 2]],
    };
    let big = unit(1 << 17);
    let fit = units_per_frame(std::iter::repeat_n(&big, 20));
    assert_eq!(fit, 15);
    let reply = |n: usize| Response::ReplUnits {
        index: 0,
        total: 20,
        dim: 2,
        units: vec![big.clone(); n],
    };
    let tagged = Response::Tagged {
        id: u64::MAX,
        inner: Box::new(reply(fit)),
    };
    assert!(tagged.encode().len() <= MAX_FRAME);
    assert!(reply(fit + 1).encode().len() > MAX_FRAME);
    assert_eq!(units_per_frame([&unit(MAX_FRAME / 8), &big]), 1);
    assert_eq!(units_per_frame(&[]), 0);
}

fn server(request_timeout: Duration) -> convex_hull_suite::service::ServerHandle {
    serve(ServeOptions {
        config: ServiceConfig {
            dim: 2,
            shards: 1,
            queue_capacity: 64,
            max_batch: 16,
            workers: 2,
            wal_dir: None,
            ..Default::default()
        },
        request_timeout,
        ..Default::default()
    })
    .unwrap()
}

/// Assert the healthy path still works end to end on a fresh connection.
fn assert_healthy(addr: std::net::SocketAddr) {
    let mut c = HullClient::builder(addr.to_string()).connect().unwrap();
    for p in [[0, 0], [10, 0], [0, 10], [10, 10]] {
        c.mutate(0, MutationBatch::new().insert(p)).unwrap();
    }
    c.flush(0).unwrap();
    assert_eq!(c.contains(0, &[5, 5]).unwrap(), Some(true));
}

/// Block until the server closes `s`; returns how long it took.
fn wait_for_close(s: &mut TcpStream) -> Duration {
    let t0 = Instant::now();
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut buf = [0u8; 64];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return t0.elapsed(),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "server never dropped the connection"
                );
            }
            Err(_) => return t0.elapsed(),
        }
    }
}

#[test]
fn garbage_payload_gets_error_reply_and_connection_survives() {
    let mut server = server(Duration::from_secs(2));
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // Complete frames whose payloads are protocol nonsense: the server
    // must reply `Error` (typed decode failure) and keep the session.
    for garbage in [
        &[0xEEu8, 0xFF, 0x00, 0x13, 0x37][..],
        &[],
        &[0x03, 0x00],                   // Visible opcode, truncated before the point
        &[0x02, 0x00, 0x00, 0x01, 0xAA], // Contains with dim 1
    ] {
        write_frame(&mut s, garbage).unwrap();
        let payload = read_frame(&mut s).unwrap().expect("reply frame");
        let resp = Response::decode(&payload).unwrap();
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    }
    // Same connection, now a well-formed request: still served.
    write_frame(&mut s, &Request::Stats { shard: ALL_SHARDS }.encode()).unwrap();
    let payload = read_frame(&mut s).unwrap().expect("stats frame");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Stats(_)
    ));
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn partial_header_dropped_within_request_timeout() {
    let timeout = Duration::from_millis(300);
    let mut server = server(timeout);
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // Two of four header bytes, then silence: a started frame must
    // complete within `request_timeout` or the connection is dropped.
    s.write_all(&[7, 0]).unwrap();
    let waited = wait_for_close(&mut s);
    assert!(
        waited < timeout + Duration::from_secs(5),
        "stalled peer pinned its connection thread for {waited:?}"
    );
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn mid_frame_eof_drops_connection_cleanly() {
    let mut server = server(Duration::from_secs(2));
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // Header promises 100 payload bytes; deliver 10, then half-close.
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[0xAB; 10]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let waited = wait_for_close(&mut s);
    assert!(
        waited < Duration::from_secs(5),
        "EOF mid-frame hung: {waited:?}"
    );
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_drops_connection() {
    let mut server = server(Duration::from_secs(2));
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    let waited = wait_for_close(&mut s);
    assert!(
        waited < Duration::from_secs(5),
        "oversized prefix not rejected promptly: {waited:?}"
    );
    assert_healthy(addr);
    server.shutdown();
}

/// Slow-loris: a peer dribbles a *valid* frame one byte at a time, too
/// slowly to ever finish within `request_timeout`. The server must reap
/// the dribbler once its partial frame overstays the deadline, and a
/// healthy client hammering the same server concurrently must never
/// notice (no stalled accept loop, no pinned dispatcher).
#[test]
fn slow_loris_dribbler_reaped_without_stalling_healthy_clients() {
    let timeout = Duration::from_millis(300);
    let mut server = server(timeout);
    let addr = server.local_addr();

    // Healthy traffic on its own thread for the duration of the attack.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let healthy = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut c = HullClient::builder(addr.to_string()).connect().unwrap();
            let mut slowest = Duration::ZERO;
            let mut calls = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let t0 = Instant::now();
                c.mutate(
                    0,
                    MutationBatch::new().insert([calls as i64 % 50, (calls / 50) as i64 % 50]),
                )
                .unwrap();
                slowest = slowest.max(t0.elapsed());
                calls += 1;
            }
            (calls, slowest)
        })
    };

    // The dribbler: a legitimate Stats frame, one byte every 100 ms —
    // never idle long enough to look dead, never fast enough to finish.
    let frame = {
        let payload = Request::Stats { shard: ALL_SHARDS }.encode();
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&payload);
        f
    };
    let mut s = TcpStream::connect(addr).unwrap();
    let t0 = Instant::now();
    let mut reaped = None;
    'dribble: for _ in 0..3 {
        // Up to 3 passes over the frame in case one dribble completes.
        for b in &frame {
            if s.write_all(std::slice::from_ref(b)).is_err() {
                reaped = Some(t0.elapsed());
                break 'dribble;
            }
            std::thread::sleep(Duration::from_millis(100));
            // A send can succeed into the socket buffer after the server
            // closed; poll the read side to observe the close promptly.
            s.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
            let mut buf = [0u8; 16];
            let closed = match s.read(&mut buf) {
                Ok(0) => true,
                Ok(_) => false,
                Err(e) => !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
            };
            if closed {
                reaped = Some(t0.elapsed());
                break 'dribble;
            }
        }
    }
    let reaped = reaped.unwrap_or_else(|| wait_for_close(&mut s));
    assert!(
        reaped < Duration::from_secs(10),
        "slow-loris peer survived {reaped:?}"
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (calls, slowest) = healthy.join().unwrap();
    assert!(calls > 0, "healthy client made no progress");
    assert!(
        slowest < Duration::from_secs(5),
        "healthy client stalled for {slowest:?} behind the dribbler"
    );
    assert_healthy(addr);
    server.shutdown();
}

/// Replication ops under attack: malformed `ReplUnitFetch` payloads
/// and the retired `ReplAck` get typed `Error` replies (no panic,
/// connection kept), a fetch cursor — the subscriber's ack — absurdly
/// past the journal is clamped to a caught-up reply rather than
/// trusted, and a healthy subscriber on another connection keeps
/// shipping units throughout.
#[test]
fn repl_garbage_and_stale_acks_never_stall_replication() {
    let mut server = server(Duration::from_secs(2));
    let addr = server.local_addr();
    // Seed one journal batch unit so there is something to ship.
    let mut c = HullClient::builder(addr.to_string()).connect().unwrap();
    for p in [[0, 0], [9, 0], [0, 9]] {
        c.mutate(0, MutationBatch::new().insert(p)).unwrap();
    }
    c.flush(0).unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    for garbage in [
        &[0x13u8][..],             // ReplUnitFetch, no body
        &[0x13, 0x00, 0x00, 0x01], // truncated from_index
        &[0x11, 0xFF, 0xFF],       // retired ReplAck, index missing
        // Well-formed ReplUnitFetch body plus trailing junk.
        &[
            0x13, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x77,
        ],
    ] {
        write_frame(&mut s, garbage).unwrap();
        let payload = read_frame(&mut s).unwrap().expect("reply frame");
        let resp = Response::decode(&payload).unwrap();
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    }
    // A stale/lying cursor far past the journal is clamped to the unit
    // count: a caught-up reply, so the primary's lag gauge must not go
    // negative or wrap.
    write_frame(
        &mut s,
        &Request::ReplUnitFetch {
            shard: 0,
            from_index: u64::MAX,
        }
        .encode(),
    )
    .unwrap();
    let payload = read_frame(&mut s).unwrap().expect("fetch reply");
    let clamped = match Response::decode(&payload).unwrap() {
        Response::ReplUnits {
            index,
            total,
            units,
            ..
        } => {
            assert_eq!(index, total, "clamped cursor must read as caught up");
            assert!(units.is_empty(), "clamped cursor shipped {units:?}");
            total
        }
        other => panic!("stale cursor answered {other:?}"),
    };

    // Healthy subscriber on a fresh connection: units still ship, and
    // asking from the end reads as caught-up, not an error.
    let (index, total, dim, units) = c.repl_unit_fetch(0, 0).unwrap();
    assert_eq!(index, 0);
    assert!(total >= 1, "no units shipped (total {total})");
    assert_eq!(total, clamped);
    assert_eq!(dim, 2);
    assert_eq!(units.len() as u64, total, "one fetch ships the window");
    assert!(
        matches!(&units[0], ReplUnit::Ops { inserts, .. } if !inserts.is_empty()),
        "first unit empty: {units:?}"
    );
    let (i2, t2, _, units2) = c.repl_unit_fetch(0, total).unwrap();
    assert_eq!((i2, t2), (total, total));
    assert!(units2.is_empty(), "caught-up fetch returned {units2:?}");
    assert_healthy(addr);
    server.shutdown();
}

/// Ingest ops under attack: malformed `Mutate`/`ReplUnitFetch`
/// payloads — truncated envelopes, absurd mutation counts, unknown
/// mutation tags, wrong-dimension rows — get typed `Error` replies (no
/// panic, connection kept), and a healthy client on another
/// connection keeps mutating and pulling typed units throughout.
#[test]
fn mutate_garbage_and_bad_envelopes_never_stall_ingest() {
    let mut server = server(Duration::from_secs(2));
    let addr = server.local_addr();
    // Seed one unit with a tombstone so the typed fetch ships both vecs.
    let mut c = HullClient::builder(addr.to_string()).connect().unwrap();
    c.mutate(
        0,
        MutationBatch::new()
            .insert([0, 0])
            .insert([9, 0])
            .insert([0, 9])
            .insert([4, 4])
            .delete([4, 4]),
    )
    .unwrap();
    c.flush(0).unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    for garbage in [
        &[0x12u8][..],                                     // Mutate, no body
        &[0x12, 0x00, 0x00],                               // shard but no count
        &[0x12, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF],       // absurd count, no muts
        &[0x12, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x09], // unknown mutation tag
        // Well-formed envelope whose row has 3 coordinates on a dim-2
        // shard: decodes fine, rejected by validation.
        &Request::Mutate {
            shard: 0,
            muts: vec![Mutation::Insert(vec![1, 2, 3])],
        }
        .encode()[..],
        &[0x13u8][..],             // ReplUnitFetch, no body
        &[0x13, 0x00, 0x00, 0x01], // truncated from_index
    ] {
        write_frame(&mut s, garbage).unwrap();
        let payload = read_frame(&mut s).unwrap().expect("reply frame");
        let resp = Response::decode(&payload).unwrap();
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    }

    // Healthy traffic on a fresh connection: the envelope still
    // lands, and the typed fetch ships the seeded tombstone unit.
    let mut h = HullClient::builder(addr.to_string()).connect().unwrap();
    h.mutate(0, MutationBatch::new().insert([9, 9])).unwrap();
    h.flush(0).unwrap();
    let (index, total, dim, units) = h.repl_unit_fetch(0, 0).unwrap();
    assert_eq!(index, 0);
    assert!(total >= 1, "no units shipped (total {total})");
    assert_eq!(units.len() as u64, total, "one fetch ships the window");
    assert_eq!(dim, 2);
    // Queue coalescing decides how the envelope splits into units; walk
    // them all and demand the tombstone shipped typed from one of them.
    let mut all_inserts = 0usize;
    let mut all_tombstones: Vec<Vec<i64>> = Vec::new();
    for (i, unit) in units.into_iter().enumerate() {
        match unit {
            ReplUnit::Ops {
                inserts,
                tombstones,
            } => {
                all_inserts += inserts.len();
                all_tombstones.extend(tombstones);
            }
            other => panic!("expected an ops unit at {i}, got {other:?}"),
        }
    }
    assert_eq!(all_inserts, 5, "every acked insert must ship");
    assert_eq!(all_tombstones, vec![vec![4, 4]], "tombstone not shipped");
    assert_healthy(addr);
    server.shutdown();
}

/// Send one raw payload and decode the one reply frame.
fn exchange(s: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(s, payload).unwrap();
    let reply = read_frame(s).unwrap().expect("reply frame");
    Response::decode(&reply).unwrap()
}

/// Each retired op (0x01, 0x0A, 0x0C–0x0E, 0x10, 0x11), sent well-formed,
/// decodes to `BadOpcode` and is answered `Error`; the very next
/// `Mutate` and `Contains` on the *same* connection still succeed.
#[test]
fn retired_ops_get_error_replies_and_the_connection_keeps_serving() {
    let mut server = server(Duration::from_secs(2));
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let seed = Request::Mutate {
        shard: 0,
        muts: [[0, 0], [10, 0], [0, 10], [10, 10]]
            .map(|p| Mutation::Insert(p.to_vec()))
            .to_vec(),
    };
    assert!(matches!(
        exchange(&mut s, &seed.encode()),
        Response::Mutated { .. }
    ));
    assert!(matches!(
        exchange(&mut s, &Request::Flush { shard: 0 }.encode()),
        Response::Flushed { .. }
    ));
    for (i, (op, frame)) in retired_frames().into_iter().enumerate() {
        assert_eq!(Request::decode(&frame), Err(WireError::BadOpcode(op)));
        let resp = exchange(&mut s, &frame);
        assert!(
            matches!(resp, Response::Error(_)),
            "retired op {op:#04x} answered {resp:?}"
        );
        let insert = Request::Mutate {
            shard: 0,
            muts: vec![Mutation::Insert(vec![5, 1 + i as i64])],
        };
        match exchange(&mut s, &insert.encode()) {
            Response::Mutated { accepted, .. } => assert_eq!(accepted, vec![true]),
            other => panic!("Mutate after retired op {op:#04x}: {other:?}"),
        }
        let contains = Request::Contains {
            shard: 0,
            point: vec![5, 5],
        };
        assert_eq!(
            exchange(&mut s, &contains.encode()),
            Response::Bool(true),
            "Contains after retired op {op:#04x}"
        );
    }
    server.shutdown();
}

/// `Hello` is one exact version check: versions 1, 6 and 7 (and any
/// other but `PROTOCOL_VERSION`) get `Error`, and the connection stays
/// usable.
#[test]
fn hello_with_another_version_is_refused() {
    let mut server = server(Duration::from_secs(2));
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    for version in [1u16, 6, 7, PROTOCOL_VERSION + 1, 0] {
        let resp = exchange(&mut s, &Request::Hello { version }.encode());
        assert!(
            matches!(resp, Response::Error(_)),
            "Hello v{version} answered {resp:?}"
        );
    }
    assert_eq!(
        exchange(
            &mut s,
            &Request::Hello {
                version: PROTOCOL_VERSION
            }
            .encode()
        ),
        Response::Hello {
            version: PROTOCOL_VERSION
        }
    );
    server.shutdown();
}

/// A one-connection stub server that reads the client's `Hello` and
/// answers it with `reply`.
fn hello_stub(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<Request>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_frame(&mut conn).unwrap().expect("client hello");
        write_frame(&mut conn, &reply).unwrap();
        Request::decode(&hello).unwrap()
    });
    (addr, stub)
}

/// `HullClientBuilder::connect` refuses a server that answers `Hello`
/// with another version — in this build's reply format or in the
/// pre-collapse one (`u16` version then `u32` capability bits) — with
/// `ErrorKind::Unsupported`.
#[test]
fn client_connect_refuses_a_server_of_another_version() {
    let mut old_format = vec![0x00, 0x0B];
    old_format.extend_from_slice(&6u16.to_le_bytes());
    old_format.extend_from_slice(&31u32.to_le_bytes());
    for reply in [
        Response::Hello { version: 6 }.encode(),
        Response::Hello { version: 7 }.encode(),
        Response::Error("protocol version 7 unsupported".to_string()).encode(),
        old_format,
    ] {
        let (addr, stub) = hello_stub(reply.clone());
        let err = match HullClient::builder(addr.to_string()).connect() {
            Ok(_) => panic!("connect accepted a server answering {reply:02x?}"),
            Err(e) => e,
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::Unsupported,
            "{reply:02x?}: {err}"
        );
        assert_eq!(
            stub.join().unwrap(),
            Request::Hello {
                version: PROTOCOL_VERSION
            }
        );
    }
}
