//! `ingest_circle2d`: a near-circle 2D stream (about 25k points, almost
//! all of them hull vertices) ingested by a closed loop of one client
//! connection per core (at most 2), in 64-point v6 `Mutate` frames, into
//! a default one-shard server over a WAL. Every 4th frame of a connection
//! is followed by a `Flush` (a read-your-writes probe: `visible_*`). Then
//! comes a round of the query mix over as many connections, and a cold
//! restart over the WAL. A run repeats that round, each on a fresh server.
//! With a hull this large, the online batch apply, snapshot publish,
//! history descent and journal replay dominate; the wire is a small share
//! of ingest.
//!
//! The traced run drives the same stream through each level in turn:
//! loopback client → in-process `HullService` → `HullBuilder::push_batch`
//! in the service's 256-point units and online-hull queries → offline
//! `par`/`seq`/`bulk` builds. A layer's self time is the difference
//! between adjacent levels.

use crate::serving::{self, CoreView, Level};
use crate::util::{
    another_round, canon_flat, canon_rows, grab, kind_p50, mean, median, peak_rss_mb, percentile,
    ratio, remove_dir, reset_peak_rss, secs, served_matches, span_cost_secs, temp_dir,
    uncovered_secs, values, Metrics, Outcome, Tracer, ROOT,
};
use crate::Args;
use chull_core::online::HullBuilder;
use chull_core::par::{self, ParOptions};
use chull_core::{prepare_points, seq};
use chull_geometry::{generators, PointSet};
use chull_service::{HullService, Mutation, MutationBatch, ServerHandle, WindowPolicy};
use std::time::Instant;

const RADIUS: i64 = 1 << 24;
/// Points per `Mutate` frame.
const FRAME: usize = 64;
/// A connection flushes after every this many of its frames.
const PROBE_EVERY: usize = 4;
/// The service's default `max_batch`: the unit the core level applies.
const UNIT: usize = 256;
/// Fewest measured rounds a run makes.
const MIN_ROUNDS: usize = 3;
/// Offline Algorithm 3 builds of the ingested points in a traced run (an
/// untraced run makes one, for the gate).
const BUILDS: u64 = 5;

fn input(n: usize, seed: u64) -> Vec<Vec<i64>> {
    generators::near_circle_2d(n, RADIUS, seed)
        .iter()
        .map(|p| p.coords().to_vec())
        .collect()
}

/// The frames connection `c` of `conns` sends, with their stream index.
fn frames_of(rows: &[Vec<i64>], c: usize, conns: usize) -> Vec<(usize, &[Vec<i64>])> {
    rows.chunks(FRAME)
        .enumerate()
        .skip(c)
        .step_by(conns)
        .collect()
}

/// Level 0, ingest: one connection per core streams its frames over
/// loopback TCP against `server`, then a final `Flush`. Samples are
/// tagged with `iter`.
fn net_ingest(server: &ServerHandle, rows: &[Vec<i64>], conns: usize, iter: usize, tr: &mut Tracer) -> Level {
    let mut lv = Level::default();
    let t0 = Instant::now();
    let per_conn: Vec<(Level, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let frames: Vec<(usize, MutationBatch)> = frames_of(rows, c, conns)
                    .into_iter()
                    .map(|(f, pts)| (f, pts.iter().fold(MutationBatch::new(), |b, p| b.insert(p.clone()))))
                    .collect();
                let mut client = serving::connect(server);
                let mut tt = tr.fork(c as u64 + 1);
                s.spawn(move || {
                    let mut lv = Level::default();
                    let phase = tt.open("net.ingest.conn", ROOT, c as u64);
                    for (j, (f, batch)) in frames.into_iter().enumerate() {
                        lv.attempted += 1;
                        let sent = Instant::now();
                        let (res, us) = tt.time("client.mutate", phase, f as u64, || client.mutate(0, batch));
                        match res {
                            Ok(rep) => {
                                lv.refused += rep.rejections;
                                lv.mutate_us.push((iter, us));
                            }
                            Err(e) => {
                                lv.failed += 1;
                                eprintln!("ingest_circle2d: mutate failed: {e}");
                                continue;
                            }
                        }
                        if j % PROBE_EVERY == PROBE_EVERY - 1 {
                            lv.attempted += 1;
                            match tt.time("client.flush", phase, f as u64, || client.flush(0)).0 {
                                Ok(_) => lv.visible_us.push((iter, sent.elapsed().as_secs_f64() * 1e6)),
                                Err(e) => {
                                    lv.failed += 1;
                                    eprintln!("ingest_circle2d: flush failed: {e}");
                                }
                            }
                        }
                    }
                    tt.close(phase);
                    (lv, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ingest connection")).collect()
    });
    for (l, tt) in per_conn {
        lv.absorb(l);
        tr.absorb(tt);
    }
    let mut client = serving::connect(server);
    lv.attempted += 1;
    if let Err(e) = tr.time("client.flush", ROOT, 0, || client.flush(0)).0 {
        lv.failed += 1;
        eprintln!("ingest_circle2d: flush failed: {e}");
    }
    lv.ingest_s = secs(t0);
    lv
}

/// Level 0, queries: round `round` of the mix, `queries` queries over
/// one connection per core. Returns the samples, tagged with the round,
/// and the round's rate.
fn net_queries(
    server: &ServerHandle,
    rows: &[Vec<i64>],
    conns: usize,
    queries: usize,
    round: usize,
    tr: &mut Tracer,
) -> (Level, f64) {
    let mut lv = Level::default();
    let t0 = Instant::now();
    let per_conn: Vec<(Level, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut client = serving::connect(server);
                let mut tt = tr.fork(16 + c as u64);
                s.spawn(move || {
                    let mut lv = Level::default();
                    let phase = tt.open("net.query.conn", ROOT, c as u64);
                    for i in (c..queries).step_by(conns) {
                        let i = round * queries + i;
                        let probe = &rows[(i * 7919) % rows.len()];
                        lv.attempted += 1;
                        let (res, us) = tt.time("client.query", phase, i as u64, || {
                            serving::client_query(&mut client, i, probe, &serving::just_outside(probe))
                        });
                        match res {
                            Ok(good) => {
                                lv.answers_ok &= good;
                                lv.query(i, round, us);
                            }
                            Err(e) => {
                                lv.failed += 1;
                                eprintln!("ingest_circle2d: query failed: {e}");
                            }
                        }
                    }
                    tt.close(phase);
                    (lv, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query connection")).collect()
    });
    for (l, tt) in per_conn {
        lv.absorb(l);
        tr.absorb(tt);
    }
    lv.query_s = secs(t0);
    let rate = lv.queries().len() as f64 / lv.query_s;
    (lv, rate)
}

/// Level 1: the same phases against an in-process service (no socket).
fn service_level(svc: &HullService, rows: &[Vec<i64>], conns: usize, queries: usize, tr: &mut Tracer) -> Level {
    let mut lv = Level::default();
    let t0 = Instant::now();
    let per_conn: Vec<(Level, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let frames: Vec<(usize, Vec<Mutation>)> = frames_of(rows, c, conns)
                    .into_iter()
                    .map(|(f, pts)| (f, pts.iter().cloned().map(Mutation::Insert).collect()))
                    .collect();
                let mut tt = tr.fork(100 + c as u64);
                s.spawn(move || {
                    let mut lv = Level::default();
                    let phase = tt.open("service.ingest.thread", ROOT, c as u64);
                    for (j, (f, muts)) in frames.into_iter().enumerate() {
                        let (res, us) = tt.time("service.try_mutate", phase, f as u64, || {
                            serving::service_mutate(svc, muts)
                        });
                        lv.refused += res.expect("in-process enqueue");
                        lv.mutate_us.push((0, us));
                        if j % PROBE_EVERY == PROBE_EVERY - 1 {
                            tt.time("service.flush", phase, f as u64, || svc.flush(0))
                                .0
                                .expect("in-process flush");
                        }
                    }
                    tt.close(phase);
                    (lv, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ingest thread")).collect()
    });
    for (l, tt) in per_conn {
        lv.absorb(l);
        tr.absorb(tt);
    }
    svc.flush(0).expect("in-process flush");
    lv.ingest_s = secs(t0);

    let t0 = Instant::now();
    let per_conn: Vec<(Level, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut tt = tr.fork(200 + c as u64);
                s.spawn(move || {
                    let mut lv = Level::default();
                    for i in (c..queries).step_by(conns) {
                        let probe = &rows[(i * 7919) % rows.len()];
                        let (good, us) = tt.time("service.query", ROOT, i as u64, || {
                            serving::service_query(svc, i, probe, &serving::just_outside(probe), &mut lv.kernel)
                        });
                        lv.answers_ok &= good;
                        lv.query(i, 0, us);
                    }
                    (lv, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query thread")).collect()
    });
    for (l, tt) in per_conn {
        lv.absorb(l);
        tr.absorb(tt);
    }
    lv.query_s = secs(t0);
    lv
}

/// Level 2: the online hull directly — the stream in 256-point units,
/// then the query mix from the same number of threads.
fn core_level(rows: &[Vec<i64>], conns: usize, queries: usize, threads: usize, tr: &mut Tracer) -> Level {
    let mut lv = Level::default();
    let mut b = HullBuilder::new(2);
    let t0 = Instant::now();
    for (u, unit) in rows.chunks(UNIT).enumerate() {
        let (_, us) = tr.time("core.online.push_batch", ROOT, u as u64, || b.push_batch(unit, threads));
        lv.mutate_us.push((0, us));
    }
    lv.ingest_s = secs(t0);
    let view = CoreView::new(b.hull().expect("stream has a seed simplex"));
    let t0 = Instant::now();
    let per_thread: Vec<(Level, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut tt = tr.fork(300 + c as u64);
                let view = &view;
                s.spawn(move || {
                    let mut lv = Level::default();
                    for i in (c..queries).step_by(conns) {
                        let probe = &rows[(i * 7919) % rows.len()];
                        let (good, us) = tt.time("core.online.query", ROOT, i as u64, || {
                            view.query(i, probe, &serving::just_outside(probe), &mut lv.kernel)
                        });
                        lv.answers_ok &= good;
                        lv.query(i, 0, us);
                    }
                    (lv, tt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query thread")).collect()
    });
    for (l, tt) in per_thread {
        lv.absorb(l);
        tr.absorb(tt);
    }
    lv.query_s = secs(t0);
    lv
}

pub fn run(args: &Args) -> Outcome {
    let n = ((25_000.0 * args.scale) as usize).max(600);
    let threads = chull_concurrent::pool::default_threads();
    let conns = threads.clamp(1, 2);
    let queries = ((16_000.0 * args.scale) as usize).max(80);
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin, 0);
    let cfg = |dir: &std::path::Path| serving::config(2, dir.to_path_buf(), WindowPolicy::None);

    // Measured rounds: set-up (input, fresh WAL, server start), ingest
    // and flush, a round of the query mix, shutdown, and a cold start
    // over the WAL. A traced run makes one round.
    let mut setup = Vec::new();
    let (mut ingests, mut ingest_rss) = (Vec::new(), Vec::new());
    let (mut queried, mut query_rates) = (Level::default(), Vec::new());
    let mut restart_s = Vec::new();
    let (mut served_ok, mut restart_ok) = (true, true);
    let (mut stats, mut wal_bytes, mut replay_units) = (String::new(), 0.0, 0.0);
    let mut rows = Vec::new();
    let t_loop = Instant::now();
    while ingests.is_empty() || (!args.trace && another_round(t_loop, ingests.len(), MIN_ROUNDS, args.seconds)) {
        let round = ingests.len();
        let t0 = Instant::now();
        rows = input(n, args.seed);
        let dir = temp_dir("circle");
        let mut server = serving::start(cfg(&dir));
        setup.push(secs(t0));
        reset_peak_rss();
        ingests.push(net_ingest(&server, &rows, conns, round, &mut tr));
        ingest_rss.push(peak_rss_mb());
        // Gate, outside the timed phases, on the first round and on any
        // that may be the last (the check costs an offline build): the
        // served hull is Algorithm 2's hull of the ingested multiset.
        let gate = round == 0 || !another_round(t_loop, round + 1, MIN_ROUNDS, args.seconds);
        if gate {
            served_ok &= match serving::connect(&server).snapshot(0) {
                Ok(snap) => served_matches(2, &snap.points, &canon_rows(2, &snap.facets, &snap.points), &rows),
                Err(_) => false,
            };
        }
        let (lv, rate) = net_queries(&server, &rows, conns, queries, round, &mut tr);
        queried.query_s += lv.query_s;
        queried.absorb(lv);
        query_rates.push(rate);
        stats = serving::connect(&server).stats(Some(0)).unwrap_or_default();
        server.shutdown();
        wal_bytes = serving::wal_bytes(&dir);

        let (svc, us) = tr.time("service.restart", ROOT, round as u64, || {
            HullService::new(cfg(&dir)).expect("restart over the WAL")
        });
        restart_s.push(us / 1e6);
        if gate {
            let snap = svc.snapshot(0).expect("shard 0");
            let points: Vec<Vec<i64>> = snap.flat_points().chunks(2).map(<[i64]>::to_vec).collect();
            restart_ok &= served_matches(2, &points, &canon_flat(&snap.output(), &snap.flat_points()), &rows);
        }
        replay_units = grab(&svc.stats_json(Some(0)).unwrap_or_default(), None, "batches_applied");
        svc.shutdown();
        remove_dir(&dir);
    }

    // Offline Algorithm 3 on the same multiset.
    let prepared = prepare_points(&PointSet::from_rows(2, &rows), args.seed);
    let mut build_s = Vec::new();
    let mut par_run = None;
    let builds = if args.trace { BUILDS } else { 1 };
    for k in 0..builds {
        let (run, us) = tr.time("core.par.build", ROOT, k, || {
            par::parallel_hull_with_threads(&prepared, ParOptions::default(), threads)
        });
        build_s.push(us / 1e6);
        par_run = Some(run);
    }
    let par_run = par_run.expect("builds ran");
    let (seq_run, seq_us) = tr.time("core.seq.build", ROOT, 0, || seq::incremental_hull_run(&prepared));

    // Algorithm 3 builds Algorithm 2's hull with the same visibility tests.
    let par_ok = par_run.output.canonical() == seq_run.output.canonical()
        && par_run.stats.visibility_tests == seq_run.stats.visibility_tests;
    let answers_ok = queried.answers_ok;
    let mut correct = served_ok && restart_ok && par_ok && answers_ok;
    if !correct {
        eprintln!(
            "ingest_circle2d: gate failed (served {served_ok}, restarted {restart_ok}, \
             offline par {par_ok}, query answers {answers_ok})"
        );
    }
    let attempted: u64 =
        ingests.iter().map(|l| l.attempted).sum::<u64>() + queried.attempted + restart_s.len() as u64;
    let failed: u64 = ingests.iter().map(|l| l.failed).sum::<u64>() + queried.failed;

    let mut m = Metrics::default();
    if !args.trace {
        let pooled = |f: fn(&Level) -> &Vec<(usize, f64)>| -> Vec<(usize, f64)> {
            ingests.iter().flat_map(|l| f(l).iter().copied()).collect()
        };
        let visible = pooled(|l| &l.visible_us);
        let ingest_rates: Vec<f64> = ingests.iter().map(|l| n as f64 / l.ingest_s).collect();
        m.median_of("setup_s", setup, "s");
        m.median_of("ingest_pts_per_s", ingest_rates, "1/s");
        m.percentile_of("visible_p50_us", 0.5, &visible, "us");
        m.median_of("query_per_s", query_rates, "1/s");
        m.kind_p50_of("query_p50_us", &queried.query_us, "us");
        m.percentile_of("query_p99_us", 0.99, &queried.queries(), "us");
        m.median_of("restart_s", restart_s.clone(), "s");
        m.median_of("peak_rss_mb", ingest_rss, "MiB");
    } else {
        let mut net = ingests.swap_remove(0);
        net.query_s = queried.query_s;
        net.absorb(queried);
        let svc_dir = temp_dir("circle-service");
        let svc = HullService::new(serving::config(2, svc_dir.clone(), WindowPolicy::None))
            .expect("in-process service");
        let service = service_level(&svc, &rows, conns, queries, &mut tr);
        svc.shutdown();
        remove_dir(&svc_dir);
        let core = core_level(&rows, conns, queries, threads, &mut tr);
        let rows_ref = &rows;
        let ((_, report), bulk_us) = tr.time("core.bulk.seed_from_bulk", ROOT, 0, || {
            HullBuilder::seed_from_bulk(2, rows_ref, threads)
        });
        let levels_ok = service.answers_ok && core.answers_ok;
        if !levels_ok {
            eprintln!("ingest_circle2d: a traced level gave a wrong answer");
        }
        correct &= levels_ok;
        let t_net = net.ingest_s + net.query_s;
        let t_svc = service.ingest_s + service.query_s;
        let t_core = core.ingest_s + core.query_s;
        let conn_spans = ["net.ingest.conn", "net.query.conn"];
        let conn_total: f64 = tr
            .spans
            .iter()
            .filter(|s| conn_spans.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum();
        let gaps: f64 = conn_spans.iter().map(|p| uncovered_secs(&tr.spans, p)).sum();
        let net_spans = tr
            .spans
            .iter()
            .filter(|s| s.name.starts_with("client.") || s.name.starts_with("net."))
            .count();
        layer_metrics(&mut m, &stats);
        let st = &par_run.stats;
        m.put("core.par.build_s", median(&build_s), "s");
        m.put("core.seq.build_s", seq_us / 1e6, "s");
        m.put("core.par.speedup_vs_seq", seq_us / 1e6 / median(&build_s), "ratio");
        m.put("core.par.recursion_depth", st.recursion_depth as f64, "count");
        m.put("core.par.facets_created", st.facets_created as f64, "count");
        m.put("core.online.apply_s", core.ingest_s, "s");
        m.put("core.online.apply_us_per_batch", mean(&values(&core.mutate_us)), "us");
        m.put("core.online.query_us", mean(&values(&core.queries())), "us");
        m.put("core.bulk.rebuild_us", bulk_us, "us");
        m.put("core.bulk.prune_ratio", 1.0 - ratio(report.candidates as f64, report.input as f64), "ratio");
        m.put("service.ingest_pts_per_s", n as f64 / service.ingest_s, "1/s");
        m.put(
            "service.rebuild_share",
            grab(&stats, None, "rebuild_us_total") / 1e6 / net.ingest_s,
            "ratio",
        );
        m.put("journal.wal_bytes_per_point", wal_bytes / n as f64, "B/pt");
        m.put("journal.replay_units", replay_units, "count");
        m.put(
            "net.mutate_overhead_us",
            percentile(&values(&net.mutate_us), 0.5) - percentile(&values(&service.mutate_us), 0.5),
            "us",
        );
        m.put(
            "net.query_overhead_us",
            kind_p50(&net.query_us) - kind_p50(&service.query_us),
            "us",
        );
        m.put("client.overload_retries", net.refused as f64, "count");
        m.put("trace.wall_s", t_net, "s");
        m.put("trace.self_net_s", t_net - t_svc, "s");
        m.put("trace.self_service_s", t_svc - t_core, "s");
        m.put("trace.self_core_s", t_core, "s");
        m.put("trace.unaccounted_share", ratio(gaps, conn_total), "ratio");
        m.put(
            "trace.overhead_share",
            net_spans as f64 * span_cost_secs() / t_net,
            "ratio",
        );
        m.put("trace.spans", tr.spans.len() as f64, "count");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        n,
        dispatchers: serving::default_dispatchers(),
        spans: tr.spans,
    }
}

/// Per-layer counters read from the server's `Stats` reply: the staged
/// kernel's work on the ingest and query paths, batching, backpressure,
/// and survivor rebuilds (each of which rewrites the WAL as one
/// checkpoint unit).
pub fn layer_metrics(m: &mut Metrics, stats: &str) {
    let k = |key| grab(stats, Some("ingest_kernel"), key);
    let tests = k("tests");
    m.put("geometry.visibility_tests", tests, "count");
    m.put("geometry.filter_hit_ratio", ratio(k("filter_hits"), tests), "ratio");
    m.put(
        "geometry.exact_fallbacks",
        k("i128_fallbacks") + k("bigint_fallbacks"),
        "count",
    );
    let descents = grab(stats, None, "queries_contains") + grab(stats, None, "queries_visible");
    m.put(
        "geometry.descent_steps_per_query",
        ratio(grab(stats, Some("query_kernel"), "descent_steps"), descents),
        "count",
    );
    let g = |key| grab(stats, None, key);
    m.put("service.mean_batch", ratio(g("batched_inserts"), g("batches_applied")), "count");
    m.put(
        "service.overload_ratio",
        ratio(g("overloaded"), g("inserts_enqueued") + g("overloaded")),
        "ratio",
    );
    m.put("service.rebuilds", g("rebuilds"), "count");
    m.put("journal.checkpoints", g("rebuilds"), "count");
}
