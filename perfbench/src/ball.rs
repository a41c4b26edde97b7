//! `build_ball3d`: Algorithm 3 (`par::parallel_hull_with_threads`, one
//! worker per core) on about a million uniform-ball 3D points — the
//! paper's headline scenario. No service layer runs: after the builds,
//! the same user-facing operations the serving workloads time over a
//! socket run in process against the library — a bulk rebuild of a
//! queryable hull from the points (`restart_s`), a stream of 64-point
//! `HullBuilder::push_batch` frames (`mutate_*`, `visible_*`,
//! `ingest_pts_per_s`) and rounds of the query mix (`query_*`).

use crate::serving::CoreView;
use crate::util::{
    another_round, canon_output, median, peak_rss_mb, reset_peak_rss, rows_of, secs, span_cost_secs,
    uncovered_secs, ByKind, Canon, Metrics, Outcome, Tracer, KINDS, ROOT,
};
use crate::Args;
use chull_core::online::HullBuilder;
use chull_core::par::{self, ParOptions};
use chull_core::bulk::BulkReport;
use chull_core::{prepare_points, seq};
use chull_geometry::{generators, KernelCounts, PointSet};
use std::time::Instant;

const RADIUS: i64 = 1 << 30;
/// Points per streamed frame.
const FRAME: usize = 64;
/// Streamed frames per round.
const STREAM_FRAMES: usize = 96;
/// Fewest measured rounds a run makes.
const MIN_ROUNDS: usize = 3;
/// Offline Algorithm 3 builds per run.
const BUILDS: u64 = 3;

pub fn run(args: &Args) -> Outcome {
    let n = ((1_000_000.0 * args.scale) as usize).max(2_000);
    let queries = ((60_000.0 * args.scale) as usize).max(100);
    let threads = chull_concurrent::pool::default_threads();
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin, 0);

    // Set-up, three times: generate the input and put it in random
    // insertion order; generate the update stream.
    let mut setup = Vec::new();
    let mut pts = PointSet::new(3);
    let mut stream = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        pts = prepare_points(
            &PointSet::from_points3(&generators::ball_3d(n, RADIUS, args.seed)),
            args.seed,
        );
        let extra = generators::ball_3d(STREAM_FRAMES * FRAME, RADIUS, args.seed ^ 0x9e37_79b9);
        stream = extra.iter().map(|p| p.coords().to_vec()).collect::<Vec<_>>();
        setup.push(secs(t0));
    }
    let rows = rows_of(&pts);

    // Offline Algorithm 3, three times: the gate compares its hulls with
    // each other and with Algorithm 2's, and the traced run reports its
    // time.
    let t_phases = Instant::now();
    let (mut build_s, mut build_rss) = (Vec::new(), Vec::new());
    let mut first: Option<par::ParRun> = None;
    let mut builds_agree = true;
    let phase = tr.open("phase.build", ROOT, 0);
    for b in 0..BUILDS {
        reset_peak_rss();
        let (run, us) = tr.time("core.par.build", phase, b, || {
            par::parallel_hull_with_threads(&pts, ParOptions::default(), threads)
        });
        build_rss.push(peak_rss_mb());
        build_s.push(us / 1e6);
        match &first {
            None => first = Some(run),
            Some(f) => builds_agree &= run.output.canonical() == f.output.canonical(),
        }
    }
    tr.close(phase);

    // Measured rounds, each the same work: a bulk rebuild of a queryable
    // hull from the points (the service's cold-start path); the update
    // stream into that hull in 64-point frames, each visible once a
    // membership query finds its last point; a round of the query mix,
    // one thread per core. A traced run makes one round.
    let t_rounds = Instant::now();
    let (mut restart_s, mut restart_rss, mut stream_rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mutate_us, mut visible_us, mut frame_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut query_us, mut query_rates) = (ByKind::default(), Vec::new());
    let mut bulk: Option<(Canon, BulkReport)> = None;
    let mut probes_ok = true;
    let (mut k, mut query_k) = (KernelCounts::default(), KernelCounts::default());
    while restart_s.is_empty() || (!args.trace && another_round(t_rounds, restart_s.len(), MIN_ROUNDS, args.seconds)) {
        let round = restart_s.len();
        let phase = tr.open("phase.restart", ROOT, round as u64);
        reset_peak_rss();
        let ((mut builder, report), us) = tr.time("core.bulk.seed_from_bulk", phase, round as u64, || {
            HullBuilder::seed_from_bulk(3, &rows, threads)
        });
        restart_rss.push(peak_rss_mb());
        restart_s.push(us / 1e6);
        tr.close(phase);
        if bulk.is_none() {
            let hull = builder.hull().expect("bulk-built hull is live");
            bulk = Some((canon_output(&hull.output(), hull.points()), report));
        }

        reset_peak_rss();
        let phase = tr.open("phase.stream", ROOT, round as u64);
        let t_stream = Instant::now();
        for (f, frame) in stream.chunks(FRAME).enumerate() {
            let req = (round * STREAM_FRAMES + f) as u64;
            let (_, us) = tr.time("core.online.push_batch", phase, req, || builder.push_batch(frame, threads));
            let last = frame.last().expect("frames are non-empty");
            let hull = builder.hull().expect("live");
            let (inside, q_us) = tr.time("core.online.contains", phase, req, || {
                hull.contains_counted(last, &mut k)
            });
            probes_ok &= inside;
            mutate_us.push((round, us));
            visible_us.push((round, us + q_us));
        }
        frame_rates.push(stream.len() as f64 / secs(t_stream));
        tr.close(phase);

        let view = CoreView::new(builder.hull().expect("live"));
        let phase = tr.open("phase.query", ROOT, round as u64);
        let t_query = Instant::now();
        let per_thread: Vec<(ByKind, bool, KernelCounts, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (view, pts) = (&view, &pts);
                    let mut tt = tr.fork(t as u64 + 1);
                    s.spawn(move || {
                        let mut lat = ByKind::default();
                        let (mut ok, mut k) = (true, KernelCounts::default());
                        for i in (t..queries).step_by(threads) {
                            let i = round * queries + i;
                            let probe = pts.point((i * 7919) % pts.len());
                            let (good, us) = tt.time("core.online.query", phase, i as u64, || {
                                view.query(i, probe, &crate::serving::just_outside(probe), &mut k)
                            });
                            ok &= good;
                            lat[i % KINDS].push((round, us));
                        }
                        (lat, ok, k, tt)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread"))
                .collect()
        });
        let mut answered = 0;
        for (lat, ok, qk, tt) in per_thread {
            for (all, mine) in query_us.iter_mut().zip(lat) {
                answered += mine.len();
                all.extend(mine);
            }
            probes_ok &= ok;
            query_k.merge(&qk);
            tr.absorb(tt);
        }
        query_rates.push(answered as f64 / secs(t_query));
        tr.close(phase);
        stream_rss.push(peak_rss_mb());
    }
    let par_run = first.expect("at least one build");
    let (bulk_canon, bulk_report) = bulk.expect("at least one rebuild");
    let traced_wall = secs(t_phases);

    // Correctness gate (outside every timed region): Algorithm 2 on the
    // same input gives the same hull with the same visibility tests, and
    // the bulk rebuild serves that hull too.
    let (seq_run, seq_us) = tr.time("core.seq.build", ROOT, 0, || seq::incremental_hull_run(&pts));
    let seq_canon: Canon = canon_output(&seq_run.output, &pts);
    let correct = builds_agree
        && probes_ok
        && par_run.output.canonical() == seq_run.output.canonical()
        && par_run.stats.visibility_tests == seq_run.stats.visibility_tests
        && bulk_canon == seq_canon;
    if !correct {
        eprintln!(
            "build_ball3d: gate failed (builds agree {builds_agree}, probes {probes_ok}, \
             par tests {} vs seq {}, bulk matches {})",
            par_run.stats.visibility_tests,
            seq_run.stats.visibility_tests,
            bulk_canon == seq_canon
        );
    }

    let query_all = query_us.concat();
    let attempted = (build_s.len() + restart_s.len() + mutate_us.len() + query_all.len()) as u64;
    let mut m = Metrics::default();
    if !args.trace {
        // The peak of a round is the largest of its phases' peaks, or of
        // an offline build's.
        let build_peak = median(&build_rss);
        let round_rss: Vec<f64> = (0..restart_rss.len())
            .map(|r| build_peak.max(restart_rss[r]).max(stream_rss[r]))
            .collect();
        m.median_of("setup_s", setup, "s");
        m.median_of("ingest_pts_per_s", frame_rates, "1/s");
        m.percentile_of("visible_p50_us", 0.5, &visible_us, "us");
        m.median_of("query_per_s", query_rates, "1/s");
        m.kind_p50_of("query_p50_us", &query_us, "us");
        m.percentile_of("query_p99_us", 0.99, &query_all, "us");
        m.median_of("restart_s", restart_s.clone(), "s");
        m.median_of("peak_rss_mb", round_rss, "MiB");
    } else {
        let st = &par_run.stats;
        let descents = query_all.len() - query_us[KINDS - 1].len() + mutate_us.len();
        let apply_s: f64 = mutate_us.iter().map(|s| s.1).sum::<f64>() / 1e6;
        let query_lat: Vec<f64> = query_all.iter().map(|s| s.1).collect();
        m.put("geometry.visibility_tests", st.visibility_tests as f64, "count");
        m.put(
            "geometry.filter_hit_ratio",
            st.filter_hits as f64 / st.visibility_tests.max(1) as f64,
            "ratio",
        );
        m.put(
            "geometry.exact_fallbacks",
            (st.i128_fallbacks + st.bigint_fallbacks) as f64,
            "count",
        );
        m.put(
            "geometry.descent_steps_per_query",
            (query_k.descent_steps + k.descent_steps) as f64 / descents as f64,
            "count",
        );
        let par_s = median(&build_s);
        m.put("core.par.build_s", par_s, "s");
        m.put("core.seq.build_s", seq_us / 1e6, "s");
        m.put("core.par.speedup_vs_seq", seq_us / 1e6 / par_s, "ratio");
        m.put("core.par.recursion_depth", st.recursion_depth as f64, "count");
        m.put("core.par.facets_created", st.facets_created as f64, "count");
        m.put("core.online.apply_s", apply_s, "s");
        m.put(
            "core.online.apply_us_per_batch",
            apply_s * 1e6 / mutate_us.len() as f64,
            "us",
        );
        m.put("core.online.query_us", crate::util::mean(&query_lat), "us");
        m.put("core.bulk.rebuild_us", median(&restart_s) * 1e6, "us");
        m.put(
            "core.bulk.prune_ratio",
            1.0 - bulk_report.candidates as f64 / bulk_report.input.max(1) as f64,
            "ratio",
        );
        for name in [
            "service.ingest_pts_per_s",
            "service.mean_batch",
            "service.overload_ratio",
            "service.rebuilds",
            "service.rebuild_share",
            "journal.wal_bytes_per_point",
            "journal.replay_units",
            "journal.checkpoints",
            "net.mutate_overhead_us",
            "net.query_overhead_us",
            "client.overload_retries",
        ] {
            // No service, journal or socket runs in this workload.
            m.put(name, 0.0, unit_of(name));
        }
        // Every timed call here is a core call; the rest of the wall —
        // inside phases between calls, or between phases — is the
        // benchmark's own and counts as unaccounted.
        let phases = ["phase.build", "phase.restart", "phase.stream", "phase.query"];
        let covered: f64 = tr
            .spans
            .iter()
            .filter(|s| phases.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>()
            - phases.iter().map(|p| uncovered_secs(&tr.spans, p)).sum::<f64>();
        let gaps = traced_wall - covered;
        m.put("trace.wall_s", traced_wall, "s");
        m.put("trace.self_net_s", 0.0, "s");
        m.put("trace.self_service_s", 0.0, "s");
        m.put("trace.self_core_s", covered, "s");
        m.put("trace.unaccounted_share", gaps / traced_wall, "ratio");
        m.put(
            "trace.overhead_share",
            tr.spans.len() as f64 * span_cost_secs() / traced_wall,
            "ratio",
        );
        m.put("trace.spans", tr.spans.len() as f64, "count");
    }
    Outcome {
        correct,
        attempted,
        failed: 0,
        metrics: m,
        n,
        dispatchers: 0,
        spans: tr.spans,
    }
}

/// The unit `PER_LAYER` declares for `name`.
pub fn unit_of(name: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("a listed per-layer metric")
}
