//! `churn_disk2d`: a count-windowed (4096 live points) one-shard server
//! over a WAL, fed uniform-disk 2D points. The window is pre-filled in
//! set-up. Then, for the measured window, one read-your-writes writer
//! sends 32-insert `Mutate` frames that also delete every 4th point from
//! 2048 positions back, each frame followed by a `Flush`, while one reader
//! issues the query mix in a closed loop. Deletes run beside inserts and
//! reads beside writes, through the `LiveSet`, survivor rebuilds in
//! `core.bulk` and WAL checkpoint rewrites. The hull is tiny (tens of
//! facets), so the wire and queues set most of the latency. The writer's
//! run is cut into equal time slices, each a trial. After it come rounds
//! of a cold start over the WAL and offline builds of the survivors.
//!
//! The traced run repeats the writer's frames in process against a
//! `HullService` (no socket), then against the core alone — a `LiveSet`
//! beside a `HullBuilder`, rebuilt through `HullBuilder::seed_from_bulk`
//! on the shard's rebuild rule (a tombstone on the hull, or dead entries
//! above half the live rows).

use crate::circle::layer_metrics;
use crate::serving::{self, CoreView, Level};
use crate::util::{
    canon_flat, canon_output, canon_rows, grab, kind_p50, mean, median, peak_rss_mb, percentile,
    ratio, remove_dir, reset_peak_rss, secs, span_cost_secs, survivors_hull, temp_dir,
    uncovered_secs, values, Canon, Metrics, Outcome, Tracer, ROOT,
};
use crate::Args;
use chull_core::online::{HullBuilder, PointLocation};
use chull_core::par::{self, ParOptions};
use chull_core::{prepare_points, seq, LiveSet, RemoveOutcome, WindowPolicy};
use chull_geometry::{generators, KernelCounts, PointSet};
use chull_service::{HullClient, HullService, Mutation, MutationBatch, ServerHandle};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const RADIUS: i64 = 1 << 30;
/// Inserts per `Mutate` frame.
const FRAME: usize = 32;
/// Every this-many-th inserted point triggers a delete.
const DELETE_EVERY: usize = 4;
/// Points per frame while pre-filling the window.
const PREFILL_FRAME: usize = 256;
/// Equal time slices of the writer's run, each a trial measured on its
/// own.
const TRIALS: usize = 30;
/// Set-ups per run (the last one is measured).
const SETUPS: usize = 5;
/// The cold starts over the WAL take this share of `--seconds`, so that
/// their repetitions are spread over seconds of the machine's drift.
const OFFLINE_SHARE: f64 = 0.125;
/// Offline Algorithm 3 builds per run.
const BUILDS: u64 = 10;
/// Rows of the stream's start the offline builds take.
const HISTORY: usize = 1 << 17;

/// The seeded point stream and the mutation schedule over it.
struct Stream {
    rows: Vec<Vec<i64>>,
    window: usize,
    /// How far back (in stream positions) a delete reaches.
    lag: usize,
}

impl Stream {
    fn new(window: usize, len: usize, seed: u64) -> Stream {
        let rows = generators::disk_2d(len, RADIUS, seed)
            .iter()
            .map(|p| p.coords().to_vec())
            .collect();
        Stream {
            rows,
            window,
            lag: window / 2,
        }
    }

    /// The frame starting at stream position `start`: its inserts, each
    /// 4th one followed by the delete of the point `lag` positions back.
    fn frame(&self, start: usize) -> Vec<Mutation> {
        let mut muts = Vec::with_capacity(FRAME + FRAME / DELETE_EVERY);
        for j in start..start + FRAME {
            muts.push(Mutation::Insert(self.rows[j].clone()));
            if j % DELETE_EVERY == 0 {
                muts.push(Mutation::Delete(self.rows[j - self.lag].clone()));
            }
        }
        muts
    }

    /// Start of every measured frame that fits in the stream.
    fn frame_starts(&self) -> impl Iterator<Item = usize> {
        (self.window..=self.rows.len() - FRAME).step_by(FRAME)
    }

    /// The live rows once the stream up to `end` has been applied: every
    /// inserted row not deleted, newest `window` of them. Deletes always
    /// hit (the target is among the newest `lag` arrivals, all live).
    fn survivors(&self, end: usize) -> Vec<Vec<i64>> {
        let deleted: HashSet<usize> = (self.window..end)
            .filter(|j| j % DELETE_EVERY == 0)
            .map(|j| j - self.lag)
            .collect();
        let kept: Vec<&Vec<i64>> = (0..end)
            .filter(|j| !deleted.contains(j))
            .map(|j| &self.rows[j])
            .collect();
        kept[kept.len().saturating_sub(self.window)..]
            .iter()
            .map(|r| (*r).clone())
            .collect()
    }

    /// A point near the disk's centre: inside any window's hull.
    fn inside(i: usize) -> Vec<i64> {
        vec![(i * 37 % 2001) as i64 - 1000, (i * 91 % 2001) as i64 - 1000]
    }

    /// A point outside the disk, in the direction of stream point `i`.
    fn outside(&self, i: usize) -> Vec<i64> {
        self.rows[i % self.rows.len()]
            .iter()
            .map(|&x| 4 * x + if x < 0 { -RADIUS } else { RADIUS })
            .collect()
    }
}

/// What the loopback level recorded beyond the writer's and reader's
/// samples.
struct NetRun {
    /// Samples are tagged with the trial (time slice) they started in.
    lv: Level,
    /// Stream position after the last frame written.
    end: usize,
    /// Peak resident size of each trial.
    rss_per_trial: Vec<f64>,
}

/// Pre-fill the window over the wire (set-up).
fn prefill_net(server: &ServerHandle, st: &Stream) {
    let mut client = serving::connect(server);
    for chunk in st.rows[..st.window].chunks(PREFILL_FRAME) {
        let batch = chunk.iter().fold(MutationBatch::new(), |b, p| b.insert(p.clone()));
        client.mutate(0, batch).expect("pre-fill the window");
    }
    client.flush(0).expect("pre-fill flush");
}

/// The trial — one of [`TRIALS`] equal slices of `seconds` since `t0` —
/// now falls in.
fn trial_of(t0: Instant, seconds: f64) -> usize {
    ((secs(t0) / seconds * TRIALS as f64) as usize).min(TRIALS - 1)
}

/// How many of `samples` started in each trial, trial by trial.
fn per_trial_counts(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut counts = Vec::new();
    for &(trial, _) in samples {
        if counts.len() <= trial {
            counts.resize(trial + 1, 0.0);
        }
        counts[trial] += 1.0;
    }
    counts
}

/// Checkpoints the shard has written: each survivor rebuild and each
/// auto-compaction rewrites the WAL as one.
fn checkpoints(client: &mut HullClient) -> f64 {
    let stats = client.stats(Some(0)).unwrap_or_default();
    grab(&stats, None, "rebuilds") + grab(&stats, None, "auto_compactions")
}

/// Untimed: write on from stream position `end` until the shard next
/// rewrites its WAL as a checkpoint, so that every run's cold starts read
/// the same shape of WAL (the window's checkpoint), not whatever tail the
/// writer's last frames left. Returns the stream position reached.
fn settle(server: &ServerHandle, st: &Stream, end: usize) -> usize {
    let mut client = serving::connect(server);
    let before = checkpoints(&mut client);
    let mut end = end;
    while end + FRAME <= st.rows.len() {
        client.mutate(0, MutationBatch::from(st.frame(end))).expect("settling write");
        client.flush(0).expect("settling flush");
        end += FRAME;
        if checkpoints(&mut client) > before {
            break;
        }
    }
    end
}

/// Level 0: writer and reader over loopback TCP. Samples are tagged with
/// the trial (time slice of the writer's run) they started in.
fn net_level(server: &ServerHandle, st: &Stream, seconds: f64, tr: &mut Tracer) -> NetRun {
    let done = AtomicBool::new(false);
    let (mut wclient, mut rclient) = (serving::connect(server), serving::connect(server));
    let (mut wt, mut rt) = (tr.fork(1), tr.fork(2));
    let t0 = Instant::now();
    let (mut run, reader) = std::thread::scope(|s| {
        let done = &done;
        let reader = s.spawn(move || {
            let mut lv = Level::default();
            let phase = rt.open("net.reader", ROOT, 0);
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                lv.attempted += 1;
                let (inside, outside) = (Stream::inside(i), st.outside(i));
                let trial = trial_of(t0, seconds);
                let (res, us) = rt.time("client.query", phase, i as u64, || {
                    serving::client_query(&mut rclient, i, &inside, &outside)
                });
                match res {
                    Ok(good) => {
                        lv.answers_ok &= good;
                        lv.query(i, trial, us);
                    }
                    Err(e) => {
                        lv.failed += 1;
                        eprintln!("churn_disk2d: query failed: {e}");
                    }
                }
                i += 1;
            }
            rt.close(phase);
            (lv, rt)
        });
        let mut run = NetRun {
            lv: Level::default(),
            end: st.window,
            rss_per_trial: Vec::new(),
        };
        let lv = &mut run.lv;
        let phase = wt.open("net.writer", ROOT, 0);
        reset_peak_rss();
        for start in st.frame_starts() {
            // Write for `seconds`, at least one frame.
            if run.end > st.window && secs(t0) >= seconds {
                break;
            }
            let trial = trial_of(t0, seconds);
            if trial >= run.rss_per_trial.len() {
                run.rss_per_trial.push(peak_rss_mb());
                reset_peak_rss();
            }
            let batch = MutationBatch::from(st.frame(start));
            lv.attempted += 2;
            let sent = Instant::now();
            let (res, us) = wt.time("client.mutate", phase, start as u64, || wclient.mutate(0, batch));
            match res {
                Ok(rep) => {
                    lv.refused += rep.rejections;
                    lv.mutate_us.push((trial, us));
                }
                Err(e) => {
                    lv.failed += 1;
                    eprintln!("churn_disk2d: mutate failed: {e}");
                }
            }
            match wt.time("client.flush", phase, start as u64, || wclient.flush(0)).0 {
                Ok(_) => lv.visible_us.push((trial, sent.elapsed().as_secs_f64() * 1e6)),
                Err(e) => {
                    lv.failed += 1;
                    eprintln!("churn_disk2d: flush failed: {e}");
                }
            }
            run.end = start + FRAME;
        }
        run.rss_per_trial.push(peak_rss_mb());
        run.lv.ingest_s = secs(t0);
        wt.close(phase);
        done.store(true, Ordering::SeqCst);
        (run, reader.join().expect("reader thread"))
    });
    // The first reading covers the moments before the first trial.
    run.rss_per_trial.remove(0);
    run.lv.absorb(reader.0);
    tr.absorb(wt);
    tr.absorb(reader.1);
    run
}

/// Level 1: the same frames against an in-process service, with the
/// reader paced to level 0's query rate (`query_gap_s` apart) — an
/// unpaced in-process reader never waits on a socket and would take the
/// cores the shard worker needs.
fn service_level(svc: &HullService, st: &Stream, frames: usize, query_gap_s: f64, tr: &mut Tracer) -> Level {
    for chunk in st.rows[..st.window].chunks(PREFILL_FRAME) {
        serving::service_mutate(svc, chunk.iter().cloned().map(Mutation::Insert).collect())
            .expect("in-process pre-fill");
    }
    svc.flush(0).expect("in-process flush");
    let done = AtomicBool::new(false);
    let (mut wt, mut rt) = (tr.fork(101), tr.fork(102));
    let (mut lv, reader) = std::thread::scope(|s| {
        let done = &done;
        let reader = s.spawn(move || {
            let mut lv = Level::default();
            let mut i = 0;
            let t0 = Instant::now();
            while !done.load(Ordering::SeqCst) {
                let wait = i as f64 * query_gap_s - secs(t0);
                if wait > 0.0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(wait));
                    continue;
                }
                let (inside, outside) = (Stream::inside(i), st.outside(i));
                let (good, us) = rt.time("service.query", ROOT, i as u64, || {
                    serving::service_query(svc, i, &inside, &outside, &mut lv.kernel)
                });
                lv.answers_ok &= good;
                lv.query(i, 0, us);
                i += 1;
            }
            (lv, rt)
        });
        let mut lv = Level::default();
        let t0 = Instant::now();
        for start in st.frame_starts().take(frames) {
            let sent = Instant::now();
            let (res, us) = wt.time("service.try_mutate", ROOT, start as u64, || {
                serving::service_mutate(svc, st.frame(start))
            });
            lv.refused += res.expect("in-process enqueue");
            lv.mutate_us.push((0, us));
            wt.time("service.flush", ROOT, start as u64, || svc.flush(0))
                .0
                .expect("in-process flush");
            lv.visible_us.push((0, sent.elapsed().as_secs_f64() * 1e6));
        }
        lv.ingest_s = secs(t0);
        done.store(true, Ordering::SeqCst);
        (lv, reader.join().expect("reader thread"))
    });
    lv.absorb(reader.0);
    tr.absorb(wt);
    tr.absorb(reader.1);
    lv
}

/// What the core level measured.
struct CoreRun {
    wall_s: f64,
    apply_us: Vec<f64>,
    rebuild_us: Vec<f64>,
    prune: Vec<f64>,
    canon: Canon,
}

/// Level 2: the writer's frames against the core alone, on the shard's
/// rebuild rule (the journal-length trigger has no core counterpart).
fn core_level(st: &Stream, frames: usize, threads: usize, tr: &mut Tracer) -> CoreRun {
    let mut live = LiveSet::new();
    for r in &st.rows[..st.window] {
        live.insert(r.clone(), 0);
    }
    let mut b = HullBuilder::seed_from_bulk(2, &st.rows[..st.window], threads).0;
    let window = WindowPolicy::Count(st.window);
    let mut run = CoreRun {
        wall_s: 0.0,
        apply_us: Vec::new(),
        rebuild_us: Vec::new(),
        prune: Vec::new(),
        canon: Canon::new(),
    };
    let mut scratch = KernelCounts::default();
    let t0 = Instant::now();
    for (epoch, start) in st.frame_starts().take(frames).enumerate() {
        let epoch = epoch as u64 + 1;
        let (mut inserts, mut tombs) = (Vec::new(), Vec::new());
        for m in st.frame(start) {
            match m {
                Mutation::Insert(p) => {
                    live.insert(p.clone(), epoch);
                    inserts.push(p);
                }
                Mutation::Delete(p) => {
                    if live.remove(&p) != RemoveOutcome::Miss {
                        tombs.push(p);
                    }
                }
                Mutation::Expire(_) => unreachable!("the stream sends no expires"),
            }
        }
        tombs.extend(live.expire_window(&window, epoch));
        let (_, us) = tr.time("core.online.push_batch", ROOT, start as u64, || b.push_batch(&inserts, threads));
        run.apply_us.push(us);
        let hull = b.hull().expect("window hull is live");
        let on_hull = tombs
            .iter()
            .any(|t| live.count(t) == 0 && hull.classify(t, &mut scratch) != PointLocation::Inside);
        if on_hull || live.dead_entries() as f64 > 0.5 * live.live() as f64 {
            let survivors = live.survivors();
            let ((nb, report), us) = tr.time("core.bulk.seed_from_bulk", ROOT, start as u64, || {
                HullBuilder::seed_from_bulk(2, &survivors, threads)
            });
            b = nb;
            live.compact(epoch);
            run.rebuild_us.push(us);
            run.prune.push(1.0 - ratio(report.candidates as f64, report.input as f64));
        }
    }
    run.wall_s = secs(t0);
    // Dead rows left in the hull are strictly inside it (anything else
    // forced a rebuild), so the hull is the survivors' hull.
    let h = b.hull().expect("live");
    run.canon = canon_output(&h.output(), h.points());
    run
}

/// The window and the stream length a run uses.
fn sizes(args: &Args) -> (usize, usize) {
    let window = ((4096.0 * args.scale) as usize).max(64);
    let len = window + ((60_000.0 * args.seconds * args.scale) as usize).max(4 * window);
    (window, len)
}

pub fn run(args: &Args) -> Outcome {
    let (window, len) = sizes(args);
    let threads = chull_concurrent::pool::default_threads();
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin, 0);
    let cfg = |dir: &std::path::Path| serving::config(2, dir.to_path_buf(), WindowPolicy::Count(window));

    // Offline Algorithm 3 on the stream's first rows, for the gate and the
    // traced run. A build of just the 4096 survivors takes about a
    // millisecond, which the per-call set-up of a parallel build sets.
    let history = ((HISTORY as f64 * args.scale) as usize).clamp(window, len);
    let prepared = prepare_points(
        &PointSet::from_rows(2, &Stream::new(window, history, args.seed).rows),
        args.seed,
    );
    let mut build_s = Vec::new();
    let mut par_run = None;
    let builds = if args.trace { BUILDS } else { 1 };
    for b in 0..builds {
        let (run, us) = tr.time("core.par.build", ROOT, b, || {
            par::parallel_hull_with_threads(&prepared, ParOptions::default(), threads)
        });
        build_s.push(us / 1e6);
        par_run = Some(run);
    }
    let par_run = par_run.expect("builds ran");

    // Set-up, several times: input, fresh WAL, server start, window
    // pre-fill. The last server is the one measured.
    let mut setup = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let st = Stream::new(window, len, args.seed);
        let dir = temp_dir("churn");
        let mut server = serving::start(cfg(&dir));
        prefill_net(&server, &st);
        setup.push(secs(t0));
        if k + 1 < SETUPS {
            server.shutdown();
            remove_dir(&dir);
        } else {
            kept = Some((st, dir, server));
        }
    }
    let (st, dir, mut server) = kept.expect("set-ups ran");

    let net = net_level(&server, &st, args.seconds, &mut tr);
    let frames = (net.end - window) / FRAME;

    // Gate, on the hull the writer left: it is Algorithm 2's hull of
    // exactly the survivors, and the live set holds exactly the window.
    let mut client = serving::connect(&server);
    let served = client
        .snapshot(0)
        .map(|snap| (canon_rows(2, &snap.facets, &snap.points), snap.points))
        .ok();
    let served_ok = served
        .as_ref()
        .is_some_and(|(canon, points)| survivors_hull(2, points, canon, &st.survivors(net.end)));
    let stats = client.stats(Some(0)).unwrap_or_default();
    let live_ok = grab(&stats, None, "live_points") as usize == window;
    let end = settle(&server, &st, net.end);
    server.shutdown();
    let wal_bytes = serving::wal_bytes(&dir);

    // Cold starts over the settled WAL, spread over a share of the run:
    // each holds Algorithm 2's hull of the survivors at the settled end.
    let survivors = st.survivors(end);
    let mut restart_s = Vec::new();
    let mut restart_ok = true;
    let mut replay_units = 0.0;
    let t_offline = Instant::now();
    while restart_s.len() < 10 || secs(t_offline) < OFFLINE_SHARE * args.seconds {
        let (svc, us) = tr.time("service.restart", ROOT, restart_s.len() as u64, || {
            HullService::new(cfg(&dir)).expect("restart over the WAL")
        });
        restart_s.push(us / 1e6);
        let snap = svc.snapshot(0).expect("shard 0");
        let js = svc.stats_json(Some(0)).unwrap_or_default();
        let points: Vec<Vec<i64>> = snap.flat_points().chunks(2).map(<[i64]>::to_vec).collect();
        restart_ok &= survivors_hull(2, &points, &canon_flat(&snap.output(), &snap.flat_points()), &survivors)
            && grab(&js, None, "live_points") as usize == window;
        replay_units = grab(&js, None, "batches_applied");
        svc.shutdown();
    }
    remove_dir(&dir);
    let (seq_run, seq_us) = tr.time("core.seq.build", ROOT, 0, || seq::incremental_hull_run(&prepared));

    // Algorithm 3 builds Algorithm 2's hull with the same visibility tests.
    let par_ok = par_run.output.canonical() == seq_run.output.canonical()
        && par_run.stats.visibility_tests == seq_run.stats.visibility_tests;
    let mut correct = served_ok && live_ok && restart_ok && par_ok && net.lv.answers_ok;
    if !correct {
        eprintln!(
            "churn_disk2d: gate failed (served {served_ok}, live {live_ok}, restarted {restart_ok}, \
             offline par {par_ok}, query answers {})",
            net.lv.answers_ok
        );
    }

    let mut m = Metrics::default();
    if !args.trace {
        // Per-trial rates, from the slices the writer saw to the end (the
        // last one also holds the frame that ran past it, and a writer
        // that outran its stream stopped early).
        let slice = args.seconds / TRIALS as f64;
        let lv = &net.lv;
        let done = ((lv.ingest_s / slice) as usize).clamp(1, TRIALS - 1);
        let full = |c: Vec<f64>, per: f64| -> Vec<f64> { c.iter().take(done).map(|x| x * per / slice).collect() };
        m.median_of("setup_s", setup, "s");
        m.median_of("ingest_pts_per_s", full(per_trial_counts(&lv.mutate_us), FRAME as f64), "1/s");
        m.percentile_of("visible_p50_us", 0.5, &lv.visible_us, "us");
        m.median_of("query_per_s", full(per_trial_counts(&lv.queries()), 1.0), "1/s");
        m.kind_p50_of("query_p50_us", &lv.query_us, "us");
        m.percentile_of("query_p99_us", 0.99, &lv.queries(), "us");
        m.median_of("restart_s", restart_s.clone(), "s");
        m.median_of("peak_rss_mb", net.rss_per_trial.clone(), "MiB");
    } else {
        let svc_dir = temp_dir("churn-service");
        let svc = HullService::new(cfg(&svc_dir)).expect("in-process service");
        let lv = &net.lv;
        let answered = lv.queries().len();
        let gap = lv.ingest_s / answered.max(1) as f64;
        let service = service_level(&svc, &st, frames, gap, &mut tr);
        svc.shutdown();
        remove_dir(&svc_dir);
        let core = core_level(&st, frames, threads, &mut tr);
        let b = HullBuilder::seed_from_bulk(2, &survivors, threads).0;
        let view = CoreView::new(b.hull().expect("live"));
        let mut k = KernelCounts::default();
        let core_query_us: Vec<f64> = (0..answered.clamp(1, 20_000))
            .map(|i| {
                let (inside, outside) = (Stream::inside(i), st.outside(i));
                tr.time("core.online.query", ROOT, i as u64, || view.query(i, &inside, &outside, &mut k)).1
            })
            .collect();
        // The core level applied the writer's frames on the same rebuild
        // rule, so it holds the hull the writer left.
        let levels_ok = service.answers_ok && served.as_ref().is_some_and(|(canon, _)| *canon == core.canon);
        if !levels_ok {
            eprintln!("churn_disk2d: a traced level disagrees with the served run");
        }
        correct &= levels_ok;

        let (t_net, t_svc, t_core) = (lv.ingest_s, service.ingest_s, core.wall_s);
        let writer: Vec<_> = tr.spans.iter().filter(|s| s.name == "net.writer").collect();
        let writer_s: f64 = writer.iter().map(|s| (s.end_ns - s.start_ns) as f64 / 1e9).sum();
        let net_spans = tr
            .spans
            .iter()
            .filter(|s| s.name.starts_with("client.") || s.name.starts_with("net."))
            .count();
        layer_metrics(&mut m, &stats);
        let st_par = &par_run.stats;
        m.put("core.par.build_s", median(&build_s), "s");
        m.put("core.seq.build_s", seq_us / 1e6, "s");
        m.put("core.par.speedup_vs_seq", seq_us / 1e6 / median(&build_s), "ratio");
        m.put("core.par.recursion_depth", st_par.recursion_depth as f64, "count");
        m.put("core.par.facets_created", st_par.facets_created as f64, "count");
        m.put("core.online.apply_s", core.apply_us.iter().sum::<f64>() / 1e6, "s");
        m.put("core.online.apply_us_per_batch", mean(&core.apply_us), "us");
        m.put("core.online.query_us", mean(&core_query_us), "us");
        m.put("core.bulk.rebuild_us", mean(&core.rebuild_us), "us");
        m.put("core.bulk.prune_ratio", mean(&core.prune), "ratio");
        m.put("service.ingest_pts_per_s", (frames * FRAME) as f64 / t_svc, "1/s");
        m.put(
            "service.rebuild_share",
            grab(&stats, None, "rebuild_us_total") / 1e6 / t_net,
            "ratio",
        );
        m.put("journal.wal_bytes_per_point", wal_bytes / end as f64, "B/pt");
        m.put("journal.replay_units", replay_units, "count");
        m.put(
            "net.mutate_overhead_us",
            percentile(&values(&lv.mutate_us), 0.5) - percentile(&values(&service.mutate_us), 0.5),
            "us",
        );
        m.put(
            "net.query_overhead_us",
            kind_p50(&lv.query_us) - kind_p50(&service.query_us),
            "us",
        );
        m.put("client.overload_retries", lv.refused as f64, "count");
        m.put("trace.wall_s", t_net, "s");
        m.put("trace.self_net_s", t_net - t_svc, "s");
        m.put("trace.self_service_s", t_svc - t_core, "s");
        m.put("trace.self_core_s", t_core, "s");
        m.put(
            "trace.unaccounted_share",
            ratio(uncovered_secs(&tr.spans, "net.writer"), writer_s),
            "ratio",
        );
        m.put(
            "trace.overhead_share",
            net_spans as f64 * span_cost_secs() / t_net,
            "ratio",
        );
        m.put("trace.spans", tr.spans.len() as f64, "count");
    }
    Outcome {
        correct,
        attempted: net.lv.attempted + 3,
        failed: net.lv.failed,
        metrics: m,
        n: len,
        dispatchers: serving::default_dispatchers(),
        spans: tr.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that stops well short of its stream leaves `settle` frames
    /// to write after it. The traced run's check between levels must
    /// still compare the hull the writer left with the core's replay of
    /// the same frames.
    #[test]
    fn traced_levels_agree_when_settle_writes_frames() {
        let args = Args {
            workload: "churn_disk2d".into(),
            seed: 7,
            seconds: 1e-4,
            trace: true,
            scale: 0.05,
        };
        let (window, len) = sizes(&args);
        let st = Stream::new(window, len, args.seed);
        let dir = temp_dir("churn-test");
        let mut server = serving::start(serving::config(2, dir.clone(), WindowPolicy::Count(window)));
        prefill_net(&server, &st);
        let net = net_level(&server, &st, args.seconds, &mut Tracer::new(false, Instant::now(), 0));
        let end = settle(&server, &st, net.end);
        server.shutdown();
        remove_dir(&dir);
        assert!(end > net.end, "settle wrote no frames at these sizes");

        let out = run(&args);
        assert!(out.correct, "traced churn run failed its gates");
        assert_eq!(out.failed, 0);
    }
}
