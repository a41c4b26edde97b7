//! Layered benchmark for the parallel incremental hull: one seeded input
//! per workload, driven end to end (`--trace 0`) or through each layer in
//! turn with spans around every call (`--trace 1`).
//!
//! ```text
//! perfbench --workload <build_ball3d|ingest_circle2d|churn_disk2d>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it carries the run metadata. See `perfbench/README.md`.

mod ball;
mod churn;
mod circle;
mod serving;
mod util;

use std::time::Instant;
use util::Outcome;

/// Every end-to-end metric, with its unit, as `--trace 0` prints them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_pts_per_s", "1/s"),
    ("visible_p50_us", "us"),
    ("query_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, with its unit, as `--trace 1` prints them.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("geometry.visibility_tests", "count"),
    ("geometry.filter_hit_ratio", "ratio"),
    ("geometry.exact_fallbacks", "count"),
    ("geometry.descent_steps_per_query", "count"),
    ("core.par.build_s", "s"),
    ("core.seq.build_s", "s"),
    ("core.par.speedup_vs_seq", "ratio"),
    ("core.par.recursion_depth", "count"),
    ("core.par.facets_created", "count"),
    ("core.online.apply_s", "s"),
    ("core.online.apply_us_per_batch", "us"),
    ("core.online.query_us", "us"),
    ("core.bulk.rebuild_us", "us"),
    ("core.bulk.prune_ratio", "ratio"),
    ("service.ingest_pts_per_s", "1/s"),
    ("service.mean_batch", "count"),
    ("service.overload_ratio", "ratio"),
    ("service.rebuilds", "count"),
    ("service.rebuild_share", "ratio"),
    ("journal.wal_bytes_per_point", "B/pt"),
    ("journal.replay_units", "count"),
    ("journal.checkpoints", "count"),
    ("net.mutate_overhead_us", "us"),
    ("net.query_overhead_us", "us"),
    ("client.overload_retries", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_net_s", "s"),
    ("trace.self_service_s", "s"),
    ("trace.self_core_s", "s"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Every workload `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["build_ball3d", "ingest_circle2d", "churn_disk2d"];

/// The workloads `BENCHMARK.json` lists, in its order. `build_ball3d` is
/// run by hand: its figures spread too widely from run to run on a shared
/// machine to bound a regression (see `perfbench/README.md`).
pub const BENCHMARKED: [&str; 2] = ["ingest_circle2d", "churn_disk2d"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics instead.
    pub trace: bool,
    /// Multiplier on every input size: 1 from the command line; the
    /// self-tests shrink it.
    pub scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0) {
        return Err("--seconds must be > 0".into());
    }
    Ok(args)
}

/// Run one workload as the command line asks.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "build_ball3d" => ball::run(args),
        "ingest_circle2d" => circle::run(args),
        _ => churn::run(args),
    }
}

/// Names missing from or foreign to the metric list a run must print.
pub fn metric_mismatch(out: &Outcome, trace: bool) -> Vec<String> {
    let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got = &out.metrics.rows;
    let mut bad = Vec::new();
    for (name, unit) in want {
        let hits: Vec<_> = got.iter().filter(|(n, _, _)| n == name).collect();
        if hits.len() != 1 || hits[0].2 != *unit {
            bad.push(format!("{name} [{unit}] emitted {} times", hits.len()));
        }
    }
    for (n, _, _) in got {
        if !want.iter().any(|(w, _)| w == n) {
            bad.push(format!("{n} is not a listed metric"));
        }
    }
    bad
}

/// FNV-1a digest of the sources the benchmark builds from — the revision
/// stamp when the checkout carries no version-control metadata.
fn source_rev() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("perfbench/src".as_ref(), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let out = run(&args);
    let bad = metric_mismatch(&out, args.trace);
    if !bad.is_empty() {
        eprintln!("perfbench: metric list mismatch: {}", bad.join("; "));
        std::process::exit(3);
    }
    if args.trace {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = util::write_spans(&path, &out.spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(4);
        }
    }
    if !out.metrics.trials.is_empty() {
        eprintln!("perfbench: per-trial values {}", out.metrics.trials_json());
    }
    let nproc = chull_concurrent::pool::default_threads();
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"n\": {}, \"nproc\": {nproc}, \
         \"pool_workers\": {nproc}, \"dispatchers\": {}, \"rev\": \"{}\", \"trace\": {}, \
         \"run_s\": {:.3}, \"samples\": {}}}}}",
        args.workload,
        args.seed,
        out.n,
        out.dispatchers,
        source_rev(),
        args.trace as u8,
        t0.elapsed().as_secs_f64(),
        out.metrics.samples_json()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        out.metrics.json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.2,
            trace,
            scale: 0.01,
        }
    }

    /// Every workload, traced and untraced, at tiny sizes: each listed
    /// metric is emitted exactly once with its unit, the correctness
    /// gates ran and passed, and nothing failed.
    #[test]
    fn self_test_tiny_runs() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let out = run(&tiny(w, trace));
                assert!(metric_mismatch(&out, trace).is_empty(), "{w}: {:?}", metric_mismatch(&out, trace));
                assert!(out.correct, "{w} (trace {trace}): correctness gate failed");
                assert!(out.attempted > 0 && out.failed == 0, "{w}: {} of {} failed", out.failed, out.attempted);
                if trace {
                    assert!(!out.spans.is_empty(), "{w}: traced run recorded no spans");
                } else {
                    for (n, v, _) in &out.metrics.rows {
                        assert!(*v > 0.0, "{w}: end-to-end metric {n} is {v}");
                    }
                }
            }
        }
    }

    /// The metric and workload lists here are the ones BENCHMARK.json
    /// declares.
    #[test]
    fn lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> &str {
            let i = spec.find(&format!("\"{key}\"")).expect("section present");
            let rest = &spec[i..];
            &rest[..rest.find(']').expect("section closes")]
        };
        let names = |key: &str| -> Vec<String> {
            section(key)
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("name value").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let wl: Vec<String> = BENCHMARKED.iter().map(|n| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layer);
        assert_eq!(names("workloads"), wl);
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                spec.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n} should have unit {u} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let ok: Vec<String> = "--workload churn_disk2d --seed 3 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        for bad in [
            "--workload nope",
            "--workload churn_disk2d --trace 2",
            "--seed",
            "--workload churn_disk2d --scale 0.5",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad} should be rejected");
        }
    }
}
