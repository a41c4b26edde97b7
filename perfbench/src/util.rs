//! Measurement plumbing shared by the workloads: order statistics, peak
//! RSS, canonical hull comparison, the span recorder behind `--trace 1`,
//! and the metric list every run prints.

use chull_core::seq::incremental_hull_run;
use chull_core::{prepare_points, HullOutput};
use chull_geometry::PointSet;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1); 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Percentile `p` of each trial's samples; `samples` holds
/// `(trial, value)` pairs.
pub fn per_trial(samples: &[(usize, f64)], p: f64) -> Vec<f64> {
    let trials = samples.iter().map(|s| s.0 + 1).max().unwrap_or(0);
    let mut groups = vec![Vec::new(); trials];
    for &(t, v) in samples {
        groups[t].push(v);
    }
    groups.iter().filter(|g| !g.is_empty()).map(|g| percentile(g, p)).collect()
}

/// The values of `(trial, value)` samples.
pub fn values(samples: &[(usize, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// Kinds of query in the mix; query `i` is of kind `i % KINDS`.
pub const KINDS: usize = 4;

/// `(trial, value)` samples of each query kind.
pub type ByKind = [Vec<(usize, f64)>; KINDS];

/// Mean over the query kinds of each kind's median. Half the mix is cheap
/// (the two contains kinds) and half dear (visible, extreme), so the
/// median of all samples falls in the gap between the two and swings by
/// up to 2x with small shifts in either; each kind's median sits inside
/// its own mode.
pub fn kind_p50(by_kind: &ByKind) -> f64 {
    let medians: Vec<f64> = by_kind
        .iter()
        .filter(|k| !k.is_empty())
        .map(|k| percentile(&values(k), 0.5))
        .collect();
    mean(&medians)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restart the peak-RSS high-water mark at the current resident size, so
/// that [`peak_rss_mb`] reads the peak of what runs next.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Whether a loop of like rounds started at `t0` has time for one more
/// within `seconds` after `done` rounds; the first `min` always run.
pub fn another_round(t0: Instant, done: usize, min: usize, seconds: f64) -> bool {
    done < min || secs(t0) / done as f64 * (done + 1) as f64 <= seconds
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Rows of a point set, one `Vec` per point.
pub fn rows_of(pts: &PointSet) -> Vec<Vec<i64>> {
    pts.iter().map(|p| p.to_vec()).collect()
}

/// A hull as the set of its facets, each facet the sorted list of its
/// vertex coordinates — comparable across engines that number vertices
/// differently.
pub type Canon = BTreeSet<Vec<Vec<i64>>>;

/// Canonical form of facets given as vertex-id tuples into `point`.
pub fn canon_facets<'a, F>(dim: usize, facets: impl Iterator<Item = &'a [u32]>, point: F) -> Canon
where
    F: Fn(u32) -> Vec<i64>,
{
    facets
        .map(|f| {
            let mut verts: Vec<Vec<i64>> = f[..dim].iter().map(|&v| point(v)).collect();
            verts.sort();
            verts
        })
        .collect()
}

/// Canonical form of an engine's output over its own point set.
pub fn canon_output(out: &HullOutput, pts: &PointSet) -> Canon {
    canon_facets(out.dim, out.facets.iter().map(|f| &f[..]), |v| {
        pts.pt(v).to_vec()
    })
}

/// Canonical form of facets over a flat coordinate array.
pub fn canon_flat(out: &HullOutput, flat: &[i64]) -> Canon {
    let d = out.dim;
    canon_facets(d, out.facets.iter().map(|f| &f[..]), |v| {
        flat[v as usize * d..(v as usize + 1) * d].to_vec()
    })
}

/// Canonical form of facets over one row per vertex id.
pub fn canon_rows(dim: usize, facets: &[Vec<u32>], points: &[Vec<i64>]) -> Canon {
    canon_facets(dim, facets.iter().map(|f| &f[..]), |v| {
        points[v as usize].clone()
    })
}

/// Algorithm 2's hull of `rows` inserted in the given order, in
/// canonical form. On degenerate input (a point exactly on a hull edge)
/// the canonical hull depends on insertion order, so a served hull is
/// compared with Algorithm 2 in the order the server applied its points;
/// a served snapshot lists them in that order, its seed simplex first.
pub fn offline_canon(dim: usize, rows: &[Vec<i64>]) -> Canon {
    let pts = PointSet::from_rows(dim, rows);
    let simplex = chull_core::context::initial_simplex(&pts);
    let pts = if simplex.iter().enumerate().all(|(i, &v)| v as usize == i) {
        pts
    } else {
        prepare_points(&pts, 1)
    };
    canon_output(&incremental_hull_run(&pts).output, &pts)
}

/// The correctness gate for a served hull: its points are exactly the
/// `expected` multiset, and its facets are Algorithm 2's hull of them in
/// the server's order. `facets` index into `points`.
pub fn served_matches(dim: usize, points: &[Vec<i64>], facets: &Canon, expected: &[Vec<i64>]) -> bool {
    let mut a = points.to_vec();
    let mut b = expected.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        eprintln!("served points differ from the expected multiset ({} vs {})", a.len(), b.len());
        return false;
    }
    let want = offline_canon(dim, points);
    if *facets != want {
        eprintln!(
            "served hull differs from Algorithm 2: {} served facets, {} expected, {} only served",
            facets.len(),
            want.len(),
            facets.difference(&want).count()
        );
        for f in facets.symmetric_difference(&want).take(4) { eprintln!("  {f:?}"); }
        return false;
    }
    true
}

/// The correctness gate for a windowed hull: its points hold every
/// survivor, and its facets are Algorithm 2's hull of exactly the
/// survivors. Rows tombstoned since the last rebuild may still be held,
/// but only strictly inside the hull, where they change no facet.
pub fn survivors_hull(dim: usize, points: &[Vec<i64>], facets: &Canon, survivors: &[Vec<i64>]) -> bool {
    let mut held: std::collections::HashMap<&[i64], usize> = std::collections::HashMap::new();
    for p in points {
        *held.entry(p.as_slice()).or_default() += 1;
    }
    let missing = survivors
        .iter()
        .filter(|s| match held.get_mut(s.as_slice()) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        })
        .count();
    if missing > 0 {
        eprintln!("{missing} survivors are missing from the served points");
        return false;
    }
    let want = offline_canon(dim, survivors);
    if *facets != want {
        eprintln!(
            "served hull differs from Algorithm 2 on the survivors: {} served facets, {} expected",
            facets.len(),
            want.len()
        );
        for f in facets.symmetric_difference(&want).take(4) {
            eprintln!("  {f:?}");
        }
        return false;
    }
    true
}

/// The number after `"key":` in a one-line JSON object, searched from
/// the first occurrence of `"section":` when `section` is given (the
/// service's `Stats` reply nests two kernel-counter objects).
pub fn grab(json: &str, section: Option<&str>, key: &str) -> f64 {
    let from = match section {
        Some(s) => match json.find(&format!("\"{s}\":")) {
            Some(i) => &json[i..],
            None => return 0.0,
        },
        None => json,
    };
    from.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0)
}

/// A fresh directory under `.bench_tmp/` in the working directory,
/// unique to this process. Removed by [`remove_dir`].
pub fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = Path::new(".bench_tmp").join(format!("{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a temp directory in the working directory");
    dir
}

/// Remove a directory made by [`temp_dir`], and `.bench_tmp/` once empty.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(".bench_tmp");
}

/// Metrics of one run, printed in insertion order, with the per-trial
/// values and sample counts behind them.
///
/// The machine a benchmark runs on is shared, and its speed drifts from
/// second to second; a run is therefore a series of like trials (rounds
/// or time slices) spread over its length. A rate or time is the median
/// of its trials; a latency percentile is taken over every sample of the
/// run, and the run reports how many samples that was.
#[derive(Default)]
pub struct Metrics {
    /// `(name, value, unit)`.
    pub rows: Vec<(String, f64, &'static str)>,
    /// `(name, per-trial values)`.
    pub trials: Vec<(String, Vec<f64>)>,
    /// `(name, samples)` of each percentile.
    pub samples: Vec<(String, usize)>,
}

impl Metrics {
    /// Record `name = value` in `unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }

    /// Record `name` as the median of its per-trial values `vals`.
    pub fn median_of(&mut self, name: &str, vals: Vec<f64>, unit: &'static str) {
        self.put(name, median(&vals), unit);
        self.trials.push((name.to_string(), vals));
    }

    /// Record `name` as percentile `p` of every `(trial, value)` sample.
    pub fn percentile_of(&mut self, name: &str, p: f64, samples: &[(usize, f64)], unit: &'static str) {
        self.put(name, percentile(&values(samples), p), unit);
        self.trials.push((name.to_string(), per_trial(samples, p)));
        self.samples.push((name.to_string(), samples.len()));
    }

    /// Record `name` as [`kind_p50`] of the query samples `by_kind`.
    pub fn kind_p50_of(&mut self, name: &str, by_kind: &ByKind, unit: &'static str) {
        self.put(name, kind_p50(by_kind), unit);
        let trials = by_kind.iter().flatten().map(|s| s.0 + 1).max().unwrap_or(0);
        let per_trial = (0..trials)
            .map(|t| kind_p50(&by_kind.clone().map(|k| k.into_iter().filter(|s| s.0 == t).collect())))
            .collect();
        self.trials.push((name.to_string(), per_trial));
        self.samples.push((name.to_string(), by_kind.iter().map(Vec::len).sum()));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// `{"name": [v, ...], ...}`: the per-trial values.
    pub fn trials_json(&self) -> String {
        let body: Vec<String> = self
            .trials
            .iter()
            .map(|(n, vals)| {
                let vals: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
                format!("\"{n}\": [{}]", vals.join(", "))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// `{"name": n, ...}`: the samples behind each percentile.
    pub fn samples_json(&self) -> String {
        let body: Vec<String> = self.samples.iter().map(|(n, c)| format!("\"{n}\": {c}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run returns to `main`.
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted against the system under test.
    pub attempted: u64,
    /// Operations that failed hard (not counting absorbed backpressure).
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Input size, for the run metadata.
    pub n: usize,
    /// Serving dispatcher threads (0 when no server ran).
    pub dispatchers: usize,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

/// Span id meaning "no parent".
pub const ROOT: u64 = u64::MAX;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Global id: recording thread in the high half, index in the low.
    pub id: u64,
    /// Layer call, e.g. `client.mutate` or `core.par.build`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Id of the enclosing span, or [`ROOT`].
    pub parent: u64,
    /// Request id: the frame or query index the call belongs to.
    pub req: u64,
}

/// Per-thread span recorder. Always times the call (latencies are needed
/// either way); records a span only when tracing is on.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u64,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread`, timing relative to `origin`.
    pub fn new(on: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer::new(self.on, self.origin, thread)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id ([`ROOT`] when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        if !self.on {
            return ROOT;
        }
        let id = (self.thread << 32) | self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        id
    }

    /// Close a span opened by this recorder.
    pub fn close(&mut self, id: u64) {
        if id != ROOT {
            let end = self.now_ns();
            self.spans[(id & 0xffff_ffff) as usize].end_ns = end;
        }
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, req);
        let t0 = Instant::now();
        let r = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.close(id);
        (r, us)
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Seconds of each span's interval not covered by its children, summed
/// over spans named `name` (the benchmark's own work between calls).
pub fn uncovered_secs(spans: &[Span], name: &str) -> f64 {
    let mut total = 0u64;
    for s in spans.iter().filter(|s| s.name == name) {
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|c| c.parent == s.id)
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        total += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    total as f64 / 1e9
}

/// Mean cost of recording one span, in seconds (measured, not assumed).
pub fn span_cost_secs() -> f64 {
    let mut t = Tracer::new(true, Instant::now(), 0);
    let n = 100_000;
    let t0 = Instant::now();
    for i in 0..n {
        let id = t.open("probe", ROOT, i);
        t.close(id);
    }
    std::hint::black_box(&t.spans);
    secs(t0) / n as f64
}

/// Write spans as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
            s.id,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let s = [(0, 5.0), (0, 1.0), (0, 3.0), (2, 9.0), (3, 2.0), (3, 4.0), (3, 6.0)];
        assert_eq!(per_trial(&s, 0.5), vec![3.0, 9.0, 4.0]);
        // Two cheap kinds near 40, two dear ones near 150: the pooled
        // median jumps between the modes, the mean of kind medians not.
        let by_kind: ByKind = [
            vec![(0, 40.0), (0, 41.0), (0, 39.0)],
            vec![(0, 42.0), (0, 38.0), (0, 40.0)],
            vec![(0, 150.0), (0, 149.0), (0, 151.0)],
            vec![(0, 152.0), (0, 148.0), (0, 150.0)],
        ];
        assert_eq!(kind_p50(&by_kind), 95.0);
    }

    #[test]
    fn grab_reads_nested_sections() {
        let j = "{\"a\":1,\"ingest_kernel\":{\"tests\":5},\"query_kernel\":{\"tests\":9}}";
        assert_eq!(grab(j, None, "a"), 1.0);
        assert_eq!(grab(j, Some("query_kernel"), "tests"), 9.0);
        assert_eq!(grab(j, Some("ingest_kernel"), "tests"), 5.0);
    }

    #[test]
    fn uncovered_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let p = t.open("phase", ROOT, 0);
        let c = t.open("call", p, 0);
        t.close(c);
        t.close(p);
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 70;
        assert!((uncovered_secs(&t.spans, "phase") - 40e-9).abs() < 1e-15);
    }
}
