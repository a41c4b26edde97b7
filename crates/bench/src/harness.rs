//! A small self-contained benchmark harness (the external `criterion`
//! crate is unavailable in this build environment).
//!
//! Usage mirrors the shape of the old criterion benches: create a
//! [`Bench`], register closures under names, then [`Bench::report`] prints
//! a table.
//!
//! Timing model: one warm-up call, then the per-iteration cost is
//! calibrated so each sample batch runs for roughly
//! [`Bench::target_sample_time`]; the reported figure is the **median**
//! ns/iter over all sample batches, which is robust to scheduler noise.

pub use std::hint::black_box;
use std::time::Instant;

/// One benchmark's measured result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (unique within a run).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per sample batch (calibrated).
    pub iters: u64,
    /// Number of sample batches measured.
    pub samples: usize,
}

/// A benchmark runner collecting [`BenchResult`]s.
pub struct Bench {
    results: Vec<BenchResult>,
    samples: usize,
    target_sample_secs: f64,
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

impl Bench {
    /// A runner with the default 11 samples of ~20ms each.
    pub fn new() -> Self {
        Bench {
            results: Vec::new(),
            samples: 11,
            target_sample_secs: 0.02,
        }
    }

    /// Set the number of sample batches (odd keeps the median exact).
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(3);
        self
    }

    /// Set the target wall-clock length of one sample batch, in seconds.
    pub fn target_sample_time(mut self, secs: f64) -> Self {
        self.target_sample_secs = secs;
        self
    }

    /// Measure `f`, recording the median ns/iter under `name`.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) {
        // Warm-up and calibration: grow the batch until it is long enough
        // to time reliably, then scale to the target sample time.
        let mut iters = 1u64;
        let per_iter = loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed().as_secs_f64();
            if dt > 1e-3 || iters >= 1 << 30 {
                break dt / iters as f64;
            }
            iters *= 8;
        };
        let batch = ((self.target_sample_secs / per_iter.max(1e-12)) as u64).max(1);
        let mut times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[times.len() / 2];
        let result = BenchResult {
            name: name.to_string(),
            ns_per_iter: median * 1e9,
            iters: batch,
            samples: self.samples,
        };
        println!(
            "{:<44} {:>14.1} ns/iter   ({} iters x {} samples)",
            result.name, result.ns_per_iter, result.iters, result.samples
        );
        self.results.push(result);
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print a summary table to stdout.
    pub fn report(&self) {
        println!("\n== {} benchmarks ==", self.results.len());
        for r in &self.results {
            println!("{:<44} {:>14.1} ns/iter", r.name, r.ns_per_iter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut b = Bench::new().samples(3).target_sample_time(0.001);
        b.bench("noop_sum", || (0..100u64).sum::<u64>());
        assert_eq!(b.results().len(), 1);
        assert!(b.results()[0].ns_per_iter > 0.0);
    }
}
