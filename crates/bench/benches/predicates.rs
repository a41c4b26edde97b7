//! Predicate kernel microbenchmarks: the exact integer fast paths, the
//! arbitrary-precision fallbacks, the filtered float predicates — and the
//! headline comparison of the **staged visibility kernel** (cached exact
//! hyperplane + f64 filter + i128/BigInt fallback) against the naive
//! per-query `O(d^3)` determinant it replaced on the hull hot path.

use chull_bench::harness::{black_box, Bench};
use chull_geometry::exact::det_sign_i64;
use chull_geometry::predicates::{self, float, orientd};
use chull_geometry::rng::ChaCha8Rng;
use chull_geometry::{
    Hyperplane, KernelCounts, PlaneBlock, Point2f, Point2i, Point3f, Point3i, Sign,
};

/// `queries` random points in a `dim`-ball plus one facet's worth of
/// defining points, mirroring a conflict-list scan in the hull.
fn visibility_workload(dim: usize, queries: usize, seed: u64) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let coord = |rng: &mut ChaCha8Rng| rng.gen_range(-(1i64 << 28)..(1i64 << 28));
    let facet: Vec<Vec<i64>> = (0..dim)
        .map(|_| (0..dim).map(|_| coord(&mut rng)).collect())
        .collect();
    let qs: Vec<Vec<i64>> = (0..queries)
        .map(|_| (0..dim).map(|_| coord(&mut rng)).collect())
        .collect();
    (facet, qs)
}

fn bench_staged_vs_naive(b: &mut Bench, dim: usize) {
    let (facet, queries) = visibility_workload(dim, 256, 42 + dim as u64);
    let rows: Vec<&[i64]> = facet.iter().map(|r| r.as_slice()).collect();

    // Naive reference: one O(d^3) determinant per query, exactly what the
    // hull's visibility test used to do.
    b.bench(&format!("visibility_naive_orientd_{dim}d"), || {
        let mut acc = 0i32;
        for q in &queries {
            let mut m: Vec<&[i64]> = rows.clone();
            m.push(q);
            acc += orientd(dim, &m).as_i32();
        }
        acc
    });

    // Staged kernel: hyperplane cached once (amortized over every test the
    // facet ever serves), each query an O(d) filtered dot product.
    let plane = Hyperplane::new(dim, &rows);
    b.bench(&format!("visibility_staged_plane_{dim}d"), || {
        let mut counts = KernelCounts::default();
        let mut acc = 0i32;
        for q in &queries {
            acc += plane.sign_point(q, &mut counts).as_i32();
        }
        black_box(counts);
        acc
    });

    // Construction cost, for the amortization story: one plane build vs the
    // conflict-list scans it pays for.
    b.bench(&format!("hyperplane_construction_{dim}d"), || {
        Hyperplane::new(dim, &rows)
    });
}

/// `n` non-degenerate random facet planes, for the snapshot-wide scans.
fn random_planes(dim: usize, n: usize, seed: u64) -> Vec<Hyperplane> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let coord = |rng: &mut ChaCha8Rng| rng.gen_range(-(1i64 << 20)..(1i64 << 20));
    let mut planes = Vec::with_capacity(n);
    while planes.len() < n {
        let pts: Vec<Vec<i64>> = (0..dim)
            .map(|_| (0..dim).map(|_| coord(&mut rng)).collect())
            .collect();
        let rows: Vec<&[i64]> = pts.iter().map(|p| p.as_slice()).collect();
        let mut probe = vec![0i64; dim];
        probe[0] = 1 << 21;
        let mut all = rows.clone();
        all.push(&probe);
        if orientd(dim, &all) == Sign::Zero {
            continue;
        }
        planes.push(Hyperplane::new(dim, &rows));
    }
    planes
}

/// The batched snapshot filter: one query against `n` facet planes, as a
/// per-facet staged scan (AoS, plane by plane) vs the SoA [`PlaneBlock`]
/// coefficient-major scan with the identical exact fallback on ambiguous
/// lanes. Same decisions, different memory walk — this is the E21 kernel
/// under the service read path.
fn bench_block_vs_perfacet(b: &mut Bench, dim: usize, n: usize) {
    let planes = random_planes(dim, n, 9000 + dim as u64);
    let block = PlaneBlock::from_planes(dim, planes.iter());
    let mut rng = ChaCha8Rng::seed_from_u64(77 + dim as u64);
    let queries: Vec<Vec<i64>> = (0..32)
        .map(|_| {
            (0..dim)
                .map(|_| rng.gen_range(-(1i64 << 20)..(1i64 << 20)))
                .collect()
        })
        .collect();

    b.bench(&format!("plane_scan_perfacet_{dim}d_{n}f"), || {
        let mut counts = KernelCounts::default();
        let mut acc = 0i32;
        for q in &queries {
            for p in &planes {
                acc += p.sign_point(q, &mut counts).as_i32();
            }
        }
        black_box(counts);
        acc
    });

    b.bench(&format!("plane_scan_soa_block_{dim}d_{n}f"), || {
        let mut counts = KernelCounts::default();
        let mut acc = 0i32;
        for q in &queries {
            block.filter_scan(q, |i, s| {
                acc += match s {
                    Some(sign) => sign.as_i32(),
                    None => planes[i as usize].sign_exact(q, &mut counts).as_i32(),
                };
            });
        }
        black_box(counts);
        acc
    });
}

fn main() {
    let mut b = Bench::new();

    let a2 = Point2i::new(12345, -6789);
    let b2 = Point2i::new(-4242, 9001);
    let c2 = Point2i::new(777, 31337);
    b.bench("orient2d_i64", || predicates::orient2d(a2, b2, c2));

    let a3 = Point3i::new(1, 2, 3);
    let b3 = Point3i::new(-7, 11, 5);
    let c3 = Point3i::new(13, -17, 19);
    let d3 = Point3i::new(23, 29, -31);
    b.bench("orient3d_i64_fast", || predicates::orient3d(a3, b3, c3, d3));

    let big = 1i64 << 45; // beyond the i128 fast-path limit
    let a3b = Point3i::new(big, big + 2, big + 3);
    let b3b = Point3i::new(big - 7, big + 11, big + 5);
    let c3b = Point3i::new(big + 13, big - 17, big + 19);
    let d3b = Point3i::new(big + 23, big + 29, big - 31);
    b.bench("orient3d_i64_bareiss", || {
        predicates::orient3d(a3b, b3b, c3b, d3b)
    });

    let rows5: Vec<Vec<i64>> = vec![
        vec![3, 1, 4, 1, 5],
        vec![9, 2, 6, 5, 3],
        vec![5, 8, 9, 7, 9],
        vec![3, 2, 3, 8, 4],
        vec![6, 2, 6, 4, 3],
    ];
    b.bench("det5_bareiss", || det_sign_i64(&rows5));

    let fa = Point2f::new(0.1, 0.2);
    let fb = Point2f::new(3.4, -1.2);
    let fc = Point2f::new(-5.0, 2.2);
    b.bench("orient2d_f64_filtered", || float::orient2d(fa, fb, fc));

    // Near-degenerate: forces the exact expansion fallback.
    let ga = Point2f::new(12.0, 12.0);
    let gb = Point2f::new(24.0, 24.0);
    let gq = Point2f::new(0.5 + f64::EPSILON, 0.5);
    b.bench("orient2d_f64_exact_fallback", || {
        float::orient2d(gq, ga, gb)
    });

    let pa = Point3f::new(0.0, 0.0, 0.0);
    let pb = Point3f::new(1.0, 0.0, 0.0);
    let pc = Point3f::new(0.0, 1.0, 0.0);
    let pd = Point3f::new(0.3, 0.3, 1e-14);
    b.bench("orient3d_f64_filtered", || float::orient3d(pa, pb, pc, pd));

    // The staged-vs-naive visibility comparison across dimensions.
    for dim in [2usize, 3, 5, 7] {
        bench_staged_vs_naive(&mut b, dim);
    }

    // The SoA block filter vs the per-facet staged scan at snapshot scale.
    for (dim, n) in [(2usize, 1024usize), (3, 1024), (5, 4096)] {
        bench_block_vs_perfacet(&mut b, dim, n);
    }

    b.report();
}
