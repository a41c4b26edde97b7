//! Concurrency stress: run Algorithm 3 with more workers than cores so the
//! lock-free ridge multimaps, the facet arena, and the `ProcessRidge`
//! spawning discipline are exercised under real thread interleaving —
//! results must stay identical to the sequential run for every engine and
//! thread count.

use convex_hull_suite::core::par::{parallel_hull_with_threads, MapKind, ParOptions};
use convex_hull_suite::core::prepare_points;
use convex_hull_suite::core::seq::incremental_hull_run;
use convex_hull_suite::geometry::{generators, PointSet};

fn stress(pts: &PointSet, kind: MapKind, threads: usize) {
    let seq = incremental_hull_run(pts);
    let par = parallel_hull_with_threads(
        pts,
        ParOptions {
            map: kind,
            record_trace: false,
        },
        threads,
    );
    assert_eq!(
        seq.output.canonical(),
        par.output.canonical(),
        "{kind:?} with {threads} threads"
    );
    assert_eq!(seq.stats.visibility_tests, par.stats.visibility_tests);
    let mut a = seq.created.clone();
    let mut b = par.created.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(
        a, b,
        "{kind:?} with {threads} threads: created facet sets differ"
    );
}

#[test]
fn oversubscribed_pools_2d() {
    let pts = prepare_points(
        &PointSet::from_points2(&generators::disk_2d(3000, 1 << 24, 1)),
        2,
    );
    for threads in [2usize, 4, 8] {
        stress(&pts, MapKind::Locked, threads);
        stress(
            &pts,
            MapKind::Cas {
                capacity_factor: 16,
            },
            threads,
        );
        stress(
            &pts,
            MapKind::Tas {
                capacity_factor: 16,
            },
            threads,
        );
    }
}

#[test]
fn oversubscribed_pools_3d_sphere() {
    // Near-sphere: Theta(n) facets — maximal concurrency pressure on the
    // map and arena.
    let pts = prepare_points(
        &PointSet::from_points3(&generators::near_sphere_3d(800, 1 << 24, 3)),
        4,
    );
    for threads in [4usize, 8] {
        stress(&pts, MapKind::Locked, threads);
        stress(
            &pts,
            MapKind::Cas {
                capacity_factor: 32,
            },
            threads,
        );
        stress(
            &pts,
            MapKind::Tas {
                capacity_factor: 32,
            },
            threads,
        );
    }
}

#[test]
fn repeated_runs_are_deterministic_in_output() {
    // The schedule is nondeterministic; the hull must not be.
    let pts = prepare_points(
        &PointSet::from_points3(&generators::ball_3d(1200, 1 << 24, 5)),
        6,
    );
    let reference = parallel_hull_with_threads(&pts, ParOptions::default(), 4);
    for _ in 0..5 {
        let run = parallel_hull_with_threads(&pts, ParOptions::default(), 4);
        assert_eq!(reference.output.canonical(), run.output.canonical());
        assert_eq!(reference.stats.visibility_tests, run.stats.visibility_tests);
    }
}

#[test]
fn degenerate_grids_parallel_matches_sequential() {
    // Grids have massive interior degeneracy and collinear/coplanar hull
    // boundaries. The weak (non-strict) hull the incremental algorithms
    // produce must at least agree between Algorithm 2 and Algorithm 3 and
    // verify geometrically.
    use convex_hull_suite::core::verify::verify_hull;
    let g2 = PointSet::from_points2(&generators::grid_2d(12, 7));
    let g2 = prepare_points(&g2, 8);
    let seq = incremental_hull_run(&g2);
    let par = parallel_hull_with_threads(&g2, ParOptions::default(), 4);
    assert_eq!(seq.output.canonical(), par.output.canonical());
    verify_hull(&g2, &seq.output).unwrap();

    let g3 = PointSet::from_points3(&generators::grid_3d(5, 9));
    let g3 = prepare_points(&g3, 10);
    let seq = incremental_hull_run(&g3);
    let par = parallel_hull_with_threads(&g3, ParOptions::default(), 4);
    assert_eq!(seq.output.canonical(), par.output.canonical());
}
