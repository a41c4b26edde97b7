//! Structural and geometric property tests for the hull algorithms across
//! dimensions and distributions.

use chull_core::baseline::brute;
use chull_core::online::{HullBuilder, OnlineHull};
use chull_core::par::{parallel_hull, ParOptions};
use chull_core::prepare_points;
use chull_core::seq::incremental_hull_run;
use chull_core::verify::{verify_containment, verify_hull};
use chull_geometry::rng::ChaCha8Rng;
use chull_geometry::{generators, KernelCounts, PointSet};

/// Every d-dimensional hull: each ridge is shared by exactly two facets, so
/// ridges = d * F / 2; hull vertices are a subset of the input; every facet
/// is one-sided.
fn structural_invariants(pts: &PointSet) {
    let run = incremental_hull_run(pts);
    let d = pts.dim();
    let f = run.output.num_facets();
    assert_eq!(run.output.num_ridges() * 2, d * f, "ridge/facet incidence");
    verify_hull(pts, &run.output).unwrap();
    verify_containment(pts, &run.output).unwrap();
    // Facet count parity in 3D: triangulated closed surface has even F.
    if d == 3 {
        assert_eq!(f % 2, 0, "3D triangulated hull must have even facet count");
    }
    // The created-facet list starts with the d+1 seed facets at depth 0.
    assert!(run.depths[..=d].iter().all(|&x| x == 0));
}

#[test]
fn invariants_across_dimensions() {
    for (dim, n) in [(2usize, 300), (3, 300), (4, 80), (5, 48), (6, 32)] {
        for seed in 0..2u64 {
            let pts = prepare_points(&generators::ball_d(dim, n, 1 << 20, seed), seed + 3);
            structural_invariants(&pts);
        }
    }
}

#[test]
fn near_sphere_everything_extreme_3d() {
    let n = 300;
    let pts = prepare_points(
        &PointSet::from_points3(&generators::near_sphere_3d(n, 1 << 24, 2)),
        5,
    );
    let run = incremental_hull_run(&pts);
    // On a near-sphere, almost every point is a hull vertex.
    let v = run.output.vertices().len();
    assert!(v > n * 95 / 100, "only {v}/{n} points extreme");
    verify_hull(&pts, &run.output).unwrap();
}

#[test]
fn paraboloid_all_extreme_3d() {
    // Points on the exact paraboloid are in strictly convex position.
    let n = 250;
    let pts = prepare_points(
        &PointSet::from_points3(&generators::paraboloid_3d(n, 1 << 10, 4)),
        6,
    );
    let run = incremental_hull_run(&pts);
    assert_eq!(run.output.vertices().len(), n);
    verify_hull(&pts, &run.output).unwrap();
    // Parallel agrees.
    let par = parallel_hull(&pts, ParOptions::default());
    assert_eq!(run.output.canonical(), par.output.canonical());
}

#[test]
fn simplex_4d_exact() {
    // d+1 points: the hull is all d+1 facets, no insertions happen.
    let mut rows = vec![vec![0i64; 4]];
    for i in 0..4 {
        let mut r = vec![0i64; 4];
        r[i] = 100;
        rows.push(r);
    }
    let pts = PointSet::from_rows(4, &rows);
    let run = incremental_hull_run(&pts);
    assert_eq!(run.output.num_facets(), 5);
    assert_eq!(run.stats.visibility_tests, 0);
    assert_eq!(run.stats.dep_depth, 0);
}

#[test]
fn cube_corners_4d_match_brute() {
    // The 16 corners of a 4-cube, perturbed into general position.
    let mut rows = Vec::new();
    let mut salt = 1i64;
    for mask in 0..16u32 {
        let mut r = vec![0i64; 4];
        for (b, slot) in r.iter_mut().enumerate() {
            *slot = if mask >> b & 1 == 1 {
                1000 + salt % 7
            } else {
                -(1000 + salt % 5)
            };
            salt = salt.wrapping_mul(31).wrapping_add(17) % 1000;
        }
        rows.push(r);
    }
    let pts = prepare_points(&PointSet::from_rows(4, &rows), 9);
    let run = incremental_hull_run(&pts);
    let oracle = brute::hull_output(&pts);
    assert_eq!(run.output.canonical(), oracle.canonical());
    assert_eq!(run.output.vertices().len(), 16);
}

/// Random 4D point sets: incremental equals brute force. Deterministic
/// pseudo-random cases stand in for the original proptest strategy.
#[test]
fn prop_4d_matches_brute() {
    let mut r = ChaCha8Rng::seed_from_u64(0x4d4d);
    let mut checked = 0;
    while checked < 16 {
        let len = r.gen_range(8usize..16);
        let mut rows: Vec<Vec<i64>> = (0..len)
            .map(|_| (0..4).map(|_| r.gen_range(-200i64..200)).collect())
            .collect();
        let seed = r.gen_range(0u64..100);
        rows.sort();
        rows.dedup();
        if rows.len() < 6 {
            continue;
        }
        let pts = PointSet::from_rows(4, &rows);
        let refs: Vec<&[i64]> = (0..pts.len()).map(|i| pts.point(i)).collect();
        if chull_geometry::exact::affine_rank(&refs) != 5 {
            continue;
        }
        let prepared = prepare_points(&pts, seed);
        let run = incremental_hull_run(&prepared);
        let oracle = brute::hull_output(&prepared);
        assert_eq!(run.output.canonical(), oracle.canonical());
        checked += 1;
    }
}

// ---------------------------------------------------------------------------
// Query-path equivalence: history-graph point location (with and without
// the SoA PlaneBlock filter) must be bit-identical to the linear-scan
// oracle on every workload, including degenerate ones.
// ---------------------------------------------------------------------------

/// Build a live online hull by replaying the point set's rows in order.
fn online_hull(pts: &PointSet) -> OnlineHull {
    let rows: Vec<&[i64]> = (0..pts.len()).map(|i| pts.point(i)).collect();
    let b = HullBuilder::replay(pts.dim(), rows.iter().copied());
    b.hull().expect("workload must leave bootstrap").clone()
}

/// Query mix: every input point (exactly-at-vertex, on-facet, interior,
/// duplicate coordinates), scaled copies (mostly outside), and midpoints
/// of random pairs, each asked twice.
fn query_points(pts: &PointSet, seed: u64) -> Vec<Vec<i64>> {
    let n = pts.len();
    let mut qs: Vec<Vec<i64>> = (0..n).map(|i| pts.point(i).to_vec()).collect();
    for i in 0..n.min(48) {
        qs.push(pts.point(i).iter().map(|&c| c * 2 + 1).collect());
    }
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..48 {
        let a = r.gen_range(0usize..n);
        let b = r.gen_range(0usize..n);
        let m: Vec<i64> = pts
            .point(a)
            .iter()
            .zip(pts.point(b))
            .map(|(&x, &y)| (x + y) / 2)
            .collect();
        qs.push(m.clone());
        qs.push(m);
    }
    qs
}

/// Assert descent (scalar filter and SoA block filter) agrees with the
/// scan oracle on every query, and that the block changes only *how* the
/// float filter is evaluated, never what it decides: identical kernel
/// counters, not just identical answers. Returns per-query descent steps.
fn assert_query_paths_agree(h: &OnlineHull, qs: &[Vec<i64>]) -> Vec<u64> {
    let block = h.plane_block();
    let mut steps = Vec::with_capacity(qs.len());
    for q in qs {
        let mut k_loc = KernelCounts::default();
        let mut k_blk = KernelCounts::default();
        let mut k_scan = KernelCounts::default();
        let c_loc = h.contains_with(q, &mut k_loc, None);
        let c_blk = h.contains_with(q, &mut k_blk, Some(&block));
        let c_scan = h.contains_scan(q, &mut k_scan);
        assert_eq!(c_loc, c_scan, "contains: descent vs scan at {q:?}");
        assert_eq!(c_blk, c_scan, "contains: block descent vs scan at {q:?}");
        assert_eq!(k_loc, k_blk, "kernel counters: scalar vs block at {q:?}");
        let mut v_loc = h.visible_facets_with(q, &mut KernelCounts::default(), Some(&block));
        let mut v_scan = h.visible_facets_scan(q, &mut KernelCounts::default());
        v_loc.sort_unstable();
        v_scan.sort_unstable();
        assert_eq!(v_loc, v_scan, "visible facet set at {q:?}");
        steps.push(k_loc.descent_steps);
    }
    steps
}

/// The cached-vertex extreme path: agrees with per-query re-derivation,
/// and the winner maximizes the dot product over *all* input points.
fn assert_extreme_agrees(h: &OnlineHull, dirs: &[Vec<i64>]) {
    let verts = h.hull_vertices();
    for d in dirs {
        let fast = h.extreme_with(d, &verts);
        let slow = h.extreme(d);
        assert_eq!(fast, slow, "extreme along {d:?}");
        let dot =
            |p: &[i64]| -> i128 { p.iter().zip(d).map(|(&a, &b)| a as i128 * b as i128).sum() };
        let best = (0..h.num_points())
            .map(|i| dot(h.points().point(i)))
            .max()
            .unwrap();
        assert_eq!(dot(&fast.1), best, "extreme along {d:?} not maximal");
    }
}

fn axis_and_random_dirs(dim: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut dirs = Vec::new();
    for j in 0..dim {
        for s in [1i64, -1] {
            let mut d = vec![0i64; dim];
            d[j] = s;
            dirs.push(d);
        }
    }
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..16 {
        dirs.push((0..dim).map(|_| r.gen_range(-1000i64..1000)).collect());
    }
    dirs.retain(|d| d.iter().any(|&c| c != 0));
    dirs
}

/// The canonical 7-workload property matrix: every dimension the service
/// runs (2D/3D/4D), everything-extreme inputs, and the degenerate cases
/// (collinear-heavy, duplicate-heavy) that stress weak hull vertices.
fn property_workloads() -> Vec<(&'static str, PointSet)> {
    let mut dup_rows: Vec<Vec<i64>> = generators::disk_2d(150, 1 << 18, 21)
        .iter()
        .map(|p| vec![p.x, p.y])
        .collect();
    dup_rows.extend(dup_rows.clone()); // every point twice
    vec![
        (
            "ball2",
            prepare_points(&generators::ball_d(2, 400, 1 << 20, 11), 1),
        ),
        (
            "ball3",
            prepare_points(&generators::ball_d(3, 250, 1 << 20, 12), 2),
        ),
        (
            "ball4",
            prepare_points(&generators::ball_d(4, 100, 1 << 16, 13), 3),
        ),
        (
            "near_circle",
            prepare_points(
                &PointSet::from_points2(&generators::near_circle_2d(400, 1 << 24, 14)),
                4,
            ),
        ),
        (
            "near_sphere3",
            prepare_points(
                &PointSet::from_points3(&generators::near_sphere_3d(200, 1 << 20, 15)),
                5,
            ),
        ),
        (
            "collinear",
            prepare_points(
                &PointSet::from_points2(&generators::collinear_heavy_2d(300, 12, 16)),
                6,
            ),
        ),
        (
            "duplicates",
            prepare_points(&PointSet::from_rows(2, &dup_rows), 7),
        ),
    ]
}

#[test]
fn query_paths_bit_identical_across_workloads() {
    for (name, pts) in &property_workloads() {
        let h = online_hull(pts);
        let qs = query_points(pts, 0xABC ^ pts.len() as u64);
        assert_query_paths_agree(&h, &qs);
        assert_extreme_agrees(&h, &axis_and_random_dirs(pts.dim(), 0xD12));
        // Cross-check against the offline verifier too: `contains` says
        // true exactly for the points the hull was built from.
        for i in 0..pts.len() {
            assert!(h.contains(pts.point(i)), "{name}: input point {i} escapes");
        }
    }
}

/// E21 core-level check: on a near-circle (every point a hull vertex),
/// the history descent touches far fewer nodes than a linear scan would —
/// p50 descent steps ≪ alive facet count.
#[test]
fn descent_steps_sublinear_on_near_circle() {
    let pts = prepare_points(
        &PointSet::from_points2(&generators::near_circle_2d(4000, 1 << 28, 99)),
        8,
    );
    let h = online_hull(&pts);
    let facets = h.output().num_facets();
    assert!(facets > 1000, "workload too small: {facets} facets");
    let block = h.plane_block();
    let mut r = ChaCha8Rng::seed_from_u64(0xE21);
    let mut steps: Vec<u64> = Vec::new();
    for i in 0..256usize {
        // Alternate interior midpoints and outside points so both the
        // early-exit and the full-cone descents are measured.
        let q: Vec<i64> = if i % 2 == 0 {
            let a = r.gen_range(0usize..pts.len());
            let b = r.gen_range(0usize..pts.len());
            pts.point(a)
                .iter()
                .zip(pts.point(b))
                .map(|(&x, &y)| (x + y) / 2)
                .collect()
        } else {
            let a = r.gen_range(0usize..pts.len());
            pts.point(a).iter().map(|&c| c + c / 8).collect()
        };
        let mut k = KernelCounts::default();
        h.contains_with(&q, &mut k, Some(&block));
        steps.push(k.descent_steps);
    }
    steps.sort_unstable();
    let p50 = steps[steps.len() / 2];
    assert!(
        (p50 as usize) * 20 < facets,
        "descent p50 {p50} not sublinear in {facets} facets"
    );
}

/// Bulk construction vs Algorithm 2 — the DESIGN §S21 invariant. On every
/// property workload (including degenerate collinear and duplicate-heavy
/// inputs, where only the weak-boundary retention rule keeps the prune
/// sound), `HullBuilder::seed_from_bulk` must produce the **canonically
/// identical** facet set to an incremental replay of the same rows, at
/// every worker count — and the bulk result itself must be identical
/// across worker counts, not merely equivalent.
#[test]
fn bulk_build_matches_algorithm_2_across_workloads() {
    for (name, pts) in &property_workloads() {
        let rows: Vec<Vec<i64>> = (0..pts.len()).map(|i| pts.point(i).to_vec()).collect();
        let replayed = HullBuilder::replay(pts.dim(), rows.iter().map(|r| r.as_slice()));
        let reference = replayed.hull().expect("workload leaves bootstrap").output();
        let mut canon_at_workers = Vec::new();
        for threads in [1usize, 2, 4] {
            let (b, report) = HullBuilder::seed_from_bulk(pts.dim(), &rows, threads);
            assert!(!report.fallback, "{name}: unexpected replay fallback");
            assert_eq!(report.input, pts.len(), "{name}: sweep saw every point");
            assert!(
                report.candidates >= reference.vertices().len(),
                "{name}: candidate set smaller than the hull's vertex set"
            );
            assert_eq!(b.applied(), rows.len() as u64, "{name}: applied count");
            let h = b.hull().expect("bulk seed is live");
            let out = h.output();
            // Bulk and replay share the basis-first internal point order,
            // so canonical forms are comparable id-for-id.
            assert_eq!(
                out.canonical(),
                reference.canonical(),
                "{name}: bulk hull differs from incremental replay at {threads} workers"
            );
            verify_hull(h.points(), &out).unwrap();
            verify_containment(h.points(), &out).unwrap();
            canon_at_workers.push((out.canonical(), h.output().num_facets(), h.dep_depth()));
        }
        assert!(
            canon_at_workers.windows(2).all(|w| w[0] == w[1]),
            "{name}: bulk build not identical across worker counts"
        );
    }
}

/// Insertion order never changes the hull (only the dependence
/// structure).
#[test]
fn prop_order_invariance() {
    let mut r = ChaCha8Rng::seed_from_u64(0x0ede);
    for _ in 0..16 {
        let seed_a = r.gen_range(0u64..500);
        let seed_b = r.gen_range(500u64..1000);
        let pts = PointSet::from_points2(&generators::disk_2d(120, 1 << 20, 77));
        let a = incremental_hull_run(&prepare_points(&pts, seed_a));
        let b = incremental_hull_run(&prepare_points(&pts, seed_b));
        // Canonical forms use ids, which differ across permutations —
        // compare vertex coordinate sets and facet counts instead.
        let coords = |run: &chull_core::seq::SeqRun, ps: &PointSet| {
            run.output
                .vertices()
                .iter()
                .map(|&v| (ps.pt(v)[0], ps.pt(v)[1]))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let pa = prepare_points(&pts, seed_a);
        let pb = prepare_points(&pts, seed_b);
        assert_eq!(coords(&a, &pa), coords(&b, &pb));
        assert_eq!(a.output.num_facets(), b.output.num_facets());
    }
}

/// Closed-star repair vs the full survivor rebuild (DESIGN §S22). A
/// count window slides over each workload while every other unit also
/// deletes a row from half a window back; after every unit whose
/// tombstones left the hull, `HullBuilder::repair` must either refuse or
/// build exactly the hull `seed_from_bulk` builds on the survivors, id
/// for id, at 1 and 2 workers. Inputs cover the degenerate shapes the
/// refusal rules exist for (collinear boundaries, grids, duplicates) and
/// the all-vertex inputs the work bound refuses.
#[test]
fn repair_matches_full_rebuild_after_every_tombstone_unit() {
    use chull_core::online::PointLocation;
    use chull_core::{LiveSet, RemoveOutcome, WindowPolicy};
    let rows2 = |pts: Vec<chull_geometry::Point2i>| -> Vec<Vec<i64>> {
        pts.iter().map(|p| vec![p.x, p.y]).collect()
    };
    let rows3 = |pts: Vec<chull_geometry::Point3i>| -> Vec<Vec<i64>> {
        pts.iter().map(|p| vec![p.x, p.y, p.z]).collect()
    };
    let mut dups = rows2(generators::disk_2d(300, 1 << 18, 45));
    for i in (0..dups.len()).step_by(3) {
        let copy = dups[i].clone();
        dups.insert(i + 1, copy);
    }
    // The last field: `Some(true)` when repairs must outnumber refusals,
    // `Some(false)` when the work bound must refuse every repair (every
    // row a vertex), `None` when the refusal rules decide case by case.
    let workloads = vec![
        (
            "disk",
            2,
            rows2(generators::disk_2d(700, 1 << 20, 41)),
            Some(true),
        ),
        (
            "near_circle",
            2,
            rows2(generators::near_circle_2d(500, 1 << 24, 42)),
            Some(false),
        ),
        (
            "collinear",
            2,
            rows2(generators::collinear_heavy_2d(500, 12, 43)),
            None,
        ),
        ("grid", 2, rows2(generators::grid_2d(22, 44)), None),
        ("duplicates", 2, dups, Some(true)),
        (
            "ball3",
            3,
            rows3(generators::ball_3d(500, 1 << 20, 46)),
            None,
        ),
        (
            "near_sphere3",
            3,
            rows3(generators::near_sphere_3d(300, 1 << 20, 47)),
            None,
        ),
    ];
    for (name, dim, rows, expect) in &workloads {
        let (dim, window) = (*dim, rows.len() / 4);
        for threads in [1usize, 2] {
            let mut live = LiveSet::new();
            for r in &rows[..window] {
                live.insert(r.clone(), 0);
            }
            let mut b = HullBuilder::seed_from_bulk(dim, &rows[..window], threads).0;
            let (mut repairs, mut refusals) = (0, 0);
            for (unit, start) in (window..rows.len()).step_by(8).enumerate() {
                let chunk = &rows[start..(start + 8).min(rows.len())];
                let mut tombs = Vec::new();
                for r in chunk {
                    live.insert(r.clone(), unit as u64);
                }
                if unit % 2 == 0 {
                    let victim = &rows[start - window / 2];
                    if live.remove(victim) != RemoveOutcome::Miss {
                        tombs.push(victim.clone());
                    }
                }
                tombs.extend(live.expire_window(&WindowPolicy::Count(window), unit as u64));
                b.push_batch(chunk, threads);
                let hull = b.hull().expect("window hull is live");
                let mut k = KernelCounts::default();
                let mut dying: Vec<Vec<i64>> = tombs
                    .into_iter()
                    .filter(|t| {
                        live.count(t) == 0 && hull.classify(t, &mut k) != PointLocation::Inside
                    })
                    .collect();
                dying.sort();
                dying.dedup();
                if dying.is_empty() {
                    continue;
                }
                let full = HullBuilder::seed_from_bulk(dim, &live.survivors(), threads).0;
                match b.repair(live.live_rows(), &dying, threads) {
                    Some(r) => {
                        assert_eq!(
                            r.hull().map(|h| h.output().canonical()),
                            full.hull().map(|h| h.output().canonical()),
                            "{name} at {threads} workers, unit {unit}: repair differs from the full rebuild"
                        );
                        assert_eq!(r.applied(), live.live() as u64);
                        repairs += 1;
                        b = r;
                    }
                    None => {
                        refusals += 1;
                        b = full;
                    }
                }
            }
            match expect {
                Some(true) => assert!(
                    repairs > refusals,
                    "{name}: only {repairs} repairs against {refusals} refusals"
                ),
                Some(false) => {
                    assert_eq!(repairs, 0, "{name}: the work bound let a repair through")
                }
                None => {}
            }
            // The hull still holds rows inserted since the last
            // correction (and dead interior ones): compare coordinates.
            let replayed = HullBuilder::replay(dim, live.live_rows());
            let coords = |h: &chull_core::online::OnlineHull| {
                h.output()
                    .canonical()
                    .into_iter()
                    .map(|f| {
                        let mut rows: Vec<Vec<i64>> =
                            f.iter().map(|&v| h.points().pt(v).to_vec()).collect();
                        rows.sort();
                        rows
                    })
                    .collect::<std::collections::BTreeSet<_>>()
            };
            assert_eq!(
                b.hull().map(coords),
                replayed.hull().map(coords),
                "{name} at {threads} workers: final hull differs from Algorithm 2 on the survivors"
            );
        }
    }
}

/// Repair in 3D: a spike vertex over a bulk-built cube dies; only its
/// star's rows are reinstalled and the result is the survivors' hull.
#[test]
fn repair_3d_spike_matches_full_rebuild() {
    let mut rows: Vec<Vec<i64>> = Vec::new();
    for m in 0..8i64 {
        rows.push(vec![(m & 1) * 100, (m >> 1 & 1) * 100, (m >> 2 & 1) * 100]);
    }
    for i in 1..12i64 {
        rows.push(vec![7 * i + 3, 5 * i + 11, 8 * i + 2]);
    }
    let spike = vec![50, 50, 400];
    rows.push(spike.clone());
    rows.push(vec![50, 52, 180]); // inside the spike's star only
    let b = HullBuilder::seed_from_bulk(3, &rows, 2).0;
    rows.retain(|r| *r != spike);
    let live: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let r = b
        .repair(live.iter().copied(), &[spike], 2)
        .expect("a lone spike over a cube repairs");
    let full = HullBuilder::seed_from_bulk(3, &rows, 2).0;
    assert_eq!(
        r.hull().unwrap().output().canonical(),
        full.hull().unwrap().output().canonical()
    );
    assert!(!r.hull().unwrap().contains(&[50, 51, 250]));
    assert!(r.hull().unwrap().contains(&[50, 51, 150]));
}
