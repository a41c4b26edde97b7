//! The sequential randomized incremental convex hull — Algorithm 2 of the
//! paper — in any dimension `2 <= d <= MAX_DIM`, with instrumentation.
//!
//! Points are inserted in index order (callers randomize via
//! [`crate::context::prepare_points`]). The run additionally computes the
//! **configuration dependence graph depth** `D(G(S))` on the fly: every
//! created facet `t = r ∪ {v_i}` is supported by the two facets `t1, t2`
//! sharing the boundary ridge `r` (Theorem 5.1 / Fact 5.2), so
//! `depth(t) = 1 + max(depth(t1), depth(t2))` and the maximum over all
//! facets is exactly the Definition 4.1 depth. This is the scalable
//! measurement path behind experiment E1 (validated against the brute-force
//! oracle in `chull-confspace` on small inputs).

use crate::context::{initial_simplex, HullContext};
use crate::facet::{facet_verts, join_ridge, ridge_omitting, Facet, FacetVerts, RidgeKey, NO_VERT};
use crate::output::HullOutput;
use crate::stats::HullStats;
use chull_concurrent::fast_hash::FastHashMap;
use chull_geometry::PointSet;

/// Sentinel facet id.
const NO_FACET: u32 = u32::MAX;

/// Sentinel parent id for seed facets (no support set).
pub const NO_PARENT: u32 = u32::MAX;

/// Full record of a sequential run.
#[derive(Debug, Clone)]
pub struct SeqRun {
    /// The final hull.
    pub output: HullOutput,
    /// Instrumentation counters.
    pub stats: HullStats,
    /// Every facet ever created, in creation order (for the "exactly the
    /// same facets as the parallel algorithm" comparison, E3).
    pub created: Vec<FacetVerts>,
    /// Dependence-graph depth of each created facet (parallel to
    /// `created`).
    pub depths: Vec<u32>,
    /// The full facet records (vertices, orientation, conflict lists), in
    /// creation order — the raw material of the history graph.
    pub facets: Vec<Facet>,
    /// Liveness at the end of the run (alive = on the final hull).
    pub alive: Vec<bool>,
    /// Support set of each facet as `[t1, t2]` facet ids (the two facets
    /// sharing the boundary ridge, Fact 5.2); `[NO_PARENT; 2]` for the seed
    /// simplex facets. These edges *are* the configuration dependence graph.
    pub parents: Vec<[u32; 2]>,
}

/// Compute the hull of `pts`, inserting points in index order.
/// Convenience wrapper around [`incremental_hull_run`].
pub fn incremental_hull(pts: &PointSet) -> (HullOutput, HullStats) {
    let run = incremental_hull_run(pts);
    (run.output, run.stats)
}

/// Merge two ascending conflict lists, dropping duplicates.
#[cfg(test)]
pub(crate) fn merge_conflicts(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    merge_conflicts_into(a, b, &mut out);
    out
}

/// [`merge_conflicts`] into a caller-owned scratch buffer (cleared first),
/// so the hot path reuses one allocation across all created facets.
pub(crate) fn merge_conflicts_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Adjacency bookkeeping: each current-hull ridge maps to its (up to) two
/// incident alive facets. Keyed with the deterministic fast hasher — ridge
/// keys are tiny inline arrays, and this map is touched `d` times per
/// facet ever created.
struct Adjacency {
    map: FastHashMap<RidgeKey, [u32; 2]>,
}

impl Adjacency {
    fn new() -> Adjacency {
        Adjacency {
            map: FastHashMap::default(),
        }
    }

    fn add(&mut self, r: RidgeKey, facet: u32) {
        let entry = self.map.entry(r).or_insert([NO_FACET, NO_FACET]);
        if entry[0] == NO_FACET {
            entry[0] = facet;
        } else {
            debug_assert_eq!(entry[1], NO_FACET, "ridge with three incident facets");
            entry[1] = facet;
        }
    }

    fn remove(&mut self, r: &RidgeKey, facet: u32) {
        let entry = self.map.get_mut(r).expect("removing from unknown ridge");
        if entry[0] == facet {
            entry[0] = entry[1];
        } else {
            debug_assert_eq!(entry[1], facet);
        }
        entry[1] = NO_FACET;
        if entry[0] == NO_FACET {
            self.map.remove(r);
        }
    }

    fn neighbor(&self, r: &RidgeKey, facet: u32) -> u32 {
        match self.map.get(r) {
            None => NO_FACET,
            Some(&[a, b]) => {
                if a == facet {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// Run Algorithm 2 with full instrumentation.
///
/// Requires the first `d + 1` points to be affinely independent (use
/// [`prepare_points`](crate::context::prepare_points)); the remaining input
/// may contain interior degeneracies, but hull-boundary degeneracies
/// (points exactly on a facet hyperplane from outside) are not supported —
/// see Section 6 of the paper and `crate::degenerate`.
pub fn incremental_hull_run(pts: &PointSet) -> SeqRun {
    let dim = pts.dim();
    let n = pts.len();
    let simplex = initial_simplex(pts);
    assert_eq!(
        simplex,
        (0..=(dim as u32)).collect::<Vec<u32>>(),
        "first d + 1 points must be affinely independent (call prepare_points)"
    );
    let ctx = HullContext::new(pts, &simplex);

    let mut stats = HullStats {
        n,
        dim,
        ..Default::default()
    };
    let mut facets: Vec<Facet> = Vec::new();
    let mut alive: Vec<bool> = Vec::new();
    let mut depth: Vec<u32> = Vec::new();
    // Naive (support-free) dependence depth per facet: a new facet depends
    // on every facet its pivot touches (removed set R plus the invisible
    // neighbors) — the scheduling the paper improves upon (E12a).
    let mut naive_depth: Vec<u32> = Vec::new();
    // Support pair of each facet (the dependence-graph parents).
    let mut parents: Vec<[u32; 2]> = Vec::new();
    let mut created: Vec<FacetVerts> = Vec::new();
    let mut adj = Adjacency::new();
    // C^{-1}: for each point, the facets created with that point in their
    // conflict list (entries may point at dead facets; filtered on use).
    let mut point_conflicts: Vec<Vec<u32>> = vec![Vec::new(); n];

    let all_later: Vec<u32> = ((dim as u32 + 1)..n as u32).collect();
    let register = |facet: Facet,
                    d: u32,
                    facets: &mut Vec<Facet>,
                    alive: &mut Vec<bool>,
                    depth: &mut Vec<u32>,
                    created: &mut Vec<FacetVerts>,
                    adj: &mut Adjacency,
                    point_conflicts: &mut Vec<Vec<u32>>,
                    stats: &mut HullStats| {
        let id = facets.len() as u32;
        for omit in 0..dim {
            adj.add(ridge_omitting(&facet.verts, dim, omit), id);
        }
        for &q in &facet.conflicts {
            point_conflicts[q as usize].push(id);
        }
        created.push(facet.verts);
        facets.push(facet);
        alive.push(true);
        depth.push(d);
        stats.facets_created += 1;
        if d as u64 > stats.dep_depth {
            stats.dep_depth = d as u64;
        }
        id
    };

    // Initial hull: all d+1 facets of the seed simplex.
    for omit in 0..=dim {
        let verts: Vec<u32> = simplex
            .iter()
            .copied()
            .filter(|&v| v != omit as u32)
            .collect();
        let (facet, counts) = ctx.make_facet(facet_verts(&verts), &all_later, NO_VERT);
        stats.absorb_kernel(&counts);
        register(
            facet,
            0,
            &mut facets,
            &mut alive,
            &mut depth,
            &mut created,
            &mut adj,
            &mut point_conflicts,
            &mut stats,
        );
        naive_depth.push(0);
        parents.push([NO_PARENT, NO_PARENT]);
    }

    // Insert the remaining points in index order. Membership of a facet in
    // the visible set R is tracked with a stamp array (amortized O(1) per
    // insertion, vs. clearing a bitmap of all facets every round).
    let mut in_r_stamp: Vec<u32> = Vec::new();
    let mut stamp: u32 = 0;
    // Scratch buffer reused by every conflict-list merge (allocation
    // hygiene: no fresh Vec per created facet).
    let mut candidates: Vec<u32> = Vec::new();
    for v in (dim as u32 + 1)..n as u32 {
        // R = alive facets visible from v (Line 5 of Algorithm 2).
        let r_set: Vec<u32> = point_conflicts[v as usize]
            .iter()
            .copied()
            .filter(|&f| alive[f as usize])
            .collect();
        if r_set.is_empty() {
            continue; // v is inside the current hull
        }
        stamp += 1;
        if in_r_stamp.len() < facets.len() {
            in_r_stamp.resize(facets.len(), 0);
        }
        for &f in &r_set {
            in_r_stamp[f as usize] = stamp;
        }

        // Boundary ridges of R: incident to one visible and one invisible
        // facet (Line 6); the pair (t1 visible, t2 invisible) is the
        // support set of the new facet (Fact 5.2).
        let mut boundary: Vec<(RidgeKey, u32, u32)> = Vec::new();
        for &t1 in &r_set {
            let verts = facets[t1 as usize].verts;
            for omit in 0..dim {
                let r = ridge_omitting(&verts, dim, omit);
                let t2 = adj.neighbor(&r, t1);
                debug_assert_ne!(t2, NO_FACET, "hull not closed at ridge");
                if in_r_stamp[t2 as usize] != stamp {
                    boundary.push((r, t1, t2));
                }
            }
        }

        // Naive dependence level of this insertion: one past every facet
        // the pivot touches (removed or adjacent), as a synchronous
        // point-at-a-time scheduler would have to wait for.
        let naive_level = 1 + r_set
            .iter()
            .map(|&t| naive_depth[t as usize])
            .chain(boundary.iter().map(|&(_, _, t2)| naive_depth[t2 as usize]))
            .max()
            .unwrap_or(0);
        if naive_level as u64 > stats.naive_dep_depth {
            stats.naive_dep_depth = naive_level as u64;
        }

        // Delete R (Line 11, done first so adjacency stays <= 2 per ridge).
        for &t in &r_set {
            alive[t as usize] = false;
            let verts = facets[t as usize].verts;
            for omit in 0..dim {
                adj.remove(&ridge_omitting(&verts, dim, omit), t);
            }
        }

        // Create one new facet per boundary ridge (Lines 7-10).
        let mut insert_depth = 0u32;
        for (r, t1, t2) in boundary {
            let verts = join_ridge(&r, dim, v);
            merge_conflicts_into(
                &facets[t1 as usize].conflicts,
                &facets[t2 as usize].conflicts,
                &mut candidates,
            );
            let (facet, counts) = ctx.make_facet(verts, &candidates, v);
            stats.absorb_kernel(&counts);
            let d = 1 + depth[t1 as usize].max(depth[t2 as usize]);
            insert_depth = insert_depth.max(d);
            register(
                facet,
                d,
                &mut facets,
                &mut alive,
                &mut depth,
                &mut created,
                &mut adj,
                &mut point_conflicts,
                &mut stats,
            );
            naive_depth.push(naive_level);
            parents.push([t1, t2]);
        }
        if chull_obs::armed() {
            crate::telemetry::engine_metrics()
                .seq_insert_depth
                .record(insert_depth as u64);
        }
    }

    let hull_facets: Vec<FacetVerts> = facets
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(f, _)| f.verts)
        .collect();
    stats.hull_facets = hull_facets.len() as u64;
    SeqRun {
        output: HullOutput {
            dim,
            facets: hull_facets,
        },
        stats,
        depths: depth,
        created,
        facets,
        alive,
        parents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::prepare_points;
    use chull_geometry::generators;
    use chull_geometry::Point2i;

    fn hull_2d(points: &[Point2i]) -> SeqRun {
        let pts = PointSet::from_points2(points);
        incremental_hull_run(&pts)
    }

    #[test]
    fn merge_conflicts_dedups() {
        assert_eq!(merge_conflicts(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_conflicts(&[], &[1]), vec![1]);
        assert_eq!(merge_conflicts(&[4], &[]), vec![4]);
        assert_eq!(merge_conflicts(&[7, 8], &[7, 8]), vec![7, 8]);
    }

    #[test]
    fn square_with_interior_point() {
        let run = hull_2d(&[
            Point2i::new(0, 0),
            Point2i::new(10, 0),
            Point2i::new(0, 10),
            Point2i::new(10, 10),
            Point2i::new(5, 5),
        ]);
        assert_eq!(run.output.num_facets(), 4);
        let verts = run.output.vertices();
        assert!(
            !verts.contains(&4),
            "interior point must not be a hull vertex"
        );
        assert_eq!(verts.len(), 4);
    }

    #[test]
    fn triangle_only() {
        let run = hull_2d(&[Point2i::new(0, 0), Point2i::new(5, 0), Point2i::new(0, 5)]);
        assert_eq!(run.output.num_facets(), 3);
        assert_eq!(run.stats.facets_created, 3);
        assert_eq!(run.stats.dep_depth, 0);
    }

    #[test]
    fn simplex_3d_plus_inside() {
        let pts = PointSet::from_rows(
            3,
            &[
                vec![0, 0, 0],
                vec![10, 0, 0],
                vec![0, 10, 0],
                vec![0, 0, 10],
                vec![1, 1, 1],
                vec![2, 1, 1],
            ],
        );
        let run = incremental_hull_run(&pts);
        assert_eq!(run.output.num_facets(), 4);
        assert_eq!(run.output.vertices().len(), 4);
    }

    #[test]
    fn octahedron_3d() {
        let pts = PointSet::from_rows(
            3,
            &[
                vec![10, 0, 0],
                vec![0, 10, 0],
                vec![0, 0, 10],
                vec![-10, 1, 2], // perturbed to keep the seed simplex honest
                vec![1, -10, 1],
                vec![2, 1, -10],
            ],
        );
        let run = incremental_hull_run(&pts);
        // All 6 points extreme; triangulated hull of 6 vertices in convex
        // position: Euler gives F = 2V - 4 = 8.
        assert_eq!(run.output.vertices().len(), 6);
        assert_eq!(run.output.num_facets(), 8);
    }

    #[test]
    fn hull_2d_matches_convex_position_count() {
        // All parabola points are hull vertices; 2D hull has V facets.
        let pts = PointSet::from_points2(&generators::parabola_2d(50, 3));
        let pts = prepare_points(&pts, 1);
        let run = incremental_hull_run(&pts);
        assert_eq!(run.output.vertices().len(), 50);
        assert_eq!(run.output.num_facets(), 50);
    }

    #[test]
    fn depth_grows_logarithmically_2d() {
        for (n, seed) in [(500usize, 2u64), (2000, 3)] {
            let pts = PointSet::from_points2(&generators::disk_2d(n, 1 << 20, seed));
            let pts = prepare_points(&pts, seed);
            let run = incremental_hull_run(&pts);
            let hn = run.stats.harmonic();
            // Theorem 4.2 bound with sigma = g k e^2 ~ 29.6.
            assert!(
                (run.stats.dep_depth as f64) < 30.0 * hn,
                "depth {} too large for n = {n}",
                run.stats.dep_depth
            );
            assert!(run.stats.dep_depth >= 3);
        }
    }

    #[test]
    fn created_and_depths_parallel_arrays() {
        let pts = PointSet::from_points2(&generators::disk_2d(200, 1 << 20, 9));
        let pts = prepare_points(&pts, 4);
        let run = incremental_hull_run(&pts);
        assert_eq!(run.created.len(), run.depths.len());
        assert_eq!(run.created.len() as u64, run.stats.facets_created);
        assert_eq!(
            run.depths.iter().copied().max().unwrap() as u64,
            run.stats.dep_depth
        );
    }

    #[test]
    fn naive_depth_dominates_support_depth() {
        // E12a: the support-free ("wait for everything the pivot touches")
        // dependence depth is always >= the paper's support-based depth,
        // and typically much larger at scale.
        for seed in 0..3u64 {
            let pts = PointSet::from_points2(&generators::disk_2d(2000, 1 << 20, seed));
            let pts = prepare_points(&pts, seed + 30);
            let run = incremental_hull_run(&pts);
            assert!(run.stats.naive_dep_depth >= run.stats.dep_depth);
        }
    }

    #[test]
    fn kernel_counters_partition_visibility_tests() {
        let pts = PointSet::from_points2(&generators::disk_2d(500, 1 << 20, 12));
        let pts = prepare_points(&pts, 5);
        let run = incremental_hull_run(&pts);
        let s = &run.stats;
        assert_eq!(
            s.visibility_tests,
            s.filter_hits + s.i128_fallbacks + s.bigint_fallbacks,
            "kernel stages must partition the tests"
        );
        assert!(
            s.filter_hits > 0,
            "generic input should mostly resolve in the filter"
        );
    }

    #[test]
    fn collinear_interior_points_tolerated() {
        // Collinear points strictly inside the hull are fine.
        let run = hull_2d(&[
            Point2i::new(0, 0),
            Point2i::new(100, 0),
            Point2i::new(0, 100),
            Point2i::new(100, 100),
            Point2i::new(10, 10),
            Point2i::new(20, 20),
            Point2i::new(30, 30),
        ]);
        assert_eq!(run.output.vertices().len(), 4);
    }
}
