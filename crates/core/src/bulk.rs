//! The **prefilter** of the one build-from-known-rows constructor,
//! [`HullBuilder::seed_from_bulk`](crate::online::HullBuilder::seed_from_bulk),
//! used by cold start, WAL replay, follower bootstrap, survivor rebuilds
//! and snapshot compaction.
//!
//! When the *entire* input is already known, a quickhull-style opening
//! (ParGeo's `parallelQuickHull`; SNIPPETS.md Snippet 3) discards most of
//! a fat point cloud with a few sign tests per point: build the hull of
//! a handful of directional extremes, then drop every point *strictly
//! inside* it. The survivors go through one Algorithm 3 install, which
//! locates each of them output-sensitively, so no further pruning pays
//! for itself. Every sign test runs on the same staged exact kernel
//! ([`chull_geometry::kernel`]) as the incremental algorithms, so the
//! filter is exact and deterministic.
//!
//! Points lying exactly **on** an extreme-hull facet are kept. A
//! globally weakly-extreme point (e.g. the middle of three collinear
//! boundary points) is never strictly inside the hull of any subset, so
//! Algorithm 2 still gets to make the same keep-or-drop decision for it,
//! in the same ascending-id order, that an incremental replay would
//! have made. That is what makes the bulk-seeded hull *canonically
//! identical* to Algorithm 2 even on degenerate (collinear /
//! duplicate-heavy) inputs; see DESIGN §S21.

use crate::seq::incremental_hull_run;
use chull_geometry::{Hyperplane, KernelCounts, PointSet, Sign};

/// Telemetry of one bulk build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BulkReport {
    /// Points the build started from.
    pub input: usize,
    /// Points surviving the prefilter (installed by Algorithm 3).
    pub candidates: usize,
    /// The caller fell back to plain incremental replay (degenerate
    /// input with no `d + 1` affinely independent prefix).
    pub fallback: bool,
}

/// The probe directions of [`prefilter`]: ±axis for every axis, plus
/// every ± sign pattern of the all-ones diagonal in low dimension (2^d
/// stays tiny for d ≤ 4; higher dimensions make do with the axes and the
/// main diagonal). A fixed list + lowest-id tie-break = deterministic.
fn probe_directions(dim: usize) -> Vec<Vec<i64>> {
    let mut dirs: Vec<Vec<i64>> = Vec::new();
    for axis in 0..dim {
        let mut w = vec![0i64; dim];
        w[axis] = 1;
        dirs.push(w.clone());
        w[axis] = -1;
        dirs.push(w);
    }
    if dim <= 4 {
        for mask in 0..(1u32 << dim) {
            dirs.push(
                (0..dim)
                    .map(|a| if mask >> a & 1 == 0 { 1 } else { -1 })
                    .collect(),
            );
        }
    } else {
        dirs.push(vec![1; dim]);
        dirs.push(vec![-1; dim]);
    }
    dirs
}

/// The sign tests [`prefilter`] spends per point: one per probe
/// direction, which is the most facets its extreme hull can have in the
/// plane. `n ×` this is the budget
/// [`HullBuilder::repair`](crate::online::HullBuilder::repair) weighs its
/// own sign tests against.
pub fn prefilter_facets(dim: usize) -> usize {
    probe_directions(dim).len()
}

/// The facets of the hull of `rows`, as `(plane, visible sign)` pairs:
/// a point is strictly inside iff no plane gives it `Zero` or the
/// visible sign. Algorithm 2 builds it from the greedy affine basis (in
/// row order) followed by the remaining rows. `None` when the rows are
/// not full-dimensional.
pub fn hull_facets(dim: usize, rows: &[&[i64]]) -> Option<Vec<(Hyperplane, Sign)>> {
    let mut basis: Vec<usize> = Vec::with_capacity(dim + 1);
    for i in 0..rows.len() {
        let mut sel: Vec<&[i64]> = basis.iter().map(|&b| rows[b]).collect();
        sel.push(rows[i]);
        if chull_geometry::exact::affine_rank(&sel) == sel.len() {
            basis.push(i);
            if basis.len() == dim + 1 {
                break;
            }
        }
    }
    if basis.len() < dim + 1 {
        return None;
    }
    let mut sub = PointSet::new(dim);
    for &i in &basis {
        sub.push(rows[i]);
    }
    for (i, r) in rows.iter().enumerate() {
        if !basis.contains(&i) {
            sub.push(r);
        }
    }
    let run = incremental_hull_run(&sub);
    Some(
        run.facets
            .into_iter()
            .zip(run.alive)
            .filter(|(_, alive)| *alive)
            .map(|(f, _)| (f.plane, f.visible_sign))
            .collect(),
    )
}

/// Ascending ids of every point of `pts` not strictly inside the hull
/// of its directional extremes (per-axis min/max plus, in low
/// dimension, the diagonal directions). The extreme hull is spanned by
/// input points, so its strict interior is inside the full hull's
/// strict interior: points there can never be weakly extreme. Points
/// on an extreme-hull facet are kept (see the module docs). Returns
/// every id when the extremes are affinely degenerate (flat input).
pub fn prefilter(pts: &PointSet) -> Vec<u32> {
    let dim = pts.dim();
    let n = pts.len() as u32;
    if n == 0 {
        return Vec::new();
    }
    let mut extremes: Vec<u32> = probe_directions(dim)
        .iter()
        .map(|w| {
            let dot = |id: u32| -> i64 { pts.pt(id).iter().zip(w).map(|(c, k)| c * k).sum() };
            let mut best = 0;
            let mut best_dot = dot(best);
            for id in 1..n {
                let d = dot(id);
                if d > best_dot {
                    best = id;
                    best_dot = d;
                }
            }
            best
        })
        .collect();
    extremes.sort_unstable();
    extremes.dedup();
    // Degenerate extremes mean a flat input — nothing is safe to filter.
    let rows: Vec<&[i64]> = extremes.iter().map(|&id| pts.pt(id)).collect();
    let Some(facets) = hull_facets(dim, &rows) else {
        return (0..n).collect();
    };
    let mut is_extreme = vec![false; pts.len()];
    for &id in &extremes {
        is_extreme[id as usize] = true;
    }
    // Strictly inside the extreme hull = on the invisible side of every
    // facet; `Zero` (on a facet) or visible (outside) both keep the point.
    let mut counts = KernelCounts::default();
    (0..n)
        .filter(|&id| {
            is_extreme[id as usize]
                || facets.iter().any(|(plane, visible)| {
                    let s = plane.sign_point(pts.pt(id), &mut counts);
                    s == Sign::Zero || s == *visible
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::prepare_points;
    use chull_geometry::generators;

    #[test]
    fn survivors_superset_of_hull_vertices() {
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(1500, 1 << 20, 3)),
            4,
        );
        let run = incremental_hull_run(&pts);
        let cands = prefilter(&pts);
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
        let cand_set: std::collections::HashSet<u32> = cands.iter().copied().collect();
        for v in run.output.vertices() {
            assert!(cand_set.contains(&v), "hull vertex {v} pruned");
        }
        // The whole point: most of a uniform disk is pruned.
        assert!(
            cands.len() * 2 < pts.len(),
            "only pruned to {} of {}",
            cands.len(),
            pts.len()
        );
    }

    #[test]
    fn degenerate_and_tiny_inputs_survive() {
        // All collinear: nothing can be pruned (rank-deficient extremes).
        let rows: Vec<Vec<i64>> = (0..600i64).map(|i| vec![i, 2 * i]).collect();
        let pts = PointSet::from_rows(2, &rows);
        assert_eq!(prefilter(&pts).len(), 600, "flat input must not be pruned");
        let pts = PointSet::from_rows(2, &[vec![0, 0], vec![5, 0]]);
        assert_eq!(prefilter(&pts), vec![0, 1]);
        assert!(prefilter(&PointSet::new(3)).is_empty());
    }

    #[test]
    fn weak_boundary_points_are_kept() {
        // The extremes are a, d and c. b sits exactly on the extreme-hull
        // edge a-c: it must survive (a replay may make it a weak vertex),
        // while strictly interior points drop.
        let pts = PointSet::from_rows(
            2,
            &[
                vec![0, 0],  // a
                vec![0, 10], // d
                vec![20, 0], // c
                vec![10, 0], // b: on segment a-c
                vec![5, 2],  // strictly interior
                vec![12, 1], // strictly interior
                vec![1, 1],  // strictly interior
            ],
        );
        assert_eq!(prefilter(&pts), vec![0, 1, 2, 3]);
    }
}
