//! Shared geometric context for the hull algorithms: exact visibility tests
//! against an interior reference point.
//!
//! Every facet stores the orientation sign that means "visible". That sign
//! is fixed at facet creation by orienting against a reference point that is
//! strictly interior to the hull — the centroid of the initial simplex,
//! kept exact as the homogeneous row `(sum of simplex vertices, d + 1)`.
//!
//! Visibility tests run on the **staged kernel**
//! ([`chull_geometry::kernel`]): each facet caches its exact hyperplane at
//! creation ([`HullContext::make_facet`]), and every test is an `O(d)`
//! filtered dot-product sign instead of a fresh `O(d³)` orientation
//! determinant. The staged sign is bit-identical to [`orientd`], so hulls,
//! facet-creation sequences, and test counts are unchanged — only cheaper.

use crate::facet::{Facet, FacetVerts, MAX_DIM};
use chull_geometry::predicates::{orientd, orientd_hom};
use chull_geometry::{Hyperplane, KernelCounts, PointSet, Sign};

/// Immutable geometric context shared by one hull construction.
pub struct HullContext<'a> {
    /// The (already permuted) input points; index order == insertion order.
    pub pts: &'a PointSet,
    /// Dimension `d`.
    pub dim: usize,
    /// Coordinate sums of the initial simplex vertices (homogeneous
    /// numerator of the interior centroid).
    interior_row: Vec<i64>,
    /// Homogeneous weight of the interior centroid (`d + 1`).
    interior_hom: i64,
}

impl<'a> HullContext<'a> {
    /// Build the context from the `d + 1` affinely independent initial
    /// simplex vertices.
    pub fn new(pts: &'a PointSet, simplex: &[u32]) -> HullContext<'a> {
        let dim = pts.dim();
        assert!((2..=MAX_DIM).contains(&dim), "dimension out of range");
        assert_eq!(
            simplex.len(),
            dim + 1,
            "initial simplex needs d + 1 vertices"
        );
        let mut interior_row = vec![0i64; dim];
        for &v in simplex {
            for (acc, &c) in interior_row.iter_mut().zip(pts.pt(v)) {
                *acc += c;
            }
        }
        HullContext {
            pts,
            dim,
            interior_row,
            interior_hom: dim as i64 + 1,
        }
    }

    /// The exact hyperplane through the facet's vertices, oriented to match
    /// [`orientd`] with the query as the last row.
    pub fn plane_for(&self, verts: &FacetVerts) -> Hyperplane {
        let mut rows: [&[i64]; MAX_DIM] = [&[]; MAX_DIM];
        for i in 0..self.dim {
            rows[i] = self.pts.pt(verts[i]);
        }
        Hyperplane::new(self.dim, &rows[..self.dim])
    }

    /// Orientation sign of the facet's vertices (in sorted order) against
    /// query point `q`, evaluated as a fresh `O(d³)` determinant.
    ///
    /// This is the **naive reference kernel**: the staged kernel used by
    /// [`HullContext::make_facet`] / [`HullContext::is_visible`] must agree
    /// with it bit-for-bit (property-tested), and the `predicates` bench
    /// compares their cost.
    #[inline]
    pub fn sign_vs_point(&self, verts: &FacetVerts, q: u32) -> Sign {
        let mut rows: [&[i64]; MAX_DIM + 1] = [&[]; MAX_DIM + 1];
        for i in 0..self.dim {
            rows[i] = self.pts.pt(verts[i]);
        }
        rows[self.dim] = self.pts.pt(q);
        orientd(self.dim, &rows[..=self.dim])
    }

    /// Orientation sign of the facet's vertices against the interior
    /// reference point. Panics if zero (the reference point would lie on the
    /// facet's hyperplane, impossible for a point interior to the hull).
    pub fn sign_vs_interior(&self, verts: &FacetVerts) -> Sign {
        let mut rows: Vec<(&[i64], i64)> = Vec::with_capacity(self.dim + 1);
        for &v in &verts[..self.dim] {
            rows.push((self.pts.pt(v), 1));
        }
        rows.push((self.interior_row.as_slice(), self.interior_hom));
        let s = orientd_hom(self.dim, &rows);
        assert_ne!(
            s,
            Sign::Zero,
            "interior reference point on a facet hyperplane: degenerate input \
             (the core algorithms require general position; see DESIGN.md)"
        );
        s
    }

    /// The sign that means "visible" for a facet with these vertices:
    /// the opposite side from the hull interior.
    #[inline]
    pub fn visible_sign_for(&self, verts: &FacetVerts) -> Sign {
        self.sign_vs_interior(verts).negate()
    }

    /// Is point `q` strictly visible from (i.e. in conflict with) `facet`?
    /// Points exactly on the hyperplane are *not* visible.
    ///
    /// Uses the facet's cached plane via the staged kernel; counters are
    /// discarded (see [`HullContext::is_visible_counted`] to keep them).
    #[inline]
    pub fn is_visible(&self, facet: &Facet, q: u32) -> bool {
        let mut counts = KernelCounts::default();
        self.is_visible_counted(facet, q, &mut counts)
    }

    /// [`HullContext::is_visible`], accumulating staged-kernel counters.
    #[inline]
    pub fn is_visible_counted(&self, facet: &Facet, q: u32, counts: &mut KernelCounts) -> bool {
        self.kernel_sign(facet, q, counts) == facet.visible_sign
    }

    /// One visibility-test sign through the staged kernel.
    #[inline]
    fn kernel_sign(&self, facet: &Facet, q: u32, counts: &mut KernelCounts) -> Sign {
        facet.plane.sign_point(self.pts.pt(q), counts)
    }

    /// Create a facet: computes its cached hyperplane and visible
    /// orientation once, then filters its conflict list from `candidates`
    /// (which must be sorted ascending); `skip` (the just-inserted pivot)
    /// is excluded. Returns the facet and the staged-kernel counters for
    /// the visibility tests performed (`counts.tests` of them).
    pub fn make_facet(
        &self,
        verts: FacetVerts,
        candidates: &[u32],
        skip: u32,
    ) -> (Facet, KernelCounts) {
        let plane = self.plane_for(&verts);
        let s = plane.sign_hom(&self.interior_row, self.interior_hom);
        assert_ne!(
            s,
            Sign::Zero,
            "interior reference point on a facet hyperplane: degenerate input \
             (the core algorithms require general position; see DESIGN.md)"
        );
        let visible_sign = s.negate();
        let mut facet = Facet {
            verts,
            visible_sign,
            conflicts: Vec::new(),
            plane,
        };
        let mut counts = KernelCounts::default();
        for &q in candidates {
            if q == skip {
                continue;
            }
            if self.kernel_sign(&facet, q, &mut counts) == visible_sign {
                facet.conflicts.push(q);
            }
        }
        (facet, counts)
    }
}

/// Select `d + 1` affinely independent points, scanning from the front of
/// the point set; returns their indices in scan order.
///
/// Panics if the input is fully degenerate (affine rank < d + 1).
pub fn initial_simplex(pts: &PointSet) -> Vec<u32> {
    let dim = pts.dim();
    let mut chosen: Vec<u32> = Vec::with_capacity(dim + 1);
    for i in 0..pts.len() {
        let mut rows: Vec<&[i64]> = chosen.iter().map(|&c| pts.pt(c)).collect();
        rows.push(pts.point(i));
        if chull_geometry::exact::affine_rank(&rows) == rows.len() {
            chosen.push(i as u32);
            if chosen.len() == dim + 1 {
                return chosen;
            }
        }
    }
    panic!(
        "input is degenerate: affine rank {} < {} (need d + 1 affinely independent points)",
        chosen.len(),
        dim + 1
    );
}

/// Permute `pts` uniformly at random (seeded), then rotate the lexically
/// smallest affinely independent `d + 1` points to the front so the seed
/// simplex exists. Returns the permuted point set.
///
/// The randomized incremental analysis assumes a uniformly random order;
/// promoting the first independent `d + 1` points perturbs that order by
/// `O(1)` positions in expectation for general-position inputs (where the
/// first `d + 1` points are already independent with probability 1).
pub fn prepare_points(pts: &PointSet, seed: u64) -> PointSet {
    prepare_points_with_perm(pts, seed).0
}

/// Like [`prepare_points`], additionally returning the permutation:
/// `perm[i]` is the index *in the original input* of prepared point `i`
/// (use it to translate hull vertex ids back to input ids).
pub fn prepare_points_with_perm(pts: &PointSet, seed: u64) -> (PointSet, Vec<usize>) {
    let perm = chull_geometry::generators::random_permutation(pts.len(), seed);
    let shuffled = pts.permuted(&perm);
    let simplex = initial_simplex(&shuffled);
    // Stable-move the simplex indices to the front.
    let simplex_set: std::collections::HashSet<usize> =
        simplex.iter().map(|&v| v as usize).collect();
    let mut order: Vec<usize> = simplex.iter().map(|&v| v as usize).collect();
    order.extend((0..shuffled.len()).filter(|i| !simplex_set.contains(i)));
    let composed: Vec<usize> = order.iter().map(|&i| perm[i]).collect();
    (shuffled.permuted(&order), composed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facet::facet_verts;
    use chull_geometry::generators;

    fn square_pts() -> PointSet {
        PointSet::from_rows(
            2,
            &[
                vec![0, 0],
                vec![10, 0],
                vec![0, 10],
                vec![10, 10],
                vec![5, 5],
            ],
        )
    }

    #[test]
    fn initial_simplex_picks_first_independent() {
        let pts = square_pts();
        assert_eq!(initial_simplex(&pts), vec![0, 1, 2]);
        // With a collinear prefix, the scan skips the dependent point.
        let pts = PointSet::from_rows(2, &[vec![0, 0], vec![1, 1], vec![2, 2], vec![5, 0]]);
        assert_eq!(initial_simplex(&pts), vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn initial_simplex_panics_on_flat_input() {
        let pts = PointSet::from_rows(2, &[vec![0, 0], vec![1, 1], vec![2, 2], vec![3, 3]]);
        initial_simplex(&pts);
    }

    #[test]
    fn visibility_against_interior() {
        let pts = square_pts();
        let ctx = HullContext::new(&pts, &[0, 1, 2]);
        // Facet {0, 1} is the bottom edge; point 3 = (10, 10) is above it
        // (same side as the interior), point at (5, -5) would be visible —
        // emulate by checking the sign directly.
        let verts = facet_verts(&[0, 1]);
        let vis = ctx.visible_sign_for(&verts);
        assert_ne!(vis, Sign::Zero);
        assert_ne!(
            ctx.sign_vs_point(&verts, 3),
            vis,
            "interior-side point visible"
        );
        // Point 4 = (5,5) strictly inside: not visible from any facet.
        for pair in [[0u32, 1], [0, 2], [1, 2]] {
            let verts = facet_verts(&pair);
            let (facet, _) = ctx.make_facet(verts, &[3, 4], u32::MAX);
            assert!(!ctx.is_visible(&facet, 4));
        }
    }

    #[test]
    fn make_facet_counts_tests_and_filters() {
        let pts = PointSet::from_rows(
            2,
            &[
                vec![0, 0],
                vec![10, 0],
                vec![0, 10],
                vec![5, -5],
                vec![5, 5],
                vec![20, -1],
            ],
        );
        let ctx = HullContext::new(&pts, &[0, 1, 2]);
        let verts = facet_verts(&[0, 1]); // bottom edge
        let (facet, counts) = ctx.make_facet(verts, &[3, 4, 5], u32::MAX);
        assert_eq!(counts.tests, 3);
        assert_eq!(
            counts.tests,
            counts.filter_hits + counts.i128_fallbacks + counts.bigint_fallbacks,
            "every test resolves in exactly one kernel stage"
        );
        // (5,-5) and (20,-1) are below the bottom edge; (5,5) is not.
        assert_eq!(facet.conflicts, vec![3, 5]);
        let (_, counts) = ctx.make_facet(verts, &[3, 4, 5], 3);
        assert_eq!(counts.tests, 2, "skip must not be tested");
    }

    #[test]
    fn staged_kernel_matches_naive_reference() {
        let pts = square_pts();
        let ctx = HullContext::new(&pts, &[0, 1, 2]);
        for pair in [[0u32, 1], [0, 2], [1, 2]] {
            let verts = facet_verts(&pair);
            let (facet, _) = ctx.make_facet(verts, &[], u32::MAX);
            let mut counts = KernelCounts::default();
            for q in 0..pts.len() as u32 {
                assert_eq!(
                    facet.plane.sign_point(pts.pt(q), &mut counts),
                    ctx.sign_vs_point(&verts, q),
                    "facet {pair:?} vs point {q}"
                );
            }
        }
    }

    #[test]
    fn prepare_points_perm_maps_back_to_input() {
        let pts = PointSet::from_points2(&generators::disk_2d(50, 1 << 20, 7));
        let (prepared, perm) = prepare_points_with_perm(&pts, 3);
        assert_eq!(perm.len(), 50);
        for (i, &p) in perm.iter().enumerate() {
            assert_eq!(prepared.point(i), pts.point(p), "index {i}");
        }
        // perm is a permutation.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn prepare_points_deterministic_and_independent_prefix() {
        let pts = PointSet::from_points2(&generators::disk_2d(64, 1 << 20, 5));
        let a = prepare_points(&pts, 9);
        let b = prepare_points(&pts, 9);
        assert_eq!(a, b);
        let c = prepare_points(&pts, 10);
        assert_ne!(a, c);
        // First d + 1 of the prepared set must be affinely independent.
        let rows: Vec<&[i64]> = (0..3).map(|i| a.point(i)).collect();
        assert_eq!(chull_geometry::exact::affine_rank(&rows), 3);
    }
}
