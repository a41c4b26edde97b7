//! Exact geometric predicates over integer coordinates.
//!
//! All predicates are exact for coordinates within
//! [`MAX_COORD`]: the 2D/3D fast paths use `i128`
//! arithmetic whose intermediates provably fit, and everything else routes
//! through the overflow-checked fraction-free determinants of
//! [`crate::exact::det`] (which fall back to arbitrary precision).
//!
//! Sign conventions follow the homogeneous determinant
//! `det [[p_0, 1], [p_1, 1], ..., [p_d, 1]]` (one row per point):
//! in 2D, `orient2d(a, b, c) == Positive` iff `a, b, c` are counterclockwise.

use crate::exact::det::{det_sign_i128, det_sign_i64};
use crate::exact::Sign;
use crate::point::{Point2i, Point3i, MAX_COORD};

/// Coordinate magnitude below which the 3D fast path cannot overflow
/// (three 41-bit factors plus summation slack stay within `i128`).
const ORIENT3D_FAST_LIMIT: i64 = 1 << 40;

#[inline]
fn sign_i128(v: i128) -> Sign {
    if v > 0 {
        Sign::Positive
    } else if v < 0 {
        Sign::Negative
    } else {
        Sign::Zero
    }
}

/// Orientation of the 2D triangle `(a, b, c)`:
/// `Positive` = counterclockwise, `Negative` = clockwise, `Zero` = collinear.
///
/// ```
/// use chull_geometry::{predicates::orient2d, Point2i, Sign};
/// let (a, b) = (Point2i::new(0, 0), Point2i::new(10, 0));
/// assert_eq!(orient2d(a, b, Point2i::new(5, 3)), Sign::Positive);
/// assert_eq!(orient2d(a, b, Point2i::new(5, -3)), Sign::Negative);
/// assert_eq!(orient2d(a, b, Point2i::new(20, 0)), Sign::Zero);
/// ```
#[inline]
pub fn orient2d(a: Point2i, b: Point2i, c: Point2i) -> Sign {
    debug_assert!(
        a.x.abs() <= MAX_COORD && a.y.abs() <= MAX_COORD,
        "coordinate exceeds MAX_COORD"
    );
    let abx = b.x as i128 - a.x as i128;
    let aby = b.y as i128 - a.y as i128;
    let acx = c.x as i128 - a.x as i128;
    let acy = c.y as i128 - a.y as i128;
    sign_i128(abx * acy - aby * acx)
}

/// Orientation of the 3D tetrahedron `(a, b, c, d)`:
/// `Positive` iff `d` is on the positive side of the oriented plane
/// through `a, b, c` (the side a right-handed `abc` normal points away from
/// is `Negative`; concretely this is the sign of the homogeneous 4x4
/// determinant with rows `a, b, c, d`).
pub fn orient3d(a: Point3i, b: Point3i, c: Point3i, d: Point3i) -> Sign {
    let fast_ok = [a, b, c, d].iter().all(|p| {
        p.x.abs() < ORIENT3D_FAST_LIMIT
            && p.y.abs() < ORIENT3D_FAST_LIMIT
            && p.z.abs() < ORIENT3D_FAST_LIMIT
    });
    if fast_ok {
        let adx = (a.x - d.x) as i128;
        let ady = (a.y - d.y) as i128;
        let adz = (a.z - d.z) as i128;
        let bdx = (b.x - d.x) as i128;
        let bdy = (b.y - d.y) as i128;
        let bdz = (b.z - d.z) as i128;
        let cdx = (c.x - d.x) as i128;
        let cdy = (c.y - d.y) as i128;
        let cdz = (c.z - d.z) as i128;
        let det = adx * (bdy * cdz - bdz * cdy) - ady * (bdx * cdz - bdz * cdx)
            + adz * (bdx * cdy - bdy * cdx);
        // det above is det [[a-d],[b-d],[c-d]] which equals the homogeneous
        // det with rows a,b,c,d.
        return sign_i128(det);
    }
    let rows: Vec<Vec<i64>> = [a, b, c, d]
        .iter()
        .map(|p| vec![p.x, p.y, p.z, 1])
        .collect();
    det_sign_i64(&rows)
}

/// Orientation of `d + 1` points in `d` dimensions: the sign of the
/// homogeneous `(d+1) x (d+1)` determinant with one row per point.
///
/// `points` must contain exactly `dim + 1` slices of length `dim`.
pub fn orientd(dim: usize, points: &[&[i64]]) -> Sign {
    assert_eq!(points.len(), dim + 1, "orientd needs dim + 1 points");
    match dim {
        2 => orient2d(
            Point2i::new(points[0][0], points[0][1]),
            Point2i::new(points[1][0], points[1][1]),
            Point2i::new(points[2][0], points[2][1]),
        ),
        3 => orient3d(
            Point3i::new(points[0][0], points[0][1], points[0][2]),
            Point3i::new(points[1][0], points[1][1], points[1][2]),
            Point3i::new(points[2][0], points[2][1], points[2][2]),
            Point3i::new(points[3][0], points[3][1], points[3][2]),
        ),
        _ => {
            let rows: Vec<Vec<i64>> = points
                .iter()
                .map(|p| {
                    assert_eq!(p.len(), dim, "point of wrong dimension");
                    let mut row = p.to_vec();
                    row.push(1);
                    row
                })
                .collect();
            det_sign_i64(&rows)
        }
    }
}

/// Orientation with explicit homogeneous coordinates: the sign of the
/// `(d+1) x (d+1)` determinant whose row `i` is `(rows[i].0, rows[i].1)` —
/// point coordinates followed by the homogeneous weight.
///
/// Used to test against non-lattice reference points exactly: the interior
/// centroid of a simplex `v_0..v_d` is `(sum v_i) / (d+1)`, representable as
/// the homogeneous row `(sum v_i, d+1)`.
pub fn orientd_hom(dim: usize, rows: &[(&[i64], i64)]) -> Sign {
    assert_eq!(rows.len(), dim + 1, "orientd_hom needs dim + 1 rows");
    let m: Vec<Vec<i64>> = rows
        .iter()
        .map(|(p, w)| {
            assert_eq!(p.len(), dim, "point of wrong dimension");
            let mut row = p.to_vec();
            row.push(*w);
            row
        })
        .collect();
    det_sign_i64(&m)
}

/// Incircle test: `Positive` iff `d` lies strictly inside the circle through
/// `a, b, c`, **assuming `(a, b, c)` is counterclockwise**. For a clockwise
/// triangle the sign is flipped.
pub fn incircle(a: Point2i, b: Point2i, c: Point2i, d: Point2i) -> Sign {
    let lift = |p: Point2i| -> Vec<i128> {
        let x = p.x as i128;
        let y = p.y as i128;
        vec![x, y, x * x + y * y, 1]
    };
    let rows = vec![lift(a), lift(b), lift(c), lift(d)];
    // Homogeneous lifted determinant is positive iff d is inside (ccw abc).
    det_sign_i128(&rows)
}

/// Insphere test: `Positive` iff `e` lies strictly inside the sphere through
/// `a, b, c, d`, assuming `orient3d(a, b, c, d) == Positive`; flipped sign
/// for the opposite orientation.
pub fn insphere(a: Point3i, b: Point3i, c: Point3i, d: Point3i, e: Point3i) -> Sign {
    let lift = |p: Point3i| -> Vec<i128> {
        let x = p.x as i128;
        let y = p.y as i128;
        let z = p.z as i128;
        vec![x, y, z, x * x + y * y + z * z, 1]
    };
    let rows = vec![lift(a), lift(b), lift(c), lift(d), lift(e)];
    // The homogeneous lifted determinant is positive iff `e` is inside for a
    // positively-oriented tetrahedron (row-reduce against row `e` to recover
    // the classical translated 4x4 form with cofactor sign +1).
    det_sign_i128(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p2(x: i64, y: i64) -> Point2i {
        Point2i::new(x, y)
    }
    fn p3(x: i64, y: i64, z: i64) -> Point3i {
        Point3i::new(x, y, z)
    }

    #[test]
    fn orient2d_basic() {
        assert_eq!(orient2d(p2(0, 0), p2(1, 0), p2(0, 1)), Sign::Positive);
        assert_eq!(orient2d(p2(0, 0), p2(0, 1), p2(1, 0)), Sign::Negative);
        assert_eq!(orient2d(p2(0, 0), p2(1, 1), p2(2, 2)), Sign::Zero);
    }

    #[test]
    fn orient2d_extreme_coordinates() {
        let m = MAX_COORD;
        assert_eq!(orient2d(p2(-m, -m), p2(m, -m), p2(0, m)), Sign::Positive);
        assert_eq!(orient2d(p2(-m, -m), p2(0, 0), p2(m, m)), Sign::Zero);
        // Off-by-one from collinear must be detected.
        assert_eq!(orient2d(p2(-m, -m), p2(0, 0), p2(m, m - 1)), Sign::Negative);
        assert_eq!(orient2d(p2(-m, -m), p2(0, 0), p2(m - 1, m)), Sign::Positive);
    }

    #[test]
    fn orient3d_basic() {
        // Unit tetrahedron: d above the xy-plane triangle.
        assert_eq!(
            orient3d(p3(0, 0, 0), p3(1, 0, 0), p3(0, 1, 0), p3(0, 0, 1)),
            Sign::Negative
        );
        assert_eq!(
            orient3d(p3(0, 0, 0), p3(0, 1, 0), p3(1, 0, 0), p3(0, 0, 1)),
            Sign::Positive
        );
        assert_eq!(
            orient3d(p3(0, 0, 0), p3(1, 0, 0), p3(0, 1, 0), p3(1, 1, 0)),
            Sign::Zero
        );
    }

    #[test]
    fn orient3d_fast_and_slow_paths_agree() {
        // Same geometry scaled across the fast-path limit.
        let cases = [
            (p3(0, 0, 0), p3(3, 1, 0), p3(1, 4, 0), p3(2, 2, 5)),
            (p3(1, 2, 3), p3(5, 4, 3), p3(2, 8, 6), p3(7, 7, 7)),
        ];
        let s = ORIENT3D_FAST_LIMIT * 2; // push all coords onto slow path
        for (a, b, c, d) in cases {
            let fast = orient3d(a, b, c, d);
            let shift = |p: Point3i| p3(p.x + s, p.y + s, p.z + s);
            // Translation preserves orientation; shifted points force the
            // checked/bigint path.
            let slow = orient3d(shift(a), shift(b), shift(c), shift(d));
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn orientd_matches_low_dim() {
        let a = [0i64, 0];
        let b = [1i64, 0];
        let c = [0i64, 1];
        assert_eq!(orientd(2, &[&a, &b, &c]), Sign::Positive);
        let a = [0i64, 0, 0, 0];
        let b = [1i64, 0, 0, 0];
        let c = [0i64, 1, 0, 0];
        let d = [0i64, 0, 1, 0];
        let e = [0i64, 0, 0, 1];
        let s = orientd(4, &[&a, &b, &c, &d, &e]);
        assert_ne!(s, Sign::Zero);
        // Swapping two points flips the sign.
        let s2 = orientd(4, &[&b, &a, &c, &d, &e]);
        assert_eq!(s2, s.negate());
    }

    #[test]
    fn orientd_degenerate() {
        // 4 points in a 3D plane (z = 0).
        let a = [0i64, 0, 0];
        let b = [5i64, 0, 0];
        let c = [0i64, 5, 0];
        let d = [3i64, 3, 0];
        assert_eq!(orientd(3, &[&a, &b, &c, &d]), Sign::Zero);
    }

    #[test]
    fn incircle_basic() {
        // Unit square corners ccw; center is inside the circumcircle.
        let (a, b, c) = (p2(0, 0), p2(2, 0), p2(0, 2));
        assert_eq!(orient2d(a, b, c), Sign::Positive);
        assert_eq!(incircle(a, b, c, p2(1, 1)), Sign::Positive);
        assert_eq!(incircle(a, b, c, p2(10, 10)), Sign::Negative);
        // Fourth cocircular point: (2, 2) on the circle through the others.
        assert_eq!(incircle(a, b, c, p2(2, 2)), Sign::Zero);
        // Clockwise triangle flips the sign.
        assert_eq!(incircle(a, c, b, p2(1, 1)), Sign::Negative);
    }

    #[test]
    fn insphere_basic() {
        let (a, b, c, d) = (p3(0, 0, 0), p3(2, 0, 0), p3(0, 2, 0), p3(0, 0, 2));
        let orient = orient3d(a, b, c, d);
        assert_ne!(orient, Sign::Zero);
        let inside = insphere(a, b, c, d, p3(1, 1, 1));
        let outside = insphere(a, b, c, d, p3(10, 10, 10));
        // Regardless of base orientation, inside/outside must disagree.
        assert_eq!(inside, outside.negate());
        // Co-spherical point: (2,2,0) lies on the circumsphere (it is a
        // vertex of the cube whose diagonal sphere passes through all).
        assert_eq!(insphere(a, b, c, d, p3(2, 2, 0)), Sign::Zero);
        // Orientation-normalized check: inside point reports Positive for a
        // positively-oriented tetrahedron.
        let (a2, b2, c2, d2) = if orient == Sign::Positive {
            (a, b, c, d)
        } else {
            (b, a, c, d)
        };
        assert_eq!(insphere(a2, b2, c2, d2, p3(1, 1, 1)), Sign::Positive);
    }

    #[test]
    fn incircle_large_coordinates() {
        // Lifted entries overflow naive i64; verify the i128/bigint path.
        let s = 1 << 60;
        let (a, b, c) = (p2(0, 0), p2(s, 0), p2(0, s));
        assert_eq!(incircle(a, b, c, p2(s / 2, s / 2)), Sign::Positive);
        assert_eq!(incircle(a, b, c, p2(s, s)), Sign::Zero);
        assert_eq!(incircle(a, b, c, p2(s, s + 1)), Sign::Negative);
    }
}
