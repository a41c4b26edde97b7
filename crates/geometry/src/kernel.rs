//! Staged exact visibility kernel: cached facet hyperplanes with a
//! floating-point filter in front of exact integer evaluation.
//!
//! The randomized incremental hull spends almost all of its work in
//! visibility tests (`O(n^⌊d/2⌋ + n log n)` expected, Theorems 5.4/5.5
//! of the source paper). Evaluating each test as a fresh `(d+1)×(d+1)`
//! orientation determinant costs `O(d³)` per query. This module instead
//! computes the facet's hyperplane once at creation time — exact integer
//! normal and offset, i.e. the cofactors of the orientation matrix along
//! the query row — and answers every subsequent query with an `O(d)` dot
//! product, staged as:
//!
//! 1. **semi-static float filter**: evaluate the dot product in `f64`
//!    together with a running magnitude bound; certify the sign when the
//!    value clears the rounding-error bound (the common case by far),
//! 2. **checked `i128`** exact evaluation when the filter abstains,
//! 3. **`BigInt`** exact evaluation when `i128` would overflow.
//!
//! Every stage computes the sign of the *same* integer quantity, so the
//! staged kernel is bit-for-bit equivalent to
//! [`orientd`](crate::predicates::orientd) — the paper's "exactly the
//! same tests" invariant is untouched; only the cost per test changes.

use crate::exact::bigint::{BigInt, Sign};
use crate::exact::det::{det_i128_bigint, det_i128_checked};

/// Maximum supported dimension (inclusive). Mirrored by `chull-core`.
pub const MAX_DIM: usize = 8;

/// Per-engine counters for the staged kernel: where did visibility tests
/// resolve? `tests == filter_hits + i128_fallbacks + bigint_fallbacks`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Total staged visibility tests evaluated.
    pub tests: u64,
    /// Tests certified by the f64 filter alone (no exact arithmetic).
    pub filter_hits: u64,
    /// Tests that fell through to the checked `i128` dot product.
    pub i128_fallbacks: u64,
    /// Tests that required arbitrary-precision evaluation.
    pub bigint_fallbacks: u64,
    /// History-graph nodes visited by point-location descents (0 for
    /// conflict-list runs and full linear scans, which never descend).
    pub descent_steps: u64,
}

impl KernelCounts {
    /// Accumulate another counter set into `self`.
    #[inline]
    pub fn merge(&mut self, other: &KernelCounts) {
        self.tests += other.tests;
        self.filter_hits += other.filter_hits;
        self.i128_fallbacks += other.i128_fallbacks;
        self.bigint_fallbacks += other.bigint_fallbacks;
        self.descent_steps += other.descent_steps;
    }
}

/// Exact hyperplane coefficients. All-or-nothing: if any cofactor
/// overflows `i128` during construction, every coefficient is stored as
/// a [`BigInt`] so the exact evaluation path stays uniform.
#[derive(Clone, Debug)]
enum Coeffs {
    /// Inline fast path — no heap allocation per facet.
    Small([i128; MAX_DIM + 1]),
    /// Arbitrary-precision fallback (rare: coordinates near `MAX_COORD`
    /// in high dimension).
    Big(Vec<BigInt>),
}

/// A facet's oriented hyperplane, cached at facet creation.
///
/// For facet vertices `p_0 .. p_{d-1}` the coefficients are the cofactors
/// of the homogeneous orientation matrix along the query row:
/// `normal[j] = (-1)^(d+j) * M_{d,j}` for `j < d` and
/// `offset = M_{d,d}` (the pure coordinate minor), so that for any query
/// point `q`
///
/// ```text
/// sign(normal · q + offset) == orientd(p_0, .., p_{d-1}, q)
/// ```
///
/// holds *exactly*, and for a homogeneous row `(r, w)`
/// `sign(normal · r + offset * w) == orientd_hom(.., (r, w))`.
#[derive(Clone, Debug)]
pub struct Hyperplane {
    dim: u32,
    /// f64-rounded coefficients (normal `0..dim`, offset at `dim`) for
    /// the filter stage.
    approx: [f64; MAX_DIM + 1],
    /// Pre-multiplied relative error bound for the filter: certify the
    /// sign of `v` when `|v| > err_factor * (Σ|aⱼqⱼ| + |b|)`.
    err_factor: f64,
    coeffs: Coeffs,
}

#[inline]
fn sign_of_i128(v: i128) -> Sign {
    match v {
        0 => Sign::Zero,
        v if v > 0 => Sign::Positive,
        _ => Sign::Negative,
    }
}

impl Hyperplane {
    /// Build the hyperplane through the `dim` points `rows` (each of
    /// length `dim`), oriented so that evaluation matches `orientd` with
    /// the query appended as the last row.
    pub fn new(dim: usize, rows: &[&[i64]]) -> Hyperplane {
        assert!((2..=MAX_DIM).contains(&dim), "dimension out of range");
        assert_eq!(rows.len(), dim, "hyperplane needs dim points");
        for r in rows {
            assert_eq!(r.len(), dim, "point of wrong dimension");
        }
        let mut small = [0i128; MAX_DIM + 1];
        let mut overflowed = false;
        if dim == 2 {
            // Direct cofactors; always fit i128 for |coords| <= 2^61.
            let (x0, y0) = (rows[0][0] as i128, rows[0][1] as i128);
            let (x1, y1) = (rows[1][0] as i128, rows[1][1] as i128);
            small[0] = y0 - y1;
            small[1] = x1 - x0;
            small[2] = x0 * y1 - y0 * x1;
        } else {
            for (j, slot) in small.iter_mut().enumerate().take(dim + 1) {
                match det_i128_checked(&Self::minor(dim, rows, j)) {
                    Some(v) => {
                        let signed = if (dim + j) % 2 == 1 {
                            v.checked_neg()
                        } else {
                            Some(v)
                        };
                        match signed {
                            Some(s) => *slot = s,
                            None => {
                                overflowed = true;
                                break;
                            }
                        }
                    }
                    None => {
                        overflowed = true;
                        break;
                    }
                }
            }
        }
        let coeffs = if overflowed {
            let mut big = Vec::with_capacity(dim + 1);
            for j in 0..=dim {
                let mut v = det_i128_bigint(&Self::minor(dim, rows, j));
                if (dim + j) % 2 == 1 {
                    v.negate();
                }
                big.push(v);
            }
            Coeffs::Big(big)
        } else {
            Coeffs::Small(small)
        };
        let mut approx = [0.0f64; MAX_DIM + 1];
        match &coeffs {
            Coeffs::Small(c) => {
                for j in 0..=dim {
                    approx[j] = c[j] as f64;
                }
            }
            Coeffs::Big(c) => {
                for j in 0..=dim {
                    approx[j] = c[j].to_f64();
                }
            }
        }
        // Generous forward-error bound: d+1 products and additions in the
        // filter sum plus coefficient rounding (one ulp for i128 casts, a
        // few ulps per limb for BigInt::to_f64). Anything certified here
        // is provably sign-correct; borderline values fall through to the
        // exact stages, so the constant only trades filter hit rate.
        let err_factor = (4 * dim + 16) as f64 * f64::EPSILON;
        Hyperplane {
            dim: dim as u32,
            approx,
            err_factor,
            coeffs,
        }
    }

    /// An all-zero placeholder plane (evaluates to `Sign::Zero` for every
    /// query). Useful as a container default in tests; never produced by
    /// [`Hyperplane::new`] for affinely independent points.
    pub fn placeholder(dim: usize) -> Hyperplane {
        assert!((2..=MAX_DIM).contains(&dim), "dimension out of range");
        Hyperplane {
            dim: dim as u32,
            approx: [0.0; MAX_DIM + 1],
            err_factor: 0.0,
            coeffs: Coeffs::Small([0i128; MAX_DIM + 1]),
        }
    }

    /// The minor `M_{d,j}` of the homogeneous orientation matrix:
    /// drop column `j`, keep the homogeneous 1-column unless `j == dim`.
    fn minor(dim: usize, rows: &[&[i64]], j: usize) -> Vec<Vec<i128>> {
        rows.iter()
            .map(|p| {
                let mut row: Vec<i128> = Vec::with_capacity(dim);
                for (c, &v) in p.iter().enumerate() {
                    if c != j {
                        row.push(v as i128);
                    }
                }
                if j < dim {
                    row.push(1);
                }
                row
            })
            .collect()
    }

    /// The dimension this plane lives in.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Whether the exact coefficients required the `BigInt` representation.
    #[inline]
    pub fn is_big(&self) -> bool {
        matches!(self.coeffs, Coeffs::Big(_))
    }

    /// Staged exact sign of `normal · q + offset`; equals
    /// `orientd(p_0, .., p_{d-1}, q)` bit-for-bit.
    #[inline]
    pub fn sign_point(&self, q: &[i64], counts: &mut KernelCounts) -> Sign {
        counts.tests += 1;
        let d = self.dim as usize;
        debug_assert_eq!(q.len(), d);
        // Stage 1: f64 filter with a semi-static error bound.
        let mut v = self.approx[d];
        let mut mag = v.abs();
        for (&a, &qj) in self.approx[..d].iter().zip(q) {
            let t = a * qj as f64;
            v += t;
            mag += t.abs();
        }
        let err = self.err_factor * mag;
        if v > err {
            counts.filter_hits += 1;
            return Sign::Positive;
        }
        if v < -err {
            counts.filter_hits += 1;
            return Sign::Negative;
        }
        // NaN/inf comparisons both fail above, landing here: exact path.
        self.sign_exact(q, counts)
    }

    /// Exact stages only (checked `i128`, then `BigInt`). Public so a
    /// batched filter ([`PlaneBlock`]) can resolve only its ambiguous
    /// planes exactly; answers match [`Hyperplane::sign_point`] because
    /// both filters certify only provably correct signs.
    pub fn sign_exact(&self, q: &[i64], counts: &mut KernelCounts) -> Sign {
        let d = self.dim as usize;
        match &self.coeffs {
            Coeffs::Small(c) => {
                if let Some(acc) = dot_i128(c, q, d) {
                    counts.i128_fallbacks += 1;
                    return sign_of_i128(acc);
                }
                counts.bigint_fallbacks += 1;
                let mut acc = BigInt::from(c[d]);
                for j in 0..d {
                    acc = acc.add(&BigInt::from(c[j]).mul(&BigInt::from(q[j])));
                }
                acc.sign()
            }
            Coeffs::Big(c) => {
                counts.bigint_fallbacks += 1;
                let mut acc = c[d].clone();
                for j in 0..d {
                    acc = acc.add(&c[j].mul(&BigInt::from(q[j])));
                }
                acc.sign()
            }
        }
    }

    /// Exact sign for a homogeneous row `(r, w)`; equals `orientd_hom`
    /// with `(r, w)` as the last row. Used once per facet (orientation
    /// against the interior reference point), so no filter stage.
    pub fn sign_hom(&self, r: &[i64], w: i64) -> Sign {
        let d = self.dim as usize;
        debug_assert_eq!(r.len(), d);
        match &self.coeffs {
            Coeffs::Small(c) => {
                let acc = (|| {
                    let mut acc = c[d].checked_mul(w as i128)?;
                    for j in 0..d {
                        acc = acc.checked_add(c[j].checked_mul(r[j] as i128)?)?;
                    }
                    Some(acc)
                })();
                match acc {
                    Some(v) => sign_of_i128(v),
                    None => {
                        let mut acc = BigInt::from(c[d]).mul(&BigInt::from(w));
                        for j in 0..d {
                            acc = acc.add(&BigInt::from(c[j]).mul(&BigInt::from(r[j])));
                        }
                        acc.sign()
                    }
                }
            }
            Coeffs::Big(c) => {
                let mut acc = c[d].mul(&BigInt::from(w));
                for j in 0..d {
                    acc = acc.add(&c[j].mul(&BigInt::from(r[j])));
                }
                acc.sign()
            }
        }
    }
}

/// Checked `i128` dot product `Σ c[j]·q[j] + c[d]`.
#[inline]
fn dot_i128(c: &[i128; MAX_DIM + 1], q: &[i64], d: usize) -> Option<i128> {
    let mut acc = c[d];
    for j in 0..d {
        acc = acc.checked_add(c[j].checked_mul(q[j] as i128)?)?;
    }
    Some(acc)
}

/// Chunk width for [`PlaneBlock`] scans: small enough that the value and
/// magnitude accumulator lanes live in registers/L1, wide enough for the
/// compiler to vectorize the per-coefficient inner loops.
const BLOCK_CHUNK: usize = 64;

/// A contiguous structure-of-arrays block of f64-rounded hyperplane
/// coefficients — the batched form of [`Hyperplane::sign_point`]'s filter
/// stage.
///
/// Coefficient `j` of plane `i` lives at `coeffs[j * cap + i]`, where the
/// row stride `cap >= len` leaves room to append planes, so the
/// semi-static filter over many planes against one query point is a tight
/// coefficient-major loop (`d + 1` vectorizable passes over contiguous
/// lanes) instead of a pointer chase through per-facet [`Hyperplane`]s.
/// Per plane, the arithmetic (value and magnitude accumulation order) is
/// identical to the scalar filter, so a sign certified here is certified
/// there and vice versa; ambiguous planes must be resolved through
/// [`Hyperplane::sign_exact`], which keeps every answer bit-identical to
/// the staged scalar kernel.
///
/// A block only grows, by [`PlaneBlock::extend`]; planes already packed
/// never change. Callers build one per hull snapshot, extend it when the
/// snapshot is refreshed, and share it read-only across query threads.
#[derive(Clone, Debug)]
pub struct PlaneBlock {
    dim: usize,
    len: usize,
    /// Row stride: planes the block holds before [`PlaneBlock::extend`]
    /// must repack.
    cap: usize,
    /// SoA coefficients, `(dim + 1) * cap` entries (normal rows first,
    /// the offset row last); lanes `len..cap` of each row are unused.
    coeffs: Vec<f64>,
    /// Filter error bound, as in [`Hyperplane`]: certify when
    /// `|v| > err_factor * Σ|terms|`. A per-dimension constant, and an
    /// upper bound for every plane in the block (including all-zero
    /// placeholders, which can never certify anyway).
    err_factor: f64,
}

impl PlaneBlock {
    /// Pack the f64 coefficient images of `planes` (all of dimension
    /// `dim`) into one SoA block, in iteration order: plane `i` of the
    /// block is the `i`-th yielded hyperplane.
    pub fn from_planes<'a, I>(dim: usize, planes: I) -> PlaneBlock
    where
        I: ExactSizeIterator<Item = &'a Hyperplane>,
    {
        assert!((2..=MAX_DIM).contains(&dim), "dimension out of range");
        let mut block = PlaneBlock {
            dim,
            len: 0,
            cap: 0,
            coeffs: Vec::new(),
            err_factor: (4 * dim + 16) as f64 * f64::EPSILON,
        };
        block.extend(planes);
        block
    }

    /// Append `planes` after the planes already packed: plane `len() + k`
    /// of the result is the `k`-th yielded hyperplane. When the rows run
    /// out of room the block repacks into a stride at least 1.5× larger,
    /// so a block grown plane by plane costs amortized O(new planes). A
    /// grown block answers every query exactly as
    /// [`PlaneBlock::from_planes`] over all its planes would.
    pub fn extend<'a, I>(&mut self, planes: I)
    where
        I: ExactSizeIterator<Item = &'a Hyperplane>,
    {
        let (d, len) = (self.dim, self.len);
        let need = len + planes.len();
        if need > self.cap {
            let cap = need.max(self.cap + self.cap / 2);
            let mut coeffs = vec![0.0f64; (d + 1) * cap];
            for j in 0..=d {
                coeffs[j * cap..j * cap + len]
                    .copy_from_slice(&self.coeffs[j * self.cap..j * self.cap + len]);
            }
            self.coeffs = coeffs;
            self.cap = cap;
        }
        for (i, p) in (len..).zip(planes) {
            assert_eq!(p.dim(), d, "plane of wrong dimension in block");
            for j in 0..=d {
                self.coeffs[j * self.cap + i] = p.approx[j];
            }
        }
        self.len = need;
    }

    /// Number of planes in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the block holds no planes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dimension every plane in the block lives in.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The query point as f64 lanes, computed once per query and reused
    /// across every filter evaluation against this block.
    #[inline]
    pub fn query_row(q: &[i64]) -> [f64; MAX_DIM] {
        let mut qf = [0.0f64; MAX_DIM];
        for (slot, &c) in qf.iter_mut().zip(q) {
            *slot = c as f64;
        }
        qf
    }

    /// Semi-static filter for plane `i` against the prepared query row:
    /// `Some(sign)` when the f64 evaluation clears the error bound,
    /// `None` when the exact stages must decide. Same certification
    /// decision as the scalar filter in [`Hyperplane::sign_point`].
    #[inline]
    pub fn filter_sign(&self, i: u32, qf: &[f64]) -> Option<Sign> {
        let (d, n, i) = (self.dim, self.cap, i as usize);
        debug_assert!(i < self.len);
        let mut v = self.coeffs[d * n + i];
        let mut mag = v.abs();
        for (j, &qj) in qf.iter().enumerate().take(d) {
            let t = self.coeffs[j * n + i] * qj;
            v += t;
            mag += t.abs();
        }
        let err = self.err_factor * mag;
        if v > err {
            Some(Sign::Positive)
        } else if v < -err {
            Some(Sign::Negative)
        } else {
            None
        }
    }

    /// Run the filter over **every** plane in the block against `q`, in
    /// plane order, visiting `(index, certified sign or None)` per plane.
    /// The hot loops are coefficient-major over `BLOCK_CHUNK`-wide
    /// contiguous lanes — the vectorizable full-scan path, benchmarked
    /// against per-facet tests in the `predicates` bench.
    pub fn filter_scan<F: FnMut(u32, Option<Sign>)>(&self, q: &[i64], mut visit: F) {
        let (d, n, cap) = (self.dim, self.len, self.cap);
        debug_assert_eq!(q.len(), d);
        let qf = Self::query_row(q);
        let mut v = [0.0f64; BLOCK_CHUNK];
        let mut mag = [0.0f64; BLOCK_CHUNK];
        let mut base = 0usize;
        while base < n {
            let m = BLOCK_CHUNK.min(n - base);
            let off = &self.coeffs[d * cap + base..d * cap + base + m];
            for i in 0..m {
                v[i] = off[i];
                mag[i] = off[i].abs();
            }
            for (j, &qj) in qf.iter().enumerate().take(d) {
                let col = &self.coeffs[j * cap + base..j * cap + base + m];
                for i in 0..m {
                    let t = col[i] * qj;
                    v[i] += t;
                    mag[i] += t.abs();
                }
            }
            for i in 0..m {
                let err = self.err_factor * mag[i];
                let s = if v[i] > err {
                    Some(Sign::Positive)
                } else if v[i] < -err {
                    Some(Sign::Negative)
                } else {
                    None
                };
                visit((base + i) as u32, s);
            }
            base += m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{orientd, orientd_hom};
    use crate::rng::ChaCha8Rng;

    fn staged(dim: usize, rows: &[&[i64]], q: &[i64]) -> (Sign, KernelCounts) {
        let plane = Hyperplane::new(dim, rows);
        let mut counts = KernelCounts::default();
        let s = plane.sign_point(q, &mut counts);
        (s, counts)
    }

    #[test]
    fn matches_orientd_2d_basic() {
        let a = [0i64, 0];
        let b = [4i64, 0];
        for (q, _expect) in [([2i64, 3], 1), ([2, -3], -1), ([2, 0], 0)] {
            let rows = [&a[..], &b[..]];
            let (s, counts) = staged(2, &rows, &q);
            let naive = orientd(2, &[&a, &b, &q]);
            assert_eq!(s, naive);
            assert_eq!(counts.tests, 1);
        }
    }

    #[test]
    fn random_agreement_all_dims() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for dim in 2..=MAX_DIM {
            for _ in 0..200 {
                let pts: Vec<Vec<i64>> = (0..=dim)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1000i64..=1000)).collect())
                    .collect();
                let rows: Vec<&[i64]> = pts[..dim].iter().map(|p| p.as_slice()).collect();
                let q = pts[dim].as_slice();
                let plane = Hyperplane::new(dim, &rows);
                let mut counts = KernelCounts::default();
                let s = plane.sign_point(q, &mut counts);
                let mut all: Vec<&[i64]> = rows.clone();
                all.push(q);
                assert_eq!(s, orientd(dim, &all), "dim {dim}");
                assert_eq!(
                    counts.tests,
                    counts.filter_hits + counts.i128_fallbacks + counts.bigint_fallbacks
                );
            }
        }
    }

    #[test]
    fn hom_matches_orientd_hom() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for dim in 2..=5 {
            for _ in 0..100 {
                let pts: Vec<Vec<i64>> = (0..dim)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-500i64..=500)).collect())
                    .collect();
                let r: Vec<i64> = (0..dim).map(|_| rng.gen_range(-2000i64..=2000)).collect();
                let w = rng.gen_range(1i64..=5);
                let rows: Vec<&[i64]> = pts.iter().map(|p| p.as_slice()).collect();
                let plane = Hyperplane::new(dim, &rows);
                let mut hom_rows: Vec<(&[i64], i64)> =
                    pts.iter().map(|p| (p.as_slice(), 1)).collect();
                hom_rows.push((r.as_slice(), w));
                assert_eq!(plane.sign_hom(&r, w), orientd_hom(dim, &hom_rows));
            }
        }
    }

    #[test]
    fn filter_certifies_generic_queries() {
        // Far-away query points should resolve in the filter stage.
        let a = [0i64, 0, 0];
        let b = [100i64, 0, 0];
        let c = [0i64, 100, 0];
        let plane = Hyperplane::new(3, &[&a, &b, &c]);
        let mut counts = KernelCounts::default();
        for z in 1..=50i64 {
            plane.sign_point(&[10, 10, z * 1000], &mut counts);
        }
        assert_eq!(counts.tests, 50);
        assert_eq!(
            counts.filter_hits, 50,
            "generic queries must hit the filter"
        );
    }

    #[test]
    fn exact_stage_handles_degenerate_queries() {
        // Points exactly on the plane must return Zero via an exact stage.
        let a = [0i64, 0, 0];
        let b = [100i64, 0, 0];
        let c = [0i64, 100, 0];
        let plane = Hyperplane::new(3, &[&a, &b, &c]);
        let mut counts = KernelCounts::default();
        assert_eq!(plane.sign_point(&[37, 21, 0], &mut counts), Sign::Zero);
        assert_eq!(counts.filter_hits, 0);
        assert_eq!(counts.i128_fallbacks + counts.bigint_fallbacks, 1);
    }

    #[test]
    fn huge_coordinates_take_bigint_construction() {
        // 5D with coordinates near MAX_COORD: minors overflow i128.
        let big = crate::point::MAX_COORD / 2;
        let dim = 5;
        let mut pts: Vec<Vec<i64>> = Vec::new();
        for i in 0..dim {
            let mut p = vec![big; dim];
            p[i] = -big;
            pts.push(p);
        }
        let rows: Vec<&[i64]> = pts.iter().map(|p| p.as_slice()).collect();
        let plane = Hyperplane::new(dim, &rows);
        assert!(plane.is_big(), "coefficients should need BigInt");
        let q = vec![big - 1; dim];
        let mut counts = KernelCounts::default();
        let s = plane.sign_point(&q, &mut counts);
        let mut all = rows.clone();
        all.push(&q);
        assert_eq!(s, orientd(dim, &all));
    }

    #[test]
    fn placeholder_is_zero_everywhere() {
        let p = Hyperplane::placeholder(3);
        let mut counts = KernelCounts::default();
        assert_eq!(p.sign_point(&[1, 2, 3], &mut counts), Sign::Zero);
        assert!(!p.is_big());
    }

    /// Tiny deterministic generator for block tests (xorshift64*).
    fn next_coord(state: &mut u64, bound: i64) -> i64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (2 * bound as u64 + 1)) as i64 - bound
    }

    fn random_planes(dim: usize, n: usize, seed: u64) -> Vec<Hyperplane> {
        let mut state = seed | 1;
        let mut planes = Vec::with_capacity(n);
        while planes.len() < n {
            let pts: Vec<Vec<i64>> = (0..dim)
                .map(|_| (0..dim).map(|_| next_coord(&mut state, 1 << 20)).collect())
                .collect();
            let rows: Vec<&[i64]> = pts.iter().map(|p| p.as_slice()).collect();
            // Skip degenerate samples (affinely dependent defining sets).
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

    #[test]
    fn block_filter_matches_scalar_filter_decision() {
        // For every (plane, query) pair the block must certify exactly
        // when the scalar filter certifies, with the same sign; ambiguous
        // lanes resolved by sign_exact must agree with sign_point.
        for dim in 2..=5usize {
            let planes = random_planes(dim, 40, 0xC0FFEE + dim as u64);
            let block = PlaneBlock::from_planes(dim, planes.iter());
            let mut state = 0xBEEF ^ dim as u64;
            for _ in 0..30 {
                let q: Vec<i64> = (0..dim).map(|_| next_coord(&mut state, 1 << 22)).collect();
                let qf = PlaneBlock::query_row(&q);
                for (i, plane) in planes.iter().enumerate() {
                    let mut scalar = KernelCounts::default();
                    let want = plane.sign_point(&q, &mut scalar);
                    match block.filter_sign(i as u32, &qf) {
                        Some(s) => {
                            assert_eq!(s, want);
                            assert_eq!(scalar.filter_hits, 1, "block certified, scalar must too");
                        }
                        None => {
                            assert_eq!(scalar.filter_hits, 0, "scalar certified, block must too");
                            let mut exact = KernelCounts::default();
                            assert_eq!(plane.sign_exact(&q, &mut exact), want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_scan_matches_per_index_filter_across_chunks() {
        // > BLOCK_CHUNK planes so the scan exercises chunk boundaries.
        let dim = 3;
        let planes = random_planes(dim, 150, 0xFACE);
        let block = PlaneBlock::from_planes(dim, planes.iter());
        assert_eq!(block.len(), 150);
        assert_eq!(block.dim(), dim);
        assert!(!block.is_empty());
        let mut state = 77u64;
        let q: Vec<i64> = (0..dim).map(|_| next_coord(&mut state, 1 << 22)).collect();
        let qf = PlaneBlock::query_row(&q);
        let mut seen = Vec::new();
        block.filter_scan(&q, |i, s| {
            assert_eq!(s, block.filter_sign(i, &qf));
            seen.push(i);
        });
        let want: Vec<u32> = (0..150).collect();
        assert_eq!(seen, want, "scan must visit every plane in order");
    }

    #[test]
    fn extended_block_answers_like_one_built_whole() {
        // A prefix block grown in uneven steps crosses several stride
        // repacks; every filter answer must match the block packed whole.
        for dim in [2usize, 3, 5] {
            let planes = random_planes(dim, 300, 0xD1CE + dim as u64);
            let whole = PlaneBlock::from_planes(dim, planes.iter());
            let mut grown = PlaneBlock::from_planes(dim, planes[..7].iter());
            let mut at = 7;
            for step in [1usize, 2, 13, 64, 5, 90].iter().cycle() {
                if at == planes.len() {
                    break;
                }
                let end = (at + step).min(planes.len());
                grown.extend(planes[at..end].iter());
                at = end;
                assert_eq!(grown.len(), at);
            }
            let mut state = 0xABCD ^ dim as u64;
            for _ in 0..20 {
                let q: Vec<i64> = (0..dim).map(|_| next_coord(&mut state, 1 << 22)).collect();
                let qf = PlaneBlock::query_row(&q);
                for i in 0..planes.len() as u32 {
                    assert_eq!(grown.filter_sign(i, &qf), whole.filter_sign(i, &qf));
                }
                let mut a = Vec::new();
                let mut b = Vec::new();
                grown.filter_scan(&q, |i, s| a.push((i, s)));
                whole.filter_scan(&q, |i, s| b.push((i, s)));
                assert_eq!(a, b, "dim {dim}");
            }
        }
    }

    #[test]
    fn block_never_certifies_on_plane_queries() {
        let a = [0i64, 0, 0];
        let b = [100i64, 0, 0];
        let c = [0i64, 100, 0];
        let plane = Hyperplane::new(3, &[&a, &b, &c]);
        let block = PlaneBlock::from_planes(3, std::iter::once(&plane));
        let qf = PlaneBlock::query_row(&[37, 21, 0]);
        assert_eq!(block.filter_sign(0, &qf), None);
        let mut counts = KernelCounts::default();
        assert_eq!(plane.sign_exact(&[37, 21, 0], &mut counts), Sign::Zero);
    }

    #[test]
    fn empty_block_scans_nothing() {
        let block = PlaneBlock::from_planes(2, std::iter::empty::<&Hyperplane>());
        assert!(block.is_empty());
        block.filter_scan(&[1, 2], |_, _| panic!("no planes to visit"));
    }
}
