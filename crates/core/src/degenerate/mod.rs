//! Section 6 of the paper: convex hulls with degeneracy via the **corner
//! configuration space**.
//!
//! The non-degenerate facet space breaks when four points are coplanar
//! (facets stop being simplices and defining sets stop being constant-size).
//! The paper's fix defines configurations as face-polygon *corners*
//! (six per non-collinear triple), shows the active corners are exactly the
//! hull's corners (Lemma 6.1), and that the space has 4-support
//! (Lemma 6.2), so Theorem 4.2 still yields logarithmic dependence depth.
//!
//! * [`poly_hull`](mod@poly_hull) — an exact, degeneracy-tolerant polygonal-face 3D hull
//!   (the brute-force substrate);
//! * [`corner_space`] — the corner space as a
//!   [`chull_confspace::ConfigurationSpace`], with a constructive-search
//!   `support_set` that verifies Lemma 6.2 end to end (experiment E6).

pub mod corner_space;
pub mod poly_hull;

pub use corner_space::CornerSpace;
pub use poly_hull::{poly_hull, Corner, PolyFace, PolyHull};
