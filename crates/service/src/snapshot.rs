//! Epoch-versioned, immutable hull snapshots — the service's read side.
//!
//! Each shard worker owns a mutable [`OnlineHull`]; after applying a batch
//! it publishes a copy of it behind an `Arc`. Readers grab the `Arc`
//! under a short lock and then query **without any synchronization**:
//! every query on [`HullSnapshot`] takes `&self` and descends the frozen
//! history (influence) graph, so the paper's expected `O(log n)` point
//! location (Section 4) carries over verbatim to the serving path — a
//! snapshot is exactly the history graph of some prefix of the insertion
//! sequence, and the support property `C(t) ⊆ C(t1) ∪ C(t2)` guarantees
//! the descent finds every visible facet of that prefix.
//!
//! A snapshot carries **query accelerators** (`QueryAccel`): the SoA
//! packed-plane filter block over every facet plane in the history, and
//! the hull's sorted vertex list for `Extreme`, shared read-only by every
//! query thread (DESIGN §S18).
//!
//! A published snapshot never changes while anyone can read it. The
//! history graph is append-only, so the worker does not copy the whole
//! hull per batch: it keeps the snapshot it last swapped out and, once
//! no reader holds it any more (`Arc::get_mut` succeeds), brings it up
//! to date in place (`HullSnapshot::refresh_live`) at a cost
//! proportional to what the batches since changed, then publishes it
//! again. Otherwise it freezes a fresh copy (`HullSnapshot::freeze_live`).
//!
//! A shard that has not yet seen `d + 1` affinely independent points is
//! **bootstrapping**: it buffers arrivals and answers geometric queries
//! with "not ready" (the hull is still degenerate).

use chull_core::online::OnlineHull;
use chull_core::HullOutput;
use chull_geometry::{KernelCounts, PlaneBlock};

/// The hull state behind one snapshot.
#[derive(Clone)]
pub(crate) enum SnapState {
    /// Fewer than `d + 1` affinely independent points so far; the buffered
    /// arrivals in order.
    Boot(Vec<Vec<i64>>),
    /// A live hull (a replica of the shard's online hull).
    Live(Box<OnlineHull>),
}

/// Per-snapshot read accelerators, built at freeze and extended at
/// refresh.
#[derive(Clone)]
pub(crate) struct QueryAccel {
    /// SoA f64 filter block over **every** facet plane ever created
    /// (the history descent walks dead facets too), indexed by facet id.
    pub block: PlaneBlock,
    /// Current hull vertex ids, ascending — `Extreme` scans this instead
    /// of re-deriving the vertex set from the facet list per query.
    pub verts: Vec<u32>,
}

/// An immutable, epoch-stamped view of one shard; see module docs.
#[derive(Clone)]
pub struct HullSnapshot {
    /// Publication epoch: the number of ingest batches applied before this
    /// snapshot was taken. Strictly increasing per shard.
    pub epoch: u64,
    /// Points accepted so far (buffered + inserted, including seeds).
    pub applied: u64,
    /// Dimension.
    pub dim: usize,
    pub(crate) state: SnapState,
    /// Read accelerators (`None` while bootstrapping).
    pub(crate) accel: Option<QueryAccel>,
}

impl HullSnapshot {
    /// The empty snapshot a shard publishes before any point arrives.
    pub fn empty(dim: usize) -> HullSnapshot {
        HullSnapshot {
            epoch: 0,
            applied: 0,
            dim,
            state: SnapState::Boot(Vec::new()),
            accel: None,
        }
    }

    /// Freeze a live hull (a fresh copy of the shard's hull) together
    /// with its query accelerators, built from the whole history. This is
    /// the publish fallback when no retired snapshot can be refreshed.
    pub(crate) fn freeze_live(epoch: u64, applied: u64, hull: OnlineHull) -> HullSnapshot {
        let accel = QueryAccel {
            block: hull.plane_block(),
            verts: hull.hull_vertices(),
        };
        HullSnapshot {
            epoch,
            applied,
            dim: hull.points().dim(),
            state: SnapState::Live(Box::new(hull)),
            accel: Some(accel),
        }
    }

    /// Bring a live snapshot that nobody else can read up to date with
    /// `hull` as epoch `epoch`, in place: the replica takes the facets,
    /// points and changes since it was taken
    /// ([`OnlineHull::refresh_replica`]), the filter block appends the new
    /// planes and the vertex list is re-derived. Afterwards the snapshot
    /// answers exactly as [`HullSnapshot::freeze_live`] of a fresh copy
    /// would. Returns `false`, with the snapshot untouched, when it is not
    /// live or holds another history than `hull` (after a rebuild or a
    /// recovery).
    pub(crate) fn refresh_live(&mut self, epoch: u64, applied: u64, hull: &OnlineHull) -> bool {
        let (SnapState::Live(replica), Some(accel)) = (&mut self.state, &mut self.accel) else {
            return false;
        };
        if !hull.refresh_replica(replica) {
            return false;
        }
        replica.extend_plane_block(&mut accel.block);
        accel.verts = replica.hull_vertices();
        self.epoch = epoch;
        self.applied = applied;
        true
    }

    /// The packed-plane filter block, when live.
    fn block(&self) -> Option<&PlaneBlock> {
        self.accel.as_ref().map(|a| &a.block)
    }

    /// False while the shard is still assembling its seed simplex.
    pub fn ready(&self) -> bool {
        matches!(self.state, SnapState::Live(_))
    }

    /// Membership test; `None` while bootstrapping. Kernel counters go to
    /// the caller's accumulator (folded into shard atomics by the server).
    /// Descends the history graph through the snapshot's packed-plane
    /// filter.
    pub fn contains(&self, point: &[i64], counts: &mut KernelCounts) -> Option<bool> {
        match &self.state {
            SnapState::Boot(_) => None,
            SnapState::Live(h) => Some(h.contains_with(point, counts, self.block())),
        }
    }

    /// Number of hull facets visible from `point` (0 = inside or on);
    /// `None` while bootstrapping.
    pub fn visible_count(&self, point: &[i64], counts: &mut KernelCounts) -> Option<u32> {
        match &self.state {
            SnapState::Boot(_) => None,
            SnapState::Live(h) => {
                Some(h.visible_facets_with(point, counts, self.block()).len() as u32)
            }
        }
    }

    /// The hull vertex extreme in `direction`; `None` while bootstrapping.
    /// Served from the snapshot's cached vertex list — directions at
    /// infinity never descend the history graph (DESIGN §S18).
    pub fn extreme(&self, direction: &[i64]) -> Option<(u32, Vec<i64>)> {
        match (&self.state, &self.accel) {
            (SnapState::Boot(_), _) => None,
            (SnapState::Live(h), Some(a)) => Some(h.extreme_with(direction, &a.verts)),
            (SnapState::Live(h), None) => Some(h.extreme(direction)),
        }
    }

    /// The current hull facets (empty while bootstrapping).
    pub fn output(&self) -> HullOutput {
        match &self.state {
            SnapState::Boot(_) => HullOutput {
                dim: self.dim,
                facets: Vec::new(),
            },
            SnapState::Live(h) => h.output(),
        }
    }

    /// All points this snapshot holds, flattened `dim` per point, in
    /// arrival order (for `Live`, seed-simplex points come first — the
    /// order the hull assigned vertex ids in).
    pub fn flat_points(&self) -> Vec<i64> {
        match &self.state {
            SnapState::Boot(pts) => pts.iter().flatten().copied().collect(),
            SnapState::Live(h) => h.points().flat().to_vec(),
        }
    }

    /// Number of points held.
    pub fn num_points(&self) -> usize {
        match &self.state {
            SnapState::Boot(pts) => pts.len(),
            SnapState::Live(h) => h.num_points(),
        }
    }

    /// Number of facets on the current hull (0 while bootstrapping).
    pub fn num_facets(&self) -> usize {
        match &self.state {
            SnapState::Boot(_) => 0,
            SnapState::Live(h) => h.num_facets(),
        }
    }

    /// Planes in the packed filter block = facets ever created (0 while
    /// bootstrapping). Scrape-time gauge source.
    pub fn plane_block_len(&self) -> usize {
        self.accel.as_ref().map_or(0, |a| a.block.len())
    }

    /// Vertices on the current hull (0 while bootstrapping). Scrape-time
    /// gauge source.
    pub fn hull_vertex_count(&self) -> usize {
        self.accel.as_ref().map_or(0, |a| a.verts.len())
    }

    /// Ingest-path staged-kernel counters accumulated by the hull this
    /// snapshot was taken from (zero while bootstrapping).
    pub fn ingest_kernel(&self) -> KernelCounts {
        match &self.state {
            SnapState::Boot(_) => KernelCounts::default(),
            SnapState::Live(h) => h.kernel,
        }
    }

    /// Dependence depth of the hull behind this snapshot — the deepest
    /// chain in its history graph, the observable Theorem 4.2 bounds by
    /// `σ·H_n` whp (0 while bootstrapping).
    pub fn dep_depth(&self) -> u64 {
        match &self.state {
            SnapState::Boot(_) => 0,
            SnapState::Live(h) => h.dep_depth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_snapshot_answers_not_ready() {
        let s = HullSnapshot::empty(2);
        assert!(!s.ready());
        let mut k = KernelCounts::default();
        assert_eq!(s.contains(&[0, 0], &mut k), None);
        assert_eq!(s.visible_count(&[0, 0], &mut k), None);
        assert_eq!(s.extreme(&[1, 0]), None);
        assert_eq!(s.num_points(), 0);
        assert_eq!(s.num_facets(), 0);
        assert_eq!(s.plane_block_len(), 0);
        assert_eq!(s.hull_vertex_count(), 0);
        assert!(s.output().facets.is_empty());
    }

    #[test]
    fn live_snapshot_queries_shared() {
        let mut h = OnlineHull::new(2, &[vec![0, 0], vec![10, 0], vec![0, 10]]);
        h.insert(&[10, 10]);
        let s = HullSnapshot::freeze_live(1, 4, h);
        assert!(s.ready());
        let mut k = KernelCounts::default();
        assert_eq!(s.contains(&[5, 5], &mut k), Some(true));
        assert_eq!(s.contains(&[50, 50], &mut k), Some(false));
        assert!(s.visible_count(&[50, 50], &mut k).unwrap() > 0);
        assert_eq!(s.extreme(&[1, 1]).unwrap().1, vec![10, 10]);
        assert_eq!(s.num_facets(), 4);
        assert!(k.tests > 0);
        assert!(s.plane_block_len() >= s.num_facets());
        assert_eq!(s.hull_vertex_count(), 4, "square has 4 corners");
    }

    #[test]
    fn accelerated_queries_agree_with_the_scan_oracle() {
        let mut h = OnlineHull::new(2, &[vec![0, 0], vec![10, 0], vec![0, 10]]);
        for p in [[10, 10], [20, 5], [5, 20], [-3, -3], [7, 7]] {
            h.insert(&p);
        }
        let oracle = h.clone();
        let s = HullSnapshot::freeze_live(2, 8, h);
        let mut k = KernelCounts::default();
        let mut scan = KernelCounts::default();
        for q in [[5i64, 5], [100, 100], [-50, 2], [0, 0], [21, 4]] {
            assert_eq!(
                s.contains(&q, &mut k),
                Some(oracle.contains_scan(&q, &mut scan))
            );
            assert_eq!(
                s.visible_count(&q, &mut k),
                Some(oracle.visible_facets_scan(&q, &mut scan).len() as u32)
            );
            assert_eq!(s.extreme(&q), Some(oracle.extreme(&q)));
        }
        assert!(k.descent_steps > 0, "descent path must report its steps");
    }
}
