//! An **online** convex hull: points arrive one at a time, with no access
//! to future points.
//!
//! The offline algorithms (Algorithms 2 and 3) rely on conflict lists over
//! the full input — the classic Clarkson–Shor bookkeeping. Online, the
//! conflict lists are unavailable; instead each arriving point *locates*
//! itself through the history (influence) graph that the construction has
//! built so far: the support property `C(t) ⊆ C(t1) ∪ C(t2)` guarantees
//! the descent finds every visible facet. For points arriving in random
//! order this costs expected `O(log n)` history nodes per insertion
//! (plus the size of the replaced region), i.e. the same asymptotics as
//! the offline algorithm without ever seeing the future.
//!
//! Works in any dimension `2..=8` over exact integer coordinates.

use crate::context::HullContext;
use crate::facet::{
    facet_verts, join_ridge, ridge_omitting, Facet, FacetVerts, RidgeKey, MAX_DIM, NO_VERT,
};
use crate::output::HullOutput;
use crate::par::batch::{filter_seeds, run_batch, BatchSeeds};
use chull_concurrent::{pool, FastHashMap};
use chull_geometry::{Hyperplane, KernelCounts, PlaneBlock, PointSet, Sign};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel facet id.
const NO_FACET: u32 = u32::MAX;

/// History-graph children stored in the facet itself; see [`Children`].
const INLINE_CHILDREN: usize = 4;

/// Per-thread scratch of [`OnlineHull::descend`], reused across calls so
/// a descent allocates nothing.
struct DescentScratch {
    /// Facet id → stamp of the last descent that visited it. Comparing
    /// stamps against the per-call epoch makes "clearing" free, so a
    /// descent costs O(nodes visited) instead of the O(facets ever
    /// created) that a fresh `vec![false; n]` per query used to pay — the
    /// allocation alone re-linearized every point-location query.
    stamps: Vec<u64>,
    /// The running stamp.
    epoch: u64,
    /// The DFS stack of visible history nodes still to expand.
    stack: Vec<u32>,
}

thread_local! {
    static DESCENT_SCRATCH: RefCell<DescentScratch> = const {
        RefCell::new(DescentScratch {
            stamps: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
        })
    };
}

/// Batches smaller than this insert point by point in
/// [`OnlineHull::insert_batch_par`]: the batch path's set-up (locating
/// the batch in the pre-batch history, seeding, the canonical
/// integration sort) only amortizes for real batches. The cutoff depends
/// solely on the batch length, so a journal replay re-derives the same
/// per-point/batch decision, and with it the same kernel counters, per
/// batch.
pub const MIN_PAR_BATCH: usize = 8;

/// Bulk installs of fewer points run on the calling thread. A fork-join
/// on the shared pool costs a few microseconds, but below this size a
/// second worker still loses more to sharing the ridge map and facet
/// arena than it saves. On a 2-vCPU host, `seed_from_bulk` of 24, 48
/// and 96 points on a circle had p50s, over three rounds, of 99–105,
/// 138–188 and 240–263 µs at 1 worker and 135–137, 189–231 and
/// 342–367 µs at 2. Like [`MIN_PAR_BATCH`], the cutoff depends only on
/// the input, and the installed hull is the same for every worker count.
const MIN_PAR_INSTALL: usize = 256;

/// Where a point sits relative to the current hull — the answer of
/// [`OnlineHull::classify`]. Distinguishing `OnBoundary` from `Inside`
/// matters for deletion: removing an interior point never changes the
/// hull, removing a boundary point generally does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointLocation {
    /// Strictly inside every alive facet's halfspace.
    Inside,
    /// On at least one alive facet's hyperplane, beyond none.
    OnBoundary,
    /// Beyond at least one alive facet (visible from outside).
    Outside,
}

/// Telemetry summary of the most recent [`OnlineHull::insert_batch_par`]
/// call that took the parallel path (all zeros after a sequential-path
/// batch or before any batch). `busy_ns / wall_ns` of the call is the
/// realized parallelism; `chull-service` exposes these as shard gauges.
#[derive(Clone, Copy, Default)]
pub struct BatchTelemetry {
    /// Points in the batch.
    pub batch_len: usize,
    /// Facets the batch created (alive or since buried within the batch).
    pub created: usize,
    /// Maximum `ProcessRidge` recursion depth (Theorem 5.3's `O(log n)`).
    pub recursion_depth: u64,
    /// Ridges buried during the recursion (Algorithm 3 line 12).
    pub buried: u64,
    /// Facets replaced during the recursion (Algorithm 3 line 15).
    pub replaced: u64,
    /// Task-busy nanoseconds (0 unless `chull-obs` is armed).
    pub busy_ns: u64,
}

/// The history-graph children of one facet, in the order they were
/// linked: the first [`INLINE_CHILDREN`] ids inline (unused slots hold
/// `NO_FACET`), the rest spilled to the heap. About 92% of facets have at
/// most four children (near-circle 2D, ball 3D), so most lists never
/// allocate: copying a history costs no allocation per facet, and a
/// descent reads a child list from the facet it already has in cache.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Children {
    inline: [u32; INLINE_CHILDREN],
    spill: Vec<u32>,
}

impl Children {
    const EMPTY: Children = Children {
        inline: [NO_FACET; INLINE_CHILDREN],
        spill: Vec::new(),
    };

    fn push(&mut self, id: u32) {
        match self.inline.iter_mut().find(|c| **c == NO_FACET) {
            Some(slot) => *slot = id,
            None => self.spill.push(id),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.inline
            .iter()
            .copied()
            .take_while(|&c| c != NO_FACET)
            .chain(self.spill.iter().copied())
    }
}

/// Which insertion history a hull holds, so that
/// [`OnlineHull::refresh_replica`] only ever extends a copy of an earlier
/// state of the same history. [`OnlineHull::new`] (and every constructor
/// built on it) starts a fresh lineage; a clone keeps its source's
/// lineage but is marked as a copy, and the first mutation of a copy
/// forks it into a lineage of its own — from then on it holds a history
/// its source never had.
#[derive(Debug)]
struct Lineage {
    id: u64,
    copy: bool,
}

impl Lineage {
    fn fresh() -> Lineage {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Lineage {
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            copy: false,
        }
    }

    /// Called before every mutation of the hull's history or points.
    fn on_write(&mut self) {
        if self.copy {
            *self = Lineage::fresh();
        }
    }
}

impl Clone for Lineage {
    fn clone(&self) -> Lineage {
        Lineage {
            id: self.id,
            copy: true,
        }
    }
}

#[derive(Clone)]
struct OFacet {
    verts: FacetVerts,
    visible_sign: Sign,
    /// Cached exact hyperplane: every history-descent visibility test is a
    /// staged `O(d)` dot-product sign instead of an `O(d³)` determinant.
    plane: Hyperplane,
    alive: bool,
    children: Children,
    /// Dependence depth: seeds are 1, a facet joining ridge `(t1, t2)`
    /// is `1 + max(depth(t1), depth(t2))` — the online analogue of the
    /// `depth(t)` recurrence behind Theorem 4.2's `O(log n)` whp bound.
    depth: u32,
}

/// An incrementally-growable convex hull; see module docs.
///
/// **Read/write split:** mutation ([`OnlineHull::insert`]) takes
/// `&mut self`; every query ([`OnlineHull::contains`],
/// [`OnlineHull::visible_facets`], [`OnlineHull::extreme`], ...) takes
/// `&self` and threads its staged-kernel counters through a per-call
/// [`KernelCounts`] accumulator instead of mutating shared state. A frozen
/// hull (e.g. behind an `Arc` snapshot in `chull-service`) therefore
/// serves membership queries from many threads concurrently.
#[derive(Clone)]
pub struct OnlineHull {
    dim: usize,
    pts: PointSet,
    facets: Vec<OFacet>,
    seeds: Vec<u32>,
    /// Per facet: the history length (`facets.len()`) when the facet last
    /// died or gained a child. A copy taken at history length `n` differs
    /// from this hull, among its own `n` facets, exactly in those stamped
    /// `>= n` — what [`OnlineHull::refresh_replica`] re-copies.
    changed_at: Vec<u32>,
    /// Per point id: the number of alive facets incident to it, so
    /// [`OnlineHull::hull_vertices`] is one pass over the points instead
    /// of a sort over the whole history. May be shorter than the point
    /// set; missing entries are 0.
    incidence: Vec<u32>,
    /// Ridge -> the two incident alive facets, the smaller id first (or
    /// one facet and `NO_FACET` while the other side is being replaced).
    /// The order makes the map a function of the alive facet set alone.
    adj: HashMap<RidgeKey, [u32; 2]>,
    /// Homogeneous interior reference point (seed simplex coordinate sums).
    interior_row: Vec<i64>,
    interior_hom: i64,
    /// History nodes visited by the last insertion (instrumentation).
    pub last_visited: usize,
    /// Accumulated staged-kernel counters over all locate/insert queries.
    pub kernel: KernelCounts,
    /// Deepest facet created so far (see `OFacet::depth`).
    dep_depth: u32,
    /// Telemetry of the last parallel batch insert (see [`BatchTelemetry`]).
    pub last_batch: BatchTelemetry,
    lineage: Lineage,
}

impl OnlineHull {
    /// Start from `d + 1` affinely independent seed points.
    pub fn new(dim: usize, seed_points: &[Vec<i64>]) -> OnlineHull {
        assert!((2..=MAX_DIM).contains(&dim));
        assert_eq!(seed_points.len(), dim + 1, "need d + 1 seed points");
        let mut pts = PointSet::new(dim);
        for p in seed_points {
            pts.push(p);
        }
        let simplex: Vec<u32> = (0..=dim as u32).collect();
        {
            let rows: Vec<&[i64]> = (0..=dim).map(|i| pts.point(i)).collect();
            assert_eq!(
                chull_geometry::exact::affine_rank(&rows),
                dim + 1,
                "seed points must be affinely independent"
            );
        }
        let mut interior_row = vec![0i64; dim];
        for i in 0..=dim {
            for (acc, &c) in interior_row.iter_mut().zip(pts.point(i)) {
                *acc += c;
            }
        }
        let mut hull = OnlineHull {
            dim,
            pts: pts.clone(),
            facets: Vec::new(),
            seeds: Vec::new(),
            changed_at: Vec::new(),
            incidence: Vec::new(),
            adj: HashMap::new(),
            interior_row,
            interior_hom: dim as i64 + 1,
            last_visited: 0,
            kernel: KernelCounts::default(),
            dep_depth: 0,
            last_batch: BatchTelemetry::default(),
            lineage: Lineage::fresh(),
        };
        for omit in 0..=dim {
            let verts: Vec<u32> = simplex
                .iter()
                .copied()
                .filter(|&v| v != omit as u32)
                .collect();
            let fv = facet_verts(&verts);
            let plane = hull.plane_for(&fv);
            let visible_sign = hull.visible_sign_for(&plane);
            let id = hull.push_facet(fv, visible_sign, plane, 1, true);
            hull.seeds.push(id);
        }
        hull
    }

    /// The exact hyperplane through a facet's vertices (staged kernel).
    fn plane_for(&self, verts: &FacetVerts) -> Hyperplane {
        let mut rows: [&[i64]; MAX_DIM] = [&[]; MAX_DIM];
        for i in 0..self.dim {
            rows[i] = self.pts.pt(verts[i]);
        }
        Hyperplane::new(self.dim, &rows[..self.dim])
    }

    /// Append a facet to the history; an `alive` one also joins the
    /// adjacency map and the vertex incidence counts.
    fn push_facet(
        &mut self,
        verts: FacetVerts,
        visible_sign: Sign,
        plane: Hyperplane,
        depth: u32,
        alive: bool,
    ) -> u32 {
        let id = self.facets.len() as u32;
        self.dep_depth = self.dep_depth.max(depth);
        self.facets.push(OFacet {
            verts,
            visible_sign,
            plane,
            alive,
            children: Children::EMPTY,
            depth,
        });
        self.changed_at.push(id);
        if alive {
            self.add_to_adj(id);
            if self.incidence.len() < self.pts.len() {
                self.incidence.resize(self.pts.len(), 0);
            }
            for &v in &verts[..self.dim] {
                self.incidence[v as usize] += 1;
            }
        }
        id
    }

    /// Kill alive facet `id`: it leaves the adjacency map and the
    /// incidence counts, and stays in the history.
    fn kill(&mut self, id: u32) {
        let f = &mut self.facets[id as usize];
        debug_assert!(f.alive);
        f.alive = false;
        for &v in &f.verts[..self.dim] {
            self.incidence[v as usize] -= 1;
        }
        self.changed_at[id as usize] = self.facets.len() as u32;
        self.remove_from_adj(id);
    }

    /// Link `child` under `parent` in the history graph.
    fn add_child(&mut self, parent: u32, child: u32) {
        self.facets[parent as usize].children.push(child);
        self.changed_at[parent as usize] = self.facets.len() as u32;
    }

    fn add_to_adj(&mut self, id: u32) {
        let verts = self.facets[id as usize].verts;
        for omit in 0..self.dim {
            let r = ridge_omitting(&verts, self.dim, omit);
            let entry = self.adj.entry(r).or_insert([NO_FACET, NO_FACET]);
            debug_assert_eq!(entry[1], NO_FACET, "ridge with three alive facets");
            if entry[0] == NO_FACET {
                entry[0] = id;
            } else {
                entry[1] = id;
                entry.sort_unstable();
            }
        }
    }

    fn remove_from_adj(&mut self, id: u32) {
        let verts = self.facets[id as usize].verts;
        for omit in 0..self.dim {
            let r = ridge_omitting(&verts, self.dim, omit);
            if let Some(entry) = self.adj.get_mut(&r) {
                if entry[0] == id {
                    entry[0] = entry[1];
                }
                entry[1] = NO_FACET;
                if entry[0] == NO_FACET {
                    self.adj.remove(&r);
                }
            }
        }
    }

    /// Exact visibility of coordinate `q` from facet `id`, via the
    /// facet's cached plane (staged kernel).
    fn sees(&self, id: u32, q: &[i64], counts: &mut KernelCounts) -> bool {
        let f = &self.facets[id as usize];
        let s = f.plane.sign_point(q, counts);
        s != Sign::Zero && s == f.visible_sign
    }

    /// Like [`OnlineHull::sees`], but routed through a batched SoA filter
    /// block when one is supplied. The block's per-plane arithmetic is
    /// identical to the scalar filter stage, so both the answer and every
    /// counter increment (`tests`, `filter_hits`, exact fallbacks) are
    /// bit-identical to the per-facet staged kernel.
    #[inline]
    fn sees_with(
        &self,
        id: u32,
        q: &[i64],
        qf: &[f64],
        block: Option<&PlaneBlock>,
        counts: &mut KernelCounts,
    ) -> bool {
        let f = &self.facets[id as usize];
        let s = match block {
            Some(b) => {
                counts.tests += 1;
                match b.filter_sign(id, qf) {
                    Some(s) => {
                        counts.filter_hits += 1;
                        s
                    }
                    None => f.plane.sign_exact(q, counts),
                }
            }
            None => f.plane.sign_point(q, counts),
        };
        s != Sign::Zero && s == f.visible_sign
    }

    /// History descent from the seed facets: visit every history node
    /// whose conflict region contains `q` (the support property
    /// `C(t) ⊆ C(t1) ∪ C(t2)` guarantees no visible facet is missed),
    /// calling `on_alive` for each **alive** visible facet in DFS order.
    /// `on_alive` returning `true` stops the descent early (used by
    /// membership tests, which only need *one* witness). Returns the
    /// number of history nodes visited — the descent-step cost, expected
    /// `O(log n)` for points in random position (Section 4).
    fn descend<F>(
        &self,
        q: &[i64],
        block: Option<&PlaneBlock>,
        counts: &mut KernelCounts,
        mut on_alive: F,
    ) -> usize
    where
        F: FnMut(u32) -> bool,
    {
        debug_assert!(block.is_none_or(|b| b.len() == self.facets.len()));
        let qf = PlaneBlock::query_row(q);
        DESCENT_SCRATCH.with(|cell| {
            let DescentScratch {
                stamps,
                epoch,
                stack,
            } = &mut *cell.borrow_mut();
            *epoch += 1;
            let epoch = *epoch;
            if stamps.len() < self.facets.len() {
                stamps.resize(self.facets.len(), 0);
            }
            // An early stop leaves the previous call's stack non-empty.
            stack.clear();
            let mut visited = 0usize;
            for &s in &self.seeds {
                stamps[s as usize] = epoch;
                visited += 1;
                if self.sees_with(s, q, &qf, block, counts) {
                    stack.push(s);
                }
            }
            while let Some(id) = stack.pop() {
                // Invariant: q is visible from `id`.
                if self.facets[id as usize].alive && on_alive(id) {
                    return visited;
                }
                for c in self.facets[id as usize].children.iter() {
                    if stamps[c as usize] != epoch {
                        stamps[c as usize] = epoch;
                        visited += 1;
                        if self.sees_with(c, q, &qf, block, counts) {
                            stack.push(c);
                        }
                    }
                }
            }
            visited
        })
    }

    /// All alive facets visible from `q`, found by history descent, in
    /// DFS discovery order (insertion depends on this order — it fixes
    /// the ids of the facets an insert creates). Shared: counters go to
    /// the caller's accumulator, the visited-node count is the second
    /// return.
    fn locate(&self, q: &[i64], counts: &mut KernelCounts) -> (Vec<u32>, usize) {
        let mut out = Vec::new();
        let count = self.descend(q, None, counts, |id| {
            out.push(id);
            false
        });
        (out, count)
    }

    /// Insert a point. Returns `true` if the point is outside the current
    /// hull (and the hull was extended), `false` if it is inside or on the
    /// boundary (and was recorded but changed nothing).
    pub fn insert(&mut self, coords: &[i64]) -> bool {
        assert_eq!(coords.len(), self.dim, "point of wrong dimension");
        self.lineage.on_write();
        let mut counts = KernelCounts::default();
        let (visible, visited) = self.locate(coords, &mut counts);
        self.kernel.merge(&counts);
        self.last_visited = visited;
        if chull_obs::armed() {
            crate::telemetry::engine_metrics()
                .online_visited_nodes
                .record(visited as u64);
        }
        let v = self.pts.len() as u32;
        self.pts.push(coords);
        if visible.is_empty() {
            return false;
        }
        // Boundary ridges: incident to exactly one visible facet.
        let in_r: std::collections::HashSet<u32> = visible.iter().copied().collect();
        let mut boundary: Vec<(RidgeKey, u32, u32)> = Vec::new();
        for &t1 in &visible {
            let verts = self.facets[t1 as usize].verts;
            for omit in 0..self.dim {
                let r = ridge_omitting(&verts, self.dim, omit);
                let pair = self.adj[&r];
                let t2 = if pair[0] == t1 { pair[1] } else { pair[0] };
                debug_assert_ne!(t2, NO_FACET, "hull not closed");
                if !in_r.contains(&t2) {
                    boundary.push((r, t1, t2));
                }
            }
        }
        for &t in &visible {
            self.kill(t);
        }
        let mut insert_depth = 0u32;
        for (r, t1, t2) in boundary {
            let verts = join_ridge(&r, self.dim, v);
            let plane = self.plane_for(&verts);
            let visible_sign = self.visible_sign_for(&plane);
            let d = 1 + self.facets[t1 as usize]
                .depth
                .max(self.facets[t2 as usize].depth);
            insert_depth = insert_depth.max(d);
            let id = self.push_facet(verts, visible_sign, plane, d, true);
            self.add_child(t1, id);
            self.add_child(t2, id);
        }
        if chull_obs::armed() {
            crate::telemetry::engine_metrics()
                .online_insert_depth
                .record(insert_depth as u64);
        }
        true
    }

    /// Insert a whole batch of points as **one parallel step** — Algorithm 3
    /// (`ProcessRidge` recursion, Theorem 5.5) run from the current hull
    /// instead of the initial simplex, on a pool of `threads` workers
    /// (`0` = auto). Returns one flag per point, `true` iff that point
    /// extended the hull — exactly what [`OnlineHull::insert`] would have
    /// returned inserting the batch one point at a time in slice order.
    ///
    /// The recursion is seeded output-sensitively: every batch point
    /// descends the pre-batch history graph (points split across the
    /// pool), and only the alive facets some point sees, their neighbours
    /// and the ridges of the visible facets enter the recursion. A hull
    /// that is still its bare seed simplex has no history to descend and
    /// filters the batch through its `d + 1` facets instead — the same
    /// tests, with less bookkeeping.
    ///
    /// The resulting hull (facet set, ids, adjacency, history graph,
    /// dependence depths, kernel counters) is identical for every
    /// `threads` value: created facets are integrated in canonical
    /// `(creator, verts)` order, which is schedule-independent. Batches
    /// shorter than [`MIN_PAR_BATCH`] take the sequential path.
    ///
    /// Kernel counters count the batch's location tests (each point's
    /// descent of the pre-batch history, or the simplex filter) plus the
    /// recursion's merge tests. Per-point [`OnlineHull::insert`] instead
    /// descends a history that the earlier points of the batch have
    /// already extended, so the totals of the two paths differ; both are
    /// deterministic. From a bare simplex a single batch performs exactly
    /// offline Algorithm 2's tests.
    pub fn insert_batch_par(&mut self, points: &[Vec<i64>], threads: usize) -> Vec<bool> {
        for p in points {
            assert_eq!(p.len(), self.dim, "point of wrong dimension");
        }
        self.lineage.on_write();
        self.last_batch = BatchTelemetry::default();
        if points.len() < MIN_PAR_BATCH {
            return points.iter().map(|p| self.insert(p)).collect();
        }
        let threads = if threads == 0 {
            pool::default_threads()
        } else {
            threads
        };
        let base = self.pts.len() as u32;
        for p in points {
            self.pts.push(p);
        }
        let batch_ids = base..base + points.len() as u32;
        let (seed_ids, seeds) = if self.facets.len() == self.dim + 1 {
            self.simplex_seeds(&batch_ids.collect::<Vec<u32>>(), threads)
        } else {
            self.located_seeds(batch_ids, threads)
        };
        let mut accepted = vec![false; points.len()];
        self.apply_seeds(&seed_ids, seeds, points.len(), threads, |creator| {
            accepted[(creator - base) as usize] = true;
        });
        accepted
    }

    /// Batch seeds from the bare seed simplex (facets `0..=dim`, no
    /// history yet): the parallel conflict filter of `candidates` through
    /// all `d + 1` facets, and the simplex's ridges. Shared by
    /// [`OnlineHull::insert_batch_par`] on a fresh hull and the
    /// bulk-recovery install. Returns the pre-batch facet id of each seed
    /// slot alongside the seeds.
    fn simplex_seeds(&self, candidates: &[u32], threads: usize) -> (Vec<u32>, BatchSeeds) {
        debug_assert!(
            self.facets.iter().all(|f| f.alive) && self.facets.len() == self.dim + 1,
            "simplex seeding requires a bare seed simplex"
        );
        // Facet ids on a bare simplex are exactly the seed slots
        // `0..=dim`, so adjacency pairs map to slots without translation.
        let seed_ids: Vec<u32> = (0..self.facets.len() as u32).collect();
        let verts: Vec<FacetVerts> = self.facets.iter().map(|f| f.verts).collect();
        let simplex: Vec<u32> = (0..=self.dim as u32).collect();
        let ctx = HullContext::new(&self.pts, &simplex);
        let (facets, counts, busy_ns) = filter_seeds(&ctx, &verts, candidates, threads);
        let mut ridges: Vec<(u32, RidgeKey, u32)> = self
            .adj
            .iter()
            .map(|(&r, &pair)| (pair[0], r, pair[1]))
            .collect();
        // HashMap iteration order is arbitrary; sort by ridge key so the
        // spawn order (and any armed telemetry) is reproducible.
        ridges.sort_unstable_by_key(|&(_, r, _)| r);
        let seeds = BatchSeeds {
            facets,
            ridges,
            counts,
            busy_ns,
        };
        (seed_ids, seeds)
    }

    /// Batch seeds by history-graph location: the alive facets that some
    /// point of `ids` (already appended to the point set) sees, in
    /// ascending id order with conflict lists ascending by point id, then
    /// their not-visible neighbours with empty conflict lists. Ridges are
    /// those of the visible facets, each listed once. Facets keep their
    /// cached plane and visible sign. Returns the pre-batch facet id of
    /// each seed slot alongside the seeds.
    fn located_seeds(&self, ids: Range<u32>, threads: usize) -> (Vec<u32>, BatchSeeds) {
        let (pairs, counts, busy_ns) = self.locate_batch(ids, threads);
        let mut seed_ids: Vec<u32> = Vec::new();
        let mut facets: Vec<Facet> = Vec::new();
        for group in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
            let id = (group[0] >> 32) as u32;
            seed_ids.push(id);
            facets.push(self.seed_facet(id, group.iter().map(|&p| p as u32).collect()));
        }
        let visible = seed_ids.len();
        let mut slot_of: FastHashMap<u32, u32> = seed_ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| (id, slot as u32))
            .collect();
        let mut ridges: Vec<(u32, RidgeKey, u32)> = Vec::new();
        for slot in 0..visible as u32 {
            let id = seed_ids[slot as usize];
            let verts = self.facets[id as usize].verts;
            for omit in 0..self.dim {
                let r = ridge_omitting(&verts, self.dim, omit);
                let pair = self.adj[&r];
                debug_assert!(
                    pair[0] != NO_FACET && pair[1] != NO_FACET,
                    "hull not closed"
                );
                let other = if pair[0] == id { pair[1] } else { pair[0] };
                let other_slot = *slot_of.entry(other).or_insert_with(|| {
                    seed_ids.push(other);
                    facets.push(self.seed_facet(other, Vec::new()));
                    (seed_ids.len() - 1) as u32
                });
                // A ridge between two visible facets is met from both
                // sides; list it once.
                if (other_slot as usize) < visible && other_slot < slot {
                    continue;
                }
                ridges.push((slot, r, other_slot));
            }
        }
        let seeds = BatchSeeds {
            facets,
            ridges,
            counts,
            busy_ns,
        };
        (seed_ids, seeds)
    }

    /// Locate every point of `ids` (already appended to the point set) by
    /// history descent, the points split across a pool of `threads`
    /// workers, each task writing into its own buffer. Returns every
    /// (alive visible facet, point) pair packed as `facet << 32 | point`
    /// and sorted, so pairs group by facet with points ascending; the
    /// kernel counters of the descent tests; and the task-busy
    /// nanoseconds (0 when disarmed).
    fn locate_batch(&self, ids: Range<u32>, threads: usize) -> (Vec<u64>, KernelCounts, u64) {
        let (start, end) = (ids.start, ids.end);
        let chunk = ids.len().div_ceil(threads.max(1) * 4).max(1) as u32;
        let mut bufs: Vec<(Vec<u64>, KernelCounts, u64)> = (start..end)
            .step_by(chunk as usize)
            .map(|_| Default::default())
            .collect();
        pool::scope_with_threads(threads, |s| {
            for (lo, buf) in (start..end).step_by(chunk as usize).zip(bufs.iter_mut()) {
                s.spawn(move |_| {
                    let armed_at = chull_obs::armed().then(std::time::Instant::now);
                    let (pairs, counts, busy_ns) = buf;
                    for q in lo..(lo + chunk).min(end) {
                        self.descend(self.pts.pt(q), None, counts, |f| {
                            pairs.push(u64::from(f) << 32 | u64::from(q));
                            false
                        });
                    }
                    if let Some(t) = armed_at {
                        *busy_ns = t.elapsed().as_nanos() as u64;
                    }
                });
            }
        });
        let mut pairs: Vec<u64> = Vec::with_capacity(bufs.iter().map(|b| b.0.len()).sum());
        let mut counts = KernelCounts::default();
        let mut busy_ns = 0;
        for (p, c, b) in bufs {
            pairs.extend(p);
            counts.merge(&c);
            busy_ns += b;
        }
        pairs.sort_unstable();
        (pairs, counts, busy_ns)
    }

    /// Pre-batch facet `id` as a batch seed: its cached plane and visible
    /// sign with the given conflict list.
    fn seed_facet(&self, id: u32, conflicts: Vec<u32>) -> Facet {
        let f = &self.facets[id as usize];
        Facet {
            verts: f.verts,
            visible_sign: f.visible_sign,
            conflicts,
            plane: f.plane.clone(),
        }
    }

    /// Run Algorithm 3 from `seeds` (slot `i` is pre-batch facet
    /// `seed_ids[i]`) over the `batch_len` points last appended, record
    /// its [`BatchTelemetry`], and integrate the result: kill the replaced
    /// pre-batch facets before registering any new adjacency (so shared
    /// ridges never see three incidents), then append created facets in
    /// canonical `(creator, verts)` order, wiring adjacency, history-graph
    /// children, and dependence depths, and fold the run's kernel
    /// counters in. `on_created` fires once per created facet with the
    /// creator's point id.
    fn apply_seeds(
        &mut self,
        seed_ids: &[u32],
        seeds: BatchSeeds,
        batch_len: usize,
        threads: usize,
        mut on_created: impl FnMut(u32),
    ) {
        let run = {
            let simplex: Vec<u32> = (0..=self.dim as u32).collect();
            // Same seed ids and interior centroid as `OnlineHull::new`, so
            // every `make_facet` sign is bit-identical to this hull's own.
            let ctx = HullContext::new(&self.pts, &simplex);
            run_batch(ctx, seeds, batch_len, threads)
        };
        self.last_batch = BatchTelemetry {
            batch_len,
            created: run.created.len(),
            recursion_depth: run.recursion_depth,
            buried: run.buried,
            replaced: run.replaced,
            busy_ns: run.busy_ns,
        };
        for &slot in &run.dead_seeds {
            self.kill(seed_ids[slot as usize]);
        }
        let pre_len = self.facets.len() as u32;
        let seed_count = seed_ids.len() as u32;
        let mut batch_depth = 0u32;
        for cf in run.created {
            let resolve = |p: u32| -> u32 {
                if p < seed_count {
                    seed_ids[p as usize]
                } else {
                    pre_len + (p - seed_count)
                }
            };
            let (t1, t2) = (resolve(cf.parents[0]), resolve(cf.parents[1]));
            let depth = 1 + self.facets[t1 as usize]
                .depth
                .max(self.facets[t2 as usize].depth);
            batch_depth = batch_depth.max(depth);
            on_created(cf.creator);
            let id = self.push_facet(cf.verts, cf.visible_sign, cf.plane, depth, !cf.dead);
            self.add_child(t1, id);
            self.add_child(t2, id);
        }
        self.kernel.merge(&run.counts);
        self.last_visited = 0;
        if chull_obs::armed() {
            crate::telemetry::engine_metrics()
                .online_insert_depth
                .record(batch_depth as u64);
        }
    }

    /// Extend a **freshly seeded** hull (seed simplex only, every point
    /// already appended to the point set) with the given candidate ids in
    /// one parallel batch step. This is the bulk-recovery install:
    /// [`HullBuilder::seed_from_bulk`] appends all journaled points first
    /// so pruned interior points keep their vertex ids, then the
    /// prefilter survivors run through a single
    /// [`crate::par::batch::run_batch`] from the simplex.
    fn install_bulk(&mut self, candidates: &[u32], threads: usize) {
        self.lineage.on_write();
        self.last_batch = BatchTelemetry::default();
        if candidates.is_empty() {
            return;
        }
        let (seed_ids, seeds) = self.simplex_seeds(candidates, threads);
        self.apply_seeds(&seed_ids, seeds, candidates.len(), threads, |_| {});
    }

    /// Deepest dependence chain over all facets ever created: the
    /// observed `D(G(S))` this hull has realized, directly comparable
    /// to the `σ·H_n` whp bound of Theorem 4.2. Seeds count 1.
    pub fn dep_depth(&self) -> u64 {
        self.dep_depth as u64
    }

    fn visible_sign_for(&self, plane: &Hyperplane) -> Sign {
        let s = plane.sign_hom(&self.interior_row, self.interior_hom);
        assert_ne!(s, Sign::Zero, "degenerate facet orientation");
        s.negate()
    }

    /// Membership test for an arbitrary coordinate (does not insert).
    /// Shared — runs concurrently from many threads; per-call kernel
    /// counters are discarded (see [`OnlineHull::contains_counted`]).
    pub fn contains(&self, coords: &[i64]) -> bool {
        let mut counts = KernelCounts::default();
        self.contains_counted(coords, &mut counts)
    }

    /// [`OnlineHull::contains`], accumulating staged-kernel counters into
    /// the caller's tally (which the service folds into shared atomics).
    pub fn contains_counted(&self, coords: &[i64], counts: &mut KernelCounts) -> bool {
        self.contains_with(coords, counts, None)
    }

    /// [`OnlineHull::contains_counted`] with an optional packed-plane
    /// filter block over this hull's whole history (built by
    /// [`OnlineHull::plane_block`], kept current by
    /// [`OnlineHull::extend_plane_block`]). The descent stops at the **first**
    /// alive visible facet — one witness decides membership — and folds
    /// its visited-node count into `counts.descent_steps`. Answers
    /// match the full-scan oracle [`OnlineHull::contains_scan`].
    pub fn contains_with(
        &self,
        coords: &[i64],
        counts: &mut KernelCounts,
        block: Option<&PlaneBlock>,
    ) -> bool {
        assert_eq!(coords.len(), self.dim, "point of wrong dimension");
        let mut outside = false;
        let visited = self.descend(coords, block, counts, |_| {
            outside = true;
            true
        });
        counts.descent_steps += visited as u64;
        !outside
    }

    /// The alive facets visible from `coords` (empty iff the point is
    /// inside or on the hull). Shared read path, like
    /// [`OnlineHull::contains_counted`].
    pub fn visible_facets(&self, coords: &[i64], counts: &mut KernelCounts) -> Vec<u32> {
        self.visible_facets_with(coords, counts, None)
    }

    /// [`OnlineHull::visible_facets`] with an optional packed-plane
    /// filter block; folds the descent-step count into
    /// `counts.descent_steps`. The returned *set* of facets equals
    /// [`OnlineHull::visible_facets_scan`]'s (the orders differ: DFS
    /// discovery vs ascending id).
    pub fn visible_facets_with(
        &self,
        coords: &[i64],
        counts: &mut KernelCounts,
        block: Option<&PlaneBlock>,
    ) -> Vec<u32> {
        assert_eq!(coords.len(), self.dim, "point of wrong dimension");
        let mut out = Vec::new();
        let visited = self.descend(coords, block, counts, |id| {
            out.push(id);
            false
        });
        counts.descent_steps += visited as u64;
        out
    }

    /// Linear-scan membership oracle: test **every** alive facet with the
    /// per-facet staged kernel, in ascending facet-id order. This is the
    /// pre-descent read path, kept as the correctness oracle the
    /// property tests compare descent against. Never touches
    /// `descent_steps`.
    pub fn contains_scan(&self, coords: &[i64], counts: &mut KernelCounts) -> bool {
        assert_eq!(coords.len(), self.dim, "point of wrong dimension");
        self.visible_facets_scan(coords, counts).is_empty()
    }

    /// Linear-scan twin of [`OnlineHull::visible_facets`]: all alive
    /// facets that see `coords`, in ascending facet-id order.
    pub fn visible_facets_scan(&self, coords: &[i64], counts: &mut KernelCounts) -> Vec<u32> {
        assert_eq!(coords.len(), self.dim, "point of wrong dimension");
        (0..self.facets.len() as u32)
            .filter(|&id| self.facets[id as usize].alive && self.sees(id, coords, counts))
            .collect()
    }

    /// Tri-state location of `coords` relative to the current hull, via
    /// one pass over the alive facets with the staged exact kernel:
    /// strictly interior, on the boundary (on some alive facet's
    /// hyperplane without being beyond any), or strictly outside.
    ///
    /// Deleting an `Inside` point cannot change the hull; deleting an
    /// `OnBoundary` or `Outside` one can — this is the decision the
    /// windowed serving layer's tombstone-vs-rebuild trigger rests on
    /// (an `Outside` classification only arises transiently, for points
    /// buffered but not yet applied).
    pub fn classify(&self, coords: &[i64], counts: &mut KernelCounts) -> PointLocation {
        assert_eq!(coords.len(), self.dim, "point of wrong dimension");
        let mut on_boundary = false;
        for f in self.facets.iter().filter(|f| f.alive) {
            let s = f.plane.sign_point(coords, counts);
            if s == Sign::Zero {
                on_boundary = true;
            } else if s == f.visible_sign {
                return PointLocation::Outside;
            }
        }
        if on_boundary {
            PointLocation::OnBoundary
        } else {
            PointLocation::Inside
        }
    }

    /// Pack every facet plane ever created (dead ones included — the
    /// history descent walks through them) into one SoA filter block,
    /// indexed by facet id. Built per published snapshot by
    /// `chull-service` and shared read-only across query threads. It is
    /// valid for the facets it was built from; once this hull grows,
    /// [`OnlineHull::extend_plane_block`] appends the new planes.
    pub fn plane_block(&self) -> PlaneBlock {
        PlaneBlock::from_planes(self.dim, self.facets.iter().map(|f| &f.plane))
    }

    /// Bring a block built from a prefix of this hull's history (by
    /// [`OnlineHull::plane_block`] on an earlier state or a replica of
    /// one) up to date by appending the planes of the facets created
    /// since: amortized O(new facets). Facet planes never change, so the
    /// packed prefix stays valid.
    pub fn extend_plane_block(&self, block: &mut PlaneBlock) {
        block.extend(self.facets[block.len()..].iter().map(|f| &f.plane));
    }

    /// The vertex ids on the current hull, ascending and deduplicated.
    /// One O(points) pass over the alive-facet incidence counts —
    /// intended to be cached per published snapshot so
    /// [`OnlineHull::extreme_with`] answers directional queries in
    /// O(hull vertices) with no per-query set-building.
    pub fn hull_vertices(&self) -> Vec<u32> {
        (0u32..)
            .zip(&self.incidence)
            .filter(|&(_, &n)| n > 0)
            .map(|(v, _)| v)
            .collect()
    }

    /// Number of facets on the current hull: the alive facets, counted
    /// without building the facet list [`OnlineHull::output`] returns.
    pub fn num_facets(&self) -> usize {
        self.facets.iter().filter(|f| f.alive).count()
    }

    /// The alive facet ids, ascending, read off the ridge adjacency map:
    /// O(hull size), not O(history).
    fn alive_facets(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .adj
            .values()
            .flatten()
            .copied()
            .filter(|&f| f != NO_FACET)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Bring `stale` — an unmodified clone of an earlier state of this
    /// hull — up to date in place, at a cost proportional to what changed
    /// since it was taken: the facets and points added since are copied
    /// (the whole facet vector instead, each time this hull's own vector
    /// has grown), the older facets that died or gained a history child since (found
    /// by their `changed_at` stamps, one O(facets) pass over a `u32`
    /// array) have their liveness and children re-copied, and the
    /// adjacency map and scalar state follow. Afterwards `stale` equals a
    /// fresh [`Clone::clone`] of `self` in every field queries,
    /// insertions and snapshots can observe.
    ///
    /// Returns `false`, leaving `stale` untouched, when `stale` holds a
    /// different history: another lineage (a separately constructed or
    /// rebuilt hull, or a clone that was itself mutated) or a state this
    /// hull never passed through. The caller then falls back to a clone.
    pub fn refresh_replica(&self, stale: &mut OnlineHull) -> bool {
        let old = stale.facets.len();
        if stale.lineage.id != self.lineage.id
            || old > self.facets.len()
            || stale.pts.len() > self.pts.len()
        {
            return false;
        }
        for (id, &at) in self.changed_at[..old].iter().enumerate() {
            if (at as usize) < old {
                continue;
            }
            let src = &self.facets[id];
            if stale.facets[id].alive && !src.alive {
                stale.remove_from_adj(id as u32);
            }
            let dst = &mut stale.facets[id];
            dst.alive = src.alive;
            dst.children.clone_from(&src.children);
            stale.changed_at[id] = at;
        }
        if stale.facets.capacity() < self.facets.len() {
            // Growing in place would hold the old and the new buffer at
            // once. Free the old one first and copy the whole history
            // into this hull's capacity instead: it happens only when
            // this hull's own vector grew, so it stays amortized O(1)
            // per facet, and a replica never needs more than one buffer.
            stale.facets = Vec::new();
            stale.facets.reserve_exact(self.facets.capacity());
            stale.facets.extend_from_slice(&self.facets);
        } else {
            stale.facets.extend_from_slice(&self.facets[old..]);
        }
        stale.changed_at.extend_from_slice(&self.changed_at[old..]);
        for id in old..self.facets.len() {
            if self.facets[id].alive {
                stale.add_to_adj(id as u32);
            }
        }
        for i in stale.pts.len()..self.pts.len() {
            stale.pts.push(self.pts.point(i));
        }
        stale.incidence.clone_from(&self.incidence);
        stale.last_visited = self.last_visited;
        stale.kernel = self.kernel;
        stale.dep_depth = self.dep_depth;
        stale.last_batch = self.last_batch;
        true
    }

    /// The hull vertex extreme in direction `dir` (maximizing `dir · p`
    /// exactly over the current hull vertices): `(point id, coordinates)`.
    /// Ties break toward the smallest id. `dir` components must stay
    /// within [`chull_geometry::MAX_COORD`] so the `i128` dot products
    /// cannot overflow.
    ///
    /// Directional queries deliberately do **not** descend the history
    /// graph: visibility of a direction at infinity can degenerate to
    /// `Zero` on an ancestor facet even when a descendant is extreme, so
    /// the support property gives no completeness guarantee off the
    /// finite point set (DESIGN §S18). A scan over the hull's vertex set
    /// is exact and already sublinear in the history size.
    pub fn extreme(&self, dir: &[i64]) -> (u32, Vec<i64>) {
        self.extreme_with(dir, &self.hull_vertices())
    }

    /// [`OnlineHull::extreme`] over a caller-cached vertex list (ascending
    /// ids, as produced by [`OnlineHull::hull_vertices`]) — the tight loop
    /// behind snapshot `Extreme` queries.
    pub fn extreme_with(&self, dir: &[i64], verts: &[u32]) -> (u32, Vec<i64>) {
        assert_eq!(dir.len(), self.dim, "direction of wrong dimension");
        assert!(
            dir.iter().all(|&c| c.abs() <= chull_geometry::MAX_COORD),
            "direction component exceeds MAX_COORD"
        );
        assert!(!verts.is_empty(), "hull has at least one facet");
        let dot = |v: u32| -> i128 {
            self.pts
                .pt(v)
                .iter()
                .zip(dir)
                .map(|(&c, &d)| c as i128 * d as i128)
                .sum()
        };
        // Ascending ids + strictly-greater updates = smallest-id tie-break.
        let mut best_v = verts[0];
        let mut best_s = dot(verts[0]);
        for &v in &verts[1..] {
            let s = dot(v);
            if s > best_s {
                best_s = s;
                best_v = v;
            }
        }
        (best_v, self.pts.pt(best_v).to_vec())
    }

    /// Number of points inserted so far (including the seed simplex).
    pub fn num_points(&self) -> usize {
        self.pts.len()
    }

    /// Snapshot of the current hull facets.
    pub fn output(&self) -> HullOutput {
        let facets: Vec<FacetVerts> = self
            .facets
            .iter()
            .filter(|f| f.alive)
            .map(|f| {
                let mut v = [NO_VERT; MAX_DIM];
                v[..self.dim].copy_from_slice(&f.verts[..self.dim]);
                v
            })
            .collect();
        HullOutput {
            dim: self.dim,
            facets,
        }
    }

    /// The accumulated point set (insertion order).
    pub fn points(&self) -> &PointSet {
        &self.pts
    }
}

/// An online hull builder that also handles the **degenerate prefix**:
/// arrivals are buffered until `d + 1` affinely independent points have
/// been seen (the seed simplex), then the buffer replays into a live
/// [`OnlineHull`] in arrival order.
///
/// This is the crash-recovery **replay entry point**: a shard that loses
/// its worker rebuilds its exact state by streaming its append-only
/// insert journal through [`HullBuilder::replay`]. Because the hull is
/// order-independent (any execution order consistent with the dependence
/// graph yields the identical hull — Theorem 4.2), and replay preserves
/// the journal order anyway, the rebuilt hull is bit-identical to the
/// lost one on the same insert prefix.
#[derive(Clone)]
pub struct HullBuilder {
    dim: usize,
    applied: u64,
    state: BuilderState,
    /// Point ids the last bulk build ([`HullBuilder::seed_from_bulk`] or
    /// [`HullBuilder::repair`]) installed, seeds included, ascending.
    /// Every other point that build saw is strictly inside their hull.
    installed: Vec<u32>,
    /// Points the hull held right after that build: ids from here on
    /// were appended since. 0 for a hull promoted by
    /// [`HullBuilder::push`], whose every point counts as appended.
    built: usize,
}

#[derive(Clone)]
enum BuilderState {
    /// Buffered arrivals + indices of an affinely independent subset.
    Boot {
        pts: Vec<Vec<i64>>,
        basis: Vec<usize>,
    },
    Live(Box<OnlineHull>),
}

impl HullBuilder {
    /// An empty builder for dimension `dim` (2..=[`MAX_DIM`]).
    pub fn new(dim: usize) -> HullBuilder {
        assert!((2..=MAX_DIM).contains(&dim), "dimension out of range");
        HullBuilder {
            dim,
            applied: 0,
            state: BuilderState::Boot {
                pts: Vec::new(),
                basis: Vec::new(),
            },
            installed: Vec::new(),
            built: 0,
        }
    }

    /// Rebuild a builder by replaying an insert sequence in order.
    pub fn replay<'a, I>(dim: usize, inserts: I) -> HullBuilder
    where
        I: IntoIterator<Item = &'a [i64]>,
    {
        let mut b = HullBuilder::new(dim);
        for p in inserts {
            b.push(p);
        }
        b
    }

    /// Accept one arrival: buffer it while bootstrapping, insert it into
    /// the live hull afterwards.
    pub fn push(&mut self, p: &[i64]) {
        assert_eq!(p.len(), self.dim, "point of wrong dimension");
        self.applied += 1;
        match &mut self.state {
            BuilderState::Boot { pts, basis } => {
                let mut rows: Vec<&[i64]> = basis.iter().map(|&i| pts[i].as_slice()).collect();
                rows.push(p);
                if chull_geometry::exact::affine_rank(&rows) == rows.len() {
                    basis.push(pts.len());
                }
                pts.push(p.to_vec());
                if basis.len() == self.dim + 1 {
                    // Seed simplex found: promote to a live hull and
                    // replay the remaining buffered arrivals in order.
                    let seeds: Vec<Vec<i64>> = basis.iter().map(|&i| pts[i].clone()).collect();
                    let mut hull = OnlineHull::new(self.dim, &seeds);
                    let basis_set: std::collections::HashSet<usize> =
                        basis.iter().copied().collect();
                    for (i, q) in pts.iter().enumerate() {
                        if !basis_set.contains(&i) {
                            hull.insert(q);
                        }
                    }
                    self.state = BuilderState::Live(Box::new(hull));
                }
            }
            BuilderState::Live(hull) => {
                hull.insert(p);
            }
        }
    }

    /// Accept a batch of arrivals as one unit: while bootstrapping, points
    /// feed through [`HullBuilder::push`] singly (affine-rank growth is
    /// inherently sequential); once live, the remainder of the batch goes
    /// through [`OnlineHull::insert_batch_par`] in a single parallel step.
    /// The bootstrap/parallel split depends only on the arrival sequence,
    /// so a journal replay re-derives it exactly.
    ///
    /// Returns one flag per point, `true` iff it extended the hull; points
    /// consumed while bootstrapping report `false` (they are seeds or
    /// buffered, not yet classified — matching what a caller can observe
    /// through [`HullBuilder::hull`]).
    pub fn push_batch(&mut self, points: &[Vec<i64>], threads: usize) -> Vec<bool> {
        let mut accepted = Vec::with_capacity(points.len());
        let mut i = 0;
        while i < points.len() {
            match &mut self.state {
                BuilderState::Boot { .. } => {
                    self.push(&points[i]);
                    accepted.push(false);
                    i += 1;
                }
                BuilderState::Live(hull) => {
                    let rest = &points[i..];
                    let res = hull.insert_batch_par(rest, threads);
                    self.applied += rest.len() as u64;
                    accepted.extend(res);
                    break;
                }
            }
        }
        accepted
    }

    /// Seed a builder from a **fully known** point sequence in one bulk
    /// step — the one build-from-known-rows constructor behind every
    /// restart surface (DESIGN §S21). Runs the quickhull-style
    /// [`crate::bulk::prefilter`] over all rows, then installs the
    /// survivors with a single parallel batch from the seed simplex. The
    /// facet set is canonically identical to Algorithm 2 on the same
    /// rows (debug builds cross-check against
    /// [`crate::seq::incremental_hull_run`]) and to what
    /// [`HullBuilder::replay`] would build, for every worker count; facet
    /// ids, history depths, and kernel counters follow the bulk counting
    /// regime rather than replay's, exactly as
    /// [`OnlineHull::insert_batch_par`]'s differ from per-point inserts.
    ///
    /// Internal vertex-id order matches [`HullBuilder::push`] promotion —
    /// the greedy affine basis first, then every other row in arrival
    /// order — so snapshots and queries observe the same ids either way.
    /// Inputs without `d + 1` affinely independent rows fall back to plain
    /// incremental replay (`report.fallback`).
    pub fn seed_from_bulk<R: AsRef<[i64]>>(
        dim: usize,
        rows: &[R],
        threads: usize,
    ) -> (HullBuilder, crate::bulk::BulkReport) {
        let rows: Vec<&[i64]> = rows.iter().map(AsRef::as_ref).collect();
        let mut report = crate::bulk::BulkReport {
            input: rows.len(),
            ..Default::default()
        };
        let Some(hull) = seeded(dim, &rows) else {
            report.fallback = true;
            return (HullBuilder::replay(dim, rows), report);
        };
        let survivors = crate::bulk::prefilter(&hull.pts);
        report.candidates = survivors.len();
        let b = HullBuilder::install(hull, survivors, threads);
        #[cfg(debug_assertions)]
        {
            let hull = b.hull().expect("installed hull is live");
            let reference = crate::seq::incremental_hull_run(&hull.pts);
            debug_assert_eq!(
                hull.output().canonical(),
                reference.output.canonical(),
                "bulk-built hull differs from Algorithm 2's canonical hull"
            );
        }
        (b, report)
    }

    /// Correct the hull after the rows `dying` lost their last live copy,
    /// installing only what can change: the hull of `live` (the surviving
    /// rows in arrival order), canonically identical to
    /// [`HullBuilder::seed_from_bulk`] on them, with the same vertex ids.
    ///
    /// Each dying row must be a hull vertex `v`; its closed star
    /// `conv({v} ∪ link(v))` holds everything the hull gains when `v`
    /// goes. The build installs the surviving old vertices (every live
    /// copy of one) plus the live rows inside some star (bounding-box
    /// rejection, then exact sign tests against the star's facets).
    /// Every other live row was
    /// strictly inside the old hull and lies in no star, so it is
    /// strictly inside the hull of the surviving vertices — the rule
    /// [`crate::bulk::prefilter`] drops points by, and the reason the
    /// result matches Algorithm 2 (debug builds cross-check against
    /// `seed_from_bulk`).
    ///
    /// Returns `None`, and the caller takes the full build, when:
    /// * a dying row is not a vertex, or two share a facet;
    /// * a star is not full-dimensional;
    /// * a live non-vertex row might lie on the old hull's boundary
    ///   without coinciding with a vertex: the rows the last build
    ///   installed plus those appended since are classified (every other
    ///   row is strictly inside by construction);
    /// * those classifications and the star tests would cost more sign
    ///   tests than the full build's prefilter (`n ×`
    ///   [`crate::bulk::prefilter_facets`]) — checked before either runs,
    ///   so a hull of all vertices refuses at once;
    /// * the hull is still bootstrapping, or the survivors are flat.
    ///
    /// `live` must be a sub-multiset of the rows the hull holds.
    pub fn repair<'a, I>(&self, live: I, dying: &[Vec<i64>], threads: usize) -> Option<HullBuilder>
    where
        I: ExactSizeIterator<Item = &'a [i64]>,
    {
        let dim = self.dim;
        let hull = self.hull()?;
        let n = live.len();
        let budget = n * crate::bulk::prefilter_facets(dim);
        let verts = hull.hull_vertices();
        let dead: Vec<u32> = dying
            .iter()
            .map(|row| {
                verts
                    .iter()
                    .copied()
                    .find(|&v| hull.pts.pt(v) == row.as_slice())
            })
            .collect::<Option<_>>()?;
        let alive = hull.alive_facets();
        let mut links: Vec<Vec<u32>> = vec![Vec::new(); dead.len()];
        for &f in &alive {
            let fv = &hull.facets[f as usize].verts[..dim];
            let mut hits = dead.iter().enumerate().filter(|&(_, v)| fv.contains(v));
            if let Some((k, &v)) = hits.next() {
                if hits.next().is_some() {
                    return None;
                }
                links[k].extend(fv.iter().copied().filter(|&u| u != v));
            }
        }
        // Certification set: the rows the last build installed and those
        // appended since (vertices among them are skipped below, so the
        // cost is an upper bound).
        let mut cert = self
            .installed
            .iter()
            .copied()
            .chain(self.built as u32..hull.pts.len() as u32);
        let cert_tests = (self.installed.len() + hull.pts.len() - self.built) * alive.len();
        if cert_tests > budget {
            return None;
        }
        let stars: Vec<Star> = dead
            .iter()
            .zip(&mut links)
            .map(|(&v, link)| {
                link.sort_unstable();
                link.dedup();
                let rows: Vec<&[i64]> = std::iter::once(v)
                    .chain(link.iter().copied())
                    .map(|u| hull.pts.pt(u))
                    .collect();
                Star::new(dim, &rows)
            })
            .collect::<Option<_>>()?;
        let rows: Vec<&[i64]> = live.collect();
        let new = seeded(dim, &rows)?;
        let star_tests: usize = (0..new.pts.len() as u32)
            .map(|id| {
                let p = new.pts.pt(id);
                stars
                    .iter()
                    .filter(|s| s.boxes(p))
                    .map(|s| s.facets.len())
                    .sum::<usize>()
            })
            .sum();
        if cert_tests + star_tests > budget {
            return None;
        }
        let mut counts = KernelCounts::default();
        let planes: Vec<(&Hyperplane, Sign)> = alive
            .iter()
            .map(|&f| {
                (
                    &hull.facets[f as usize].plane,
                    hull.facets[f as usize].visible_sign,
                )
            })
            .collect();
        // Vertex coordinates. A dying row has no live copy left, so the
        // live rows found here are exactly the surviving vertices and
        // their duplicates, all of which get installed.
        let kept = VertexSet::new(verts.iter().map(|&v| hull.pts.pt(v)));
        let is_vertex = |id: u32| hull.incidence.get(id as usize).is_some_and(|&c| c > 0);
        if !cert.all(|id| {
            let p = hull.pts.pt(id);
            is_vertex(id) || strictly_inside(&planes, p, &mut counts) || kept.contains(p)
        }) {
            return None;
        }
        let picks: Vec<u32> = (0..new.pts.len() as u32)
            .filter(|&id| {
                let p = new.pts.pt(id);
                id <= dim as u32
                    || kept.contains(p)
                    || stars.iter().any(|s| s.contains(p, &mut counts))
            })
            .collect();
        let b = HullBuilder::install(new, picks, threads);
        #[cfg(debug_assertions)]
        {
            let full = HullBuilder::seed_from_bulk(dim, &rows, threads).0;
            debug_assert_eq!(
                b.hull().map(|h| h.output().canonical()),
                full.hull().map(|h| h.output().canonical()),
                "repaired hull differs from the full survivor build"
            );
        }
        Some(b)
    }

    /// Install `picks` (ascending ids; those of the seed simplex
    /// `0..=dim` are in already) into a freshly [`seeded`] hull with one
    /// parallel batch, and record them as the build's installed set.
    /// Fewer than [`MIN_PAR_INSTALL`] picks install on the calling thread.
    fn install(mut hull: OnlineHull, picks: Vec<u32>, threads: usize) -> HullBuilder {
        let threads = if picks.len() < MIN_PAR_INSTALL {
            1
        } else if threads == 0 {
            chull_concurrent::pool::default_threads()
        } else {
            threads
        };
        let dim = hull.dim;
        // The seed simplex ids `0..=dim` are already installed.
        let from = picks.partition_point(|&c| c <= dim as u32);
        hull.install_bulk(&picks[from..], threads);
        HullBuilder {
            dim,
            applied: hull.pts.len() as u64,
            built: hull.pts.len(),
            installed: picks,
            state: BuilderState::Live(Box::new(hull)),
        }
    }

    /// The dimension this builder was created with.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Arrivals accepted so far (buffered + inserted, including seeds).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The live hull, once the seed simplex has been found.
    pub fn hull(&self) -> Option<&OnlineHull> {
        match &self.state {
            BuilderState::Boot { .. } => None,
            BuilderState::Live(h) => Some(h.as_ref()),
        }
    }

    /// The buffered arrivals while bootstrapping (`None` once live).
    pub fn buffered(&self) -> Option<&[Vec<i64>]> {
        match &self.state {
            BuilderState::Boot { pts, .. } => Some(pts),
            BuilderState::Live(_) => None,
        }
    }
}

/// A fresh hull over `rows` (arrival order) as every bulk constructor
/// lays it out — the greedy affine basis (the selection rule
/// [`HullBuilder::push`] applies while bootstrapping) as the seed
/// simplex, every other row appended in arrival order — with nothing
/// installed beyond the simplex. `None` when the rows are flat.
fn seeded(dim: usize, rows: &[&[i64]]) -> Option<OnlineHull> {
    let mut basis: Vec<usize> = Vec::with_capacity(dim + 1);
    for (i, p) in rows.iter().enumerate() {
        assert_eq!(p.len(), dim, "point of wrong dimension");
        let mut sel: Vec<&[i64]> = basis.iter().map(|&j| rows[j]).collect();
        sel.push(p);
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
    let seeds: Vec<Vec<i64>> = basis.iter().map(|&i| rows[i].to_vec()).collect();
    let mut hull = OnlineHull::new(dim, &seeds);
    for (i, p) in rows.iter().enumerate() {
        if !basis.contains(&i) {
            hull.pts.push(p);
        }
    }
    Some(hull)
}

/// Strictly inside the halfspace intersection of `planes` (no plane
/// gives `q` a `Zero` or visible sign).
fn strictly_inside(planes: &[(&Hyperplane, Sign)], q: &[i64], counts: &mut KernelCounts) -> bool {
    planes.iter().all(|&(plane, visible)| {
        let s = plane.sign_point(q, counts);
        s != Sign::Zero && s != visible
    })
}

/// A set of vertex coordinate rows for [`HullBuilder::repair`]'s one
/// lookup per live row, screened by a 1024-bit filter on the first
/// coordinate: nearly every row is interior and shares its first
/// coordinate with no vertex, so it costs one multiply and one bit test.
/// Rows come from clients, so the set keeps the default (keyed) hasher.
struct VertexSet<'a> {
    screen: [u64; 16],
    rows: std::collections::HashSet<&'a [i64]>,
}

impl<'a> VertexSet<'a> {
    fn new(rows: impl Iterator<Item = &'a [i64]>) -> VertexSet<'a> {
        let mut set = VertexSet {
            screen: [0; 16],
            rows: Default::default(),
        };
        for r in rows {
            let bit = Self::bit(r);
            set.screen[bit >> 6] |= 1 << (bit & 63);
            set.rows.insert(r);
        }
        set
    }

    fn bit(r: &[i64]) -> usize {
        ((r[0] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize
    }

    fn contains(&self, r: &[i64]) -> bool {
        let bit = Self::bit(r);
        self.screen[bit >> 6] >> (bit & 63) & 1 == 1 && self.rows.contains(r)
    }
}

/// The closed star `conv({v} ∪ link(v))` of a dying vertex, for
/// [`HullBuilder::repair`]: its facets and its bounding box.
struct Star {
    facets: Vec<(Hyperplane, Sign)>,
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl Star {
    /// `None` when the star is not full-dimensional.
    fn new(dim: usize, rows: &[&[i64]]) -> Option<Star> {
        let facets = crate::bulk::hull_facets(dim, rows)?;
        let (mut lo, mut hi) = (rows[0].to_vec(), rows[0].to_vec());
        for r in &rows[1..] {
            for a in 0..dim {
                lo[a] = lo[a].min(r[a]);
                hi[a] = hi[a].max(r[a]);
            }
        }
        Some(Star { facets, lo, hi })
    }

    /// `q` lies in the star's bounding box.
    fn boxes(&self, q: &[i64]) -> bool {
        q.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(c, (lo, hi))| lo <= c && c <= hi)
    }

    /// `q` lies in the closed star: inside its box and beyond none of
    /// its facets.
    fn contains(&self, q: &[i64], counts: &mut KernelCounts) -> bool {
        self.boxes(q)
            && self
                .facets
                .iter()
                .all(|(plane, visible)| plane.sign_point(q, counts) != *visible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::prepare_points;
    use crate::seq::incremental_hull_run;
    use crate::verify::verify_hull;
    use chull_geometry::generators;

    fn online_from(pts: &PointSet) -> OnlineHull {
        let dim = pts.dim();
        let seeds: Vec<Vec<i64>> = (0..=dim).map(|i| pts.point(i).to_vec()).collect();
        let mut hull = OnlineHull::new(dim, &seeds);
        for i in (dim + 1)..pts.len() {
            hull.insert(pts.point(i));
        }
        hull
    }

    #[test]
    fn matches_offline_2d_and_3d() {
        for seed in 0..3u64 {
            let pts = prepare_points(
                &PointSet::from_points2(&generators::disk_2d(400, 1 << 20, seed)),
                seed + 1,
            );
            let offline = incremental_hull_run(&pts);
            let online = online_from(&pts);
            assert_eq!(online.output().canonical(), offline.output.canonical());

            let pts = prepare_points(
                &PointSet::from_points3(&generators::ball_3d(250, 1 << 20, seed)),
                seed + 2,
            );
            let offline = incremental_hull_run(&pts);
            let online = online_from(&pts);
            assert_eq!(online.output().canonical(), offline.output.canonical());
        }
    }

    #[test]
    fn matches_offline_higher_dims() {
        for dim in 4..=5 {
            let pts = prepare_points(&generators::ball_d(dim, 48, 1 << 16, 9), 10);
            let offline = incremental_hull_run(&pts);
            let online = online_from(&pts);
            assert_eq!(
                online.output().canonical(),
                offline.output.canonical(),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn insert_reports_extremeness() {
        let mut hull = OnlineHull::new(2, &[vec![0, 0], vec![100, 0], vec![0, 100]]);
        assert!(!hull.insert(&[10, 10]), "interior point");
        assert!(hull.insert(&[100, 100]), "exterior point");
        assert!(!hull.insert(&[50, 50]), "now interior");
        assert_eq!(hull.output().num_facets(), 4);
        let pts = hull.points().clone();
        verify_hull(&pts, &hull.output()).unwrap();
    }

    #[test]
    fn membership_queries_are_shared_reads() {
        // `contains` takes `&self`: no mutation, usable through a shared
        // reference from many threads at once.
        let hull = OnlineHull::new(2, &[vec![0, 0], vec![10, 0], vec![0, 10]]);
        assert!(hull.contains(&[1, 1]));
        assert!(!hull.contains(&[100, 100]));
        assert_eq!(hull.num_points(), 3);
        assert_eq!(hull.output().num_facets(), 3);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &hull;
                s.spawn(move || {
                    let mut counts = KernelCounts::default();
                    assert!(h.contains_counted(&[1, 1 + t % 2], &mut counts));
                    assert!(counts.tests > 0);
                    assert!(!h.visible_facets(&[100, 100], &mut counts).is_empty());
                });
            }
        });
    }

    #[test]
    fn dep_depth_tracks_deepest_chain() {
        let mut hull = OnlineHull::new(2, &[vec![0, 0], vec![100, 0], vec![0, 100]]);
        assert_eq!(hull.dep_depth(), 1, "seed facets have depth 1");
        assert!(hull.insert(&[100, 100]));
        assert_eq!(hull.dep_depth(), 2, "children of seeds have depth 2");
        assert!(!hull.insert(&[50, 50]));
        assert_eq!(hull.dep_depth(), 2, "interior insert adds no depth");
        assert!(hull.insert(&[300, 300]));
        assert!(hull.dep_depth() >= 3, "chain through the new corner");
    }

    #[test]
    fn extreme_maximizes_direction() {
        let mut hull = OnlineHull::new(2, &[vec![0, 0], vec![10, 0], vec![0, 10]]);
        hull.insert(&[10, 10]);
        hull.insert(&[5, 5]); // interior
        let (v, coords) = hull.extreme(&[1, 1]);
        assert_eq!(coords, vec![10, 10]);
        assert_eq!(v, 3);
        let (_, coords) = hull.extreme(&[-1, 0]);
        assert_eq!(coords[0], 0);
        let (_, coords) = hull.extreme(&[0, -1]);
        assert_eq!(coords[1], 0);
    }

    #[test]
    fn builder_buffers_degenerate_prefix_then_goes_live() {
        let mut b = HullBuilder::new(2);
        for p in [[0, 0], [1, 1], [2, 2], [3, 3]] {
            b.push(&p);
        }
        assert!(b.hull().is_none(), "collinear prefix stays in bootstrap");
        assert_eq!(b.buffered().unwrap().len(), 4);
        b.push(&[5, 0]);
        assert!(b.hull().is_some());
        assert_eq!(b.applied(), 5);
        assert!(b.hull().unwrap().contains(&[2, 1]));
    }

    #[test]
    fn replay_rebuilds_bit_identical_hull() {
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(300, 1 << 20, 17)),
            18,
        );
        let rows: Vec<&[i64]> = (0..pts.len()).map(|i| pts.point(i)).collect();
        let mut live = HullBuilder::new(2);
        for r in &rows {
            live.push(r);
        }
        let replayed = HullBuilder::replay(2, rows.iter().copied());
        let (a, b) = (live.hull().unwrap(), replayed.hull().unwrap());
        assert_eq!(a.output().canonical(), b.output().canonical());
        assert_eq!(a.num_points(), b.num_points());
        // Same arrival order => identical vertex ids, facets, everything.
        assert_eq!(a.output().facets, b.output().facets);
    }

    #[test]
    fn single_batch_matches_offline_algorithm2_exactly() {
        for (dim, seed) in [(2usize, 11u64), (3, 12)] {
            let pts = if dim == 2 {
                prepare_points(
                    &PointSet::from_points2(&generators::disk_2d(500, 1 << 20, seed)),
                    seed + 1,
                )
            } else {
                prepare_points(
                    &PointSet::from_points3(&generators::ball_3d(300, 1 << 20, seed)),
                    seed + 1,
                )
            };
            let offline = incremental_hull_run(&pts);
            let seeds: Vec<Vec<i64>> = (0..=dim).map(|i| pts.point(i).to_vec()).collect();
            let batch: Vec<Vec<i64>> = ((dim + 1)..pts.len())
                .map(|i| pts.point(i).to_vec())
                .collect();
            let mut hull = OnlineHull::new(dim, &seeds);
            let accepted = hull.insert_batch_par(&batch, 4);
            assert_eq!(hull.output().canonical(), offline.output.canonical());
            verify_hull(&pts, &hull.output()).unwrap();
            // One batch over the whole input IS the offline Algorithm 2 run:
            // seeding + recursion perform exactly its visibility tests, per
            // kernel stage, and create exactly its facets.
            assert_eq!(hull.kernel.tests, offline.stats.visibility_tests);
            assert_eq!(hull.kernel.filter_hits, offline.stats.filter_hits);
            assert_eq!(hull.kernel.i128_fallbacks, offline.stats.i128_fallbacks);
            assert_eq!(hull.kernel.bigint_fallbacks, offline.stats.bigint_fallbacks);
            assert_eq!(
                hull.last_batch.created as u64 + dim as u64 + 1,
                offline.stats.facets_created
            );
            // Seeds count 1 online but 0 offline; the chains are the same.
            assert_eq!(hull.dep_depth(), offline.stats.dep_depth + 1);
            // Extremeness flags match per-point insertion in the same order.
            let mut solo = OnlineHull::new(dim, &seeds);
            let solo_accepted: Vec<bool> = batch.iter().map(|p| solo.insert(p)).collect();
            assert_eq!(accepted, solo_accepted);
        }
    }

    #[test]
    fn batch_insert_is_deterministic_across_worker_counts() {
        let pts = prepare_points(
            &PointSet::from_points3(&generators::ball_3d(400, 1 << 20, 7)),
            8,
        );
        let dim = 3;
        let seeds: Vec<Vec<i64>> = (0..=dim).map(|i| pts.point(i).to_vec()).collect();
        let batch: Vec<Vec<i64>> = ((dim + 1)..pts.len())
            .map(|i| pts.point(i).to_vec())
            .collect();
        let mut reference: Option<(Vec<bool>, HullOutput, KernelCounts, u64)> = None;
        for threads in [1usize, 2, 4] {
            let mut hull = OnlineHull::new(dim, &seeds);
            let accepted = hull.insert_batch_par(&batch, threads);
            assert_eq!(hull.last_batch.batch_len, batch.len());
            let out = hull.output();
            match &reference {
                None => reference = Some((accepted, out, hull.kernel, hull.dep_depth())),
                Some((a, o, k, d)) => {
                    assert_eq!(&accepted, a, "accepted flags differ at {threads} threads");
                    // Facet-id-order equality, not just canonical: the whole
                    // point of the canonical integration order.
                    assert_eq!(
                        out.facets, o.facets,
                        "facet ids differ at {threads} threads"
                    );
                    assert_eq!(hull.kernel, *k, "kernel counts differ at {threads} threads");
                    assert_eq!(hull.dep_depth(), *d);
                }
            }
        }
    }

    #[test]
    fn sequential_then_batch_continues_algorithm2() {
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(600, 1 << 20, 21)),
            22,
        );
        let dim = 2;
        let offline = incremental_hull_run(&pts);
        let seeds: Vec<Vec<i64>> = (0..=dim).map(|i| pts.point(i).to_vec()).collect();
        let mut hull = OnlineHull::new(dim, &seeds);
        let split = pts.len() / 2;
        for i in (dim + 1)..split {
            hull.insert(pts.point(i));
        }
        let batch: Vec<Vec<i64>> = (split..pts.len()).map(|i| pts.point(i).to_vec()).collect();
        hull.insert_batch_par(&batch, 3);
        assert_eq!(hull.output().canonical(), offline.output.canonical());
        verify_hull(&pts, &hull.output()).unwrap();
        // And further single inserts keep working on the batch-built state.
        assert!(!hull.insert(&[1, 1]), "interior point after batch");
    }

    /// Everything a batch may write, in facet-id order: vertices,
    /// liveness, dependence depth and history children.
    fn history_of(hull: &OnlineHull) -> Vec<(FacetVerts, bool, u32, Vec<u32>)> {
        hull.facets
            .iter()
            .map(|f| (f.verts, f.alive, f.depth, f.children.iter().collect()))
            .collect()
    }

    /// Apply `batches` one after the other to a hull that already has
    /// history, checking each against three oracles: the located visible
    /// set of every point equals the scan oracle's on the pre-batch hull;
    /// the result equals per-point insertion (canonical hull, accepted
    /// flags); and it is bit-identical at 1, 2 and 4 workers.
    fn check_located_batches(name: &str, mut hull: OnlineHull, batches: &[Vec<Vec<i64>>]) {
        for (bi, batch) in batches.iter().enumerate() {
            assert!(batch.len() >= MIN_PAR_BATCH);
            assert!(hull.facets.len() > hull.dim + 1, "no history to descend");
            let mut probe = hull.clone();
            let base = probe.pts.len() as u32;
            for p in batch {
                probe.pts.push(p);
            }
            let (pairs, locate_counts, _) = probe.locate_batch(base..base + batch.len() as u32, 3);
            for (i, p) in batch.iter().enumerate() {
                let q = base + i as u32;
                let located: Vec<u32> = pairs
                    .iter()
                    .filter(|&&pair| pair as u32 == q)
                    .map(|&pair| (pair >> 32) as u32)
                    .collect();
                let scanned = hull.visible_facets_scan(p, &mut KernelCounts::default());
                assert_eq!(located, scanned, "{name}: batch {bi} point {i} {p:?}");
            }

            let mut solo = hull.clone();
            let solo_accepted: Vec<bool> = batch.iter().map(|p| solo.insert(p)).collect();
            let mut reference: Option<OnlineHull> = None;
            for threads in [1usize, 2, 4] {
                let mut h = hull.clone();
                let accepted = h.insert_batch_par(batch, threads);
                assert_eq!(
                    accepted, solo_accepted,
                    "{name}: batch {bi} at {threads} workers"
                );
                assert_eq!(h.output().canonical(), solo.output().canonical());
                assert!(h.kernel.tests - hull.kernel.tests >= locate_counts.tests);
                match &reference {
                    None => reference = Some(h),
                    Some(r) => {
                        assert_eq!(
                            history_of(&h),
                            history_of(r),
                            "{name}: at {threads} workers"
                        );
                        assert_eq!(h.output().facets, r.output().facets);
                        assert_eq!(h.kernel, r.kernel, "{name}: kernel at {threads} workers");
                        assert_eq!(h.dep_depth(), r.dep_depth());
                    }
                }
            }
            hull = reference.unwrap();
            verify_hull(hull.points(), &hull.output()).unwrap();
        }
    }

    /// A hull with history from `rows` (first `d + 1` affinely
    /// independent): the first `prefix` rows applied as one batch, then
    /// the rest cut into `unit`-point batches for
    /// [`check_located_batches`].
    fn hull_and_batches(
        rows: &[Vec<i64>],
        prefix: usize,
        unit: usize,
    ) -> (OnlineHull, Vec<Vec<Vec<i64>>>) {
        let dim = rows[0].len();
        let mut hull = OnlineHull::new(dim, &rows[..=dim]);
        hull.insert_batch_par(&rows[dim + 1..prefix], 2);
        let batches = rows[prefix..].chunks(unit).map(|c| c.to_vec()).collect();
        (hull, batches)
    }

    fn rows_of(pts: &PointSet) -> Vec<Vec<i64>> {
        (0..pts.len()).map(|i| pts.point(i).to_vec()).collect()
    }

    #[test]
    fn located_batches_match_scan_inserts_and_worker_counts() {
        let circle = prepare_points(&generators::near_sphere_d(2, 1500, 1 << 24, 3), 4);
        let disk = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(1500, 1 << 20, 5)),
            6,
        );
        let ball = prepare_points(
            &PointSet::from_points3(&generators::ball_3d(900, 1 << 20, 7)),
            8,
        );
        let sphere = prepare_points(&generators::near_sphere_d(3, 600, 1 << 20, 9), 10);
        for (name, pts) in [
            ("circle", circle),
            ("disk", disk),
            ("ball", ball),
            ("sphere", sphere),
        ] {
            let rows = rows_of(&pts);
            let prefix = rows.len() / 3;
            let (hull, batches) = hull_and_batches(&rows, prefix, 128);
            check_located_batches(name, hull, &batches);
        }
    }

    #[test]
    fn located_batches_handle_duplicates_and_zero_signs() {
        // 2D: a square with history; batches mix points on its edges,
        // on the edges' extensions (zero against one edge, visible from
        // another), copies of hull vertices and of each other.
        let mut hull = OnlineHull::new(2, &[vec![0, 0], vec![1000, 0], vec![0, 1000]]);
        assert!(hull.insert(&[1000, 1000]));
        assert!(!hull.insert(&[300, 400]));
        let batch1: Vec<Vec<i64>> = vec![
            vec![500, 0],
            vec![0, 250],
            vec![1000, 500],
            vec![250, 1000],
            vec![1500, 0],
            vec![1500, 0],
            vec![-300, 0],
            vec![0, 1300],
            vec![1000, 1000],
            vec![10, 10],
            vec![2000, 2000],
            vec![2000, 2000],
            vec![1000, -1],
        ];
        let batch2: Vec<Vec<i64>> = vec![
            vec![1750, 1000],
            vec![-300, 0],
            vec![-300, 1300],
            vec![0, 1300],
            vec![-300, 650],
            vec![2000, -1],
            vec![2000, -1],
            vec![2500, 2500],
            vec![-1, -1],
            vec![5, 5],
        ];
        check_located_batches("square", hull, &[batch1, batch2]);

        // Many collinear points, and coplanar points on the cube's faces.
        let line = prepare_points(
            &PointSet::from_points2(&generators::collinear_heavy_2d(600, 12, 13)),
            14,
        );
        let rows = rows_of(&line);
        let mut rows2 = rows.clone();
        rows2.extend(rows[100..160].iter().cloned());
        let (hull, batches) = hull_and_batches(&rows2, 200, 64);
        check_located_batches("collinear", hull, &batches);
        let cube = prepare_points(
            &PointSet::from_points3(&generators::cube_faces_3d(500, 64, 15)),
            16,
        );
        let rows = rows_of(&cube);
        let (hull, batches) = hull_and_batches(&rows, 100, 80);
        check_located_batches("cube faces", hull, &batches);
    }

    #[test]
    fn located_batch_cost_is_output_sensitive() {
        // A near-circle hull with over 10k alive facets: seeding one
        // 256-point batch by scanning it would cost batch x alive tests.
        let pts = prepare_points(&generators::near_sphere_d(2, 14_000, 1 << 24, 21), 22);
        let rows = rows_of(&pts);
        let mut hull = OnlineHull::new(2, &rows[..3]);
        hull.insert_batch_par(&rows[3..], 2);
        let alive = hull.output().num_facets();
        assert!(alive >= 10_000, "only {alive} alive facets");
        let batch = rows_of(&generators::near_sphere_d(2, 256, 1 << 24, 23));
        let before = hull.kernel.tests;
        let accepted = hull.insert_batch_par(&batch, 2);
        assert!(
            accepted.iter().any(|&a| a),
            "the batch must change the hull"
        );
        let delta = hull.kernel.tests - before;
        let bound = (batch.len() * alive / 20) as u64;
        assert!(delta < bound, "{delta} tests for one batch, bound {bound}");
    }

    #[test]
    fn small_batches_take_the_sequential_path() {
        let mut hull = OnlineHull::new(2, &[vec![0, 0], vec![100, 0], vec![0, 100]]);
        let batch: Vec<Vec<i64>> = vec![vec![10, 10], vec![100, 100], vec![50, 50]];
        assert!(batch.len() < MIN_PAR_BATCH);
        let accepted = hull.insert_batch_par(&batch, 4);
        assert_eq!(accepted, vec![false, true, false]);
        assert_eq!(
            hull.last_batch.batch_len, 0,
            "sequential path leaves no batch telemetry"
        );
        assert_eq!(hull.output().num_facets(), 4);
    }

    #[test]
    fn push_batch_units_are_bit_identical_across_workers() {
        let pts = prepare_points(
            &PointSet::from_points3(&generators::ball_3d(260, 1 << 20, 33)),
            34,
        );
        let rows: Vec<Vec<i64>> = (0..pts.len()).map(|i| pts.point(i).to_vec()).collect();
        // Uneven batch units, including sub-MIN_PAR_BATCH ones, like a
        // live shard coalesces from its ingest queue.
        let sizes = [3usize, 5, 40, 7, 90, 2, 64];
        let mut batches: Vec<&[Vec<i64>]> = Vec::new();
        let mut at = 0;
        for &s in sizes.iter().cycle() {
            if at >= rows.len() {
                break;
            }
            let end = (at + s).min(rows.len());
            batches.push(&rows[at..end]);
            at = end;
        }
        let (mut a, mut b) = (HullBuilder::new(3), HullBuilder::new(3));
        for batch in &batches {
            a.push_batch(batch, 4);
            b.push_batch(batch, 1);
        }
        let (ha, hb) = (a.hull().unwrap(), b.hull().unwrap());
        assert_eq!(
            ha.output().facets,
            hb.output().facets,
            "batch apply not bit-identical across worker counts"
        );
        assert_eq!(ha.kernel, hb.kernel);
        assert_eq!(a.applied(), b.applied());
        // Canonically equal to the pure single-insert build of the same log.
        let singles = HullBuilder::replay(3, rows.iter().map(|r| r.as_slice()));
        assert_eq!(
            ha.output().canonical(),
            singles.hull().unwrap().output().canonical()
        );
        verify_hull(&pts, &ha.output()).unwrap();
    }

    #[test]
    fn push_batch_bootstraps_through_degenerate_prefix() {
        // A collinear prefix keeps the builder in bootstrap through most of
        // the batch; the parallel remainder starts mid-slice.
        let mut rows: Vec<Vec<i64>> = (0..10i64).map(|i| vec![i, i]).collect();
        rows.push(vec![5, 0]);
        for i in 0..20i64 {
            rows.push(vec![i % 7 * 13, (i * 31) % 11]);
        }
        let mut b = HullBuilder::new(2);
        let accepted = b.push_batch(&rows, 2);
        assert_eq!(accepted.len(), rows.len());
        assert_eq!(b.applied(), rows.len() as u64);
        let singles = HullBuilder::replay(2, rows.iter().map(|r| r.as_slice()));
        assert_eq!(
            b.hull().unwrap().output().canonical(),
            singles.hull().unwrap().output().canonical()
        );
    }

    /// Assert that `replica` (refreshed in place) equals `fresh` (a clone
    /// of the same hull) in everything a query, insertion or snapshot can
    /// observe.
    fn assert_same_hull(ctx: &str, replica: &OnlineHull, fresh: &OnlineHull) {
        assert_eq!(history_of(replica), history_of(fresh), "{ctx}: history");
        assert_eq!(replica.changed_at, fresh.changed_at, "{ctx}: stamps");
        assert_eq!(replica.pts.flat(), fresh.pts.flat(), "{ctx}: points");
        assert_eq!(replica.adj, fresh.adj, "{ctx}: adjacency");
        assert_eq!(replica.hull_vertices(), fresh.hull_vertices(), "{ctx}");
        assert_eq!(replica.kernel, fresh.kernel, "{ctx}: kernel");
        assert_eq!(replica.dep_depth(), fresh.dep_depth(), "{ctx}: depth");
        assert_eq!(replica.num_facets(), fresh.output().num_facets());
        let mut verts: Vec<u32> = fresh
            .output()
            .facets
            .iter()
            .flat_map(|f| f[..fresh.dim].to_vec())
            .collect();
        verts.sort_unstable();
        verts.dedup();
        assert_eq!(replica.hull_vertices(), verts, "{ctx}: hull vertices");
    }

    /// Feed `rows` (first `d + 1` affinely independent) to a writer hull
    /// in uneven batches (some below [`MIN_PAR_BATCH`]) and, after every
    /// batch, check two replicas against a fresh clone: one refreshed two
    /// batches behind (the service's spare rotation: two replicas taking
    /// turns), and one refreshed only every `skip` batches.
    fn check_refresh_matches_clone(name: &str, rows: &[Vec<i64>], threads: usize, skip: usize) {
        let dim = rows[0].len();
        let mut writer = OnlineHull::new(dim, &rows[..=dim]);
        let mut spares = [writer.clone(), writer.clone()];
        let mut lagging = writer.clone();
        let mut at = dim + 1;
        for (bi, &size) in [70usize, 3, 41, 128, 5, 64].iter().cycle().enumerate() {
            if at == rows.len() {
                break;
            }
            let end = (at + size).min(rows.len());
            writer.insert_batch_par(&rows[at..end], threads);
            at = end;
            let ctx = format!("{name} w{threads} batch {bi}");
            let fresh = writer.clone();
            let spare = &mut spares[bi % 2];
            assert!(writer.refresh_replica(spare), "{ctx}: spare refused");
            assert_same_hull(&ctx, spare, &fresh);
            if bi % skip == skip - 1 {
                assert!(writer.refresh_replica(&mut lagging), "{ctx}: lagging");
                assert_same_hull(&format!("{ctx} skip {skip}"), &lagging, &fresh);
            }
        }
        // A refreshed replica is a working hull: the next batch applied
        // to it gives what the writer gives.
        let tail: Vec<Vec<i64>> = rows[rows.len() - 40..].to_vec();
        let mut replica = spares[0].clone();
        assert!(writer.refresh_replica(&mut replica));
        let mut direct = writer.clone();
        replica.insert_batch_par(&tail, threads);
        direct.insert_batch_par(&tail, threads);
        assert_same_hull(&format!("{name} w{threads} after"), &replica, &direct);
    }

    #[test]
    fn refresh_matches_clone_across_inputs_and_workers() {
        let disk = rows_of(&prepare_points(
            &PointSet::from_points2(&generators::disk_2d(900, 1 << 20, 41)),
            42,
        ));
        let mut dups = disk.clone();
        dups.extend(disk[200..420].iter().cloned());
        dups.extend(disk[..60].iter().cloned());
        let inputs = [
            (
                "circle",
                rows_of(&prepare_points(
                    &generators::near_sphere_d(2, 900, 1 << 24, 43),
                    44,
                )),
            ),
            ("disk", disk),
            (
                "ball",
                rows_of(&prepare_points(
                    &PointSet::from_points3(&generators::ball_3d(700, 1 << 20, 45)),
                    46,
                )),
            ),
            (
                "sphere",
                rows_of(&prepare_points(
                    &generators::near_sphere_d(3, 500, 1 << 20, 47),
                    48,
                )),
            ),
            (
                "collinear",
                rows_of(&prepare_points(
                    &PointSet::from_points2(&generators::collinear_heavy_2d(800, 12, 49)),
                    50,
                )),
            ),
            ("duplicates", dups),
        ];
        for (name, rows) in &inputs {
            for threads in [1usize, 2, 4] {
                check_refresh_matches_clone(name, rows, threads, 3);
            }
        }
    }

    #[test]
    fn refresh_refuses_another_lineage() {
        let rows = rows_of(&prepare_points(
            &PointSet::from_points2(&generators::disk_2d(300, 1 << 20, 51)),
            52,
        ));
        let mut writer = OnlineHull::new(2, &rows[..3]);
        writer.insert_batch_par(&rows[3..100], 2);
        let replica = writer.clone();
        // A separately built hull over the very same points.
        let mut twin = OnlineHull::new(2, &rows[..3]);
        twin.insert_batch_par(&rows[3..100], 2);
        // A clone that was mutated holds a history the writer never had.
        let mut forked = writer.clone();
        forked.insert(&[1 << 22, 1 << 22]);
        writer.insert_batch_par(&rows[100..200], 2);
        for (what, stale) in [("twin", &twin), ("forked", &forked)] {
            let mut probe = stale.clone();
            assert!(!writer.refresh_replica(&mut probe), "{what} accepted");
            assert_same_hull(what, &probe, stale);
        }
        // A replica ahead of its source is refused too.
        let mut ahead = writer.clone();
        assert!(!replica.refresh_replica(&mut ahead));
        // The untouched clone of the same lineage is accepted.
        let mut ok = replica.clone();
        assert!(writer.refresh_replica(&mut ok));
        assert_same_hull("same lineage", &ok, &writer.clone());
    }

    #[test]
    fn location_cost_stays_logarithmic_random_order() {
        let pts = prepare_points(
            &PointSet::from_points2(&generators::disk_2d(4000, 1 << 24, 3)),
            4,
        );
        let dim = 2;
        let seeds: Vec<Vec<i64>> = (0..=dim).map(|i| pts.point(i).to_vec()).collect();
        let mut hull = OnlineHull::new(dim, &seeds);
        let mut total_visited = 0usize;
        for i in (dim + 1)..pts.len() {
            hull.insert(pts.point(i));
            total_visited += hull.last_visited;
        }
        let mean = total_visited as f64 / (pts.len() - 3) as f64;
        let hn: f64 = (1..=pts.len()).map(|i| 1.0 / i as f64).sum();
        assert!(mean < 10.0 * hn, "mean location cost {mean} too high");
        // Theorem 4.2 flavor: observed dependence depth stays within a
        // small constant of H_n on random-order input.
        let depth = hull.dep_depth() as f64;
        assert!(depth < 10.0 * hn, "dep depth {depth} vs H_n {hn}");
    }
}
