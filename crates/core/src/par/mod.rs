//! The parallel randomized incremental convex hull — **Algorithm 3** of the
//! paper — plus a level-synchronous variant measuring rounds.
//!
//! The asynchronous implementation ([`parallel_hull`]) runs `ProcessRidge`
//! as dynamically spawned tasks on a scoped task pool
//! ([`chull_concurrent::pool`], the binary-forking model of Theorem 5.5),
//! pairing the two facets of each ridge through a
//! concurrent `InsertAndSet`/`GetValue` multimap (Algorithms 4/5, or the
//! growable locked variant). The level-synchronous implementation
//! ([`rounds::rounds_hull`]) processes ridges in waves, measuring the
//! synchronous round count of the CRCW PRAM formulation (Theorem 5.4).
//!
//! Both perform *exactly the same* facet creations and visibility tests as
//! the sequential Algorithm 2 on the same insertion order — the paper's
//! central work-efficiency claim, asserted in the integration tests.

pub(crate) mod batch;
pub mod rounds;
mod trace;

pub use trace::TraceEvent;

use crate::context::{initial_simplex, HullContext};
use crate::facet::{facet_verts, join_ridge, ridge_omitting, Facet, FacetVerts, RidgeKey};
use crate::output::HullOutput;
use crate::seq::merge_conflicts_into;
use crate::stats::HullStats;
use chull_concurrent::pool;
use chull_concurrent::{
    AtomicMax, ConcurrentArena, RidgeMapCas, RidgeMapLocked, RidgeMapTas, RidgeMultimap,
    StripedCounter,
};
use chull_geometry::{KernelCounts, PointSet};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Per-thread scratch for conflict-list merges: `ProcessRidge` tasks
    /// reuse one buffer per worker instead of allocating per facet.
    static MERGE_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Which `InsertAndSet` engine pairs the two facets of each ridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Sharded lock-based map (growable; the general-dimension default).
    Locked,
    /// The paper's Algorithm 4: lock-free linear probing with
    /// `CompareAndSwap`. Fixed capacity `capacity_factor * d * n`.
    Cas {
        /// Slots reserved per point per dimension.
        capacity_factor: usize,
    },
    /// The paper's Appendix A Algorithm 5: `TestAndSet` only.
    Tas {
        /// Slots reserved per point per dimension.
        capacity_factor: usize,
    },
}

/// Options for [`parallel_hull`].
#[derive(Debug, Clone, Copy)]
pub struct ParOptions {
    /// Ridge multimap engine.
    pub map: MapKind,
    /// Record a replay trace of every `ProcessRidge` action (Figure 1 /
    /// E4); only sensible for small inputs.
    pub record_trace: bool,
}

impl Default for ParOptions {
    fn default() -> ParOptions {
        ParOptions {
            map: MapKind::Locked,
            record_trace: false,
        }
    }
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParRun {
    /// The final hull (facets alive when the computation quiesced).
    pub output: HullOutput,
    /// Instrumentation (includes `recursion_depth`, Theorem 5.3).
    pub stats: HullStats,
    /// Every facet ever created (unordered across threads).
    pub created: Vec<FacetVerts>,
    /// Trace events, if requested.
    pub trace: Vec<TraceEvent>,
}

const ALIVE: bool = false; // AtomicBool false = alive, true = dead

struct ParFacet {
    facet: Facet,
    dead: AtomicBool,
    /// Pivot point whose insertion created this facet (`u32::MAX` for
    /// seed facets). The batch engine orders created facets by it.
    creator: u32,
    /// Arena ids of the support pair `{t1, t2}` (`u32::MAX` for seeds);
    /// `parents[0]` is the replaced facet (the earlier pivot's side).
    parents: [u32; 2],
}

struct Shared<'a, M> {
    ctx: HullContext<'a>,
    arena: ConcurrentArena<ParFacet>,
    map: M,
    tests: StripedCounter,
    filter_hits: StripedCounter,
    i128_fallbacks: StripedCounter,
    bigint_fallbacks: StripedCounter,
    buried: StripedCounter,
    replaced: StripedCounter,
    max_depth: AtomicMax,
    /// Task-busy nanoseconds (armed-only): each `ProcessRidge` body adds
    /// its own elapsed time, excluding spawned children. busy / wall is
    /// the realized parallelism the serving layer exposes as a gauge.
    busy_ns: StripedCounter,
    trace: Option<Mutex<Vec<TraceEvent>>>,
}

impl<'a, M: RidgeMultimap<RidgeKey>> Shared<'a, M> {
    fn record(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.trace {
            t.lock().unwrap().push(ev());
        }
    }

    /// Fold one facet's staged-kernel counters into the striped totals.
    fn add_counts(&self, c: &KernelCounts) {
        self.tests.add(c.tests);
        self.filter_hits.add(c.filter_hits);
        self.i128_fallbacks.add(c.i128_fallbacks);
        self.bigint_fallbacks.add(c.bigint_fallbacks);
    }

    /// `ProcessRidge(t1, r, t2)` — Algorithm 3, lines 8-22.
    ///
    /// `depth` is the recursion depth (Theorem 5.3 measures its maximum).
    fn process_ridge<'s>(
        &'s self,
        scope: &pool::Scope<'s>,
        t1: u32,
        r: RidgeKey,
        t2: u32,
        depth: u64,
    ) where
        'a: 's,
    {
        self.max_depth.record(depth);
        if chull_obs::armed() {
            crate::telemetry::engine_metrics()
                .par_ridge_depth
                .record(depth);
            let start = std::time::Instant::now();
            self.process_ridge_inner(scope, t1, r, t2, depth);
            self.busy_ns.add(start.elapsed().as_nanos() as u64);
        } else {
            self.process_ridge_inner(scope, t1, r, t2, depth);
        }
    }

    fn process_ridge_inner<'s>(
        &'s self,
        scope: &pool::Scope<'s>,
        mut t1: u32,
        r: RidgeKey,
        mut t2: u32,
        depth: u64,
    ) where
        'a: 's,
    {
        let (mut f1, mut f2) = (self.arena.get(t1), self.arena.get(t2));
        let (mut p1, mut p2) = (f1.facet.pivot(), f2.facet.pivot());

        // Line 9: no conflicts on either side — the ridge is final.
        if p1 == u32::MAX && p2 == u32::MAX {
            self.record(|| {
                TraceEvent::finalize(self.dim(), &f1.facet.verts, &f2.facet.verts, depth)
            });
            return;
        }
        // Line 10: same pivot on both sides — the pivot buries the ridge
        // and both facets.
        if p1 == p2 {
            f1.dead.store(true, Ordering::Relaxed);
            f2.dead.store(true, Ordering::Relaxed);
            self.buried.incr();
            self.record(|| {
                TraceEvent::bury(self.dim(), &f1.facet.verts, &f2.facet.verts, p1, depth)
            });
            return;
        }
        // Lines 11-12: orient so that t1 holds the earlier pivot.
        if p2 < p1 {
            std::mem::swap(&mut t1, &mut t2);
            std::mem::swap(&mut f1, &mut f2);
            std::mem::swap(&mut p1, &mut p2);
        }

        // Lines 14-17: {t1, t2} supports the new facet t = r ∪ {p};
        // t replaces t1.
        let p = p1;
        let dim = self.dim();
        let verts = join_ridge(&r, dim, p);
        let (facet, counts) = MERGE_SCRATCH.with(|scratch| {
            let mut candidates = scratch.borrow_mut();
            merge_conflicts_into(&f1.facet.conflicts, &f2.facet.conflicts, &mut candidates);
            self.ctx.make_facet(verts, &candidates, p)
        });
        self.add_counts(&counts);
        f1.dead.store(true, Ordering::Relaxed);
        self.replaced.incr();
        self.record(|| TraceEvent::replace(dim, &f1.facet.verts, &verts, p, depth));
        let t_id = self.arena.push(ParFacet {
            facet,
            dead: AtomicBool::new(ALIVE),
            creator: p,
            parents: [t1, t2],
        });

        // Lines 18-22: hand each ridge of t to its processor.
        for omit in 0..dim {
            let r_new = ridge_omitting(&verts, dim, omit);
            if r_new == r {
                // Line 19: the ridge shared with t2 is ready now.
                scope.spawn(move |s| self.process_ridge(s, t_id, r_new, t2, depth + 1));
            } else if !self.map.insert_and_set(r_new, t_id) {
                // Line 20-22: we are the second facet on this ridge — we
                // own processing it.
                let t_other = self.map.get_value(r_new, t_id);
                scope.spawn(move |s| self.process_ridge(s, t_id, r_new, t_other, depth + 1));
            }
        }
    }

    #[inline]
    fn dim(&self) -> usize {
        self.ctx.dim
    }
}

/// Run Algorithm 3 with `threads` workers: the calling thread plus
/// helpers of the process-wide pool (for thread-scaling experiments and
/// for stress-testing the concurrent paths with more workers than cores).
pub fn parallel_hull_with_threads(pts: &PointSet, options: ParOptions, threads: usize) -> ParRun {
    dispatch_map(pts, options, threads)
}

/// Run Algorithm 3 on `pts` (insertion order = index order; the first
/// `d + 1` points must be affinely independent — use
/// [`crate::context::prepare_points`]).
pub fn parallel_hull(pts: &PointSet, options: ParOptions) -> ParRun {
    dispatch_map(pts, options, pool::default_threads())
}

fn dispatch_map(pts: &PointSet, options: ParOptions, threads: usize) -> ParRun {
    match options.map {
        MapKind::Locked => {
            let map: RidgeMapLocked<RidgeKey> = RidgeMapLocked::with_capacity(pts.len() * 4);
            run_with_map(pts, options, map, threads)
        }
        MapKind::Cas { capacity_factor } => {
            // Growable: `capacity_factor` sizes the lock-free fast path;
            // a misestimate degrades to the locked overflow tier instead
            // of panicking (the shared-growth API the serving path needs).
            let map: RidgeMapCas<RidgeKey> =
                RidgeMapCas::growable_with_capacity(capacity_factor * pts.dim() * pts.len() + 1024);
            run_with_map(pts, options, map, threads)
        }
        MapKind::Tas { capacity_factor } => {
            let map: RidgeMapTas<RidgeKey> =
                RidgeMapTas::growable_with_capacity(capacity_factor * pts.dim() * pts.len() + 1024);
            run_with_map(pts, options, map, threads)
        }
    }
}

fn run_with_map<M: RidgeMultimap<RidgeKey>>(
    pts: &PointSet,
    options: ParOptions,
    map: M,
    threads: usize,
) -> ParRun {
    let dim = pts.dim();
    let n = pts.len();
    let simplex = initial_simplex(pts);
    assert_eq!(
        simplex,
        (0..=(dim as u32)).collect::<Vec<u32>>(),
        "first d + 1 points must be affinely independent (call prepare_points)"
    );
    let ctx = HullContext::new(pts, &simplex);
    let shared = Shared {
        ctx,
        arena: ConcurrentArena::new(),
        map,
        tests: StripedCounter::new(),
        filter_hits: StripedCounter::new(),
        i128_fallbacks: StripedCounter::new(),
        bigint_fallbacks: StripedCounter::new(),
        buried: StripedCounter::new(),
        replaced: StripedCounter::new(),
        max_depth: AtomicMax::new(),
        busy_ns: StripedCounter::new(),
        trace: options.record_trace.then(|| Mutex::new(Vec::new())),
    };

    // Lines 2-4: seed hull and its conflict sets, facets in parallel.
    let later: Vec<u32> = ((dim as u32 + 1)..n as u32).collect();
    let seed_facets: Vec<(Facet, KernelCounts)> = {
        let mut slots: Vec<Option<(Facet, KernelCounts)>> = (0..=dim).map(|_| None).collect();
        pool::scope_with_threads(threads.min(dim + 1), |s| {
            for (omit, slot) in slots.iter_mut().enumerate() {
                let (ctx, simplex, later) = (&shared.ctx, &simplex, &later);
                s.spawn(move |_| {
                    let verts: Vec<u32> = simplex
                        .iter()
                        .copied()
                        .filter(|&v| v != omit as u32)
                        .collect();
                    *slot = Some(ctx.make_facet(facet_verts(&verts), later, u32::MAX));
                });
            }
        });
        slots
            .into_iter()
            .map(|x| x.expect("seed facet task ran"))
            .collect()
    };
    let mut seed_ids = Vec::with_capacity(dim + 1);
    for (facet, counts) in seed_facets {
        shared.add_counts(&counts);
        seed_ids.push(shared.arena.push(ParFacet {
            facet,
            dead: AtomicBool::new(ALIVE),
            creator: u32::MAX,
            parents: [u32::MAX; 2],
        }));
    }

    // Lines 5-6: every pair of seed facets shares exactly one ridge.
    let mut seed_ridges: Vec<(u32, RidgeKey, u32)> = Vec::new();
    for i in 0..seed_ids.len() {
        for j in (i + 1)..seed_ids.len() {
            let fi = &shared.arena.get(seed_ids[i]).facet.verts;
            let fj = &shared.arena.get(seed_ids[j]).facet.verts;
            let mut r = [crate::facet::NO_VERT; crate::facet::MAX_DIM];
            let mut k = 0;
            for &fv in &fi[..dim] {
                if fj[..dim].contains(&fv) {
                    r[k] = fv;
                    k += 1;
                }
            }
            assert_eq!(k, dim - 1, "seed facets must share a ridge");
            seed_ridges.push((seed_ids[i], r, seed_ids[j]));
        }
    }

    pool::scope_with_threads(threads, |s| {
        for (t1, r, t2) in seed_ridges {
            let shared = &shared;
            s.spawn(move |s| shared.process_ridge(s, t1, r, t2, 1));
        }
    });

    // Quiesced: collect results.
    let mut hull_facets = Vec::new();
    let mut created = Vec::with_capacity(shared.arena.len());
    for pf in shared.arena.iter() {
        created.push(pf.facet.verts);
        if !pf.dead.load(Ordering::Relaxed) {
            debug_assert!(
                pf.facet.conflicts.is_empty(),
                "alive facet with unresolved conflicts"
            );
            hull_facets.push(pf.facet.verts);
        }
    }
    let stats = HullStats {
        n,
        dim,
        visibility_tests: shared.tests.sum(),
        facets_created: shared.arena.len() as u64,
        hull_facets: hull_facets.len() as u64,
        recursion_depth: shared.max_depth.get(),
        buried: shared.buried.sum(),
        replaced: shared.replaced.sum(),
        filter_hits: shared.filter_hits.sum(),
        i128_fallbacks: shared.i128_fallbacks.sum(),
        bigint_fallbacks: shared.bigint_fallbacks.sum(),
        ..Default::default()
    };
    let trace = shared
        .trace
        .map(|t| t.into_inner().unwrap())
        .unwrap_or_default();
    ParRun {
        output: HullOutput {
            dim,
            facets: hull_facets,
        },
        stats,
        created,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::prepare_points;
    use crate::seq::incremental_hull_run;
    use chull_geometry::generators;

    fn check_matches_seq(pts: &PointSet, options: ParOptions) {
        let seq = incremental_hull_run(pts);
        let par = parallel_hull(pts, options);
        assert_eq!(
            seq.output.canonical(),
            par.output.canonical(),
            "hull facets differ from sequential"
        );
        // The paper's work claim: exactly the same facets created and the
        // same number of visibility tests.
        let mut seq_created: Vec<_> = seq.created.clone();
        let mut par_created: Vec<_> = par.created.clone();
        seq_created.sort_unstable();
        par_created.sort_unstable();
        assert_eq!(seq_created, par_created, "created facet multisets differ");
        assert_eq!(
            seq.stats.visibility_tests, par.stats.visibility_tests,
            "visibility test counts differ"
        );
        // The staged kernel is deterministic per (facet, query), so even the
        // per-stage counters agree across schedulers.
        assert_eq!(
            (
                seq.stats.filter_hits,
                seq.stats.i128_fallbacks,
                seq.stats.bigint_fallbacks
            ),
            (
                par.stats.filter_hits,
                par.stats.i128_fallbacks,
                par.stats.bigint_fallbacks
            ),
            "staged kernel stage counters differ"
        );
    }

    #[test]
    fn matches_sequential_2d_disk() {
        for seed in 0..4u64 {
            let pts = PointSet::from_points2(&generators::disk_2d(400, 1 << 20, seed));
            let pts = prepare_points(&pts, seed + 10);
            check_matches_seq(&pts, ParOptions::default());
        }
    }

    #[test]
    fn matches_sequential_2d_convex_position() {
        let pts = PointSet::from_points2(&generators::parabola_2d(200, 3));
        let pts = prepare_points(&pts, 5);
        check_matches_seq(&pts, ParOptions::default());
    }

    #[test]
    fn matches_sequential_3d() {
        for seed in 0..3u64 {
            let pts = PointSet::from_points3(&generators::ball_3d(250, 1 << 20, seed));
            let pts = prepare_points(&pts, seed + 20);
            check_matches_seq(&pts, ParOptions::default());
        }
    }

    #[test]
    fn matches_sequential_3d_near_sphere() {
        let pts = PointSet::from_points3(&generators::near_sphere_3d(150, 1 << 20, 2));
        let pts = prepare_points(&pts, 6);
        check_matches_seq(&pts, ParOptions::default());
    }

    #[test]
    fn matches_sequential_higher_dims() {
        for dim in 4..=6usize {
            let pts = generators::ball_d(dim, 60, 1 << 18, 7);
            let pts = prepare_points(&pts, 8);
            check_matches_seq(&pts, ParOptions::default());
        }
    }

    #[test]
    fn cas_and_tas_maps_agree() {
        let pts = PointSet::from_points2(&generators::disk_2d(300, 1 << 20, 9));
        let pts = prepare_points(&pts, 11);
        check_matches_seq(
            &pts,
            ParOptions {
                map: MapKind::Cas { capacity_factor: 8 },
                record_trace: false,
            },
        );
        check_matches_seq(
            &pts,
            ParOptions {
                map: MapKind::Tas { capacity_factor: 8 },
                record_trace: false,
            },
        );
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        for (n, seed) in [(1000usize, 1u64), (4000, 2)] {
            let pts = PointSet::from_points2(&generators::disk_2d(n, 1 << 20, seed));
            let pts = prepare_points(&pts, seed);
            let par = parallel_hull(&pts, ParOptions::default());
            let hn: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
            // Theorem 5.3: recursion depth O(log n) whp; use the Theorem 4.2
            // constant (sigma = gke^2 ~ 30) as a generous test bound.
            assert!(
                (par.stats.recursion_depth as f64) < 30.0 * hn,
                "recursion depth {} too large for n = {n}",
                par.stats.recursion_depth
            );
            assert!(par.stats.recursion_depth >= 3);
        }
    }

    #[test]
    fn parallel_verifies_geometrically() {
        use crate::verify::verify_hull;
        let pts = PointSet::from_points3(&generators::paraboloid_3d(200, 1 << 10, 3));
        let pts = prepare_points(&pts, 4);
        let par = parallel_hull(&pts, ParOptions::default());
        verify_hull(&pts, &par.output).unwrap();
    }
}
