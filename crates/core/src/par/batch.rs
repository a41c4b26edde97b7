//! Batch insertion engine: Algorithm 3's `ProcessRidge` recursion run
//! against an arbitrary **current hull** instead of the initial simplex.
//!
//! This is Theorem 5.5 on the serving path: a coalesced queue batch is
//! inserted as one parallel step. The state of Algorithm 2 after any
//! insert prefix is exactly "alive facets + conflict lists over the
//! remaining points", so seeding the recursion with the current hull's
//! alive facets — each given its conflict list over the batch points —
//! and spawning `ProcessRidge` on every current ridge continues the
//! sequential process: the batch performs precisely the facet creations
//! that inserting its points one at a time (in id order) would,
//! independent of schedule or worker count. Ridges with no conflict on
//! either side are final at once, so only the facets some batch point
//! sees, their neighbours, and the ridges between them need seeding
//! ([`BatchSeeds`]); `OnlineHull` finds those facets by history-graph
//! location.
//!
//! The ridge multimap is the growable CAS table
//! ([`chull_concurrent::RidgeMapCas`]) by default, or the `TestAndSet`
//! variant under the `tas-ridge-map` feature; both degrade to a locked
//! overflow tier when the sizing estimate is short, because a
//! panic-on-full map inside the shard supervisor's recovery replay would
//! crash-loop the service.
//!
//! Results come back in **canonical `(creator, verts)` order**. Conflict
//! lists only ever contain points later than a facet's creator, so a
//! facet's creator is strictly smaller than its children's creators —
//! the canonical order is a topological order of the support graph, and
//! `OnlineHull` can assign final facet ids in one pass. That ordering is
//! what makes the batch path deterministic across worker counts (and
//! therefore replayable for crash recovery).

use super::{ParFacet, Shared, ALIVE};
use crate::context::HullContext;
use crate::facet::{Facet, FacetVerts, RidgeKey};
use chull_concurrent::pool;
#[cfg(not(feature = "tas-ridge-map"))]
use chull_concurrent::RidgeMapCas;
#[cfg(feature = "tas-ridge-map")]
use chull_concurrent::RidgeMapTas;
use chull_concurrent::{AtomicMax, ConcurrentArena, StripedCounter};
use chull_geometry::{Hyperplane, KernelCounts, Sign};
use std::sync::atomic::{AtomicBool, Ordering};

/// Ridge multimap used by the batch engine (E12-style ablation: the
/// `tas-ridge-map` feature swaps in the `TestAndSet`-only table).
#[cfg(not(feature = "tas-ridge-map"))]
type BatchMap = RidgeMapCas<RidgeKey>;
#[cfg(feature = "tas-ridge-map")]
type BatchMap = RidgeMapTas<RidgeKey>;

/// One facet created by a batch run, in canonical `(creator, verts)` order.
pub(crate) struct CreatedFacet {
    pub verts: FacetVerts,
    pub visible_sign: Sign,
    pub plane: Hyperplane,
    /// The batch point whose insertion created this facet.
    pub creator: u32,
    /// Support pair `{t1, t2}`: values `< seed_count` are seed slots
    /// (pre-batch facets); `seed_count + i` is the `i`-th created facet in
    /// canonical order (always earlier than this one — see module docs).
    pub parents: [u32; 2],
    /// Whether a later batch point killed this facet within the batch.
    pub dead: bool,
}

/// Outcome of one parallel batch run, ready for `OnlineHull` integration.
pub(crate) struct BatchRun {
    /// Seed slots (indices into the caller's alive-facet list) that died.
    pub dead_seeds: Vec<u32>,
    /// Created facets in canonical order.
    pub created: Vec<CreatedFacet>,
    /// Staged-kernel counters for every visibility test performed
    /// (the seeds' conflict lists plus the recursion),
    /// schedule-independent.
    pub counts: KernelCounts,
    /// Maximum `ProcessRidge` recursion depth (Theorem 5.3).
    pub recursion_depth: u64,
    /// Ridges buried / facets replaced during the recursion.
    pub buried: u64,
    pub replaced: u64,
    /// Task-busy nanoseconds accumulated while telemetry is armed
    /// (0 when disarmed); busy / wall ≈ realized parallelism.
    pub busy_ns: u64,
}

/// The pre-batch facets Algorithm 3 starts from, in a caller-chosen slot
/// order: each seed facet carries its conflict list over the batch
/// (ascending point ids), and `ridges` lists the `(slot, key, slot)`
/// ridges to spawn `ProcessRidge` on. A ridge with no conflicts on either
/// side may be listed or left out; it is skipped either way.
pub(crate) struct BatchSeeds {
    pub facets: Vec<Facet>,
    pub ridges: Vec<(u32, RidgeKey, u32)>,
    /// Staged-kernel counters of the visibility tests that built the
    /// conflict lists.
    pub counts: KernelCounts,
    /// Task-busy nanoseconds spent building them (0 when disarmed).
    pub busy_ns: u64,
}

/// The parallel conflict filter: one task per seed facet `verts[i]`
/// collects every candidate it sees, through the same `make_facet` the
/// recursion uses, so the counting semantics are uniform under both
/// kernel features. `candidates` must be sorted ascending.
pub(crate) fn filter_seeds(
    ctx: &HullContext<'_>,
    verts: &[FacetVerts],
    candidates: &[u32],
    threads: usize,
) -> (Vec<Facet>, KernelCounts, u64) {
    let mut slots: Vec<Option<(Facet, KernelCounts)>> = (0..verts.len()).map(|_| None).collect();
    let busy_ns = StripedCounter::new();
    pool::scope_with_threads(threads, |s| {
        for (v, slot) in verts.iter().zip(slots.iter_mut()) {
            let busy_ns = &busy_ns;
            s.spawn(move |_| {
                let start = chull_obs::armed().then(std::time::Instant::now);
                *slot = Some(ctx.make_facet(*v, candidates, u32::MAX));
                if let Some(start) = start {
                    busy_ns.add(start.elapsed().as_nanos() as u64);
                }
            });
        }
    });
    let mut counts = KernelCounts::default();
    let facets = slots
        .into_iter()
        .map(|x| {
            let (facet, c) = x.expect("seed task ran");
            counts.merge(&c);
            facet
        })
        .collect();
    (facets, counts, busy_ns.sum())
}

/// Run the batch recursion from `seeds`. `batch_len` (the number of new
/// points, already appended to the context's point set) only sizes the
/// ridge multimap.
pub(crate) fn run_batch(
    ctx: HullContext<'_>,
    seeds: BatchSeeds,
    batch_len: usize,
    threads: usize,
) -> BatchRun {
    let seed_count = seeds.facets.len();
    let dim = ctx.dim;
    let ridges = &seeds.ridges;
    let shared = Shared {
        ctx,
        // Sized for `dim` created facets per point (exact in 2D), so the
        // big segments of a bulk install are allocated here.
        arena: ConcurrentArena::with_capacity(seed_count + batch_len * dim),
        map: BatchMap::growable_with_capacity(batch_len * dim * 4 + ridges.len() + 1024),
        tests: StripedCounter::new(),
        filter_hits: StripedCounter::new(),
        i128_fallbacks: StripedCounter::new(),
        bigint_fallbacks: StripedCounter::new(),
        buried: StripedCounter::new(),
        replaced: StripedCounter::new(),
        max_depth: AtomicMax::new(),
        busy_ns: StripedCounter::new(),
        trace: None,
    };
    shared.add_counts(&seeds.counts);
    shared.busy_ns.add(seeds.busy_ns);
    for facet in seeds.facets {
        shared.arena.push(ParFacet {
            facet,
            dead: AtomicBool::new(ALIVE),
            creator: u32::MAX,
            parents: [u32::MAX; 2],
        });
    }

    // Spawn `ProcessRidge` for every seed ridge. A ridge with no
    // conflicts on either side is skipped: line 9 would finalize it
    // immediately, and a conflict-free facet can never die (burying needs
    // equal non-MAX pivots; replacement targets the earlier pivot's side).
    pool::scope_with_threads(threads, |s| {
        for &(a, r, b) in ridges.iter() {
            let (fa, fb) = (shared.arena.get(a), shared.arena.get(b));
            if fa.facet.conflicts.is_empty() && fb.facet.conflicts.is_empty() {
                continue;
            }
            let shared = &shared;
            s.spawn(move |s| shared.process_ridge(s, a, r, b, 1));
        }
    });

    // Quiesced: order created facets canonically and remap parent ids.
    let total = shared.arena.len();
    let mut order: Vec<u32> = (seed_count as u32..total as u32).collect();
    order.sort_unstable_by_key(|&id| {
        let pf = shared.arena.get(id);
        (pf.creator, pf.facet.verts)
    });
    let mut pos = vec![0u32; total - seed_count];
    for (ci, &aid) in order.iter().enumerate() {
        pos[aid as usize - seed_count] = ci as u32;
    }
    let remap = |p: u32| -> u32 {
        if (p as usize) < seed_count {
            p
        } else {
            seed_count as u32 + pos[p as usize - seed_count]
        }
    };
    let created: Vec<CreatedFacet> = order
        .iter()
        .map(|&aid| {
            let pf = shared.arena.get(aid);
            debug_assert!(
                pf.dead.load(Ordering::Relaxed) || pf.facet.conflicts.is_empty(),
                "alive facet with unresolved conflicts"
            );
            CreatedFacet {
                verts: pf.facet.verts,
                visible_sign: pf.facet.visible_sign,
                plane: pf.facet.plane.clone(),
                creator: pf.creator,
                parents: [remap(pf.parents[0]), remap(pf.parents[1])],
                dead: pf.dead.load(Ordering::Relaxed),
            }
        })
        .collect();
    let dead_seeds: Vec<u32> = (0..seed_count as u32)
        .filter(|&slot| shared.arena.get(slot).dead.load(Ordering::Relaxed))
        .collect();
    let counts = KernelCounts {
        tests: shared.tests.sum(),
        filter_hits: shared.filter_hits.sum(),
        i128_fallbacks: shared.i128_fallbacks.sum(),
        bigint_fallbacks: shared.bigint_fallbacks.sum(),
        // Only queries count descent steps.
        descent_steps: 0,
    };
    BatchRun {
        dead_seeds,
        created,
        counts,
        recursion_depth: shared.max_depth.get(),
        buried: shared.buried.sum(),
        replaced: shared.replaced.sum(),
        busy_ns: shared.busy_ns.sum(),
    }
}
