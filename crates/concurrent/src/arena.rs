//! A lock-free, append-only concurrent arena with stable indices.
//!
//! Facets are created concurrently by `ProcessRidge` calls and referenced by
//! dense `u32` ids from the ridge multimap; the arena provides `push` (claim
//! an id, write the element, publish) and `get` (read a published element)
//! without ever moving elements — storage is a chain of geometrically
//! growing segments, so references stay valid for the arena's lifetime.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Number of segments: segment `s` holds `FIRST << s` elements.
const SEGMENTS: usize = 32;
/// Size of segment 0.
const FIRST: usize = 64;

struct Segment<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    ready: Box<[AtomicBool]>,
}

impl<T> Segment<T> {
    fn new(len: usize) -> Box<Segment<T>> {
        let slots: Vec<UnsafeCell<MaybeUninit<T>>> = (0..len)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let ready: Vec<AtomicBool> = (0..len).map(|_| AtomicBool::new(false)).collect();
        Box::new(Segment {
            slots: slots.into_boxed_slice(),
            ready: ready.into_boxed_slice(),
        })
    }
}

/// Lock-free append-only arena; see module docs.
pub struct ConcurrentArena<T> {
    segments: [AtomicPtr<Segment<T>>; SEGMENTS],
    len: AtomicUsize,
}

// SAFETY: elements are written exactly once by the pushing thread before the
// per-slot `ready` flag is released; readers check the flag with Acquire.
unsafe impl<T: Send> Send for ConcurrentArena<T> {}
unsafe impl<T: Send + Sync> Sync for ConcurrentArena<T> {}

/// Map a global index to (segment, offset).
#[inline]
fn locate(index: usize) -> (usize, usize) {
    // Segment s covers [FIRST * (2^s - 1), FIRST * (2^(s+1) - 1)).
    let adjusted = index / FIRST + 1;
    let seg = (usize::BITS - 1 - adjusted.leading_zeros()) as usize;
    let seg_start = FIRST * ((1 << seg) - 1);
    (seg, index - seg_start)
}

impl<T> ConcurrentArena<T> {
    /// An empty arena.
    pub fn new() -> ConcurrentArena<T> {
        ConcurrentArena {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
        }
    }

    /// An empty arena whose segments for the first `capacity` ids are
    /// allocated now, by the calling thread, rather than by whichever
    /// worker first pushes into each. Big transient segments then come
    /// from the caller's allocator arena, not a pool helper's: glibc keeps
    /// a long-lived thread's freed pages resident in that thread's arena,
    /// where nothing else reuses them.
    pub fn with_capacity(capacity: usize) -> ConcurrentArena<T> {
        let arena = ConcurrentArena::new();
        if capacity > 0 {
            for seg in 0..=locate(capacity - 1).0.min(SEGMENTS - 1) {
                arena.segment(seg);
            }
        }
        arena
    }

    /// Number of ids handed out so far (some may still be mid-write by
    /// other threads; their `get` would spin briefly).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True iff no element was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn segment(&self, seg: usize) -> &Segment<T> {
        let ptr = self.segments[seg].load(Ordering::Acquire);
        if !ptr.is_null() {
            return unsafe { &*ptr };
        }
        // Allocate and race to install; the loser frees its allocation.
        let new = Box::into_raw(Segment::new(FIRST << seg));
        match self.segments[seg].compare_exchange(
            std::ptr::null_mut(),
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe { &*new },
            Err(existing) => {
                unsafe { drop(Box::from_raw(new)) };
                unsafe { &*existing }
            }
        }
    }

    /// Append an element, returning its dense id.
    pub fn push(&self, value: T) -> u32 {
        let index = self.len.fetch_add(1, Ordering::AcqRel);
        assert!(index < u32::MAX as usize, "arena overflow");
        let (seg, off) = locate(index);
        assert!(seg < SEGMENTS, "arena exhausted its segment table");
        let segment = self.segment(seg);
        unsafe { (*segment.slots[off].get()).write(value) };
        segment.ready[off].store(true, Ordering::Release);
        index as u32
    }

    /// Read element `id`. Spins briefly if the pushing thread has claimed
    /// the id but not yet finished writing (possible only when the id was
    /// obtained through a non-synchronizing channel).
    pub fn get(&self, id: u32) -> &T {
        let (seg, off) = locate(id as usize);
        let segment = self.segment(seg);
        let mut spins = 0u32;
        while !segment.ready[off].load(Ordering::Acquire) {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        unsafe { (*segment.slots[off].get()).assume_init_ref() }
    }

    /// Iterate over all published elements in id order (intended for use
    /// after the parallel phase has quiesced).
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len() as u32).map(move |id| self.get(id))
    }
}

impl<T> Default for ConcurrentArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for ConcurrentArena<T> {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        for (i, seg_ptr) in self.segments.iter_mut().enumerate() {
            let ptr = *seg_ptr.get_mut();
            if ptr.is_null() {
                continue;
            }
            let mut segment = unsafe { Box::from_raw(ptr) };
            if std::mem::needs_drop::<T>() {
                let seg_start = FIRST * ((1usize << i) - 1);
                let seg_len = FIRST << i;
                for off in 0..seg_len {
                    if seg_start + off < len && *segment.ready[off].get_mut() {
                        unsafe { (*segment.slots[off].get()).assume_init_drop() };
                    }
                }
            }
            drop(segment);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_covers_prefix_densely() {
        let mut expected = 0usize;
        for seg in 0..6 {
            for off in 0..(FIRST << seg) {
                assert_eq!(locate(expected), (seg, off), "index {expected}");
                expected += 1;
            }
        }
    }

    #[test]
    fn push_get_roundtrip() {
        let arena: ConcurrentArena<String> = ConcurrentArena::new();
        let ids: Vec<u32> = (0..1000).map(|i| arena.push(format!("v{i}"))).collect();
        assert_eq!(arena.len(), 1000);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(arena.get(id), &format!("v{i}"));
        }
        let all: Vec<&String> = arena.iter().collect();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn with_capacity_allocates_up_front_and_still_grows() {
        let arena: ConcurrentArena<u64> = ConcurrentArena::with_capacity(100);
        let allocated = |a: &ConcurrentArena<u64>| {
            a.segments
                .iter()
                .filter(|p| !p.load(Ordering::Relaxed).is_null())
                .count()
        };
        // Ids 0..100 span segments 0 (64 ids) and 1 (128 ids).
        assert_eq!(allocated(&arena), 2);
        assert!(arena.is_empty());
        for i in 0..500u64 {
            assert_eq!(arena.push(i), i as u32);
        }
        assert_eq!(allocated(&arena), 4);
        assert_eq!(*arena.get(499), 499);
        assert_eq!(allocated(&ConcurrentArena::<u64>::with_capacity(0)), 0);
    }

    #[test]
    fn ids_are_dense_and_ordered_single_thread() {
        let arena: ConcurrentArena<u64> = ConcurrentArena::new();
        for i in 0..500u64 {
            assert_eq!(arena.push(i), i as u32);
        }
    }

    #[test]
    fn references_stable_across_growth() {
        let arena: ConcurrentArena<u64> = ConcurrentArena::new();
        let first = arena.push(42);
        let r: &u64 = arena.get(first);
        for i in 0..100_000u64 {
            arena.push(i);
        }
        // The early reference must still be valid after many segment
        // allocations.
        assert_eq!(*r, 42);
    }

    #[test]
    fn concurrent_push_all_present() {
        let arena: Arc<ConcurrentArena<(usize, usize)>> = Arc::new(ConcurrentArena::new());
        let threads = 8;
        let per = 5_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    (0..per)
                        .map(|i| (arena.push((t, i)), (t, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen = vec![false; threads * per];
        for h in handles {
            for (id, val) in h.join().unwrap() {
                assert_eq!(arena.get(id), &val);
                assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(arena.len(), threads * per);
    }

    #[test]
    fn drop_runs_destructors() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let arena: ConcurrentArena<D> = ConcurrentArena::new();
            for _ in 0..300 {
                arena.push(D);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 300);
    }
}
