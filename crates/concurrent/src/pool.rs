//! A process-wide fork-join pool for the asynchronous hull (Algorithm 3).
//!
//! `ProcessRidge` is naturally expressed as dynamically spawned tasks:
//! each ridge task may spawn up to `d` successor tasks as new facets are
//! created. This module provides exactly that shape — a
//! [`scope_with_threads`] whose [`Scope::spawn`] enqueues closures onto the
//! scope's own deque, drained by the calling thread and by helper threads
//! borrowed from one process-wide pool — with no work-stealing machinery:
//! the deque is a single mutex-protected queue, and helpers find scopes
//! through one global injector, which measures within noise of a stealing
//! scheduler for this workload (tasks do real predicate work; queue
//! traffic is not the bottleneck).
//!
//! **Lifecycle.** Helpers are created lazily and live for the rest of the
//! process. A scope of `threads` workers posts [`helpers_for`]`(threads)`
//! help requests to the injector once its body has spawned its first
//! tasks; the pool grows to the largest such count any scope has asked
//! for, never past [`MAX_HELPERS`], and scopes of different shards share
//! the same helpers. An idle helper blocks in `Condvar::wait` on the
//! injector — it never spins or polls — until a request arrives, then runs
//! that scope's worker loop and parks again. The calling thread is always
//! one of the scope's workers, so a scope completes even when every
//! helper is busy elsewhere: `threads` is the most threads a scope uses.
//!
//! **Borrowing.** When its tasks are done, a scope withdraws, under the
//! injector lock, every request no helper has claimed, then waits until
//! each helper that entered it has left. A helper claims a request and
//! counts itself in under that same lock, and counts itself out through
//! the request's shared exit handshake, never through the scope's memory.
//! So every task finishes, and no helper still holds the scope, before
//! [`scope_with_threads`] returns: tasks may borrow from the enclosing
//! stack frame (`'env`), exactly like `std::thread::scope`.
//!
//! **Panics.** A task's in-flight count is decremented by a drop guard, so
//! a panicking task never stalls its scope. A helper runs the worker loop
//! under `catch_unwind`, keeps the scope's first payload, and goes back to
//! the pool; the scope's caller re-raises that payload after the join. A
//! panic never kills a pool thread and never reaches another scope. The
//! join also runs, as a drop guard, when the caller itself unwinds.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

type Task<'env> = Box<dyn FnOnce(&Scope<'env>) + Send + 'env>;

/// The most helper threads the process-wide pool ever holds. A scope asking
/// for more workers shares these.
pub const MAX_HELPERS: usize = 64;

/// Helper threads a scope of `threads` workers asks the pool for: the
/// calling thread is one of the workers, and the pool holds at most
/// [`MAX_HELPERS`].
pub fn helpers_for(threads: usize) -> usize {
    threads.saturating_sub(1).min(MAX_HELPERS)
}

/// Shared state of one task scope; hand out `&Scope` to spawn.
pub struct Scope<'env> {
    queue: Mutex<VecDeque<Task<'env>>>,
    /// Tasks spawned but not yet finished (queued or running).
    pending: AtomicUsize,
    cv: Condvar,
}

/// Decrements `pending` even if the task panics, waking sleepers so the
/// scope can unwind instead of deadlocking.
struct PendingGuard<'a, 'env>(&'a Scope<'env>);

impl Drop for PendingGuard<'_, '_> {
    fn drop(&mut self) {
        if self.0.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _lock = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            self.0.cv.notify_all();
        }
    }
}

impl<'env> Scope<'env> {
    fn new() -> Scope<'env> {
        Scope {
            queue: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            cv: Condvar::new(),
        }
    }

    /// Enqueue a task; it runs on some worker before the scope ends.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let mut q = self.queue.lock().unwrap();
        q.push_back(Box::new(f));
        drop(q);
        self.cv.notify_one();
    }

    /// Worker loop: run tasks until no task is queued *and* none is in
    /// flight anywhere (an in-flight task may still spawn more).
    fn run_worker(&self) {
        loop {
            let task = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(t) = q.pop_front() {
                        break Some(t);
                    }
                    if self.pending.load(Ordering::Acquire) == 0 {
                        break None;
                    }
                    q = self.cv.wait(q).unwrap();
                }
            };
            match task {
                Some(t) => {
                    let _guard = PendingGuard(self);
                    t(self);
                }
                None => return,
            }
        }
    }
}

/// One scope's exit handshake, shared through an `Arc` by the scope and
/// each of its help requests, so a helper leaving the scope touches only
/// this, never the scope's stack memory.
#[derive(Default)]
struct Exit {
    state: Mutex<ExitState>,
    cv: Condvar,
}

#[derive(Default)]
struct ExitState {
    /// Helpers inside the scope's worker loop.
    inside: usize,
    /// The first panic payload a helper caught in this scope.
    panic: Option<Box<dyn Any + Send>>,
}

impl Exit {
    fn lock(&self) -> MutexGuard<'_, ExitState> {
        // Nothing panics while holding this lock; recover the guard anyway,
        // since the scope's join runs in a drop guard.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A scope's call for one helper.
struct Request {
    /// The scope to help, its `'env` erased. It is dereferenced only by the
    /// helper that claims this request, between counting itself into
    /// `exit` and counting itself out again.
    scope: *const Scope<'static>,
    exit: Arc<Exit>,
}

// SAFETY: `Scope` is `Sync` (its tasks are `Send`, its other fields atomics
// and locks), so the pointer may be used from a helper thread; the scope
// outlives every such use, as `Pool::help` explains. `Arc<Exit>` is `Send`.
unsafe impl Send for Request {}

/// The global injector: help requests waiting for a helper, and the number
/// of helper threads started so far.
struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

struct PoolState {
    requests: VecDeque<Request>,
    helpers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            requests: VecDeque::new(),
            helpers: 0,
        }),
        cv: Condvar::new(),
    })
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Only queue operations run under this lock; none panics.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Post `n` requests for `scope`, first growing the pool to `n` helpers.
    fn post(&'static self, scope: &Scope<'_>, exit: &Arc<Exit>, n: usize) {
        let scope = (scope as *const Scope<'_>).cast::<Scope<'static>>();
        let mut st = self.lock();
        while st.helpers < n {
            let spawned = std::thread::Builder::new()
                .name(format!("chull-pool-{}", st.helpers))
                .spawn(move || self.help());
            // Without a new helper the scope still completes: its caller
            // drains the queue, and unclaimed requests are withdrawn.
            if spawned.is_err() {
                break;
            }
            st.helpers += 1;
        }
        for _ in 0..n {
            st.requests.push_back(Request {
                scope,
                exit: Arc::clone(exit),
            });
        }
        drop(st);
        for _ in 0..n {
            self.cv.notify_one();
        }
    }

    /// Withdraw every request of the scope owning `exit` that no helper has
    /// claimed.
    fn withdraw(&self, exit: &Arc<Exit>) {
        self.lock().requests.retain(|r| !Arc::ptr_eq(&r.exit, exit));
    }

    /// A helper thread's whole life: park until a request arrives, work
    /// that scope, park again.
    fn help(&self) {
        loop {
            let req = {
                let mut st = self.lock();
                let req = loop {
                    match st.requests.pop_front() {
                        Some(req) => break req,
                        None => st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                    }
                };
                // Count in while still holding the injector lock: a scope
                // that withdraws after this sees the helper inside.
                req.exit.lock().inside += 1;
                req
            };
            // SAFETY: this helper claimed `req` under the injector lock
            // before its scope withdrew its requests, and counted itself
            // into `req.exit` under that same lock. The scope's join waits
            // for `inside == 0` before the scope is dropped, so the pointer
            // stays valid until the count-out below. `'static` stands for
            // the scope's `'env`, which its tasks may borrow: they all run
            // before the join, so no borrow is used after `'env` ends.
            let ran =
                panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*req.scope).run_worker() }));
            let mut st = req.exit.lock();
            if let Err(payload) = ran {
                st.panic.get_or_insert(payload);
            }
            st.inside -= 1;
            if st.inside == 0 {
                req.exit.cv.notify_all();
            }
        }
    }
}

/// Waits, even while the caller unwinds, until no helper is inside the
/// scope: withdraws the unclaimed requests, then waits for the helpers
/// that entered to leave.
struct Join<'a>(&'a Arc<Exit>);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        pool().withdraw(self.0);
        let mut st = self.0.lock();
        while st.inside > 0 {
            st = self.0.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with a [`Scope`] drained by `threads` workers: the calling
/// thread plus [`helpers_for`]`(threads)` pool helpers, so `threads <= 1`
/// runs everything inline. Returns once every spawned task has finished;
/// a task's panic is re-raised here with its original payload.
pub fn scope_with_threads<'env, F, R>(threads: usize, f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let scope = Scope::new();
    let r = f(&scope);
    let helpers = helpers_for(threads);
    if helpers == 0 || scope.pending.load(Ordering::Acquire) == 0 {
        scope.run_worker();
        return r;
    }
    let exit = Arc::new(Exit::default());
    let join = Join(&exit);
    pool().post(&scope, &exit, helpers);
    scope.run_worker();
    drop(join);
    if let Some(payload) = exit.lock().panic.take() {
        panic::resume_unwind(payload);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn runs_all_tasks_including_nested_spawns() {
        let counter = AtomicU64::new(0);
        scope_with_threads(4, |s| {
            for _ in 0..100 {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..3 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn single_thread_is_inline_and_complete() {
        let counter = AtomicU64::new(0);
        scope_with_threads(1, |s| {
            s.spawn(|s| {
                counter.fetch_add(1, Ordering::Relaxed);
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn deep_recursion_terminates() {
        fn recurse<'env>(s: &Scope<'env>, depth: u32, hits: &'env AtomicU64) {
            hits.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                s.spawn(move |s| recurse(s, depth - 1, hits));
                s.spawn(move |s| recurse(s, depth - 1, hits));
            }
        }
        let hits = AtomicU64::new(0);
        scope_with_threads(8, |s| {
            s.spawn(|s| recurse(s, 10, &hits));
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2u64.pow(11) - 1);
    }

    #[test]
    fn scope_returns_closure_value() {
        let v = scope_with_threads(2, |_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "task panic propagates")]
    fn panics_propagate() {
        scope_with_threads(2, |s| {
            s.spawn(|_| panic!("task panic propagates"));
        });
    }

    #[test]
    fn helpers_are_capped() {
        assert_eq!(helpers_for(0), 0);
        assert_eq!(helpers_for(1), 0);
        assert_eq!(helpers_for(2), 1);
        assert_eq!(helpers_for(1_000_000), MAX_HELPERS);
    }

    /// Two tasks of one scope that each wait (up to a minute) for the
    /// other to start, so they must run on two threads at once: the
    /// caller and a helper. Returns the helper's id.
    fn meet_a_helper(caller: ThreadId, then: impl Fn() + Sync) -> ThreadId {
        let met = (Mutex::new((0u32, None)), Condvar::new());
        scope_with_threads(2, |s| {
            for _ in 0..2 {
                s.spawn(|_| {
                    let (lock, cv) = &met;
                    let mut st = lock.lock().unwrap();
                    st.0 += 1;
                    if std::thread::current().id() != caller {
                        st.1 = Some(std::thread::current().id());
                    }
                    cv.notify_all();
                    let (st, timeout) = cv
                        .wait_timeout_while(st, Duration::from_secs(60), |st| st.0 < 2)
                        .unwrap();
                    assert!(!timeout.timed_out(), "no helper joined the scope");
                    let helper_here = st.1 == Some(std::thread::current().id());
                    drop(st);
                    if helper_here {
                        then();
                    }
                });
            }
        });
        let helper = met.0.lock().unwrap().1;
        helper.expect("one task ran off the calling thread")
    }

    #[test]
    fn workers_persist_across_scopes() {
        let caller = std::thread::current().id();
        let mut ids = HashSet::from([caller]);
        for _ in 0..1000 {
            ids.insert(meet_a_helper(caller, || {}));
        }
        // The caller plus at most every helper the pool may hold: a fresh
        // thread per scope would give 1 001 ids.
        assert!(
            ids.len() <= MAX_HELPERS + 1,
            "{} distinct threads",
            ids.len()
        );
    }

    #[test]
    fn shared_pool_isolates_panics() {
        let start = Barrier::new(4);
        let counts: Vec<u64> = std::thread::scope(|outer| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let start = &start;
                    outer.spawn(move || {
                        start.wait();
                        if i == 0 {
                            // Panic on the helper, not the caller, so the
                            // payload crosses threads.
                            let caller = std::thread::current().id();
                            let caught = panic::catch_unwind(|| {
                                meet_a_helper(caller, || panic!("helper panic stays in its scope"))
                            })
                            .expect_err("the helper's panic reaches its own caller");
                            let msg = caught.downcast_ref::<&str>().copied();
                            assert_eq!(msg, Some("helper panic stays in its scope"));
                            return 0;
                        }
                        let counter = AtomicU64::new(0);
                        for _ in 0..50 {
                            scope_with_threads(4, |s| {
                                for _ in 0..100 {
                                    s.spawn(|s| {
                                        counter.fetch_add(1, Ordering::Relaxed);
                                        for _ in 0..3 {
                                            s.spawn(|_| {
                                                counter.fetch_add(1, Ordering::Relaxed);
                                            });
                                        }
                                    });
                                }
                            });
                        }
                        counter.load(Ordering::Relaxed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, [0, 20_000, 20_000, 20_000]);
        // The pool survives the panic: a later scope still completes, and
        // still reaches a helper.
        let caller = std::thread::current().id();
        assert_ne!(meet_a_helper(caller, || {}), caller);
    }
}
