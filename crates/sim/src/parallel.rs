//! Deterministic parallel execution helpers for the engine.
//!
//! The offline dependency set does not include `rayon`, so this module
//! provides the two data-parallel building blocks the simulator needs:
//!
//! * [`WorkerPool`] — a *persistent* team of worker threads with a round
//!   barrier. The engine spawns it once per phase and dispatches one task
//!   per round; workers park on a condvar between rounds, so the steady
//!   state round loop performs no thread spawning, no channel allocation
//!   and no heap allocation at all.
//! * [`par_indexed_map`] — a one-shot fork-join map over a worker count
//!   the caller picks, for heavy *local* sweeps such as the oracle's n×n
//!   plane checks.
//!
//! Both are deterministic: work is partitioned into contiguous index
//! ranges, every item is processed by the same pure-per-item function, and
//! outputs land in preallocated disjoint slots, so thread count and
//! scheduling can never change a result (verified by the engine's
//! determinism suite).

use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex};

/// Number of worker threads to use for a workload of `len` items.
///
/// Small workloads are not worth forking for: the engine steps thousands of
/// rounds, so per-round overhead must stay near zero.
#[must_use]
pub fn worker_count(len: usize) -> usize {
    if len < 4096 {
        return 1;
    }
    let hw = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    hw.min(len / 2048).max(1)
}

/// Erased pointer to the round task. Only dereferenced between the release
/// barrier (task publication) and the completion barrier, which
/// [`WorkerPool::run`] brackets, so the pointee is always alive when read.
#[derive(Copy, Clone)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync, and the pool's barrier protocol guarantees
// it outlives every dereference (see `run`).
unsafe impl Send for TaskPtr {}

struct PoolState {
    /// Monotone round id; workers run one task per increment.
    generation: u64,
    /// The current round's task, if a round is in flight.
    task: Option<TaskPtr>,
    /// Workers that have not yet finished the current task.
    remaining: usize,
    /// A worker panicked while running a task.
    poisoned: bool,
    /// Pool is shutting down; workers exit.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that a new task (or shutdown) is available.
    start: Condvar,
    /// Signals the caller that all workers finished the task.
    done: Condvar,
}

/// A persistent team of worker threads executing one shared task per round.
///
/// [`WorkerPool::run`] publishes a `Fn(usize)` task, runs slice index
/// `workers() - 1` on the calling thread, and blocks until every spawned
/// worker has executed its index — a full round barrier. Between rounds the
/// workers sleep on a condvar; nothing is spawned or allocated per round.
pub struct WorkerPool {
    shared: &'static PoolShared,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool executing tasks across `workers` slots (`workers - 1`
    /// threads plus the caller). `workers` must be at least 1; a pool of 1
    /// runs everything on the caller and spawns nothing.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "pool needs at least one worker slot");
        // The shared block must outlive the 'static worker threads; it is
        // reclaimed in Drop after every worker has been joined.
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                task: None,
                remaining: 0,
                poisoned: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }));
        let handles = (0..workers.saturating_sub(1))
            .map(|slot| {
                std::thread::Builder::new()
                    .name(format!("congest-sim-worker-{slot}"))
                    .spawn(move || worker_loop(shared, slot))
                    .expect("failed to spawn simulator worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Total worker slots (spawned threads + the calling thread).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Executes `task(slot)` for every slot in `0..workers()`, returning
    /// once all slots have completed (round barrier).
    ///
    /// # Panics
    /// Panics if a worker thread panicked inside `task`.
    pub fn run(&self, task: &(dyn Fn(usize) + Sync)) {
        let spawned = self.handles.len();
        if spawned > 0 {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            assert!(st.task.is_none(), "WorkerPool::run is not reentrant");
            // SAFETY: erase the task's lifetime. Workers only dereference
            // the pointer before decrementing `remaining`, and this frame
            // does not end — not even by unwinding out of the caller-slot
            // task, thanks to the wait-on-drop barrier below — until
            // `remaining == 0`, so the reference outlives every use.
            let erased = unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(std::ptr::from_ref(task))
            };
            st.generation += 1;
            st.task = Some(TaskPtr(erased));
            st.remaining = spawned;
            drop(st);
            self.shared.start.notify_all();
        }
        // Wait for every spawned worker even if the caller-slot task
        // panics below: the erased task pointer and the buffers it reaches
        // live in the caller's frame, so they must outlive every worker
        // access — including during unwind. The guard performs the
        // completion wait in Drop.
        struct WaitGuard<'a>(&'a PoolShared);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                while st.remaining > 0 {
                    st = self.0.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                st.task = None;
            }
        }
        let barrier = (spawned > 0).then(|| WaitGuard(self.shared));
        // The caller is the last worker slot.
        task(spawned);
        drop(barrier);
        if spawned > 0 {
            let st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            assert!(!st.poisoned, "simulator worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked already poisoned the pool; the panic
            // was surfaced by `run`, so ignore the join error here.
            let _ = h.join();
        }
        // SAFETY: all worker threads are joined; nothing references the
        // leaked shared block anymore.
        unsafe {
            drop(Box::from_raw(std::ptr::from_ref(self.shared).cast_mut()));
        }
    }
}

fn worker_loop(shared: &'static PoolShared, slot: usize) {
    let mut seen_generation = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > seen_generation {
                    if let Some(t) = st.task {
                        seen_generation = st.generation;
                        break t;
                    }
                }
                st = shared.start.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Decrement `remaining` even if the task panics, so the caller
        // wakes up and can surface the panic instead of deadlocking.
        let guard = CompletionGuard { shared, panicked: true };
        // SAFETY: `run` keeps the pointee alive until remaining == 0, which
        // only happens after this dereference (guard drops below).
        unsafe { (*task.0)(slot) };
        let mut guard = guard;
        guard.panicked = false;
        drop(guard);
        if std::thread::panicking() {
            return;
        }
    }
}

struct CompletionGuard {
    shared: &'static PoolShared,
    panicked: bool,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.panicked {
            st.poisoned = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.shared.done.notify_all();
        }
    }
}

/// Applies `f` to every item (with its index), in parallel over at most
/// `workers` contiguous chunks, returning outputs in input order.
///
/// Each chunk runs on its own scoped thread while the caller waits;
/// `workers <= 1` runs everything on the calling thread. Pass
/// [`worker_count`]`(items.len())` for the item-count rule; callers with
/// few but heavy items pick their own count. `f` must be deterministic
/// per item; chunking never changes the result, only the wall-clock
/// time. One-shot (scoped spawn per call): use [`WorkerPool`] for
/// anything called once per simulated round.
pub fn par_indexed_map<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let len = items.len();
    let workers = workers.min(len);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = len.div_ceil(workers);
    let mut out: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (ci, items_chunk) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || {
                items_chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(j, t)| f(ci * chunk + j, t))
                    .collect::<Vec<R>>()
            }));
        }
        for h in handles {
            out.push(h.join().expect("worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn sequential_small() {
        let mut v: Vec<u64> = (0..100).collect();
        let workers = worker_count(v.len());
        let out = par_indexed_map(&mut v, workers, |i, x| {
            *x += 1;
            *x + i as u64
        });
        assert_eq!(out[10], 11 + 10);
        assert_eq!(v[10], 11);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut a: Vec<u64> = (0..10_000).collect();
        let mut b = a.clone();
        let seq: Vec<u64> = b.iter_mut().enumerate().map(|(i, x)| *x * 3 + i as u64).collect();
        let workers = worker_count(a.len());
        let par = par_indexed_map(&mut a, workers, |i, x| *x * 3 + i as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(10), 1);
        assert!(worker_count(1_000_000) >= 1);
    }

    #[test]
    fn explicit_worker_count_matches_sequential() {
        let mut a: Vec<u64> = (0..37).collect();
        let seq: Vec<u64> = a.iter().map(|&x| x * x).collect();
        for workers in [0, 1, 2, 5, 64] {
            assert_eq!(par_indexed_map(&mut a, workers, |_, x| *x * *x), seq);
        }
    }

    #[test]
    fn mutation_applies_in_parallel_mode() {
        let mut v = vec![0u8; 20_000];
        let workers = worker_count(v.len());
        let _ = par_indexed_map(&mut v, workers, |_, x| {
            *x = 7;
        });
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn pool_runs_every_slot_once_per_round() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let hits = [const { AtomicU64::new(0) }; 4];
        for _ in 0..100 {
            pool.run(&|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = WorkerPool::new(1);
        let mut hit = false;
        // Non-Sync capture is fine: a pool of one runs on the caller only.
        let cell = std::sync::Mutex::new(&mut hit);
        pool.run(&|slot| {
            assert_eq!(slot, 0);
            **cell.lock().unwrap() = true;
        });
        assert!(hit);
    }

    #[test]
    fn pool_barrier_sees_all_writes() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0u64; 3 * 1000];
        let chunk = 1000;
        for round in 0..50u64 {
            let base = data.as_mut_ptr() as usize;
            pool.run(&move |slot| {
                // SAFETY: each slot writes a disjoint chunk.
                let ptr = (base as *mut u64).wrapping_add(slot * chunk);
                let s = unsafe { std::slice::from_raw_parts_mut(ptr, chunk) };
                for x in s {
                    *x += round;
                }
            });
        }
        let expected: u64 = (0..50).sum();
        assert!(data.iter().all(|&x| x == expected));
    }

    #[test]
    fn caller_slot_panic_still_waits_for_workers() {
        // If the caller-slot task panics, `run` must still block until the
        // spawned workers finish: they hold a pointer into the caller's
        // frame (regression test for the wait-on-drop barrier).
        let pool = WorkerPool::new(4);
        let done = [const { AtomicU64::new(0) }; 4];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|slot| {
                if slot == 3 {
                    panic!("caller-slot boom");
                }
                // Slow workers: without the barrier, the caller's unwind
                // would race ahead of these writes.
                std::thread::sleep(std::time::Duration::from_millis(50));
                done[slot].store(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "caller-slot panic must propagate");
        for d in &done[..3] {
            assert_eq!(d.load(Ordering::SeqCst), 1, "worker outlived run()");
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn pool_surfaces_worker_panics() {
        let pool = WorkerPool::new(2);
        pool.run(&|slot| {
            // Panic on the spawned worker, not the caller (slot 1).
            assert!(slot != 0, "boom on worker 0");
        });
    }
}
