//! Deterministic fork-join for the oracle's n×n plane sweeps.
//!
//! The offline dependency set does not include `rayon`, so this module
//! provides [`par_plane`], a one-shot fork-join map over the columns or
//! bands of a plane, on top of a private worker-count map.
//!
//! The map is deterministic: items are partitioned into contiguous index
//! ranges, every item is processed by the same pure-per-item function, and
//! outputs are collected in input order, so the worker count and thread
//! scheduling can never change a result (pinned by this module's tests and
//! by the caller-thread vs. forked load test).

use crate::oracle::Cores;
use std::num::NonZeroUsize;

/// Plane size, in cells, from which a sweep over an n×n plane forks: n ≥
/// 512. Smaller oracles, the compute half's (n ≤ 384) among them, stay on
/// the calling thread, so no worker stack lands in their peak memory.
const PAR_PLANE_CELLS: usize = 512 * 512;

/// Maps `f` over `items`, the columns or bands of an n×n plane sweep:
/// with [`Cores::All`], over every core of the host when the plane has at
/// least [`PAR_PLANE_CELLS`] cells; on the calling thread otherwise.
/// Results come back in item order whatever the split.
pub(crate) fn par_plane<T: Send, R: Send>(
    n: usize,
    cores: Cores,
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let workers = if cores == Cores::Caller || n.saturating_mul(n) < PAR_PLANE_CELLS {
        1
    } else {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    };
    par_indexed_map(items, workers, f)
}

/// Applies `f` to every item (with its index), in parallel over at most
/// `workers` contiguous chunks, returning outputs in input order.
///
/// Each chunk runs on its own scoped thread while the caller waits;
/// `workers <= 1` runs everything on the calling thread. `f` must be
/// deterministic per item; chunking never changes the result, only the
/// wall-clock time. Every call spawns its threads afresh, so this suits
/// one-shot sweeps, not work repeated in a loop.
fn par_indexed_map<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
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

    #[test]
    fn sequential_small() {
        let mut v: Vec<u64> = (0..100).collect();
        let out = par_indexed_map(&mut v, 1, |i, x| {
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
        let par = par_indexed_map(&mut a, 4, |i, x| *x * 3 + i as u64);
        assert_eq!(seq, par);
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
        let _ = par_indexed_map(&mut v, 4, |_, x| {
            *x = 7;
        });
        assert!(v.iter().all(|&x| x == 7));
    }
}
