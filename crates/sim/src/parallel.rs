//! Deterministic fork-join map for heavy *local* sweeps.
//!
//! The offline dependency set does not include `rayon`, so this module
//! provides [`par_indexed_map`], a one-shot fork-join map over a worker
//! count the caller picks. Its users are the oracle's n×n plane sweeps;
//! the simulator's round loop steps every node on the calling thread.
//!
//! The map is deterministic: items are partitioned into contiguous index
//! ranges, every item is processed by the same pure-per-item function, and
//! outputs are collected in input order, so the worker count and thread
//! scheduling can never change a result (pinned by this module's tests and
//! by the oracle's caller-thread vs. forked load test).

/// Applies `f` to every item (with its index), in parallel over at most
/// `workers` contiguous chunks, returning outputs in input order.
///
/// Each chunk runs on its own scoped thread while the caller waits;
/// `workers <= 1` runs everything on the calling thread. `f` must be
/// deterministic per item; chunking never changes the result, only the
/// wall-clock time. Every call spawns its threads afresh, so this suits
/// one-shot sweeps, not work repeated once per simulated round.
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
