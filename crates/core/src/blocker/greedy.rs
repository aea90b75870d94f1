//! The deterministic greedy blocker-set baseline of Agarwal et al. \[2\].
//!
//! One vertex per iteration: compute `score(v)` (paths through v) by a
//! per-tree convergecast, broadcast scores (O(n) rounds), pick the global
//! maximum, remove the covered paths (Algorithm 6), re-score, repeat. The
//! startup costs O(|S|·h) rounds and every chosen vertex costs O(n) more —
//! this is exactly the `O(nh + n·|Q|)` bound whose `n·|Q|` term the
//! paper's Algorithm 2′ eliminates (§1, contribution 1).

use super::BlockerResult;
use crate::csssp::SsspCollection;
use crate::trees::{convergecast_trees, convergecast_trees_budget, remove_subtrees};
use congest_graph::{NodeId, Weight};
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{Recorder, RunUntil, SimConfig, SimError, Topology};

/// Computes `score(v)` for every node under the current removal mask:
/// the number of alive full-length paths through v as a non-root vertex.
fn compute_scores<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    removed: &[Vec<bool>],
    rec: &mut Recorder,
    label: &str,
) -> Result<Vec<u64>, SimError> {
    let n = coll.n();
    let s = coll.sources.len();
    let init: Vec<Vec<u64>> = (0..n)
        .map(|v| {
            (0..s)
                .map(|si| u64::from(coll.is_full_leaf(v as NodeId, si) && !removed[v][si]))
                .collect()
        })
        .collect();
    let (acc, report) = convergecast_trees(topo, sim, coll, init, convergecast_trees_budget(coll))?;
    rec.record(label, report);
    Ok((0..n)
        .map(|v| {
            (0..s)
                .filter(|&si| coll.is_member(v as NodeId, si) && coll.hops[v][si] >= 1)
                .map(|si| acc[v][si])
                .sum()
        })
        .collect())
}

/// Runs the greedy baseline; returns the blocker set and the number of
/// iterations (== |Q|). Round accounting lands in `rec`.
///
/// # Errors
/// Propagates engine errors.
pub fn greedy_blocker<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    rec: &mut Recorder,
) -> Result<BlockerResult, SimError> {
    let n = coll.n();
    let s = coll.sources.len();
    let mut removed = vec![vec![false; s]; n];
    let mut q: Vec<NodeId> = Vec::new();
    let mut scores = compute_scores(topo, sim, coll, &removed, rec, "greedy: initial scores")?;

    for iter in 0..n {
        // Broadcast (score, id) from every node holding a positive score
        // (Lemma A.2: O(n) rounds).
        let initial: Vec<Vec<(u64, NodeId)>> = (0..n)
            .map(|v| if scores[v] > 0 { vec![(scores[v], v as NodeId)] } else { Vec::new() })
            .collect();
        let (logs, report) = all_to_all_broadcast(topo, sim, initial, 2, |&(_, v)| v as usize)?;
        rec.record(format!("greedy: score broadcast #{iter}"), report);
        // Every node picks the same maximum (tie: smaller id).
        let Some(&(_, c)) = logs.log(0).max_by_key(|&&(sc, id)| (sc, std::cmp::Reverse(id))) else {
            break; // nothing left to cover
        };
        q.push(c);
        // Cleanup: remove subtrees rooted at c in every tree where c is a
        // non-root member (paths where c is the root are not hyperedges).
        let roots: Vec<(NodeId, usize)> = (0..s)
            .filter(|&si| coll.is_member(c, si) && coll.hops[c as usize][si] >= 1)
            .map(|si| (c, si))
            .collect();
        let budget = RunUntil::Quiesce { max: (s as u64 + 2) * (coll.h as u64 + 2) + 64 };
        let (mask, report) = remove_subtrees(topo, sim, coll, &removed, &roots, budget)?;
        removed = mask;
        rec.record(format!("greedy: cleanup #{iter}"), report);
        scores =
            compute_scores(topo, sim, coll, &removed, rec, &format!("greedy: rescore #{iter}"))?;
    }
    Ok(BlockerResult { q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocker::is_valid_blocker;
    use crate::blocker::tests::build_collection;
    use crate::blocker::PathCtx;

    #[test]
    fn greedy_produces_valid_blocker() {
        for seed in [1u64, 4, 9] {
            let (_, topo, coll) = build_collection(18, 40, 3, seed);
            let mut rec = Recorder::new();
            let res = greedy_blocker(&topo, SimConfig::default(), &coll, &mut rec).unwrap();
            assert!(is_valid_blocker(&coll, &res.q), "seed {seed}");
        }
    }

    #[test]
    fn greedy_matches_sequential_greedy_cover() {
        // The distributed greedy must pick exactly the same vertices as the
        // sequential greedy set cover on the exported hypergraph.
        let (_, topo, coll) = build_collection(16, 36, 3, 2);
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        let hg = ctx.hypergraph(16);
        if hg.edges.is_empty() {
            return;
        }
        let oracle = congest_derand::greedy_cover(&hg);
        let mut rec = Recorder::new();
        let res = greedy_blocker(&topo, SimConfig::default(), &coll, &mut rec).unwrap();
        assert_eq!(res.q, oracle);
    }

    #[test]
    fn greedy_empty_when_no_full_paths() {
        // h larger than any shortest-path hop count: no depth-h leaves.
        let (_, topo, coll) = build_collection(10, 40, 8, 3);
        let mut rec = Recorder::new();
        let res = greedy_blocker(&topo, SimConfig::default(), &coll, &mut rec).unwrap();
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        if ctx.alive_count() == 0 {
            assert!(res.q.is_empty());
        }
    }

    #[test]
    fn greedy_rounds_grow_with_q() {
        // Round accounting: |Q|+1 score broadcasts of O(n) rounds each.
        let (_, topo, coll) = build_collection(20, 44, 2, 6);
        let mut rec = Recorder::new();
        let res = greedy_blocker(&topo, SimConfig::default(), &coll, &mut rec).unwrap();
        let broadcasts = rec.phases().iter().filter(|p| p.name.contains("score broadcast")).count();
        assert_eq!(broadcasts, res.q.len() + 1);
    }
}
