//! The deterministic greedy blocker-set baseline of Agarwal et al. \[2\].
//!
//! One vertex per iteration: compute `score(v)` (paths through v) with
//! [`subtree_sums`], find the global maximum with [`flood_scores`] (a
//! max-flood, O(D) rounds), pick it, remove the covered paths with
//! [`remove_subtrees`] (Algorithm 6), re-score, repeat. One [`TreeState`]
//! carries the removed and silent cells from pick to pick, so a re-score
//! sends only the counts that can still change. The startup costs
//! O(|S|·h) rounds and every chosen vertex costs a max-flood, a cleanup
//! and a re-score more. \[2\] charges each pick O(n) rounds, which gives
//! the `O(nh + n·|Q|)` bound whose `n·|Q|` term the paper's Algorithm 2′
//! eliminates (§1, contribution 1); here a pick's flood costs O(D) and its
//! cleanup and re-score O(h + congestion) on the cells still live.

use crate::csssp::SsspCollection;
use crate::trees::{flood_scores, remove_subtrees, subtree_sums, TreeState};
use congest_graph::{NodeId, Weight};
use congest_sim::{Recorder, SimConfig, SimError, Topology};

/// Runs the greedy baseline; returns the blocker set in pick order, one
/// node per iteration. Round accounting lands in `rec`.
///
/// # Errors
/// Propagates engine errors.
pub fn greedy_blocker<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    rec: &mut Recorder,
) -> Result<Vec<NodeId>, SimError> {
    let n = coll.n();
    let mut trees = TreeState::new(n);
    let mut q: Vec<NodeId> = Vec::new();
    // score(v): the alive full-length paths through v as a non-root vertex
    // (removed cells count 0).
    let full_leaf = |v, si| coll.is_full_leaf(v, si);
    let (mut scores, report) = subtree_sums(topo, sim, coll, &mut trees, full_leaf)?;
    rec.record("greedy: initial scores", report);

    for iter in 0..n {
        // Every node learns the same maximum (a max-flood: O(D) rounds).
        let (best, report) = flood_scores(topo, sim, |v| scores[v])?;
        rec.record(format!("greedy: score broadcast #{iter}"), report);
        let Some((_, c)) = best else {
            break; // nothing left to cover
        };
        q.push(c);
        // Cleanup: remove subtrees rooted at c in every tree where c is a
        // non-root member (paths where c is the root are not hyperedges).
        let roots: Vec<(NodeId, usize)> = (0..coll.sources.len())
            .filter(|&si| coll.parent(c, si).is_some())
            .map(|si| (c, si))
            .collect();
        let report = remove_subtrees(topo, sim, coll, &mut trees, &roots)?;
        rec.record(format!("greedy: cleanup #{iter}"), report);
        let (rescored, report) = subtree_sums(topo, sim, coll, &mut trees, full_leaf)?;
        rec.record(format!("greedy: rescore #{iter}"), report);
        scores = rescored;
    }
    Ok(q)
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
            assert!(is_valid_blocker(&coll, &res), "seed {seed}");
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
        assert_eq!(res, oracle);
    }

    #[test]
    fn greedy_empty_when_no_full_paths() {
        // h larger than any shortest-path hop count: no depth-h leaves.
        let (_, topo, coll) = build_collection(10, 40, 8, 3);
        let mut rec = Recorder::new();
        let res = greedy_blocker(&topo, SimConfig::default(), &coll, &mut rec).unwrap();
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        if ctx.alive_count() == 0 {
            assert!(res.is_empty());
        }
    }

    #[test]
    fn greedy_rounds_grow_with_q() {
        // Round accounting: |Q|+1 max-floods, the last one finding none.
        let (_, topo, coll) = build_collection(20, 44, 2, 6);
        let mut rec = Recorder::new();
        let res = greedy_blocker(&topo, SimConfig::default(), &coll, &mut rec).unwrap();
        let broadcasts = rec.phases().iter().filter(|p| p.name.contains("score broadcast")).count();
        assert_eq!(broadcasts, res.len() + 1);
    }
}
