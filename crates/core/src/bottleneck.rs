//! Bottleneck-node computation (Appendix A.6, Algorithms 13–14).
//!
//! Given the n^{2/3}-in-CSSSP collection for the blocker set Q, a node's
//! `total_count` is the number of messages it would forward if every
//! source pushed its distance value up every tree — i.e. the sum over
//! trees of its subtree sizes. Algorithm 13 repeatedly broadcasts the
//! counts (O(n) rounds), removes the maximum node (with its subtrees in
//! every tree), and stops when every node's count is at most `n·√|Q|`.
//! Lemma A.16: at most √|Q| nodes are ever removed.

use crate::csssp::SsspCollection;
use crate::trees::{convergecast_trees, convergecast_trees_budget, remove_subtrees};
use congest_graph::{NodeId, Weight};
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{Recorder, RunUntil, SimConfig, SimError, Topology};

/// Outcome of Algorithm 13.
#[derive(Clone, Debug)]
pub struct BottleneckResult {
    /// The bottleneck set B, in removal order.
    pub b: Vec<NodeId>,
    /// Removal mask over `(node, tree)` pairs (B subtrees pruned).
    pub removed: Vec<Vec<bool>>,
    /// Maximum total_count before any removal.
    pub congestion_before: u64,
    /// Maximum total_count after all removals (≤ n·√|Q|, Lemma A.15).
    pub congestion_after: u64,
}

/// `count_{v,c}` for every (node, tree) pair under `removed`:
/// Algorithm 14 — subtree sizes of alive members, one pipelined
/// convergecast across all trees.
fn compute_counts<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    removed: &[Vec<bool>],
    rec: &mut Recorder,
    label: &str,
) -> Result<Vec<Vec<u64>>, SimError> {
    let n = coll.n();
    let s = coll.sources.len();
    let init: Vec<Vec<u64>> = (0..n)
        .map(|v| {
            (0..s).map(|si| u64::from(coll.is_member(v as NodeId, si) && !removed[v][si])).collect()
        })
        .collect();
    let (acc, report) = convergecast_trees(topo, sim, coll, init, convergecast_trees_budget(coll))?;
    rec.record(label, report);
    Ok(acc)
}

/// Total messages node v must *forward* (tree roots forward nothing, so
/// their own trees are excluded).
fn totals<W: Weight>(
    coll: &SsspCollection<W>,
    removed: &[Vec<bool>],
    counts: &[Vec<u64>],
) -> Vec<u64> {
    let n = coll.n();
    let s = coll.sources.len();
    (0..n)
        .map(|v| {
            (0..s)
                .filter(|&si| {
                    coll.is_member(v as NodeId, si) && !removed[v][si] && coll.hops[v][si] >= 1
                })
                .map(|si| counts[v][si])
                .sum()
        })
        .collect()
}

/// Runs Algorithm 13 over the collection. `threshold` is the paper's
/// `n·√|Q|` (passed in so experiments can sweep it).
///
/// # Errors
/// Propagates engine errors.
pub fn compute_bottlenecks<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    threshold: u64,
    rec: &mut Recorder,
) -> Result<BottleneckResult, SimError> {
    let n = coll.n();
    let s = coll.sources.len();
    let mut removed = vec![vec![false; s]; n];
    let mut b: Vec<NodeId> = Vec::new();
    let mut counts = compute_counts(topo, sim, coll, &removed, rec, "bottleneck: initial counts")?;
    let congestion_before = totals(coll, &removed, &counts).into_iter().max().unwrap_or(0);
    let mut congestion_after;

    // Lemma A.16 bounds |B| by √|Q|; the +4 guards degenerate cases where
    // the threshold is tiny relative to the instance.
    let cap = (s as f64).sqrt().ceil() as usize + 4;
    loop {
        let tc = totals(coll, &removed, &counts);
        congestion_after = tc.iter().copied().max().unwrap_or(0);
        if congestion_after <= threshold {
            break;
        }
        assert!(b.len() < cap + n, "bottleneck loop failed to converge");
        // Step 4: broadcast (total_count, id); O(n) rounds.
        let initial: Vec<Vec<(u64, NodeId)>> = (0..n)
            .map(|v| if tc[v] > 0 { vec![(tc[v], v as NodeId)] } else { Vec::new() })
            .collect();
        let (logs, report) = all_to_all_broadcast(topo, sim, initial, 2, |&(_, v)| v as usize)?;
        rec.record(format!("bottleneck: count broadcast #{}", b.len()), report);
        let &(_, node) = logs
            .log(0)
            .max_by_key(|&&(c, id)| (c, std::cmp::Reverse(id)))
            .expect("threshold exceeded, so counts exist");
        b.push(node);
        // Step 6: remove node's subtrees everywhere, then refresh counts
        // (the descendant/ancestor updates of [2,1], via re-aggregation).
        let roots: Vec<(NodeId, usize)> = (0..s)
            .filter(|&si| coll.is_member(node, si) && !removed[node as usize][si])
            .map(|si| (node, si))
            .collect();
        let budget = RunUntil::Quiesce { max: (s as u64 + 2) * (coll.h as u64 + 2) + 64 };
        let (mask, report) = remove_subtrees(topo, sim, coll, &removed, &roots, budget)?;
        removed = mask;
        rec.record(format!("bottleneck: prune #{}", b.len() - 1), report);
        counts = compute_counts(
            topo,
            sim,
            coll,
            &removed,
            rec,
            &format!("bottleneck: recount #{}", b.len() - 1),
        )?;
    }
    Ok(BottleneckResult { b, removed, congestion_before, congestion_after })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Charging;
    use crate::csssp::build_csssp;
    use congest_graph::generators::{gnm_connected, star, WeightDist};
    use congest_graph::seq::Direction;

    fn in_coll(
        g: &congest_graph::Graph<u64>,
        sources: &[NodeId],
        h: usize,
    ) -> (Topology, SsspCollection<u64>) {
        let topo = Topology::from_graph(g);
        let mut rec = Recorder::new();
        let coll = build_csssp(
            g,
            &topo,
            sources,
            h,
            Direction::In,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut crate::recovery::Recovery::disabled(),
            "cq",
        )
        .unwrap();
        (topo, coll)
    }

    #[test]
    fn counts_are_subtree_sizes() {
        let g = gnm_connected(14, 28, true, WeightDist::Uniform(0, 5), 3);
        let (topo, coll) = in_coll(&g, &[2, 9], 3);
        let mut rec = Recorder::new();
        let removed = vec![vec![false; 2]; 14];
        let counts =
            compute_counts(&topo, SimConfig::default(), &coll, &removed, &mut rec, "t").unwrap();
        for si in 0..2 {
            for v in 0..14u32 {
                if coll.is_member(v, si) {
                    // oracle: count descendants incl self
                    let mut cnt = 0;
                    for u in 0..14u32 {
                        if coll.root_path(u, si).map(|p| p.contains(&v)).unwrap_or(false) {
                            cnt += 1;
                        }
                    }
                    assert_eq!(counts[v as usize][si], cnt, "v={v} si={si}");
                }
            }
        }
    }

    #[test]
    fn star_hub_is_bottleneck() {
        // Star with hub 0: trees rooted at leaves route everything through
        // the hub, so with a low threshold the hub must be removed first.
        let g = star(12, true, WeightDist::Unit, 0);
        let sources: Vec<NodeId> = vec![1, 2, 3];
        let (topo, coll) = in_coll(&g, &sources, 2);
        let mut rec = Recorder::new();
        let res = compute_bottlenecks(&topo, SimConfig::default(), &coll, 5, &mut rec).unwrap();
        assert!(res.b.contains(&0), "hub not identified: {:?}", res.b);
        assert!(res.congestion_before > res.congestion_after);
        assert!(res.congestion_after <= 5);
    }

    #[test]
    fn high_threshold_removes_nothing() {
        let g = gnm_connected(16, 30, true, WeightDist::Uniform(1, 5), 7);
        let (topo, coll) = in_coll(&g, &[0, 5, 11], 3);
        let mut rec = Recorder::new();
        let res =
            compute_bottlenecks(&topo, SimConfig::default(), &coll, u64::MAX, &mut rec).unwrap();
        assert!(res.b.is_empty());
        assert_eq!(res.congestion_before, res.congestion_after);
    }

    #[test]
    fn paper_threshold_bounds_congestion() {
        let g = gnm_connected(20, 40, true, WeightDist::Uniform(0, 9), 11);
        let sources: Vec<NodeId> = vec![1, 4, 8, 13, 17];
        let (topo, coll) = in_coll(&g, &sources, 4);
        let threshold = (20.0 * (5.0f64).sqrt()) as u64;
        let mut rec = Recorder::new();
        let res =
            compute_bottlenecks(&topo, SimConfig::default(), &coll, threshold, &mut rec).unwrap();
        assert!(res.congestion_after <= threshold);
        // Lemma A.16 bound (loose on small instances)
        assert!(res.b.len() <= 5);
    }
}

#[cfg(test)]
mod threshold_sweep_tests {
    use super::*;
    use crate::config::Charging;
    use crate::csssp::build_csssp;
    use congest_graph::generators::{broom, WeightDist};
    use congest_graph::seq::Direction;

    /// Lowering the threshold monotonically grows B and shrinks the final
    /// congestion; the final congestion always respects the threshold.
    #[test]
    fn threshold_sweep_monotone() {
        let g = broom(24, true, WeightDist::Uniform(1, 5), 3);
        let topo = Topology::from_graph(&g);
        let sources: Vec<NodeId> = vec![0, 3, 6, 12];
        let mut rec = Recorder::new();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            8,
            Direction::In,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut crate::recovery::Recovery::disabled(),
            "cq",
        )
        .unwrap();
        let mut prev_b = usize::MAX;
        for threshold in [5u64, 20, 80, 400] {
            let mut r = Recorder::new();
            let res =
                compute_bottlenecks(&topo, SimConfig::default(), &coll, threshold, &mut r).unwrap();
            assert!(res.congestion_after <= threshold);
            assert!(res.b.len() <= prev_b, "B must shrink as threshold grows");
            prev_b = res.b.len();
        }
    }
}
