//! Bottleneck-node computation (Appendix A.6, Algorithms 13–14).
//!
//! Given the n^{2/3}-in-CSSSP collection for the blocker set Q, a node's
//! `total_count` is the number of messages it would forward if every
//! source pushed its distance value up every tree — i.e. the sum over
//! trees of its subtree sizes ([`subtree_sums`] of every alive member).
//! Algorithm 13 repeatedly finds the maximum count with [`flood_scores`]
//! (a max-flood, O(D) rounds), removes its node with its subtrees in every tree
//! ([`remove_subtrees`]), and stops when every node's count is at most
//! `n·√|Q|`. Lemma A.16: at most √|Q| nodes are ever removed. The run's
//! [`TreeState`] keeps the removed cells silent, so a recount sends only
//! the counts of the cells still in a tree.

use crate::csssp::SsspCollection;
use crate::trees::{flood_scores, remove_subtrees, subtree_sums, TreeState};
use congest_graph::{NodeId, Weight};
use congest_sim::{Recorder, SimConfig, SimError, Topology};

/// Outcome of Algorithm 13.
#[derive(Clone, Debug)]
pub struct BottleneckResult {
    /// The bottleneck set B, in removal order.
    pub b: Vec<NodeId>,
    /// The run's tree state: its removed cells are the `(node, tree)`
    /// cells that B's subtrees pruned.
    pub trees: TreeState,
    /// Maximum total_count before any removal.
    pub congestion_before: u64,
    /// Maximum total_count after all removals (≤ n·√|Q|, Lemma A.15).
    pub congestion_after: u64,
}

/// Runs Algorithm 13 over the collection. `threshold` is the paper's
/// `n·√|Q|` (passed in so experiments can sweep it).
///
/// # Errors
/// Propagates engine errors. Under a fault plan, [`SimError::Incomplete`]
/// when node 0 learns no maximum or a removed node is picked again.
pub fn compute_bottlenecks<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    threshold: u64,
    rec: &mut Recorder,
) -> Result<BottleneckResult, SimError> {
    let n = coll.n();
    let s = coll.sources.len();
    let mut trees = TreeState::new(n);
    let mut b: Vec<NodeId> = Vec::new();
    // total_count(v): Algorithm 14's subtree sizes summed over the trees
    // v forwards in (tree roots forward nothing in their own tree; removed
    // cells count 0).
    let (mut totals, report) = subtree_sums(topo, sim, coll, &mut trees, |_, _| true)?;
    rec.record("bottleneck: initial counts", report);
    let congestion_before = totals.iter().copied().max().unwrap_or(0);
    let mut congestion_after;

    // Lemma A.16 bounds |B| by √|Q|; the +4 guards degenerate cases where
    // the threshold is tiny relative to the instance.
    let cap = (s as f64).sqrt().ceil() as usize + 4;
    loop {
        congestion_after = totals.iter().copied().max().unwrap_or(0);
        if congestion_after <= threshold {
            break;
        }
        // Step 4: max-flood of (total_count, id); O(D) rounds.
        let (best, report) = flood_scores(topo, sim, |v| totals[v])?;
        rec.record(format!("bottleneck: count broadcast #{}", b.len()), report);
        if sim.fault.is_some() {
            // Lost messages can hide every maximum from node 0, or, were a
            // removed pick's count left standing, name a pick twice. Either
            // leaves the run to the caller's retry; without faults both are
            // protocol bugs and panic below.
            match best {
                None => return Err(SimError::Incomplete { node: 0 }),
                Some((_, node)) if b.contains(&node) => return Err(SimError::Incomplete { node }),
                Some(_) => {}
            }
        }
        assert!(b.len() < cap + n, "bottleneck loop failed to converge");
        let (_, node) = best.expect("threshold exceeded, so counts exist");
        b.push(node);
        // Step 6: remove node's subtrees everywhere, then refresh counts
        // (the descendant/ancestor updates of [2,1], via re-aggregation).
        let roots: Vec<(NodeId, usize)> = (0..s).map(|si| (node, si)).collect();
        let report = remove_subtrees(topo, sim, coll, &mut trees, &roots)?;
        rec.record(format!("bottleneck: prune #{}", b.len() - 1), report);
        let (recounted, report) = subtree_sums(topo, sim, coll, &mut trees, |_, _| true)?;
        rec.record(format!("bottleneck: recount #{}", b.len() - 1), report);
        totals = recounted;
    }
    Ok(BottleneckResult { b, trees, congestion_before, congestion_after })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut trees = TreeState::new(14);
        let (totals, _) =
            subtree_sums(&topo, SimConfig::default(), &coll, &mut trees, |_, _| true).unwrap();
        for v in 0..14u32 {
            // oracle: descendants incl self, over the trees where v has a
            // parent
            let mut cnt = 0;
            for si in (0..2).filter(|&si| coll.parent(v, si).is_some()) {
                for u in 0..14u32 {
                    if coll.root_path(u, si).map(|p| p.contains(&v)).unwrap_or(false) {
                        cnt += 1;
                    }
                }
            }
            assert_eq!(totals[v as usize], cnt, "v={v}");
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

    /// Under faults a lost removal token once left a removed pick counting,
    /// so it was picked until the loop's cap tripped, and a crashed node 0
    /// can miss every maximum. Neither may panic on the host: the run ends
    /// with its result or a typed, retryable error.
    #[test]
    fn lost_messages_end_the_run_with_a_typed_error() {
        use congest_sim::fault::FaultSpec;
        let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 7), 4);
        let sources: Vec<NodeId> = (0..18).step_by(3).collect();
        let (topo, coll) = in_coll(&g, &sources, 4);
        let run = |spec: FaultSpec| {
            let sim = SimConfig { fault: Some(spec) };
            compute_bottlenecks(&topo, sim, &coll, 0, &mut Recorder::new())
        };
        match run(FaultSpec::seeded(47).drops(20_000)) {
            Ok(res) => assert_eq!(res.congestion_after, 0),
            Err(e) => assert!(matches!(e, SimError::Incomplete { .. }), "{e}"),
        }
        let hidden = run(FaultSpec::seeded(132).crashes(20_000, 3)).map(|res| res.b);
        assert_eq!(hidden, Err(SimError::Incomplete { node: 0 }));
    }
}

#[cfg(test)]
mod threshold_sweep_tests {
    use super::*;
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
