//! Pipelined multi-tree protocols over a CSSSP collection.
//!
//! Three communication patterns recur throughout §3 and Appendix A.6, all
//! operating on every tree of a collection at once with per-channel FIFO
//! queues and one message per channel per round:
//!
//! * [`convergecast_trees`] — bottom-up aggregation of a `u64` value per
//!   (node, tree): computes `score(v)` (Alg 2 Step 1, via the Algorithm-3
//!   machinery of \[2\]), `score_ij(v)` (Step 8) and `count_{v,c}`
//!   (Algorithm 14).
//! * [`remove_subtrees`] — Algorithm 6: top-down removal tokens from a set
//!   of roots, marking every (node, tree) pair in their subtrees.
//! * [`collect_ancestors`] — Algorithm 7 Step 1 (the Ancestors algorithm
//!   of \[2\]): every node learns the ids on its root path in every tree,
//!   streamed one id per round per channel, one source at a time.
//!
//! The paper charges O(|S|·h) rounds for these (sequential per source);
//! the convergecast and removal protocols here pipeline across trees and
//! finish in O(h + congestion) ≤ O(|S|·h) rounds, which only tightens the
//! measured constants.

use crate::csssp::SsspCollection;
use congest_graph::{NodeId, Weight};
use congest_sim::{
    Engine, Envelope, NodeEnv, NodeLogic, Outbox, PhaseReport, RunUntil, SimConfig, SimError,
    Topology,
};
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Convergecast
// ---------------------------------------------------------------------

struct ConvTreeNode<'a, W> {
    /// The trees (read-only; the node reads its own parents).
    coll: &'a SsspCollection<W>,
    /// Per tree: children not yet reported.
    pending: Vec<u32>,
    /// Per tree: accumulated value (own init + children).
    acc: Vec<u64>,
    /// Per neighbor (index into env.neighbors): FIFO of tree indices ready
    /// to send on that channel.
    queues: Vec<VecDeque<u32>>,
    outstanding: usize,
}

impl<W: Weight> ConvTreeNode<'_, W> {
    /// Tree `si` has every child's report: queue it on the channel to its
    /// parent, or, at the root, finish it.
    fn ready(&mut self, id: NodeId, neighbors: &[NodeId], si: u32) {
        if let Some(p) = self.coll.parent(id, si as usize) {
            let ni = neighbors.binary_search(&p).expect("parent is a neighbor");
            self.queues[ni].push_back(si);
        } else {
            self.outstanding -= 1;
        }
    }
}

impl<W: Weight> NodeLogic for ConvTreeNode<'_, W> {
    type Msg = (u32, u64);

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<(u32, u64)>],
        out: &mut Outbox<'_, (u32, u64)>,
    ) {
        for e in inbox {
            let (si, val) = e.msg;
            self.acc[si as usize] += val;
            self.pending[si as usize] -= 1;
            if self.pending[si as usize] == 0 {
                self.ready(env.id, env.neighbors, si);
            }
        }
        // One message per channel per round, addressed by channel index.
        for ni in 0..self.queues.len() {
            if let Some(si) = self.queues[ni].pop_front() {
                out.send_nbr(ni, (si, self.acc[si as usize]));
                self.outstanding -= 1;
            }
        }
    }

    fn active(&self) -> bool {
        self.outstanding > 0
    }
}

/// Bottom-up pipelined aggregation over every tree of `coll`: node v's
/// result for tree si is `init[v][si]` plus the results of its children.
/// Each node's `init` row becomes its accumulator in place, and the
/// accumulators are returned as the per-(node, tree) aggregate matrix.
///
/// # Errors
/// Propagates engine errors.
pub fn convergecast_trees<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    init: Vec<Vec<u64>>,
    until: RunUntil,
) -> Result<(Vec<Vec<u64>>, PhaseReport), SimError> {
    let n = topo.n();
    let s = coll.sources.len();
    let engine = Engine::new(topo, sim);
    let mut nodes: Vec<ConvTreeNode<W>> = (0..n)
        .zip(init)
        .map(|(v, acc)| {
            let id = v as NodeId;
            let neighbors = topo.neighbors(id);
            let mut node = ConvTreeNode {
                coll,
                pending: (0..s).map(|si| coll.children(id, si).len() as u32).collect(),
                acc,
                queues: vec![VecDeque::new(); neighbors.len()],
                outstanding: 0,
            };
            // Leaves are ready from the start, in ascending tree order.
            for si in 0..s {
                if coll.is_member(id, si) {
                    node.outstanding += 1;
                    if node.pending[si] == 0 {
                        node.ready(id, neighbors, si as u32);
                    }
                }
            }
            node
        })
        .collect();
    let report = engine.run(&mut nodes, until)?;
    Ok((nodes.into_iter().map(|nd| nd.acc).collect(), report))
}

/// Generous quiescence budget for [`convergecast_trees`]: never worse than
/// the paper's sequential O(|S|·h) accounting.
#[must_use]
pub fn convergecast_trees_budget<W: Weight>(coll: &SsspCollection<W>) -> RunUntil {
    let s = coll.sources.len() as u64;
    let h = coll.h as u64;
    RunUntil::Quiesce { max: (s + 2) * (h + 2) + 64 }
}

// ---------------------------------------------------------------------
// Remove-Subtrees (Algorithm 6)
// ---------------------------------------------------------------------

struct RemoveNode<'a, W> {
    /// The trees (read-only; the node reads its own children).
    coll: &'a SsspCollection<W>,
    /// This node's id.
    id: NodeId,
    /// Per tree: removal mark.
    removed: Vec<bool>,
    /// Channel FIFO queues of tree indices to forward.
    queues: Vec<VecDeque<u32>>,
    queued: usize,
}

impl<W: Weight> RemoveNode<'_, W> {
    fn mark(&mut self, si: u32, neighbors: &[NodeId]) {
        if self.removed[si as usize] {
            return;
        }
        self.removed[si as usize] = true;
        for &c in self.coll.children(self.id, si as usize) {
            let ni = neighbors.binary_search(&c).expect("child is a neighbor");
            self.queues[ni].push_back(si);
            self.queued += 1;
        }
    }
}

impl<W: Weight> NodeLogic for RemoveNode<'_, W> {
    type Msg = u32;

    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u32>], out: &mut Outbox<'_, u32>) {
        for e in inbox {
            self.mark(e.msg, env.neighbors);
        }
        for ni in 0..self.queues.len() {
            if let Some(si) = self.queues[ni].pop_front() {
                out.send_nbr(ni, si);
                self.queued -= 1;
            }
        }
    }

    fn active(&self) -> bool {
        self.queued > 0
    }
}

/// Algorithm 6, pipelined across all trees: removes the subtrees rooted at
/// each `(node, tree-index)` pair in `roots` and returns the removal mask
/// (`mask[v][si]`), OR-ed with the supplied existing mask.
///
/// # Errors
/// Propagates engine errors.
pub fn remove_subtrees<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    existing_mask: &[Vec<bool>],
    roots: &[(NodeId, usize)],
    until: RunUntil,
) -> Result<(Vec<Vec<bool>>, PhaseReport), SimError> {
    let n = topo.n();
    let s = coll.sources.len();
    let engine = Engine::new(topo, sim);
    let mut nodes: Vec<RemoveNode<W>> = (0..n)
        .map(|v| RemoveNode {
            coll,
            id: v as NodeId,
            removed: vec![false; s],
            queues: vec![VecDeque::new(); topo.neighbors(v as NodeId).len()],
            queued: 0,
        })
        .collect();
    // Seed: each root marks itself locally in round 0 (no communication).
    for &(z, si) in roots {
        if coll.is_member(z, si) {
            let neighbors = topo.neighbors(z);
            nodes[z as usize].mark(si as u32, neighbors);
        }
    }
    let report = engine.run(&mut nodes, until)?;
    let mask: Vec<Vec<bool>> = nodes
        .into_iter()
        .enumerate()
        .map(|(v, nd)| (0..s).map(|si| nd.removed[si] || existing_mask[v][si]).collect())
        .collect();
    Ok((mask, report))
}

// ---------------------------------------------------------------------
// Ancestor collection (Algorithm 7 Step 1 / Ancestors of [2])
// ---------------------------------------------------------------------

struct AncestorNode<'a> {
    /// This tree's children of the node.
    children: &'a [NodeId],
    /// Whether this node is a member of the current tree.
    member: bool,
    /// Received root-path ids so far, root first (without self).
    path: Vec<NodeId>,
    /// Expected path length (own depth).
    depth: usize,
    /// Next index of `path ++ [self]` to forward to children.
    next_fwd: usize,
}

impl NodeLogic for AncestorNode<'_> {
    type Msg = NodeId;

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<NodeId>],
        out: &mut Outbox<'_, NodeId>,
    ) {
        for e in inbox {
            self.path.push(e.msg);
        }
        if !self.member || self.children.is_empty() {
            return;
        }
        // Stream a child must receive, in index order: our root path
        // (indices 0..depth) followed by our own id (index = depth). Index
        // k is available once it has arrived from our parent; our own id
        // only goes out after the full prefix.
        let k = self.next_fwd;
        if k <= self.depth {
            let item = if k < self.path.len() {
                Some(self.path[k])
            } else if k == self.depth && self.path.len() == self.depth {
                Some(env.id)
            } else {
                None
            };
            if let Some(item) = item {
                for &c in self.children {
                    out.send(c, item);
                }
                self.next_fwd += 1;
            }
        }
    }

    fn active(&self) -> bool {
        self.member && !self.children.is_empty() && self.next_fwd <= self.depth
    }
}

/// Every node's root path in every tree, as one tree-major CSR: the path
/// of `v` in tree `si` is the id run of cell `si·n + v`, root first,
/// excluding `v` itself, and empty for non-members. A cell costs a 4-byte
/// offset plus 4 bytes per ancestor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AncestorLists {
    n: usize,
    /// Offsets into `ids`, one per cell plus one.
    off: Vec<u32>,
    ids: Vec<NodeId>,
}

impl AncestorLists {
    /// The ids on `v`'s root path in tree `si`: root..parent.
    #[must_use]
    pub fn get(&self, v: NodeId, si: usize) -> &[NodeId] {
        let cell = si * self.n + v as usize;
        &self.ids[self.off[cell] as usize..self.off[cell + 1] as usize]
    }
}

/// Collects, at every member node and for every tree, the ids on its root
/// path (root first, excluding the node itself). Runs per source in
/// sequence: O(h) rounds each, O(|S|·h) total — the Algorithm 7 Step 1
/// cost.
///
/// # Errors
/// Propagates engine errors.
///
/// # Panics
/// Panics if the paths hold more than `u32::MAX` ids.
pub fn collect_ancestors<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
) -> Result<(AncestorLists, PhaseReport), SimError> {
    let n = topo.n();
    let s = coll.sources.len();
    let engine = Engine::new(topo, sim);
    // A member at depth d receives d ids.
    let depths: usize =
        coll.hops.iter().flatten().filter(|&&d| d != u32::MAX).map(|&d| d as usize).sum();
    let mut off = Vec::with_capacity(n * s + 1);
    off.push(0u32);
    let mut ids = Vec::with_capacity(depths);
    let mut total = PhaseReport { node_sent: vec![0; n], ..Default::default() };
    for si in 0..s {
        let mut nodes: Vec<AncestorNode> = (0..n as NodeId)
            .map(|v| AncestorNode {
                children: coll.children(v, si),
                member: coll.is_member(v, si),
                path: Vec::new(),
                depth: if coll.is_member(v, si) { coll.hops[v as usize][si] as usize } else { 0 },
                next_fwd: 0,
            })
            .collect();
        let budget = 4 * (coll.h as u64 + 2) + 16;
        let report = engine.run(&mut nodes, RunUntil::Quiesce { max: budget })?;
        total.merge(&report);
        for nd in nodes {
            ids.extend_from_slice(&nd.path);
            off.push(u32::try_from(ids.len()).expect("ancestor ids exceed u32"));
        }
    }
    Ok((AncestorLists { n, off, ids }, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Charging;
    use crate::csssp::build_csssp;
    use congest_graph::generators::{gnm_connected, path, WeightDist};
    use congest_graph::seq::Direction;
    use congest_graph::Graph;
    use congest_sim::Recorder;

    fn build(
        n: usize,
        extra: usize,
        h: usize,
        seed: u64,
    ) -> (Graph<u64>, Topology, SsspCollection<u64>) {
        let g = gnm_connected(n, extra, true, WeightDist::Uniform(0, 7), seed);
        let topo = Topology::from_graph(&g);
        let mut rec = Recorder::new();
        let sources: Vec<NodeId> = (0..n as NodeId).collect();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            h,
            Direction::Out,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut crate::recovery::Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        (g, topo, coll)
    }

    /// Oracle: subtree aggregate by central traversal.
    fn oracle_aggregate(coll: &SsspCollection<u64>, init: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let n = coll.n();
        let s = coll.sources.len();
        let mut acc = vec![vec![0u64; s]; n];
        for si in 0..s {
            // process nodes in decreasing depth
            let mut order: Vec<NodeId> =
                (0..n as NodeId).filter(|&v| coll.is_member(v, si)).collect();
            order.sort_by_key(|&v| std::cmp::Reverse(coll.hops[v as usize][si]));
            for &v in &order {
                let mut sum = init[v as usize][si];
                for &c in coll.children(v, si) {
                    sum += acc[c as usize][si];
                }
                acc[v as usize][si] = sum;
            }
        }
        acc
    }

    #[test]
    fn convergecast_matches_oracle() {
        let (_, topo, coll) = build(18, 40, 3, 7);
        let init: Vec<Vec<u64>> = (0..18)
            .map(|v| {
                (0..coll.sources.len())
                    .map(|si| u64::from(coll.is_full_leaf(v as NodeId, si)))
                    .collect()
            })
            .collect();
        let (acc, _) = convergecast_trees(
            &topo,
            SimConfig::default(),
            &coll,
            init.clone(),
            convergecast_trees_budget(&coll),
        )
        .unwrap();
        let oracle = oracle_aggregate(&coll, &init);
        for v in 0..18 {
            for si in 0..coll.sources.len() {
                if coll.is_member(v as NodeId, si) {
                    assert_eq!(acc[v][si], oracle[v][si], "v={v} si={si}");
                }
            }
        }
    }

    #[test]
    fn convergecast_root_gets_total_leaf_count() {
        let g = path(6, true, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let mut rec = Recorder::new();
        let coll = build_csssp(
            &g,
            &topo,
            &[0],
            3,
            Direction::Out,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut crate::recovery::Recovery::disabled(),
            "c",
        )
        .unwrap();
        let init: Vec<Vec<u64>> =
            (0..6).map(|v| vec![u64::from(coll.is_full_leaf(v as NodeId, 0))]).collect();
        let (acc, _) = convergecast_trees(
            &topo,
            SimConfig::default(),
            &coll,
            init,
            convergecast_trees_budget(&coll),
        )
        .unwrap();
        // Single path: only node 3 is at depth exactly 3.
        assert_eq!(acc[0][0], 1);
        assert_eq!(acc[3][0], 1);
    }

    #[test]
    fn convergecast_pipelines() {
        // n trees over a path graph; sequential would be ~n*h rounds, the
        // pipelined version must be O(n + h).
        let g = path(24, true, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let mut rec = Recorder::new();
        let sources: Vec<NodeId> = (0..24).collect();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            4,
            Direction::Out,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut crate::recovery::Recovery::disabled(),
            "c",
        )
        .unwrap();
        let init: Vec<Vec<u64>> = vec![vec![1u64; 24]; 24];
        let (_, report) = convergecast_trees(
            &topo,
            SimConfig::default(),
            &coll,
            init,
            convergecast_trees_budget(&coll),
        )
        .unwrap();
        assert!(report.rounds <= 24 + 4 * 4 + 16, "rounds = {}", report.rounds);
    }

    #[test]
    fn remove_subtrees_marks_descendants() {
        let (_, topo, coll) = build(16, 30, 3, 3);
        let blank = vec![vec![false; coll.sources.len()]; 16];
        // remove subtree of node 5 in every tree where it's a member
        let roots: Vec<(NodeId, usize)> = (0..coll.sources.len())
            .filter(|&si| coll.is_member(5, si))
            .map(|si| (5 as NodeId, si))
            .collect();
        let (mask, _) = remove_subtrees(
            &topo,
            SimConfig::default(),
            &coll,
            &blank,
            &roots,
            RunUntil::Quiesce { max: 4000 },
        )
        .unwrap();
        for si in 0..coll.sources.len() {
            for v in 0..16u32 {
                // oracle: v below-or-at 5 in tree si?
                let below = coll.root_path(v, si).map(|p| p.contains(&5)).unwrap_or(false);
                assert_eq!(mask[v as usize][si], below, "v={v} si={si}");
            }
        }
    }

    #[test]
    fn remove_subtrees_respects_existing_mask() {
        let (_, topo, coll) = build(12, 20, 2, 5);
        let mut existing = vec![vec![false; coll.sources.len()]; 12];
        existing[7][0] = true;
        let (mask, _) = remove_subtrees(
            &topo,
            SimConfig::default(),
            &coll,
            &existing,
            &[],
            RunUntil::Quiesce { max: 100 },
        )
        .unwrap();
        assert!(mask[7][0]);
    }

    #[test]
    fn ancestors_match_root_paths() {
        let (_, topo, coll) = build(15, 30, 3, 11);
        let (anc, report) = collect_ancestors(&topo, SimConfig::default(), &coll).unwrap();
        for v in 0..15u32 {
            for si in 0..coll.sources.len() {
                if let Some(path) = coll.root_path(v, si) {
                    // root_path is v..root; ancestors are root..parent.
                    let mut expected: Vec<NodeId> = path.into_iter().rev().collect();
                    expected.pop(); // drop v itself
                    assert_eq!(anc.get(v, si), expected, "v={v} si={si}");
                } else {
                    assert!(anc.get(v, si).is_empty());
                }
            }
        }
        assert!(report.rounds > 0);
        assert!(report.wall_ns > 0, "the merged report keeps the runs' host time");
        assert!(report.peak_in_flight > 0, "the merged report keeps the runs' peak in flight");
    }
}
