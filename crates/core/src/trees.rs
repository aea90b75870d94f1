//! Pipelined multi-tree protocols over a CSSSP collection, and the pick
//! loop that greedy (\[2\]), Algorithm 2/2′ and Algorithm 13 share.
//!
//! Three communication patterns recur throughout §3 and Appendix A.6, all
//! operating on every tree of a collection at once with per-channel
//! queues and one message per channel per round:
//!
//! * [`subtree_sums`] — bottom-up aggregation of a 0/1 mark per (node,
//!   tree), summed per node over the trees where it is a non-root member:
//!   `score(v)` (Alg 2 Step 1, via the Algorithm-3 machinery of \[2\]),
//!   `score_ij(v)` (Step 8) and `total_count(v)` (Algorithms 13–14).
//! * [`remove_subtrees`] — Algorithm 6: top-down removal tokens from a set
//!   of roots, adding every (node, tree) pair in their subtrees to the
//!   run's [`TreeState`].
//! * [`collect_ancestors`] — Algorithm 7 Step 1 (the Ancestors algorithm
//!   of \[2\]): every node learns the ids on its root path in every tree,
//!   streamed one id per round per channel, one source at a time.
//!
//! A pick loop sums, floods the sums with [`flood_scores`] so every node
//! learns the maximum (O(n) rounds, Lemma A.2), prunes the pick's subtrees
//! and sums again. Each caller keeps its own marks and root rule; the run
//! threads one [`TreeState`] through its sums and removals.
//!
//! Within a run, a cell (a node's place in one tree) goes *silent* once
//! its count can no longer change, and silent cells send nothing. Each
//! silence is knowledge both ends of a channel already hold, so no
//! message is needed to agree on it:
//!
//! * a removed cell knows it received a removal token, and a removed child
//!   of a live parent is a pick, which every caller floods to all nodes;
//! * a cell whose first sum was 0 stays 0, because a run's marks only
//!   shrink, and its parent received that 0 in the first sum;
//! * a root's children never send, because no caller reads a root's total
//!   in its own tree.
//!
//! The paper charges O(|S|·h) rounds for these (sequential per source);
//! the convergecast and removal protocols here pipeline across trees and
//! finish in O(h + congestion) ≤ O(|S|·h) rounds, where the congestion
//! counts only the live cells a channel carries, which only tightens the
//! measured constants.

use crate::csssp::SsspCollection;
use congest_graph::{NodeId, Weight};
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{
    BitSet, Engine, Envelope, NodeEnv, NodeLogic, Outbox, PhaseReport, RunUntil, SimConfig,
    SimError, Topology,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Quiescence budget of the pipelined tree protocols: never worse than the
/// paper's sequential O(|S|·h) accounting.
fn tree_budget<W: Weight>(coll: &SsspCollection<W>) -> RunUntil {
    let s = coll.sources.len() as u64;
    let h = coll.h as u64;
    RunUntil::Quiesce { max: (s + 2) * (h + 2) + 64 }
}

// ---------------------------------------------------------------------
// The run's tree state
// ---------------------------------------------------------------------

/// What one pick loop's run knows about its trees, one bit per (node,
/// tree) cell at `si·n + v`, the parent plane's layout: the cells that
/// Algorithm 6 has removed ([`remove_subtrees`] adds them in place), and
/// the cells whose first [`subtree_sums`] was 0. Both sets only grow
/// within a run; nothing clears a bit. A removed or zero cell is
/// *silent*: later sums count it as 0, and it sends nothing.
#[derive(Clone, Debug)]
pub struct TreeState {
    n: usize,
    removed: BitSet,
    /// Cells whose first sum was 0; `None` before the first sum.
    zero: Option<BitSet>,
}

impl TreeState {
    /// No cell removed and no sum taken yet, over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        TreeState { n, removed: BitSet::new(), zero: None }
    }

    /// `true` iff `v`'s cell in tree `si` is removed.
    #[must_use]
    pub fn removed(&self, v: NodeId, si: usize) -> bool {
        self.removed.get(si * self.n + v as usize)
    }

    /// `true` iff `v`'s cell in tree `si` is removed or its first sum was 0.
    fn silent(&self, v: NodeId, si: usize) -> bool {
        let cell = si * self.n + v as usize;
        self.removed.get(cell) || self.zero.as_ref().is_some_and(|z| z.get(cell))
    }

    fn insert(&mut self, v: NodeId, si: usize) {
        self.removed.insert(si * self.n + v as usize);
    }
}

// ---------------------------------------------------------------------
// Convergecast
// ---------------------------------------------------------------------

struct ConvTreeNode<'a, W> {
    /// The trees (read-only; the node reads its own parents).
    coll: &'a SsspCollection<W>,
    /// Per tree: live children not yet reported.
    pending: Vec<u32>,
    /// Per tree: accumulated value (own mark + live children).
    acc: Vec<u64>,
    /// Per neighbor (index into env.neighbors): the ready trees to send on
    /// that channel as `(depth, tree)`, deepest first, ties to the smaller
    /// tree index.
    queues: Vec<BinaryHeap<(u32, Reverse<u32>)>>,
    /// Live cells not yet done: a cell at depth ≥ 2 is done once sent, a
    /// depth-1 cell once every live child has reported.
    outstanding: usize,
}

impl<W: Weight> ConvTreeNode<'_, W> {
    /// Live non-root cell `si` has every live child's report: queue it on
    /// the channel to its parent, or, at depth 1, finish it (no caller
    /// reads a root's own-tree total, so a root's children never send).
    fn ready(&mut self, id: NodeId, neighbors: &[NodeId], si: u32) {
        let p = self.coll.parent(id, si as usize).expect("a live cell has a parent");
        if p == self.coll.sources[si as usize] {
            self.outstanding -= 1;
        } else {
            let ni = neighbors.binary_search(&p).expect("parent is a neighbor");
            self.queues[ni].push((self.coll.hops[id as usize][si as usize], Reverse(si)));
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
        for (ni, queue) in self.queues.iter_mut().enumerate() {
            if let Some((_, Reverse(si))) = queue.pop() {
                out.send_nbr(ni, (si, self.acc[si as usize]));
                self.outstanding -= 1;
            }
        }
    }

    fn active(&self) -> bool {
        self.outstanding > 0
    }
}

/// Bottom-up pipelined aggregation over every tree of `coll`: a member's
/// aggregate in tree si is its own `mark(v, si)` (0 or 1) plus its live
/// children's aggregates. Returns, per node, the sum of its aggregates over
/// the trees where it is a non-root member: the marks that a pick of the
/// node would cut off.
///
/// `state` carries the run across calls. The first call records which
/// cells summed to 0, and every call keeps the silent cells out: a removed
/// cell counts 0 and `mark` is not asked for it, and a cell whose first
/// sum was 0 must stay unmarked, so a run's marks may only shrink. Only
/// live cells at depth ≥ 2 send, one message each, deepest first on each
/// channel (ties to the smaller tree index), and a parent waits only for
/// its live children. Each silence is something both ends of the channel
/// already know: the 0 travelled on that channel in the first call, and a
/// removed child of a live parent is a pick, which every caller publishes
/// to all nodes.
///
/// # Errors
/// Propagates engine errors.
///
/// # Panics
/// Panics if `mark` marks a cell whose first sum was 0.
pub fn subtree_sums<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    state: &mut TreeState,
    mark: impl Fn(NodeId, usize) -> bool,
) -> Result<(Vec<u64>, PhaseReport), SimError> {
    let s = coll.sources.len();
    let engine = Engine::new(topo, sim);
    let st = &*state;
    let mut nodes: Vec<ConvTreeNode<W>> = (0..topo.n() as NodeId)
        .map(|id| {
            let neighbors = topo.neighbors(id);
            let mut node = ConvTreeNode {
                coll,
                pending: vec![0; s],
                acc: vec![0; s],
                queues: vec![BinaryHeap::new(); neighbors.len()],
                outstanding: 0,
            };
            for si in 0..s {
                if coll.parent(id, si).is_none() || st.removed(id, si) {
                    continue; // a root or non-member, or removed
                }
                let marked = mark(id, si);
                if st.silent(id, si) {
                    assert!(!marked, "cell ({id}, {si}) is marked, but its first sum was 0");
                    continue;
                }
                node.acc[si] = u64::from(marked);
                let live = coll.children(id, si).iter().filter(|&&c| !st.silent(c, si)).count();
                node.pending[si] = live as u32;
                node.outstanding += 1;
                if live == 0 {
                    node.ready(id, neighbors, si as u32);
                }
            }
            node
        })
        .collect();
    let report = engine.run(&mut nodes, tree_budget(coll))?;
    if state.zero.is_none() {
        let mut zero = BitSet::new();
        for (v, nd) in (0..topo.n() as NodeId).zip(&nodes) {
            for si in 0..s {
                if nd.acc[si] == 0 && coll.parent(v, si).is_some() && !state.removed(v, si) {
                    zero.insert(si * state.n + v as usize);
                }
            }
        }
        state.zero = Some(zero);
    }
    let sums = nodes.iter().map(|nd| nd.acc.iter().sum()).collect();
    Ok((sums, report))
}

/// Floods every positive `scores(v)` as a `(score, v)` pair (O(n) rounds,
/// Lemma A.2) and returns the maximum every node learns: the higher score,
/// the smaller id on ties; `None` when no score is positive.
///
/// # Errors
/// Propagates engine errors.
pub fn flood_scores(
    topo: &Topology,
    sim: SimConfig,
    scores: impl Fn(usize) -> u64,
) -> Result<(Option<(u64, NodeId)>, PhaseReport), SimError> {
    let initial: Vec<Vec<(u64, NodeId)>> = (0..topo.n())
        .map(|v| match scores(v) {
            0 => Vec::new(),
            sc => vec![(sc, v as NodeId)],
        })
        .collect();
    let (logs, report) = all_to_all_broadcast(topo, sim, initial, 2, |&(_, v)| v as usize)?;
    let best = logs.log(0).copied().max_by_key(|&(sc, id)| (sc, Reverse(id)));
    Ok((best, report))
}

// ---------------------------------------------------------------------
// Remove-Subtrees (Algorithm 6)
// ---------------------------------------------------------------------

struct RemoveNode<'a, W> {
    /// The trees (read-only; the node reads its own children).
    coll: &'a SsspCollection<W>,
    /// The cells earlier calls removed (read-only during a call).
    state: &'a TreeState,
    /// This node's id.
    id: NodeId,
    /// The trees this run has marked at this node.
    marked: BitSet,
    /// Channel FIFO queues of tree indices to forward.
    queues: Vec<VecDeque<u32>>,
    queued: usize,
}

impl<W: Weight> RemoveNode<'_, W> {
    fn mark(&mut self, si: u32, neighbors: &[NodeId]) {
        if !self.marked.insert(si as usize) {
            return;
        }
        for &c in self.coll.children(self.id, si as usize) {
            if self.state.removed(c, si as usize) {
                continue; // an earlier pick, which every node has heard of
            }
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
/// each `(node, tree-index)` pair in `roots` and adds their cells to
/// `state`. A token enters only cells not yet removed, and a root that is
/// already removed sends nothing: a removed child of a live cell is an
/// earlier pick, which every caller publishes to all nodes, so each node
/// knows where to stop.
///
/// # Errors
/// Propagates engine errors.
pub fn remove_subtrees<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    state: &mut TreeState,
    roots: &[(NodeId, usize)],
) -> Result<PhaseReport, SimError> {
    let engine = Engine::new(topo, sim);
    let st = &*state;
    let mut nodes: Vec<RemoveNode<W>> = (0..topo.n() as NodeId)
        .map(|id| RemoveNode {
            coll,
            state: st,
            id,
            marked: BitSet::new(),
            queues: vec![VecDeque::new(); topo.neighbors(id).len()],
            queued: 0,
        })
        .collect();
    // Seed: each root marks itself locally in round 0 (no communication).
    // An already removed root sends nothing: its children are removed too.
    for &(z, si) in roots {
        if coll.is_member(z, si) {
            nodes[z as usize].mark(si as u32, topo.neighbors(z));
        }
    }
    let report = engine.run(&mut nodes, tree_budget(coll))?;
    let marked: Vec<BitSet> = nodes.into_iter().map(|nd| nd.marked).collect();
    for (v, trees) in (0..topo.n() as NodeId).zip(&marked) {
        for si in trees.ones() {
            state.insert(v, si);
        }
    }
    Ok(report)
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
                    let ni = env.neighbor_index(c).expect("child is a neighbor");
                    out.send_nbr(ni, item);
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
    use congest_graph::generators::{broom, gnm_connected, path, WeightDist};
    use congest_graph::seq::Direction;
    use congest_graph::Graph;
    use congest_sim::Recorder;

    /// The h-hop out-trees of every node of `g`.
    fn collection(g: &Graph<u64>, h: usize) -> (Topology, SsspCollection<u64>) {
        let topo = Topology::from_graph(g);
        let mut rec = Recorder::new();
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let coll = build_csssp(
            g,
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
        (topo, coll)
    }

    fn build(n: usize, extra: usize, h: usize, seed: u64) -> (Topology, SsspCollection<u64>) {
        collection(&gnm_connected(n, extra, true, WeightDist::Uniform(0, 7), seed), h)
    }

    /// Oracle: per node, the marks below it in the trees where it is a
    /// non-root member, read off every marked cell's root path.
    fn oracle_sums(coll: &SsspCollection<u64>, mark: impl Fn(NodeId, usize) -> bool) -> Vec<u64> {
        let mut sums = vec![0u64; coll.n()];
        for si in 0..coll.sources.len() {
            for u in 0..coll.n() as NodeId {
                if let Some(path) = coll.root_path(u, si).filter(|_| mark(u, si)) {
                    // path is u..root; the root takes no share.
                    for &v in &path[..path.len() - 1] {
                        sums[v as usize] += 1;
                    }
                }
            }
        }
        sums
    }

    /// The cells that send in the next sum: live members at depth ≥ 2.
    fn sending_cells(coll: &SsspCollection<u64>, state: &TreeState) -> u64 {
        let cells =
            (0..coll.sources.len()).flat_map(|si| (0..coll.n() as NodeId).map(move |v| (v, si)));
        cells
            .filter(|&(v, si)| {
                let depth = coll.hops[v as usize][si];
                depth != u32::MAX && depth >= 2 && !state.silent(v, si)
            })
            .count() as u64
    }

    #[test]
    fn convergecast_matches_oracle() {
        let (topo, coll) = build(18, 40, 3, 7);
        let full_leaf = |v, si| coll.is_full_leaf(v, si);
        let mut state = TreeState::new(18);
        let (sums, _) =
            subtree_sums(&topo, SimConfig::default(), &coll, &mut state, full_leaf).unwrap();
        assert_eq!(sums, oracle_sums(&coll, full_leaf));
        assert!(sums.iter().any(|&x| x > 0), "the instance has full-length paths");
        let odd = |v: NodeId, si: usize| (v as usize + si) % 2 == 1;
        let mut state = TreeState::new(18);
        let (sums, _) = subtree_sums(&topo, SimConfig::default(), &coll, &mut state, odd).unwrap();
        assert_eq!(sums, oracle_sums(&coll, odd));
    }

    /// A greedy pick loop: after every removal the sums equal the oracle's
    /// over the alive full leaves, and exactly the live cells at depth ≥ 2
    /// send, one message each.
    #[test]
    fn pick_loop_sums_stay_exact_and_only_live_cells_send() {
        let broom = broom(24, true, WeightDist::Uniform(1, 5), 3);
        for (name, (topo, coll)) in [("gnm", build(18, 40, 3, 7)), ("broom", collection(&broom, 4))]
        {
            let mut state = TreeState::new(coll.n());
            let full_leaf = |v, si| coll.is_full_leaf(v, si);
            let mut picks = 0;
            loop {
                let live = sending_cells(&coll, &state);
                let (sums, report) =
                    subtree_sums(&topo, SimConfig::default(), &coll, &mut state, full_leaf)
                        .unwrap();
                let alive = |v, si| coll.is_full_leaf(v, si) && !state.removed(v, si);
                assert_eq!(sums, oracle_sums(&coll, alive), "{name} after {picks} picks");
                assert_eq!(report.messages, live, "{name} after {picks} picks");
                let Some(c) = (0..coll.n()).filter(|&v| sums[v] > 0).max_by_key(|&v| sums[v])
                else {
                    break;
                };
                let roots: Vec<(NodeId, usize)> = (0..coll.sources.len())
                    .filter(|&si| coll.parent(c as NodeId, si).is_some())
                    .map(|si| (c as NodeId, si))
                    .collect();
                remove_subtrees(&topo, SimConfig::default(), &coll, &mut state, &roots).unwrap();
                picks += 1;
            }
            assert!(picks >= 2, "{name}: the loop takes several picks, took {picks}");
        }
    }

    #[test]
    #[should_panic(expected = "its first sum was 0")]
    fn marking_a_cell_whose_first_sum_was_zero_panics() {
        let (topo, coll) = build(18, 40, 3, 7);
        let mut state = TreeState::new(18);
        subtree_sums(&topo, SimConfig::default(), &coll, &mut state, |v, si| {
            coll.is_full_leaf(v, si)
        })
        .unwrap();
        let cells = (0..coll.sources.len()).flat_map(|si| (0..18).map(move |v| (v, si)));
        let zero = cells
            .filter(|&(v, si)| coll.parent(v, si).is_some())
            .find(|&(v, si)| state.silent(v, si))
            .expect("some member has no full leaf below it");
        let _ =
            subtree_sums(&topo, SimConfig::default(), &coll, &mut state, |v, si| (v, si) == zero);
    }

    #[test]
    fn subtree_sums_skip_the_root_tree() {
        let (topo, coll) = collection(&path(6, true, WeightDist::Unit, 0), 3);
        let mut state = TreeState::new(6);
        let (sums, _) = subtree_sums(&topo, SimConfig::default(), &coll, &mut state, |v, si| {
            si == 0 && coll.is_full_leaf(v, si)
        })
        .unwrap();
        // Tree 0 is the path 0 -> 1 -> 2 -> 3: node 3 is its one full leaf,
        // every non-root vertex above it counts it, and the root counts
        // nothing.
        assert_eq!(sums, [0, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn convergecast_pipelines() {
        // n trees over a path graph; sequential would be ~n*h rounds, the
        // pipelined version must be O(n + h).
        let (topo, coll) = collection(&path(24, true, WeightDist::Unit, 0), 4);
        let mut state = TreeState::new(24);
        let (_, report) =
            subtree_sums(&topo, SimConfig::default(), &coll, &mut state, |_, _| true).unwrap();
        assert!(report.rounds <= 24 + 4 * 4 + 16, "rounds = {}", report.rounds);
    }

    #[test]
    fn flood_scores_takes_the_max_and_the_smaller_id_on_ties() {
        let g = path(5, true, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let scores = [0u64, 3, 7, 7, 2];
        let (best, report) = flood_scores(&topo, SimConfig::default(), |v| scores[v]).unwrap();
        assert_eq!(best, Some((7, 2)));
        assert!(report.messages > 0);
        let (none, _) = flood_scores(&topo, SimConfig::default(), |_| 0).unwrap();
        assert_eq!(none, None);
    }

    /// The subtree of node 5 in every tree where it is a member.
    fn remove_node_5() -> (Topology, SsspCollection<u64>, TreeState, Vec<(NodeId, usize)>) {
        let (topo, coll) = build(16, 30, 3, 3);
        let mut state = TreeState::new(16);
        let roots: Vec<(NodeId, usize)> =
            (0..coll.sources.len()).filter(|&si| coll.is_member(5, si)).map(|si| (5, si)).collect();
        remove_subtrees(&topo, SimConfig::default(), &coll, &mut state, &roots).unwrap();
        (topo, coll, state, roots)
    }

    #[test]
    fn remove_subtrees_marks_descendants() {
        let (_, coll, state, _) = remove_node_5();
        for si in 0..coll.sources.len() {
            for v in 0..16u32 {
                // oracle: v below-or-at 5 in tree si?
                let below = coll.root_path(v, si).map(|p| p.contains(&5)).unwrap_or(false);
                assert_eq!(state.removed(v, si), below, "v={v} si={si}");
            }
        }
    }

    #[test]
    fn remove_subtrees_stops_at_removed_cells() {
        let (topo, coll, mut state, roots) = remove_node_5();
        let before = state.removed.clone();
        assert!(before.count() > roots.len(), "node 5 has descendants");
        let report =
            remove_subtrees(&topo, SimConfig::default(), &coll, &mut state, &roots).unwrap();
        assert_eq!(report.messages, 0, "every root is already removed");
        assert_eq!(state.removed, before);
    }

    #[test]
    fn remove_subtrees_respects_existing_mask() {
        let (topo, coll) = build(12, 20, 2, 5);
        let mut state = TreeState::new(12);
        state.insert(7, 0);
        let roots = [(3, 3)];
        remove_subtrees(&topo, SimConfig::default(), &coll, &mut state, &roots).unwrap();
        assert!(state.removed(7, 0), "a call adds to the set and never clears it");
        assert!(state.removed(3, 3));
    }

    #[test]
    fn ancestors_match_root_paths() {
        let (topo, coll) = build(15, 30, 3, 11);
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
