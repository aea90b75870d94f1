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
//!   streamed as `(tree, id)` pairs, every tree at once, first in first
//!   out on each channel.
//!
//! A pick loop sums, finds the maximum with [`flood_scores`] (a max-flood:
//! O(D) rounds, every channel carrying only values that beat what it
//! already carried), prunes the pick's subtrees and sums again. Each
//! caller keeps its own marks and root rule; the run threads one
//! [`TreeState`] through its sums and removals.
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
//! all three protocols here pipeline across trees. The convergecast and
//! removal finish in O(h + congestion) ≤ O(|S|·h) rounds, where the
//! congestion counts only the live cells a channel carries; the ancestor
//! collection finishes near the largest number of ids one channel carries,
//! plus O(h).

use crate::csssp::SsspCollection;
use congest_graph::{NodeId, Weight, NO_SUCC};
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
            // A cell that waits for no report hears one only when a lost
            // removal token left a child live below it: it keeps its count.
            let Some(left) = self.pending[si as usize].checked_sub(1) else { continue };
            self.acc[si as usize] += val;
            self.pending[si as usize] = left;
            if left == 0 {
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

// ---------------------------------------------------------------------
// Max-flood
// ---------------------------------------------------------------------

/// A `(score, id)` ordered as [`flood_scores`] ranks it: the higher score,
/// then the smaller id.
type Ranked = (u64, Reverse<NodeId>);

struct MaxFloodNode {
    /// The best value this node knows; `None` until it knows a positive
    /// score.
    best: Option<Ranked>,
    /// Per neighbor: the best value the channel has carried, either way.
    carried: Vec<Option<Ranked>>,
}

impl NodeLogic for MaxFloodNode {
    type Msg = (u64, NodeId);

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<(u64, NodeId)>],
        out: &mut Outbox<'_, (u64, NodeId)>,
    ) {
        for e in inbox {
            let got = Some((e.msg.0, Reverse(e.msg.1)));
            let ni = env.neighbor_index(e.from).expect("sender is a neighbor");
            self.carried[ni] = self.carried[ni].max(got);
            self.best = self.best.max(got);
        }
        // A channel carries a value only if it beats all it carried.
        if let Some((score, Reverse(id))) = self.best {
            for (ni, carried) in self.carried.iter_mut().enumerate() {
                if *carried < self.best {
                    out.send_nbr(ni, (score, id));
                    *carried = self.best;
                }
            }
        }
    }

    fn msg_words(&self, _msg: &(u64, NodeId)) -> u32 {
        2
    }
}

/// Every node learns the maximum of the positive `scores(v)` as a `(score,
/// v)` pair, the higher score first and the smaller id on ties; `None`
/// when no score is positive. A max-flood: a node sends its best pair on a
/// channel only when it beats every pair that channel has carried in
/// either direction, so each channel carries strictly increasing pairs,
/// the run ends within O(D) rounds, and a channel carries at most as many
/// messages as there are positive scores.
///
/// # Errors
/// Propagates engine errors.
pub fn flood_scores(
    topo: &Topology,
    sim: SimConfig,
    scores: impl Fn(usize) -> u64,
) -> Result<(Option<(u64, NodeId)>, PhaseReport), SimError> {
    let mut nodes: Vec<MaxFloodNode> = (0..topo.n())
        .map(|v| MaxFloodNode {
            best: Some(scores(v)).filter(|&sc| sc > 0).map(|sc| (sc, Reverse(v as NodeId))),
            carried: vec![None; topo.degree(v as NodeId)],
        })
        .collect();
    // The maximum crosses the graph in D ≤ n - 1 rounds.
    let until = RunUntil::Quiesce { max: topo.n() as u64 + 8 };
    let report = Engine::new(topo, sim).run(&mut nodes, until)?;
    let best = nodes[0].best.map(|(sc, Reverse(id))| (sc, id));
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

struct AncestorNode<'a, W> {
    /// The trees (read-only; the node reads its own depths and children).
    coll: &'a SsspCollection<W>,
    /// This node's cells of the CSR, tree after tree: its root path in
    /// each tree, filled root first as the ids arrive; [`NO_SUCC`] marks
    /// the slots still to come.
    ids: &'a mut [NodeId],
    /// This node's CSR offsets, one per tree plus the end; `ids` starts
    /// at the first.
    off: &'a [u32],
    /// Per neighbor: `(tree, id)` pairs to forward, first in first out.
    queues: Vec<VecDeque<(u32, NodeId)>>,
    queued: usize,
}

impl<W: Weight> AncestorNode<'_, W> {
    /// Queues `id` for this node's children in tree `si`.
    fn forward(&mut self, me: NodeId, neighbors: &[NodeId], si: u32, id: NodeId) {
        for &c in self.coll.children(me, si as usize) {
            let ni = neighbors.binary_search(&c).expect("child is a neighbor");
            self.queues[ni].push_back((si, id));
            self.queued += 1;
        }
    }
}

impl<W: Weight> NodeLogic for AncestorNode<'_, W> {
    type Msg = (u32, NodeId);

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<(u32, NodeId)>],
        out: &mut Outbox<'_, (u32, NodeId)>,
    ) {
        // A tree's ids arrive from the parent, root first; once the last
        // (the parent's own) is in, this node's id follows it down.
        for e in inbox {
            let (si, id) = e.msg;
            let cell = (self.off[si as usize] - self.off[0]) as usize
                ..(self.off[si as usize + 1] - self.off[0]) as usize;
            let path = &mut self.ids[cell];
            let k = path.partition_point(|&x| x != NO_SUCC);
            path[k] = id;
            let full = k + 1 == path.len();
            self.forward(env.id, env.neighbors, si, id);
            if full {
                self.forward(env.id, env.neighbors, si, env.id);
            }
        }
        for (ni, queue) in self.queues.iter_mut().enumerate() {
            if let Some(msg) = queue.pop_front() {
                out.send_nbr(ni, msg);
                self.queued -= 1;
            }
        }
    }

    fn active(&self) -> bool {
        self.queued > 0
    }

    fn msg_words(&self, _msg: &(u32, NodeId)) -> u32 {
        2
    }
}

/// Every node's root path in every tree, as one node-major CSR: the path
/// of `v` in tree `si` is the id run of cell `v·|S| + si`, root first,
/// excluding `v` itself, and empty for non-members. A cell costs a 4-byte
/// offset plus 4 bytes per ancestor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AncestorLists {
    s: usize,
    /// Offsets into `ids`, one per cell plus one.
    off: Vec<u32>,
    ids: Vec<NodeId>,
}

impl AncestorLists {
    /// The ids on `v`'s root path in tree `si`: root..parent. After a lossy
    /// run, the ids that arrived, in order.
    #[must_use]
    pub fn get(&self, v: NodeId, si: usize) -> &[NodeId] {
        let cell = v as usize * self.s + si;
        let path = &self.ids[self.off[cell] as usize..self.off[cell + 1] as usize];
        // The ids fill each path from its start; a lost one leaves the
        // slots at the end unfilled.
        &path[..path.partition_point(|&x| x != NO_SUCC)]
    }
}

/// Collects, at every member node and for every tree, the ids on its root
/// path (root first, excluding the node itself). Every tree streams at
/// once: a node forwards each id it receives, and then its own, to its
/// children as one 2-word `(tree, id)` message, one per channel per round,
/// first in first out. A member at depth d receives d ids, so the run ends
/// near the largest number of ids one channel carries, plus O(h), within
/// the paper's O(|S|·h) charge for Algorithm 7 Step 1. The ids land
/// straight in the CSR, whose offsets the members' depths fix in advance.
/// A lost id shortens the paths at and below its receiver, which keep the
/// ids that did arrive.
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
    let (n, s) = (topo.n(), coll.sources.len());
    // A member at depth d receives d ids.
    let depth = |d: u32| if d == u32::MAX { 0 } else { d };
    let mut off = Vec::with_capacity(n * s + 1);
    off.push(0u32);
    let mut total = 0u32;
    for hops in &coll.hops {
        for &d in hops {
            total = total.checked_add(depth(d)).expect("ancestor ids exceed u32");
            off.push(total);
        }
    }
    let mut ids = vec![NO_SUCC; total as usize];
    let mut ids_rest = &mut ids[..];
    let mut nodes: Vec<AncestorNode<W>> = Vec::with_capacity(n);
    for v in 0..n as NodeId {
        let cells = &off[v as usize * s..=(v as usize + 1) * s];
        let neighbors = topo.neighbors(v);
        let (mine, rest) =
            std::mem::take(&mut ids_rest).split_at_mut((cells[s] - cells[0]) as usize);
        ids_rest = rest;
        let mut node = AncestorNode {
            coll,
            ids: mine,
            off: cells,
            queues: vec![VecDeque::new(); neighbors.len()],
            queued: 0,
        };
        // A root's stream is its own id alone.
        for si in (0..s as u32).filter(|&si| coll.sources[si as usize] == v) {
            node.forward(v, neighbors, si, v);
        }
        nodes.push(node);
    }
    let report = Engine::new(topo, sim).run(&mut nodes, tree_budget(coll))?;
    drop(nodes);
    Ok((AncestorLists { s, off, ids }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csssp::build_csssp;
    use congest_graph::generators::{broom, gnm_connected, path, star, WeightDist};
    use congest_graph::seq::Direction;
    use congest_graph::Graph;
    use congest_sim::primitives::build_bfs_tree;
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

    /// The communication graph's diameter: the tallest BFS tree.
    fn diameter(topo: &Topology) -> u64 {
        let height = |root| build_bfs_tree(topo, SimConfig::default(), root).unwrap().0.height();
        (0..topo.n() as NodeId).map(height).max().unwrap_or(0)
    }

    /// The max-flood returns what flooding every positive score returned:
    /// the maximum, ties to the smaller id, `None` when every score is 0.
    /// It ends within D + 2 rounds, and each channel carries strictly
    /// increasing pairs, so no more messages than positive scores times
    /// directed channels.
    #[test]
    fn max_flood_finds_the_maximum_in_diameter_rounds() {
        let graphs = [
            ("path", path(5, true, WeightDist::Unit, 0)),
            ("star", star(12, true, WeightDist::Unit, 0)),
            ("broom", broom(24, true, WeightDist::Uniform(1, 5), 3)),
            ("gnm", gnm_connected(18, 40, true, WeightDist::Uniform(0, 7), 7)),
        ];
        for (name, g) in graphs {
            let topo = Topology::from_graph(&g);
            let n = topo.n();
            let d = diameter(&topo);
            let vs = 0..n as u64;
            let patterns: [(&str, Vec<u64>); 5] = [
                ("zero", vec![0; n]),
                ("one", vs.clone().map(|v| u64::from(v == n as u64 / 2)).collect()),
                ("ties", vs.clone().map(|v| v % 3 * 4).collect()),
                ("ascending", vs.clone().collect()),
                ("scattered", vs.map(|v| v * 7919 % 11).collect()),
            ];
            for (pattern, scores) in patterns {
                let (best, report) =
                    flood_scores(&topo, SimConfig::default(), |v| scores[v]).unwrap();
                let want = (0..n)
                    .map(|v| (scores[v], v as NodeId))
                    .filter(|&(sc, _)| sc > 0)
                    .max_by_key(|&(sc, v)| (sc, Reverse(v)));
                assert_eq!(best, want, "{name} {pattern}");
                assert!(
                    report.rounds <= d + 2,
                    "{name} {pattern}: {} rounds, D = {d}",
                    report.rounds
                );
                let positive = scores.iter().filter(|&&sc| sc > 0).count() as u64;
                assert!(
                    report.messages <= positive * topo.channels() as u64,
                    "{name} {pattern}: {} messages",
                    report.messages
                );
                assert_eq!(report.payload_words, 2 * report.messages, "{name} {pattern}");
            }
        }
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

    /// Every tree streams at once: the collection ends within the largest
    /// number of ids one channel carries plus 2h + 8 rounds, a member at
    /// depth d receives d messages, and each message is a 2-word `(tree,
    /// id)` pair.
    #[test]
    fn ancestors_pipeline_across_trees() {
        let h = 4;
        for (name, g) in [
            ("broom", broom(24, true, WeightDist::Uniform(1, 5), 3)),
            ("path", path(24, true, WeightDist::Unit, 0)),
        ] {
            let (topo, coll) = collection(&g, h);
            let depth = |v: NodeId, si: usize| u64::from(coll.hops[v as usize][si]);
            let mut per_channel = std::collections::HashMap::new();
            let mut depths = 0;
            for si in 0..coll.sources.len() {
                for v in (0..coll.n() as NodeId).filter(|&v| coll.is_member(v, si)) {
                    depths += depth(v, si);
                    for &c in coll.children(v, si) {
                        *per_channel.entry((v, c)).or_insert(0) += depth(c, si);
                    }
                }
            }
            let busiest = per_channel.values().copied().max().unwrap_or(0);
            let (_, report) = collect_ancestors(&topo, SimConfig::default(), &coll).unwrap();
            assert!(
                report.rounds <= busiest + 2 * h as u64 + 8,
                "{name}: {} rounds, busiest channel carries {busiest} ids",
                report.rounds
            );
            assert_eq!(report.messages, depths, "{name}");
            assert_eq!(report.payload_words, 2 * report.messages, "{name}");
            assert_eq!(report.max_msg_words, 2, "{name}");
        }
    }

    /// A lost `(tree, id)` message shortens the paths at and below its
    /// receiver: each path keeps the ids that arrived, in root-path order.
    #[test]
    fn lost_ancestor_ids_shorten_paths() {
        let (topo, coll) = build(15, 30, 3, 11);
        let sim = SimConfig { fault: Some(congest_sim::fault::FaultSpec::seeded(1).drops(20_000)) };
        let (anc, report) = collect_ancestors(&topo, sim, &coll).unwrap();
        assert!(report.faults.dropped > 0, "the plan drops no id");
        let mut short = 0;
        for v in 0..15u32 {
            for si in 0..coll.sources.len() {
                let mut path: Vec<NodeId> = coll.root_path(v, si).unwrap_or_default();
                path.reverse();
                path.pop(); // root..parent
                let got = anc.get(v, si);
                let mut rest = path.iter();
                assert!(got.iter().all(|id| rest.any(|x| x == id)), "v={v} si={si}: {got:?}");
                short += usize::from(got.len() < path.len());
            }
        }
        assert!(short > 0, "a lost id shortens some path");
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
