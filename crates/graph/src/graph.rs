//! Weighted graph representation.
//!
//! A [`Graph`] stores a directed or undirected weighted graph in CSR
//! (compressed sparse row) form with *both* out- and in-adjacency, because
//! the paper's algorithms need out-SSSP trees (Step 1), in-SSSP trees
//! (Steps 3, Alg 8/9) and the *underlying undirected communication graph*
//! `UG` (§1.1: even for directed inputs, the communication channels are
//! bidirectional).

use crate::weight::Weight;
use crate::NodeId;

/// A directed edge `(from, to, weight)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Edge<W> {
    /// Tail vertex.
    pub from: NodeId,
    /// Head vertex.
    pub to: NodeId,
    /// Non-negative weight.
    pub weight: W,
}

impl<W> Edge<W> {
    /// Convenience constructor.
    pub fn new(from: NodeId, to: NodeId, weight: W) -> Self {
        Edge { from, to, weight }
    }
}

/// CSR adjacency: `index[v]..index[v+1]` delimits `targets`/`weights` rows.
#[derive(Clone, Debug)]
struct Csr<W> {
    index: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<W>,
}

impl<W: Weight> Csr<W> {
    fn build(n: usize, edges: impl Iterator<Item = (NodeId, NodeId, W)> + Clone) -> Self {
        let mut counts = vec![0u32; n + 1];
        for (from, _, _) in edges.clone() {
            counts[from as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let index = counts.clone();
        let total = index[n] as usize;
        let mut targets = vec![0 as NodeId; total];
        let mut weights = vec![W::ZERO; total];
        let mut cursor = index.clone();
        for (from, to, w) in edges {
            let slot = cursor[from as usize] as usize;
            targets[slot] = to;
            weights[slot] = w;
            cursor[from as usize] += 1;
        }
        // Sort each row by target id for deterministic iteration order.
        let mut csr = Csr { index, targets, weights };
        for v in 0..n {
            let (lo, hi) = (csr.index[v] as usize, csr.index[v + 1] as usize);
            let mut row: Vec<(NodeId, W)> = csr.targets[lo..hi]
                .iter()
                .copied()
                .zip(csr.weights[lo..hi].iter().copied())
                .collect();
            row.sort_by_key(|&(t, _)| t);
            for (i, (t, w)) in row.into_iter().enumerate() {
                csr.targets[lo + i] = t;
                csr.weights[lo + i] = w;
            }
        }
        csr
    }

    #[inline]
    fn row(&self, v: NodeId) -> impl Iterator<Item = (NodeId, W)> + '_ {
        let lo = self.index[v as usize] as usize;
        let hi = self.index[v as usize + 1] as usize;
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    #[inline]
    fn row_slices(&self, v: NodeId) -> (&[NodeId], &[W]) {
        let lo = self.index[v as usize] as usize;
        let hi = self.index[v as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }
}

/// A weighted graph with n nodes, usable as both the shortest-path input and
/// the CONGEST communication topology.
#[derive(Clone, Debug)]
pub struct Graph<W> {
    n: usize,
    directed: bool,
    edges: Vec<Edge<W>>,
    out: Csr<W>,
    into: Csr<W>,
    /// Underlying undirected communication adjacency (deduplicated union of
    /// out- and in-neighbors), one sorted row per node.
    comm: Vec<Vec<NodeId>>,
}

impl<W: Weight> Graph<W> {
    /// Builds a graph from an edge list.
    ///
    /// For undirected graphs each listed edge is traversable in both
    /// directions (it is stored once but mirrored in both adjacencies).
    /// Self-loops are rejected: they never participate in shortest paths and
    /// the CONGEST model has no self-channels. Parallel edges are allowed;
    /// shortest-path algorithms simply see both.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    #[must_use]
    pub fn from_edges(n: usize, directed: bool, edges: Vec<Edge<W>>) -> Self {
        assert!(n > 0, "graph must have at least one node");
        assert!(n <= u32::MAX as usize / 4, "node count {n} exceeds NodeId capacity");
        for e in &edges {
            assert!(
                (e.from as usize) < n && (e.to as usize) < n,
                "edge ({}, {}) out of range for n = {n}",
                e.from,
                e.to
            );
            assert!(e.from != e.to, "self-loop at node {}", e.from);
        }

        let fwd = edges.iter().map(|e| (e.from, e.to, e.weight));
        let bwd = edges.iter().map(|e| (e.to, e.from, e.weight));

        let (out, into) = if directed {
            (Csr::build(n, fwd.clone()), Csr::build(n, bwd.clone()))
        } else {
            let both = fwd.clone().chain(bwd.clone()).collect::<Vec<_>>();
            (Csr::build(n, both.iter().copied()), Csr::build(n, both.iter().copied()))
        };

        let mut comm: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for e in &edges {
            comm[e.from as usize].push(e.to);
            comm[e.to as usize].push(e.from);
        }
        for row in &mut comm {
            row.sort_unstable();
            row.dedup();
        }

        Graph { n, directed, edges, out, into, comm }
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of listed edges (an undirected edge counts once).
    #[inline]
    #[must_use]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph is directed.
    #[inline]
    #[must_use]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The original edge list.
    #[inline]
    #[must_use]
    pub fn edges(&self) -> &[Edge<W>] {
        &self.edges
    }

    /// Outgoing `(neighbor, weight)` pairs of `v`, sorted by neighbor id.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, W)> + '_ {
        self.out.row(v)
    }

    /// Incoming edges of `v` as `(source, weight)` pairs, sorted by source id.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, W)> + '_ {
        self.into.row(v)
    }

    /// Incoming adjacency of `v` as parallel `(sources, weights)` CSR row
    /// slices, sorted by source id.
    #[inline]
    #[must_use]
    pub fn in_row(&self, v: NodeId) -> (&[NodeId], &[W]) {
        self.into.row_slices(v)
    }

    /// Communication neighbors of `v` in the underlying undirected graph
    /// (used by the CONGEST simulator; §1.1 of the paper).
    #[inline]
    #[must_use]
    pub fn comm_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.comm[v as usize]
    }

    /// `true` iff `u` and `v` share a communication channel.
    #[must_use]
    pub fn are_comm_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        self.comm[u as usize].binary_search(&v).is_ok()
    }

    /// Whether the *communication* graph is connected (a prerequisite for
    /// every distributed algorithm in the paper; broadcast must reach all
    /// nodes).
    #[must_use]
    pub fn is_comm_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &w in self.comm_neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// Hop eccentricity of `root` in the communication graph, i.e. the BFS
    /// depth. Returns `None` if some node is unreachable.
    #[must_use]
    pub fn comm_bfs_depth(&self, root: NodeId) -> Option<usize> {
        let mut depth = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        depth[root as usize] = 0;
        queue.push_back(root);
        let mut max_depth = 0;
        let mut reached = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in self.comm_neighbors(v) {
                if depth[w as usize] == usize::MAX {
                    depth[w as usize] = depth[v as usize] + 1;
                    max_depth = max_depth.max(depth[w as usize]);
                    reached += 1;
                    queue.push_back(w);
                }
            }
        }
        (reached == self.n).then_some(max_depth)
    }

    /// Maps the weights of the graph through `f`, preserving structure.
    #[must_use]
    pub fn map_weights<W2: Weight>(&self, mut f: impl FnMut(W) -> W2) -> Graph<W2> {
        let edges = self.edges.iter().map(|e| Edge::new(e.from, e.to, f(e.weight))).collect();
        Graph::from_edges(self.n, self.directed, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph<u64> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        Graph::from_edges(
            4,
            true,
            vec![Edge::new(0, 1, 1), Edge::new(1, 3, 1), Edge::new(0, 2, 5), Edge::new(2, 3, 1)],
        )
    }

    #[test]
    fn csr_out_in_rows() {
        let g = diamond();
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 1), (2, 5)]);
        let in3: Vec<_> = g.in_edges(3).collect();
        assert_eq!(in3, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn comm_graph_is_undirected_union() {
        let g = diamond();
        assert_eq!(g.comm_neighbors(0), &[1, 2]);
        assert_eq!(g.comm_neighbors(3), &[1, 2]);
        assert!(g.are_comm_neighbors(3, 1));
        assert!(g.are_comm_neighbors(1, 3));
        assert!(!g.are_comm_neighbors(0, 3));
        assert!(g.is_comm_connected());
    }

    #[test]
    fn row_slices_mirror_edge_iterators() {
        let g = diamond();
        for v in 0..4u32 {
            let (s, w) = g.in_row(v);
            let pairs: Vec<_> = s.iter().copied().zip(w.iter().copied()).collect();
            assert_eq!(pairs, g.in_edges(v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn undirected_edges_mirrored() {
        let g = Graph::from_edges(3, false, vec![Edge::new(0, 1, 2u64), Edge::new(1, 2, 3)]);
        let out1: Vec<_> = g.out_edges(1).collect();
        assert_eq!(out1, vec![(0, 2), (2, 3)]);
        let in1: Vec<_> = g.in_edges(1).collect();
        assert_eq!(in1, vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn disconnected_detected() {
        let g: Graph<u64> = Graph::from_edges(4, true, vec![Edge::new(0, 1, 1)]);
        assert!(!g.is_comm_connected());
        assert_eq!(g.comm_bfs_depth(0), None);
    }

    #[test]
    fn bfs_depth_path() {
        let g: Graph<u64> = Graph::from_edges(
            4,
            true,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(2, 3, 1)],
        );
        assert_eq!(g.comm_bfs_depth(0), Some(3));
        assert_eq!(g.comm_bfs_depth(1), Some(2));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = Graph::<u64>::from_edges(2, true, vec![Edge::new(1, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = Graph::<u64>::from_edges(2, true, vec![Edge::new(0, 5, 1)]);
    }

    #[test]
    fn map_weights_preserves_structure() {
        let g = diamond();
        let g2 = g.map_weights(|w| crate::F64::new(w as f64));
        assert_eq!(g2.n(), 4);
        assert_eq!(g2.m(), 4);
        let out0: Vec<_> = g2.out_edges(0).map(|(t, w)| (t, w.get())).collect();
        assert_eq!(out0, vec![(1, 1.0), (2, 5.0)]);
    }
}
