//! Distributed BFS spanning-tree construction.
//!
//! Used wherever the paper assumes a BFS tree rooted at a leader (Alg 7
//! Step 2, broadcast primitives of Appendix A.1). Runs in O(D) rounds where
//! D is the hop-diameter of the communication graph. Parent choice is the
//! minimum-id announcing neighbor, so the tree is deterministic.

use crate::engine::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use crate::error::SimError;
use crate::metrics::PhaseReport;
use congest_graph::NodeId;

/// A rooted spanning tree of the communication graph, as computed by
/// [`build_bfs_tree`]. `parent[root] == None`.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// Parent pointer per node (`None` for the root).
    pub parent: Vec<Option<NodeId>>,
    /// Hop depth per node.
    pub depth: Vec<u64>,
    /// Children lists per node, sorted by id.
    pub children: Vec<Vec<NodeId>>,
}

impl BfsTree {
    /// Tree height (max depth).
    #[must_use]
    pub fn height(&self) -> u64 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The tree's own channels, each node's parent and children, as a
    /// [`Topology`]: a protocol run on it sends along tree edges only, so
    /// a flood crosses each of the n − 1 edges once per item.
    ///
    /// # Panics
    /// Panics if the children lists do not invert the parents.
    #[must_use]
    pub fn channels(&self) -> Topology {
        let rows: Vec<Vec<NodeId>> = (0..self.parent.len())
            .map(|v| {
                let mut row = self.children[v].clone();
                row.extend(self.parent[v]);
                row.sort_unstable();
                row
            })
            .collect();
        Topology::from_adjacency(rows.len(), |v| &rows[v as usize])
    }
}

#[derive(Clone, Debug)]
enum BfsMsg {
    /// "I am at depth d, adopt me as parent if you like."
    Announce { depth: u64 },
    /// "You are my parent."
    Adopt,
}

struct BfsNode {
    is_root: bool,
    depth: Option<u64>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    announced: bool,
    adopted_sent: bool,
}

impl NodeLogic for BfsNode {
    type Msg = BfsMsg;

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<BfsMsg>],
        out: &mut Outbox<'_, BfsMsg>,
    ) {
        if env.round == 0 && self.is_root {
            self.depth = Some(0);
        }
        for e in inbox {
            match e.msg {
                BfsMsg::Announce { depth } => {
                    if self.depth.is_none() {
                        // Inbox is sender-ordered, so the first announce in
                        // the earliest round is from the min-id neighbor.
                        self.depth = Some(depth + 1);
                        self.parent = Some(e.from);
                    }
                }
                BfsMsg::Adopt => {
                    self.children.push(e.from);
                }
            }
        }
        if let Some(d) = self.depth {
            if !self.announced {
                out.broadcast(BfsMsg::Announce { depth: d });
                self.announced = true;
            } else if !self.adopted_sent {
                if let Some(p) = self.parent {
                    let ni = env.neighbor_index(p).expect("parent is a neighbor");
                    out.send_nbr(ni, BfsMsg::Adopt);
                }
                self.adopted_sent = true;
            }
        }
    }
}

/// Builds a BFS tree rooted at `root`.
///
/// # Errors
/// Fails if the graph is disconnected (budget exhaustion) or on any CONGEST
/// violation.
pub fn build_bfs_tree(
    topo: &Topology,
    cfg: SimConfig,
    root: NodeId,
) -> Result<(BfsTree, PhaseReport), SimError> {
    let n = topo.n();
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<BfsNode> = (0..n)
        .map(|i| BfsNode {
            is_root: i as NodeId == root,
            depth: None,
            parent: None,
            children: Vec::new(),
            announced: false,
            adopted_sent: false,
        })
        .collect();
    let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 2 * n as u64 + 4 })?;
    let mut parent = Vec::with_capacity(n);
    let mut depth = Vec::with_capacity(n);
    let mut children = Vec::with_capacity(n);
    for (i, nd) in nodes.into_iter().enumerate() {
        let d = match nd.depth {
            Some(d) => d,
            // Under an active fault plan a crashed node can legitimately
            // stay unreached until the protocol quiesces; surface that as
            // a retryable error, not a panic. Fault-free it is still a
            // protocol bug (disconnected input) and panics loudly.
            None if report.faults.injected > 0 => {
                return Err(SimError::Incomplete { node: i as NodeId })
            }
            None => panic!("node {i} unreached: graph disconnected"),
        };
        parent.push(nd.parent);
        depth.push(d);
        let mut ch = nd.children;
        ch.sort_unstable();
        children.push(ch);
    }
    Ok((BfsTree { root, parent, depth, children }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, grid, path, WeightDist};

    fn topo_of(g: &congest_graph::Graph<u64>) -> Topology {
        Topology::from_graph(g)
    }

    #[test]
    fn path_tree_shape() {
        let g = path(5, false, WeightDist::Unit, 0);
        let (tree, report) = build_bfs_tree(&topo_of(&g), SimConfig::default(), 0).unwrap();
        assert_eq!(tree.parent, vec![None, Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(tree.depth, vec![0, 1, 2, 3, 4]);
        assert_eq!(tree.children[0], vec![1]);
        assert_eq!(tree.height(), 4);
        assert!(report.rounds <= 12);
    }

    #[test]
    fn grid_tree_depths_are_bfs_distances() {
        let g = grid(4, 4, false, WeightDist::Unit, 1);
        let (tree, _) = build_bfs_tree(&topo_of(&g), SimConfig::default(), 0).unwrap();
        // BFS distance in a grid from corner (0,0) is manhattan distance.
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(tree.depth[r * 4 + c], (r + c) as u64);
            }
        }
    }

    #[test]
    fn children_parent_consistent() {
        let g = gnm_connected(40, 80, false, WeightDist::Unit, 3);
        let (tree, _) = build_bfs_tree(&topo_of(&g), SimConfig::default(), 7).unwrap();
        for v in 0..40u32 {
            for &c in &tree.children[v as usize] {
                assert_eq!(tree.parent[c as usize], Some(v));
                assert_eq!(tree.depth[c as usize], tree.depth[v as usize] + 1);
            }
        }
        let total_children: usize = tree.children.iter().map(Vec::len).sum();
        assert_eq!(total_children, 39);
    }

    #[test]
    fn channels_are_the_tree_edges() {
        let g = gnm_connected(40, 80, false, WeightDist::Unit, 3);
        let (tree, _) = build_bfs_tree(&topo_of(&g), SimConfig::default(), 7).unwrap();
        let ch = tree.channels();
        assert_eq!(ch.channels(), 2 * 39);
        for v in 0..40u32 {
            let mut want = tree.children[v as usize].clone();
            want.extend(tree.parent[v as usize]);
            want.sort_unstable();
            assert_eq!(ch.neighbors(v), &want[..], "node {v}");
        }
    }

    #[test]
    fn rounds_proportional_to_diameter() {
        let g = path(50, false, WeightDist::Unit, 0);
        let (tree, report) = build_bfs_tree(&topo_of(&g), SimConfig::default(), 0).unwrap();
        assert_eq!(tree.height(), 49);
        assert!(report.rounds <= 2 * 49 + 4, "rounds = {}", report.rounds);
    }
}
