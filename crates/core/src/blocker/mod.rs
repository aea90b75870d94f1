//! Blocker-set construction (§3): given an h-CSSSP collection, find a small
//! set Q hitting every root-to-leaf path of hop-length exactly h.
//!
//! Three constructions:
//! * [`greedy_blocker`] — the baseline of Agarwal et al. \[2\]: one max-score vertex
//!   per iteration with an O(n)-round cleanup, O(nh + n·|Q|) rounds total.
//!   This is the `n·|Q|` term the paper removes.
//! * [`alg2_blocker`] with [`Selection::Randomized`] — the paper's Algorithm 2.
//! * [`alg2_blocker`] with [`Selection::Derandomized`] — Algorithm 2′ (Algorithm 7
//!   with the ν-aggregation of Algorithms 11/12).
//!
//! Hyperedges exclude the tree root: a full-length path contributes its h
//! *non-root* vertices (§3.1: "each edge in F has exactly h vertices").
//! This matters for correctness of the APSP decomposition — a blocker at
//! depth ≥ 1 guarantees strict progress when shortest paths are split at
//! blocker nodes.

mod alg2;
mod greedy;

pub use alg2::{alg2_blocker, Alg2Stats, Selection};
pub use greedy::greedy_blocker;

use crate::csssp::SsspCollection;
use crate::trees::AncestorLists;
use congest_graph::{NodeId, Weight};
use congest_sim::{PhaseReport, SimConfig, SimError, Topology};

/// Outcome of a blocker-set construction.
#[derive(Clone, Debug)]
pub struct BlockerResult {
    /// The blocker set, in insertion order, deduplicated.
    pub q: Vec<NodeId>,
}

/// Shared path bookkeeping: which full-length paths are alive, and the
/// non-root vertex list of each. Central mirror of information that is
/// node-local in the protocols (each leaf knows its own paths via
/// [`crate::trees::collect_ancestors`]).
#[derive(Clone, Debug)]
pub struct PathCtx {
    /// `ancestors.get(v, si)`: ids root..parent for members (empty
    /// otherwise).
    pub ancestors: AncestorLists,
    /// `removed[v][si]`: subtree-removal mask.
    pub removed: Vec<Vec<bool>>,
    /// `full_leaf[v][si]`.
    pub full_leaf: Vec<Vec<bool>>,
}

impl PathCtx {
    /// Builds the context by running the ancestor-collection protocol
    /// (Algorithm 7 Step 1; O(|S|·h) rounds, reported).
    ///
    /// # Errors
    /// Propagates engine errors.
    pub fn build<W: Weight>(
        topo: &Topology,
        sim: SimConfig,
        coll: &SsspCollection<W>,
    ) -> Result<(Self, PhaseReport), SimError> {
        let (ancestors, report) = crate::trees::collect_ancestors(topo, sim, coll)?;
        let n = coll.n();
        let s = coll.sources.len();
        let full_leaf =
            (0..n).map(|v| (0..s).map(|si| coll.is_full_leaf(v as NodeId, si)).collect()).collect();
        Ok((PathCtx { ancestors, removed: vec![vec![false; s]; n], full_leaf }, report))
    }

    /// `true` iff the path ending at `(v, si)` is an alive hyperedge.
    #[must_use]
    pub fn alive(&self, v: NodeId, si: usize) -> bool {
        self.full_leaf[v as usize][si] && !self.removed[v as usize][si]
    }

    /// Non-root vertices of the path ending at `(v, si)` (ancestors minus
    /// the root, plus the leaf itself).
    pub fn path_vertices(&self, v: NodeId, si: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.ancestors.get(v, si).iter().skip(1).copied().chain(std::iter::once(v))
    }

    /// All alive paths as `(leaf, tree)` pairs.
    #[must_use]
    pub fn alive_paths(&self) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        for v in 0..self.full_leaf.len() {
            for si in 0..self.full_leaf[v].len() {
                if self.alive(v as NodeId, si) {
                    out.push((v as NodeId, si));
                }
            }
        }
        out
    }

    /// Number of alive paths.
    #[must_use]
    pub fn alive_count(&self) -> u64 {
        self.alive_paths().len() as u64
    }

    /// Exports the alive paths as a hypergraph (oracle cross-checks against
    /// `congest-derand`'s sequential set cover).
    #[must_use]
    pub fn hypergraph(&self, n: usize) -> congest_derand::Hypergraph {
        let edges = self
            .alive_paths()
            .into_iter()
            .map(|(v, si)| self.path_vertices(v, si).collect())
            .collect();
        congest_derand::Hypergraph::new(n, edges)
    }
}

/// Validates that `q` hits every full-length path of `coll` on a non-root
/// vertex. Used by tests and the experiment harness.
#[must_use]
pub fn is_valid_blocker<W: Weight>(coll: &SsspCollection<W>, q: &[NodeId]) -> bool {
    let mut in_q = vec![false; coll.n()];
    for &c in q {
        in_q[c as usize] = true;
    }
    for si in 0..coll.sources.len() {
        for v in 0..coll.n() as NodeId {
            if coll.is_full_leaf(v, si) {
                let path = coll.root_path(v, si).expect("full leaf is a member");
                // path is v..root; non-root vertices are all but the last.
                let covered = path[..path.len() - 1].iter().any(|&u| in_q[u as usize]);
                if !covered {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Charging;
    use crate::csssp::build_csssp;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::Direction;
    use congest_sim::Recorder;

    pub(crate) fn build_collection(
        n: usize,
        extra: usize,
        h: usize,
        seed: u64,
    ) -> (congest_graph::Graph<u64>, Topology, SsspCollection<u64>) {
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

    #[test]
    fn path_ctx_matches_collection() {
        let (_, topo, coll) = build_collection(16, 32, 3, 5);
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        for (v, si) in ctx.alive_paths() {
            assert!(coll.is_full_leaf(v, si));
            let verts: Vec<NodeId> = ctx.path_vertices(v, si).collect();
            assert_eq!(verts.len(), 3, "exactly h non-root vertices");
            assert_eq!(*verts.last().unwrap(), v);
            // consistency with root_path
            let rp = coll.root_path(v, si).unwrap();
            assert!(!verts.contains(&rp[rp.len() - 1]) || rp[rp.len() - 1] == v);
        }
    }

    #[test]
    fn hypergraph_edges_have_h_vertices() {
        let (_, topo, coll) = build_collection(14, 28, 2, 9);
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        let hg = ctx.hypergraph(14);
        for e in &hg.edges {
            assert!(e.len() <= 2);
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn validity_checker_rejects_empty_when_paths_exist() {
        let (_, topo, coll) = build_collection(16, 32, 3, 5);
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        if ctx.alive_count() > 0 {
            assert!(!is_valid_blocker(&coll, &[]));
        }
        // all non-root vertices form a trivially valid blocker
        let all: Vec<NodeId> = (0..16).collect();
        assert!(is_valid_blocker(&coll, &all));
    }
}
