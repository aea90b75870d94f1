//! Blocker-set construction (§3): given an h-CSSSP collection, find a small
//! set Q hitting every root-to-leaf path of hop-length exactly h.
//!
//! Three constructions:
//! * [`greedy_blocker`] — the baseline of Agarwal et al. \[2\]: one max-score vertex
//!   per iteration, each charged O(n) rounds there, O(nh + n·|Q|) rounds
//!   total. This is the `n·|Q|` term the paper removes. Here a pick costs a
//!   max-flood (O(D)) plus a cleanup and a re-score over the live cells.
//! * [`alg2_blocker`] with [`Selection::Randomized`](crate::Selection::Randomized)
//!   — the paper's Algorithm 2.
//! * [`alg2_blocker`] with [`Selection::Derandomized`](crate::Selection::Derandomized)
//!   — Algorithm 2′ (Algorithm 7 with the ν-aggregation of Algorithms 11/12).
//!
//! Both functions run the pick loop of [`crate::trees`]: scores by
//! [`subtree_sums`](crate::trees::subtree_sums), their maximum found by
//! the max-flood [`flood_scores`](crate::trees::flood_scores) (Algorithm
//! 2/2′ also floods Vi's member ids, and after each commit only the ids of
//! the members that left it), picks pruned by
//! [`remove_subtrees`](crate::trees::remove_subtrees). One [`TreeState`]
//! per run holds the removed cells and the cells whose first score was 0,
//! so every later sum sends only the counts that can still change.
//!
//! Hyperedges exclude the tree root: a full-length path contributes its h
//! *non-root* vertices (§3.1: "each edge in F has exactly h vertices").
//! This matters for correctness of the APSP decomposition — a blocker at
//! depth ≥ 1 guarantees strict progress when shortest paths are split at
//! blocker nodes — so [`is_valid_blocker`] and the Step-2 sentinel accept
//! only a blocker below the root.

mod alg2;
mod greedy;

pub use alg2::{alg2_blocker, Alg2Stats};
pub use greedy::greedy_blocker;

use crate::csssp::SsspCollection;
use crate::recovery::sentinels::blocker_covers;
use crate::trees::{AncestorLists, TreeState};
use congest_graph::{NodeId, Weight};
use congest_sim::{PhaseReport, SimConfig, SimError, Topology};

/// Shared path bookkeeping: which full-length paths are alive, and the
/// non-root vertex list of each. Central mirror of information that is
/// node-local in the protocols (each leaf knows its own paths via
/// [`crate::trees::collect_ancestors`]).
#[derive(Clone, Debug)]
pub struct PathCtx<'a, W> {
    /// The collection whose full-length paths these are.
    pub coll: &'a SsspCollection<W>,
    /// `ancestors.get(v, si)`: ids root..parent for members (empty
    /// otherwise).
    pub ancestors: AncestorLists,
    /// The run's tree state: the removed cells and the silent ones.
    pub trees: TreeState,
}

impl<'a, W: Weight> PathCtx<'a, W> {
    /// Builds the context by running the ancestor-collection protocol
    /// (Algorithm 7 Step 1, every tree at once; reported).
    ///
    /// # Errors
    /// Propagates engine errors.
    pub fn build(
        topo: &Topology,
        sim: SimConfig,
        coll: &'a SsspCollection<W>,
    ) -> Result<(Self, PhaseReport), SimError> {
        let (ancestors, report) = crate::trees::collect_ancestors(topo, sim, coll)?;
        Ok((PathCtx { coll, ancestors, trees: TreeState::new(coll.n()) }, report))
    }

    /// `true` iff the path ending at `(v, si)` is an alive hyperedge.
    #[must_use]
    pub fn alive(&self, v: NodeId, si: usize) -> bool {
        self.coll.is_full_leaf(v, si) && !self.trees.removed(v, si)
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
        for v in 0..self.coll.n() as NodeId {
            for si in 0..self.coll.sources.len() {
                if self.alive(v, si) {
                    out.push((v, si));
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

/// `true` iff `q` hits every full-length path of `coll` on a non-root
/// vertex: the Step-2 sentinel [`blocker_covers`] passes.
#[must_use]
pub fn is_valid_blocker<W: Weight>(coll: &SsspCollection<W>, q: &[NodeId]) -> bool {
    blocker_covers(coll, q).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
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
