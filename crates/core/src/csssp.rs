//! h-hop Consistent SSSP collections (CSSSP, Definition 2.1 / Appendix A.2).
//!
//! Following \[1\]: run 2h rounds of synchronous Bellman–Ford from every
//! source (O(|S|·h) rounds total, Lemma A.4) and retain only the first h
//! hops of every tree. The (dist, hops, parent-id) tie-breaking in
//! [`crate::bf`] selects, for every (source, node) pair, one canonical
//! minimum-hop shortest path, which makes the retained trees a consistent
//! collection: a u→v tree path is the same in every tree that contains it.
//! [`SsspCollection::check_consistency`] verifies this (used by tests).

use crate::bf::{run_bf, BfTreeResult};
use crate::recovery::{sentinels, Recovery, SolverError};
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::{PhaseReport, Recorder, SimConfig, Topology};

/// A collection of rooted h-hop trees, one per source, stored as per-node
/// local knowledge: cell `(v, si)` is node v's state in the tree of
/// `sources[si]`.
///
/// ## Layout
///
/// `dist`, `hops` and `first` are node-major `n × |S|` planes. The tree
/// links are tree-major and flat, because the collection is built one
/// tree at a time and never edited afterwards:
///
/// * the parent plane holds one [`NodeId`] per cell at `si·n + v`, with
///   [`NO_SUCC`] at roots and non-members;
/// * the children are one CSR (compressed sparse rows): an offsets array
///   with one entry per cell plus one, and one id array in which cell
///   `si·n + v` owns the run between its offset and the next.
///
/// Read them through [`SsspCollection::parent`] and
/// [`SsspCollection::children`]. A cell costs 28 bytes at `W = u64`:
/// 8 for `dist`, 4 each for `hops`, `first`, the parent and the offset,
/// and at most 4 for its entry in a parent's child run.
#[derive(Clone, Debug)]
pub struct SsspCollection<W> {
    /// Tree roots.
    pub sources: Vec<NodeId>,
    /// Height cap h.
    pub h: usize,
    /// Tree orientation (Out: paths from root; In: paths into root).
    pub dir: Direction,
    /// `dist[v][si]`: δ_h(root, v) (Out) or δ_h(v, root) (In); INF if
    /// absent. Flat `n × |S|` matrix.
    pub dist: DistMatrix<W>,
    /// Hop depth in the tree; `u32::MAX` if absent.
    pub hops: Vec<Vec<u32>>,
    /// `first[v][si]`: the first hop out of the root on the canonical tree
    /// path to `v` (the root's successor toward `v`), as threaded through
    /// the relax messages. Only out-direction collections fill it; in an
    /// in-direction collection the parent already is the next hop toward
    /// the root. [`NO_SUCC`] at the root, for non-members, and throughout
    /// in-direction collections.
    pub first: Vec<Vec<NodeId>>,
    /// Tree-major parent plane (see the layout above).
    parent: Vec<NodeId>,
    /// Tree-major CSR offsets into `child_ids`, one per cell plus one.
    child_off: Vec<u32>,
    /// Every tree's child runs, each in ascending id order.
    child_ids: Vec<NodeId>,
}

impl<W: Weight> SsspCollection<W> {
    /// Assembles a collection from one Bellman–Ford tree per source:
    /// `tree(s)` runs the tree of source `s`, called in `sources` order. A
    /// node joins tree `s` iff the run reached it within `h` hops, and it
    /// keeps the children that joined too, in the run's order. The trees
    /// are folded in one at a time, so only one run is alive at once.
    ///
    /// # Errors
    /// The first error `tree` returns.
    ///
    /// # Panics
    /// Panics if the trees hold more than `u32::MAX` child links.
    pub fn from_trees<E>(
        n: usize,
        sources: &[NodeId],
        h: usize,
        dir: Direction,
        mut tree: impl FnMut(NodeId) -> Result<BfTreeResult<W>, E>,
    ) -> Result<Self, E> {
        let s = sources.len();
        let mut dist = DistMatrix::filled(n, s, W::INF);
        let mut hops: Vec<Vec<u32>> = (0..n).map(|_| Vec::with_capacity(s)).collect();
        let mut first: Vec<Vec<NodeId>> = (0..n).map(|_| Vec::with_capacity(s)).collect();
        let mut parent = Vec::with_capacity(n * s);
        let mut child_off = Vec::with_capacity(n * s + 1);
        child_off.push(0u32);
        let mut child_ids = Vec::new();
        for (si, &src) in sources.iter().enumerate() {
            let res = tree(src)?;
            // Truncate to h hops (keeps exactly the vertices whose
            // canonical minimum-hop optimal path has ≤ h hops).
            let keep = |v: NodeId| {
                let e = &res.entries[v as usize];
                e.reached() && e.hops <= h as u32
            };
            for v in 0..n {
                let e = &res.entries[v];
                if keep(v as NodeId) {
                    dist.set(v, si, e.dist);
                    hops[v].push(e.hops);
                    first[v].push(e.first.unwrap_or(NO_SUCC));
                    parent.push(e.parent.unwrap_or(NO_SUCC));
                    child_ids.extend(res.children[v].iter().copied().filter(|&c| keep(c)));
                } else {
                    hops[v].push(u32::MAX);
                    first[v].push(NO_SUCC);
                    parent.push(NO_SUCC);
                }
                child_off.push(u32::try_from(child_ids.len()).expect("child links exceed u32"));
            }
        }
        child_ids.shrink_to_fit();
        Ok(SsspCollection {
            sources: sources.to_vec(),
            h,
            dir,
            dist,
            hops,
            first,
            parent,
            child_off,
            child_ids,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.hops.len()
    }

    /// `true` iff `v` belongs to the tree of source index `si`.
    #[must_use]
    pub fn is_member(&self, v: NodeId, si: usize) -> bool {
        self.hops[v as usize][si] != u32::MAX
    }

    /// `true` iff `v` is a *full leaf* of tree `si`: at depth exactly h.
    /// Root-to-full-leaf paths are the hyperedges of the blocker problem
    /// (§3.1: "each edge in F has exactly h vertices — we do not need to
    /// cover paths that have less than h hops").
    #[must_use]
    pub fn is_full_leaf(&self, v: NodeId, si: usize) -> bool {
        self.hops[v as usize][si] == self.h as u32
    }

    /// Parent of `v` toward the root of tree `si`; `None` at the root and
    /// for non-members.
    #[must_use]
    pub fn parent(&self, v: NodeId, si: usize) -> Option<NodeId> {
        let p = self.parent[si * self.n() + v as usize];
        (p != NO_SUCC).then_some(p)
    }

    /// Children of `v` away from the root of tree `si`, ascending; empty
    /// for non-members.
    #[must_use]
    pub fn children(&self, v: NodeId, si: usize) -> &[NodeId] {
        let cell = si * self.n() + v as usize;
        &self.child_ids[self.child_off[cell] as usize..self.child_off[cell + 1] as usize]
    }

    /// The tree path from `v` to the root of tree `si` (inclusive),
    /// following parent pointers. Returns `None` if `v` is not a member.
    #[must_use]
    pub fn root_path(&self, v: NodeId, si: usize) -> Option<Vec<NodeId>> {
        if !self.is_member(v, si) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur, si) {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.sources[si]);
        Some(path)
    }

    /// Consistency check per Definition 2.1: every (u, v) pair linked in
    /// several trees uses the same path, and every tree contains each
    /// vertex that has an ≤h-hop optimal path from/to the root. Returns a
    /// description of the first violation.
    ///
    /// # Errors
    /// Returns a human-readable violation description.
    pub fn check_consistency(&self, g: &Graph<W>) -> Result<(), String> {
        use congest_graph::seq::{dijkstra, hop_limited_distances, hop_limited_min_hops};
        let n = self.n();
        // (a) membership + distances.
        for (si, &s) in self.sources.iter().enumerate() {
            let d2h = hop_limited_distances(g, s, 2 * self.h, self.dir);
            let mh = hop_limited_min_hops(g, s, 2 * self.h, self.dir);
            let exact = dijkstra(g, s, self.dir);
            for v in 0..n {
                let member = self.is_member(v as NodeId, si);
                let within_h = matches!(mh[v], Some(k) if k <= self.h);
                if member {
                    if !within_h {
                        return Err(format!("tree {s}: node {v} member beyond depth h"));
                    }
                    if self.dist[v][si] != d2h[v] {
                        return Err(format!(
                            "tree {s}: node {v} dist {:?} != δ2h {:?}",
                            self.dist[v][si], d2h[v]
                        ));
                    }
                    if self.hops[v][si] as usize != mh[v].unwrap() {
                        return Err(format!("tree {s}: node {v} hops not minimal"));
                    }
                } else if within_h {
                    // Horizon repair may drop a ≤h-hop node, but only when
                    // its true distance needs more than 2h hops (Definition
                    // A.3 then exempts it: no ≤h-hop path achieves δ(s,v)).
                    if exact[v] >= d2h[v] {
                        return Err(format!(
                            "tree {s}: node {v} dropped although δ == δ2h (must be member)"
                        ));
                    }
                }
            }
        }
        // (b) path consistency across trees: the sub-path between two nodes
        // is identical in every tree where one is the ancestor of the other.
        let mut canonical: std::collections::HashMap<(NodeId, NodeId), Vec<NodeId>> =
            std::collections::HashMap::new();
        for si in 0..self.sources.len() {
            for v in 0..n as NodeId {
                let Some(path) = self.root_path(v, si) else { continue };
                // path is v..root; record each suffix pair (ancestor, v).
                for (k, &anc) in path.iter().enumerate().skip(1) {
                    let seg: Vec<NodeId> = path[..=k].to_vec();
                    match canonical.entry((anc, v)) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(seg);
                        }
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if e.get() != &seg {
                                return Err(format!(
                                    "pair ({anc}, {v}): paths differ across trees"
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builds the h-CSSSP for `sources` by running 2h-hop Bellman–Ford per
/// source in sequence and truncating at depth h (Lemma A.4; O(|S|·h)
/// rounds). Each tree repairs its parent links to depth h only (see
/// [`crate::bf`]), so it costs 3h + 2 rounds: 2h of relaxation, one to
/// adopt, one to confirm and h for the detach cascade. Phases are recorded
/// into `rec` (one merged entry).
///
/// Out-direction runs thread first hops through the relaxation (one extra
/// id word per relax message) and the collection's `first` plane reports,
/// at every member `v`, the root's successor toward `v` — the routing seed
/// Step 7 consumes.
///
/// Every per-source tree runs through `rc` as its own recoverable phase
/// (sentinel: [`sentinels::repaired_tree`] — the repair sub-phase restores
/// parent telescoping at every kept entry, so damage to any of them is
/// locally detectable).
///
/// # Errors
/// Propagates engine errors; [`SolverError::Unrecoverable`] when a tree
/// exhausts the retry budget.
#[allow(clippy::too_many_arguments)]
pub fn build_csssp<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    sources: &[NodeId],
    h: usize,
    dir: Direction,
    sim: SimConfig,
    rec: &mut Recorder,
    rc: &mut Recovery,
    label: &str,
) -> Result<SsspCollection<W>, SolverError> {
    let n = g.n();
    let mut total = PhaseReport { node_sent: vec![0; n], ..Default::default() };
    let coll = SsspCollection::from_trees(n, sources, h, dir, |s| -> Result<_, SolverError> {
        let (res, rep) = rc.phase(
            &format!("{label} [tree {s}]"),
            sim,
            |sim| run_bf(g, topo, s, dir, 2 * h as u64, None, Some(h as u64), sim),
            |res| sentinels::repaired_tree(g, dir, s, res),
        )?;
        total.merge(&rep);
        Ok(res)
    })?;
    rec.record(label, total);
    Ok(coll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, Family, WeightDist};

    fn build(g: &Graph<u64>, sources: &[NodeId], h: usize, dir: Direction) -> SsspCollection<u64> {
        let topo = Topology::from_graph(g);
        let mut rec = Recorder::new();
        build_csssp(
            g,
            &topo,
            sources,
            h,
            dir,
            SimConfig::default(),
            &mut rec,
            &mut Recovery::disabled(),
            "csssp",
        )
        .unwrap()
    }

    #[test]
    fn consistency_on_families() {
        for fam in Family::ALL {
            let g = fam.build(18, true, WeightDist::Uniform(0, 6), 13);
            let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
            let c = build(&g, &sources, 3, Direction::Out);
            c.check_consistency(&g).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    /// A member's `(dist, hops, first, parent)`.
    type Cell = (u64, u32, NodeId, Option<NodeId>);

    /// The sequential reference of one tree, one cell per member: 2h
    /// synchronous Bellman–Ford rounds under the `(dist, hops, parent)`
    /// tie-break, then the telescoping detach (a node leaves when its
    /// parent's final entry does not extend to its own, and so does
    /// everything below it), then the cut at depth h.
    fn reference_tree(g: &Graph<u64>, s: NodeId, h: usize, dir: Direction) -> Vec<Option<Cell>> {
        let n = g.n();
        let fwd = |u: NodeId| -> Vec<(NodeId, u64)> {
            match dir {
                Direction::Out => g.out_edges(u).collect(),
                Direction::In => g.in_edges(u).collect(),
            }
        };
        let mut cur = vec![None; n];
        cur[s as usize] = Some((0u64, 0u32, NO_SUCC, None));
        for _ in 0..2 * h {
            let prev = cur.clone();
            for u in 0..n as NodeId {
                let Some((d, k, f, _)) = prev[u as usize] else { continue };
                for (t, w) in fwd(u) {
                    let first = match dir {
                        Direction::Out if f == NO_SUCC => t,
                        Direction::Out => f,
                        Direction::In => NO_SUCC,
                    };
                    let cand = (d + w, k + 1, first, Some(u));
                    let worse = |&(cd, ck, _, cp): &Cell| (cand.0, cand.1, cand.3) < (cd, ck, cp);
                    if cur[t as usize].as_ref().is_none_or(worse) {
                        cur[t as usize] = Some(cand);
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).filter(|&v| cur[v].is_some()).collect();
        order.sort_by_key(|&v| cur[v].map(|c| c.1));
        let mut alive = vec![false; n];
        for v in order {
            let (d, k, _, p) = cur[v].unwrap();
            alive[v] = p.is_none_or(|p| {
                let (pd, pk, _, _) = cur[p as usize].unwrap();
                let w = fwd(p).into_iter().filter(|&(t, _)| t as usize == v).map(|(_, w)| w).min();
                alive[p as usize] && Some(d) == w.map(|w| pd + w) && k == pk + 1
            });
        }
        (0..n).map(|v| cur[v].filter(|c| alive[v] && c.1 as usize <= h)).collect()
    }

    /// Every cell of `build_csssp` (dist, hops, first hop, parent and
    /// children) equals the sequential reference, in both directions on
    /// every family; `check_consistency` alone would tolerate a dropped
    /// node.
    #[test]
    fn matches_a_sequential_reference() {
        for fam in Family::ALL {
            for (h, seed) in [(1, 5u64), (3, 13)] {
                let g = fam.build(20, true, WeightDist::Uniform(0, 6), seed);
                let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
                for dir in [Direction::Out, Direction::In] {
                    let c = build(&g, &sources, h, dir);
                    for (si, &s) in sources.iter().enumerate() {
                        let want = reference_tree(&g, s, h, dir);
                        let at =
                            |v: usize| format!("{} {dir:?} h={h} tree {s} node {v}", fam.name());
                        for v in 0..g.n() {
                            let got = c.is_member(v as NodeId, si).then(|| {
                                let parent = c.parent(v as NodeId, si);
                                (c.dist[v][si], c.hops[v][si], c.first[v][si], parent)
                            });
                            assert_eq!(got, want[v], "{}", at(v));
                            let kids: Vec<NodeId> = (0..g.n() as NodeId)
                                .filter(|&u| {
                                    want[u as usize].is_some_and(|c| c.3 == Some(v as NodeId))
                                })
                                .collect();
                            assert_eq!(c.children(v as NodeId, si), kids, "{} children", at(v));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn recorded_phase_carries_wall_time() {
        let g = gnm_connected(16, 36, true, WeightDist::Uniform(0, 8), 21);
        let topo = Topology::from_graph(&g);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let mut rec = Recorder::new();
        build_csssp(
            &g,
            &topo,
            &sources,
            3,
            Direction::Out,
            SimConfig::default(),
            &mut rec,
            &mut Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        let [phase] = rec.phases() else { panic!("one merged phase") };
        assert!(phase.wall_ns > 0, "the merged phase keeps the trees' host time");
        assert!(phase.peak_in_flight > 0, "the merged phase keeps the trees' peak in flight");
    }

    #[test]
    fn consistency_in_direction() {
        let g = gnm_connected(16, 36, true, WeightDist::Uniform(0, 8), 21);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let c = build(&g, &sources, 2, Direction::In);
        c.check_consistency(&g).unwrap();
    }

    #[test]
    fn root_path_walks_to_source() {
        let g = gnm_connected(14, 30, false, WeightDist::Uniform(1, 5), 2);
        let c = build(&g, &[3, 7], 4, Direction::Out);
        for v in 0..14u32 {
            for si in 0..2 {
                if let Some(p) = c.root_path(v, si) {
                    assert_eq!(p[0], v);
                    assert_eq!(*p.last().unwrap(), c.sources[si]);
                    assert_eq!(p.len() as u32 - 1, c.hops[v as usize][si]);
                }
            }
        }
    }

    #[test]
    fn full_leaves_at_depth_h() {
        let g = congest_graph::generators::path(8, true, WeightDist::Unit, 0);
        let c = build(&g, &[0], 3, Direction::Out);
        assert!(c.is_full_leaf(3, 0));
        assert!(!c.is_full_leaf(2, 0));
        assert!(!c.is_member(4, 0)); // beyond h hops on a path
    }

    #[test]
    fn children_are_members_only() {
        let g = gnm_connected(15, 25, true, WeightDist::Uniform(0, 4), 6);
        let sources: Vec<NodeId> = (0..15).collect();
        let c = build(&g, &sources, 2, Direction::Out);
        for v in 0..15usize {
            for si in 0..15 {
                for &ch in c.children(v as NodeId, si) {
                    assert!(c.is_member(ch, si));
                    assert_eq!(c.parent(ch, si), Some(v as NodeId));
                    assert_eq!(c.hops[ch as usize][si], c.hops[v][si] + 1);
                }
            }
        }
    }

    #[test]
    fn tracked_first_hops_realize_the_stored_distance() {
        use congest_graph::seq::hop_limited_distances;
        let h = 3;
        for seed in [9u64, 21] {
            let g = gnm_connected(16, 36, true, WeightDist::Uniform(0, 6), seed);
            let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
            let c = build(&g, &sources, h, Direction::Out);
            for (si, &s) in c.sources.iter().enumerate() {
                for v in 0..g.n() {
                    if !c.is_member(v as NodeId, si) || v == s as usize {
                        assert_eq!(c.first[v][si], NO_SUCC);
                        continue;
                    }
                    let f = c.first[v][si];
                    assert_ne!(f, NO_SUCC, "member {v} of tree {s} must have a first hop");
                    let w = g
                        .out_edges(s)
                        .filter(|&(t, _)| t == f)
                        .map(|(_, w)| w)
                        .min()
                        .expect("first hop must be an out-neighbor of the root");
                    // δ_2h(s, v) decomposes exactly over the recorded first
                    // hop: min-weight edge s→f plus the best ≤2h-1-hop
                    // remainder (both directions of the inequality hold,
                    // see the Step-7 tracking argument).
                    let rest = hop_limited_distances(&g, f, 2 * h - 1, Direction::Out);
                    assert_eq!(c.dist[v][si], w.plus(rest[v]), "seed {seed} tree {s} node {v}");
                }
            }
        }
    }

    #[test]
    fn in_collection_has_empty_first_plane() {
        let g = gnm_connected(12, 24, true, WeightDist::Uniform(1, 5), 3);
        let sources: Vec<NodeId> = (0..12).collect();
        let c = build(&g, &sources, 2, Direction::In);
        assert!(c.first.iter().flatten().all(|&f| f == NO_SUCC));
    }

    #[test]
    fn rounds_scale_with_sources_times_h() {
        let g = gnm_connected(20, 40, false, WeightDist::Uniform(1, 9), 3);
        let topo = Topology::from_graph(&g);
        let mut rec = Recorder::new();
        let sources: Vec<NodeId> = (0..20).collect();
        let h = 3;
        let _ = build_csssp(
            &g,
            &topo,
            &sources,
            h,
            Direction::Out,
            SimConfig::default(),
            &mut rec,
            &mut Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        // Per source 2h relax + adopt/confirm + h detach levels = 3h + 2
        // rounds.
        assert_eq!(rec.total_rounds(), 20 * (3 * h as u64 + 2));
    }
}
