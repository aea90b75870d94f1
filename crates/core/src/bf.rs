//! Distributed synchronous Bellman–Ford (paper \[3\], used by Steps 1, 3, 7
//! and Algorithms 8/9).
//!
//! After r rounds of synchronous relaxation every node holds exactly
//! `δ_r(source, v)` — the best distance over paths with at most r hops —
//! together with the hop count and parent of a canonical optimal path.
//! Candidates are compared by `(dist, hops, parent id)` lexicographically,
//! which (a) makes the result deterministic, (b) selects minimum-hop
//! shortest paths — needed for CSSSP truncation (Appendix A.2) — and
//! (c) makes tree paths prefix-closed.
//!
//! ## The horizon-repair phase
//!
//! A bounded-round BF has a horizon artifact: a node v whose entry settled
//! early may record a parent p that *improves its own entry in the very
//! last receipt round* (via an exactly-R-hop path). v never hears about it
//! (the news would need R+1 rounds), so v's recorded parent linkage became
//! stale. Such v provably has a true shortest path longer than R hops
//! (p's improvement plus one edge undercuts v's entry), so Definition A.3
//! does not require keeping it in an (R/2)-truncated tree.
//!
//! A caller that keeps its tree to depth k (`repair: Some(k)`, the CSSSP
//! construction with k = h and R = 2h) therefore runs three sub-phases
//! after relaxation, each sending only to a reader within depth k:
//! **adopt** (round R: every member within k hops notifies its parent),
//! **confirm** (round R+1: every node tells the children that adopted it
//! its final entry — whatever its own depth, since the stale parent is
//! exactly one whose final entry sits at R hops) and **detach** (rounds
//! R+2 to R+k+1: a child whose record of its parent does not match the
//! confirmation drops out and cascades the drop to its own adopters, one
//! level a round, down to depth k). The run ends after R + k + 2 rounds
//! and returns no entry deeper than k; the kept forest is internally
//! consistent, which `SsspCollection::check_consistency` verifies against
//! the sequential oracle. A raw run (`repair: None`: Steps 3 and 7, full
//! SSSPs) sends nothing after relaxation, ends after R + 1 rounds and
//! carries no children.

use congest_graph::seq::Direction;
use congest_graph::{Graph, NodeId, Weight, NO_SUCC};
use congest_sim::{
    Engine, Envelope, NodeEnv, NodeLogic, Outbox, PhaseReport, RunUntil, SimConfig, SimError,
    Topology,
};

/// Per-node outcome of one Bellman–Ford run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfEntry<W> {
    /// Best known distance (`W::INF` if unreached).
    pub dist: W,
    /// Hop count of the canonical path (`u32::MAX` if unreached).
    pub hops: u32,
    /// Parent toward the root (`None` at the root / unreached / seeded).
    pub parent: Option<NodeId>,
    /// First hop of the canonical path *as traversed from its origin*
    /// (Step-7 successor tracking): the successor of the origin toward
    /// this node. Only out-direction runs fill it; an in-direction entry's
    /// `parent` already is its next hop toward the root. `None` at the
    /// origin, at seeded nodes whose path starts there, when unreached,
    /// and throughout in-direction runs.
    pub first: Option<NodeId>,
}

impl<W: Weight> BfEntry<W> {
    fn unreached() -> Self {
        BfEntry { dist: W::INF, hops: u32::MAX, parent: None, first: None }
    }

    /// `true` iff the node was reached.
    #[must_use]
    pub fn reached(&self) -> bool {
        !self.dist.is_inf()
    }
}

/// Seed values for an extension run (§5): per node an initial distance
/// plus the first hop of the path the seed value summarizes (so downstream
/// relaxations keep routing information anchored at the true path origin).
#[derive(Copy, Clone, Debug)]
pub struct BfSeeds<'a, W> {
    /// Per-node initial distance; `W::INF` means "no seed".
    pub dist: &'a [W],
    /// Per-node first hop accompanying each seed value ([`NO_SUCC`] when
    /// the path starts at the seeded node).
    pub first: &'a [NodeId],
}

/// Result of a single-source run.
#[derive(Clone, Debug)]
pub struct BfTreeResult<W> {
    /// Per-node entry. Detached nodes, and in a repaired run every node
    /// deeper than the repair depth, read as unreached.
    pub entries: Vec<BfEntry<W>>,
    /// Per-node sorted children lists (derived from surviving parents);
    /// empty throughout a raw run, which sends no adoptions.
    pub children: Vec<Vec<NodeId>>,
}

#[derive(Clone, Debug)]
enum BfMsg<W> {
    /// Relaxation announcement: candidate (dist, hops) *including* the
    /// connecting edge weight. In an out-direction run `first` carries the
    /// first hop of the candidate path from its origin — [`NO_SUCC`]
    /// meaning "the path starts at the sender, so *you* are the first hop"
    /// — one extra id word on the wire.
    Relax { dist: W, hops: u32, first: NodeId },
    /// Post-run child adoption notification.
    Adopt,
    /// Final-entry confirmation to a child that adopted the sender.
    Confirm { dist: W, hops: u32 },
    /// Horizon-repair cascade: the sender's subtree is leaving the tree.
    Detach,
}

struct BfNode<W> {
    entry: BfEntry<W>,
    /// `(channel index, weight)` over which this node relaxes others
    /// (out-edges for `Out`, in-edges for `In`), deduped to min parallel
    /// weight; targets are pre-resolved to communication-channel indices so
    /// the relax fan-out uses the zero-lookup [`Outbox::send_nbr`] path.
    fwd_edges: Vec<(usize, W)>,
    /// Reverse lookup: weight of the edge a parent would have relaxed us
    /// over (min-weight dedup).
    rev_edges: Vec<(NodeId, W)>,
    dirty: bool,
    relax_rounds: u64,
    /// Last round the node steps: R + k + 1 when repairing to depth k,
    /// R otherwise.
    end: u64,
    /// The neighbors that adopted this node as their parent.
    children: Vec<NodeId>,
    detached: bool,
    detach_sent: bool,
    /// The depth the caller keeps, when the horizon-repair phase runs.
    repair: Option<u64>,
    /// Whether relax messages carry (and entries record) first hops: true
    /// exactly for out-direction runs.
    track: bool,
    finished: bool,
}

impl<W: Weight> BfNode<W> {
    fn rev_weight(&self, from: NodeId) -> Option<W> {
        self.rev_edges.binary_search_by_key(&from, |&(t, _)| t).ok().map(|i| self.rev_edges[i].1)
    }

    fn send_to_children(&self, env: &NodeEnv<'_>, out: &mut Outbox<'_, BfMsg<W>>, msg: &BfMsg<W>) {
        for &c in &self.children {
            out.send_nbr(env.neighbor_index(c).expect("child is a neighbor"), msg.clone());
        }
    }
}

impl<W: Weight> NodeLogic for BfNode<W> {
    type Msg = BfMsg<W>;

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<BfMsg<W>>],
        out: &mut Outbox<'_, BfMsg<W>>,
    ) {
        let r = env.round;
        let relax_end = self.relax_rounds; // receipts land through round R
        for e in inbox {
            match e.msg {
                BfMsg::Relax { dist, hops, first } => {
                    // NO_SUCC from the sender means the path starts there,
                    // making this node the first hop of its own path.
                    let first = self.track.then_some(if first == NO_SUCC { env.id } else { first });
                    let cand = BfEntry { dist, hops, parent: Some(e.from), first };
                    if better(&cand, &self.entry) {
                        self.entry = cand;
                        self.dirty = true;
                    }
                }
                BfMsg::Adopt => self.children.push(e.from),
                BfMsg::Confirm { dist, hops } => {
                    // Only the adopted parent confirms to this node.
                    let w = self.rev_weight(e.from).expect("parent is a rev neighbor");
                    if self.entry.dist != dist.plus(w) || self.entry.hops != hops + 1 {
                        self.detached = true;
                    }
                }
                BfMsg::Detach => {
                    self.detached = true;
                }
            }
        }
        if r < relax_end {
            if self.dirty && self.entry.reached() {
                let first = self.entry.first.unwrap_or(NO_SUCC);
                for i in 0..self.fwd_edges.len() {
                    let (ni, w) = self.fwd_edges[i];
                    out.send_nbr(
                        ni,
                        BfMsg::Relax {
                            dist: self.entry.dist.plus(w),
                            hops: self.entry.hops + 1,
                            first,
                        },
                    );
                }
                self.dirty = false;
            }
        } else if let Some(k) = self.repair {
            if r == relax_end {
                // Entries are final. A member within the kept depth
                // notifies its parent (children discovery).
                if let Some(p) = self.entry.parent.filter(|_| u64::from(self.entry.hops) <= k) {
                    let ni = env.neighbor_index(p).expect("parent is a neighbor");
                    out.send_nbr(ni, BfMsg::Adopt);
                }
            } else if r == relax_end + 1 {
                // Confirm the final entry to each adopter, the only
                // neighbors that read it.
                let msg = BfMsg::Confirm { dist: self.entry.dist, hops: self.entry.hops };
                self.send_to_children(env, out, &msg);
            } else if self.detached && !self.detach_sent {
                // Detach cascade: one level a round down the adopters.
                self.send_to_children(env, out, &BfMsg::Detach);
                self.detach_sent = true;
            }
        }
        if r >= self.end {
            self.finished = true;
        }
    }

    fn active(&self) -> bool {
        // Nodes stay schedulable through the adopt/confirm/detach window
        // (they cannot locally know that no repair traffic is coming).
        !self.finished
    }

    fn msg_words(&self, msg: &Self::Msg) -> u32 {
        match msg {
            // dist + hops, plus one id word when the run tracks first hops.
            BfMsg::Relax { .. } => 2 + u32::from(self.track),
            BfMsg::Confirm { .. } => 2,
            BfMsg::Adopt | BfMsg::Detach => 1,
        }
    }
}

fn better<W: Weight>(a: &BfEntry<W>, b: &BfEntry<W>) -> bool {
    // `first` never participates: it is derived from the same winning
    // message, so tracking cannot perturb the distance computation.
    (a.dist, a.hops, a.parent.map(u64::from)) < (b.dist, b.hops, b.parent.map(u64::from))
}

fn dedup_min_edges<W: Weight>(iter: impl Iterator<Item = (NodeId, W)>) -> Vec<(NodeId, W)> {
    let mut edges: Vec<(NodeId, W)> = iter.collect();
    edges.sort_by_key(|&(t, w)| (t, w));
    edges.dedup_by_key(|&mut (t, _)| t);
    edges
}

/// Runs synchronous Bellman–Ford from `source` for exactly `rounds`
/// relaxation rounds (so distances are `δ_rounds`). `init` optionally
/// seeds distances (h-hop extension, §5), each annotated with the first
/// hop of the path its value summarizes.
///
/// `repair` is the depth the caller keeps. Pass `Some(k)` only when the
/// *tree structure* will be consumed (CSSSP construction, k = h):
/// distances are horizon-correct either way, but parent pointers can go
/// stale at the relaxation horizon (module docs). Then every member within
/// k hops adopts its parent, every node confirms its final entry to its
/// adopters, and stale members detach down to depth k: the run ends after
/// `rounds + k + 2` rounds and returns no entry deeper than k, with the
/// children of every survivor. With `None` the run ends after
/// `rounds + 1` rounds, keeps every entry and carries no children.
///
/// An out-direction run threads first hops through the relaxation (one
/// extra id word per relax message): every reached entry then reports in
/// [`BfEntry::first`] the first hop of its canonical path from the origin.
/// An in-direction run carries none — its parent pointers already are the
/// next hops toward the root. First hops never change distances, rounds,
/// or message counts.
///
/// # Errors
/// Propagates engine errors.
#[allow(clippy::too_many_arguments)]
pub fn run_bf<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    source: NodeId,
    dir: Direction,
    rounds: u64,
    init: Option<BfSeeds<'_, W>>,
    repair: Option<u64>,
    sim: SimConfig,
) -> Result<(BfTreeResult<W>, PhaseReport), SimError> {
    let n = g.n();
    let engine = Engine::new(topo, sim);
    let track = dir == Direction::Out;
    let end = rounds + repair.map_or(0, |k| k + 1);
    let mut nodes: Vec<BfNode<W>> = (0..n as NodeId)
        .map(|v| {
            let mut entry = BfEntry::unreached();
            if v == source {
                entry = BfEntry { dist: W::ZERO, hops: 0, parent: None, first: None };
            }
            if let Some(init) = init {
                let d = init.dist[v as usize];
                if !d.is_inf() && d < entry.dist {
                    let first = Some(init.first[v as usize]).filter(|&f| track && f != NO_SUCC);
                    entry = BfEntry { dist: d, hops: 0, parent: None, first };
                }
            }
            let (fwd, rev) = match dir {
                Direction::Out => (dedup_min_edges(g.out_edges(v)), dedup_min_edges(g.in_edges(v))),
                Direction::In => (dedup_min_edges(g.in_edges(v)), dedup_min_edges(g.out_edges(v))),
            };
            // Every graph edge is a communication channel; resolve relax
            // targets to channel indices once instead of per send.
            let nbrs = topo.neighbors(v);
            let fwd = fwd
                .into_iter()
                .map(|(t, w)| (nbrs.binary_search(&t).expect("graph edge implies comm channel"), w))
                .collect();
            BfNode {
                dirty: entry.reached(),
                entry,
                fwd_edges: fwd,
                rev_edges: rev,
                relax_rounds: rounds,
                end,
                children: Vec::new(),
                detached: false,
                detach_sent: false,
                repair,
                track,
                finished: false,
            }
        })
        .collect();
    let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 4 * (end + 2) + 64 })?;
    let entries: Vec<BfEntry<W>> = nodes
        .into_iter()
        .map(|nd| match repair {
            Some(k) if nd.detached || u64::from(nd.entry.hops) > k => BfEntry::unreached(),
            _ => nd.entry,
        })
        .collect();
    // Children derived from surviving parent pointers (each member's Adopt
    // already paid the communication cost); a raw run adopted nobody.
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    if repair.is_some() {
        for (v, e) in entries.iter().enumerate() {
            if let Some(p) = e.parent {
                children[p as usize].push(v as NodeId);
            }
        }
    }
    Ok((BfTreeResult { entries, children }, report))
}

/// Full (unbounded-hop) SSSP: n-1 relaxation rounds. δ_{n-1} = δ, so
/// distances are final and the repair phase is skipped. Consumers read the
/// dist and first-hop vectors, and — for in-direction runs — the parent
/// pointers as next hops toward the source. Repair-free parents are safe
/// here: every entry's (dist, parent) pair describes a real walk of weight
/// exactly `dist`, so at the full horizon (`dist` = δ) the parent edge
/// telescopes — δ(v) = w(v, parent) + δ(parent) — even if the parent later
/// improved other fields. Out-direction runs thread first hops as in
/// [`run_bf`].
///
/// # Errors
/// Propagates engine errors.
pub fn run_full_sssp<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    source: NodeId,
    dir: Direction,
    sim: SimConfig,
) -> Result<(BfTreeResult<W>, PhaseReport), SimError> {
    run_bf(g, topo, source, dir, g.n() as u64 - 1, None, None, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, path, Family, WeightDist};
    use congest_graph::seq::{dijkstra, hop_limited_distances, hop_limited_min_hops};

    fn setup(g: &Graph<u64>) -> Topology {
        Topology::from_graph(g)
    }

    #[test]
    fn matches_hop_limited_oracle() {
        for fam in Family::ALL {
            let g = fam.build(20, true, WeightDist::Uniform(0, 9), 3);
            let topo = setup(&g);
            for h in [1u64, 2, 4] {
                let (res, _) =
                    run_bf(&g, &topo, 0, Direction::Out, h, None, Some(h), SimConfig::default())
                        .unwrap();
                let oracle = hop_limited_distances(&g, 0, h as usize, Direction::Out);
                let exact = dijkstra(&g, 0, Direction::Out);
                for v in 0..g.n() {
                    // Detachment may remove nodes whose true δ needs > h
                    // hops; surviving entries must equal δ_h.
                    if res.entries[v].reached() {
                        assert_eq!(res.entries[v].dist, oracle[v], "{} h={h} v={v}", fam.name());
                    } else if oracle[v] != u64::INF {
                        assert!(
                            exact[v] < oracle[v],
                            "{} h={h} v={v}: detached but δ == δ_h",
                            fam.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn in_direction_matches_oracle() {
        let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 7), 5);
        let topo = setup(&g);
        let (res, _) =
            run_bf(&g, &topo, 4, Direction::In, 3, None, Some(3), SimConfig::default()).unwrap();
        let oracle = hop_limited_distances(&g, 4, 3, Direction::In);
        let exact = dijkstra(&g, 4, Direction::In);
        for v in 0..g.n() {
            if res.entries[v].reached() {
                assert_eq!(res.entries[v].dist, oracle[v], "v={v}");
            } else if oracle[v] != u64::INF {
                assert!(exact[v] < oracle[v], "v={v}");
            }
        }
    }

    #[test]
    fn full_sssp_matches_dijkstra() {
        for seed in 0..4 {
            let g = gnm_connected(22, 50, true, WeightDist::Uniform(0, 11), seed);
            let topo = setup(&g);
            let (res, _) =
                run_full_sssp(&g, &topo, 2, Direction::Out, SimConfig::default()).unwrap();
            let oracle = dijkstra(&g, 2, Direction::Out);
            for v in 0..g.n() {
                assert_eq!(res.entries[v].dist, oracle[v]);
            }
        }
    }

    #[test]
    fn hops_are_minimal_among_shortest() {
        let g = gnm_connected(16, 36, true, WeightDist::Uniform(1, 4), 8);
        let topo = setup(&g);
        let h = 6;
        let (res, _) =
            run_bf(&g, &topo, 1, Direction::Out, h, None, Some(h), SimConfig::default()).unwrap();
        let min_hops = hop_limited_min_hops(&g, 1, h as usize, Direction::Out);
        for v in 0..g.n() {
            if res.entries[v].reached() {
                assert_eq!(res.entries[v].hops as usize, min_hops[v].unwrap(), "v={v}");
            }
        }
    }

    #[test]
    fn parent_chain_consistent_after_repair() {
        for seed in 0..12 {
            let g = gnm_connected(20, 44, true, WeightDist::Uniform(0, 9), seed);
            let topo = setup(&g);
            let (res, _) =
                run_bf(&g, &topo, 0, Direction::Out, 4, None, Some(4), SimConfig::default())
                    .unwrap();
            for v in 0..g.n() as NodeId {
                let e = &res.entries[v as usize];
                if !e.reached() {
                    continue;
                }
                if let Some(p) = e.parent {
                    let pe = &res.entries[p as usize];
                    assert!(pe.reached(), "seed {seed}: parent of member detached");
                    assert_eq!(pe.hops + 1, e.hops, "seed {seed}");
                    let w_edge = g
                        .out_edges(p)
                        .filter(|&(t, _)| t == v)
                        .map(|(_, w)| w)
                        .min()
                        .expect("parent edge exists");
                    assert_eq!(pe.dist.plus(w_edge), e.dist, "seed {seed}");
                    assert!(res.children[p as usize].contains(&v));
                }
            }
        }
    }

    /// The horizon artifact inside the kept depth: in the in-tree of node 5
    /// at h = 3 (R = 6), node 2 sits at depth 3 under node 4, whose entry
    /// improves in the last round to a 6-hop path. Node 4 lies deeper than
    /// h, yet it must confirm to its adopter, which then drops out.
    #[test]
    fn a_kept_node_under_a_horizon_parent_detaches() {
        let g = gnm_connected(12, 24, true, WeightDist::Uniform(1, 20), 3);
        let topo = setup(&g);
        let run = |repair| {
            let sim = SimConfig::default();
            run_bf(&g, &topo, 5, Direction::In, 6, None, repair, sim).unwrap().0
        };
        let (raw, kept) = (run(None), run(Some(3)));
        assert_eq!((raw.entries[2].hops, raw.entries[2].parent), (3, Some(4)));
        assert_eq!(raw.entries[4].hops, 6, "the parent's final entry sits at 2h hops");
        assert!(!kept.entries[2].reached(), "node 2 hangs on a stale parent link");
        assert!(!kept.children.iter().flatten().any(|&c| c == 2));
    }

    #[test]
    fn children_match_parents_exactly() {
        let g = gnm_connected(15, 30, false, WeightDist::Uniform(1, 6), 2);
        let topo = setup(&g);
        let (res, _) =
            run_bf(&g, &topo, 3, Direction::Out, 4, None, Some(4), SimConfig::default()).unwrap();
        let mut derived: Vec<Vec<NodeId>> = vec![Vec::new(); g.n()];
        for v in 0..g.n() as NodeId {
            if res.entries[v as usize].reached() {
                if let Some(p) = res.entries[v as usize].parent {
                    derived[p as usize].push(v);
                }
            }
        }
        assert_eq!(derived, res.children);
    }

    #[test]
    fn seeded_init_extension() {
        // Path 0-1-2-3; seed node 2 with dist 10: node 3 should get 10 + w.
        let g = path(4, true, WeightDist::Unit, 0);
        let topo = setup(&g);
        let mut init = vec![u64::INF; 4];
        init[2] = 10;
        let (res, _) = run_bf(
            &g,
            &topo,
            0,
            Direction::Out,
            1,
            Some(BfSeeds { dist: &init, first: &[congest_graph::NO_SUCC; 4] }),
            None,
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(res.entries[3].dist, 11);
        assert_eq!(res.entries[1].dist, 1); // from the true source
    }

    /// The rounds a run is charged: it stops once its last message lands.
    #[test]
    fn worst_case_charging_exact_rounds() {
        let g = path(9, true, WeightDist::Unit, 0);
        let topo = setup(&g);
        let rounds = |repair| {
            let run = run_bf(&g, &topo, 0, Direction::Out, 8, None, repair, SimConfig::default());
            run.unwrap().1.rounds
        };
        // 8 relax + adopt + confirm + 4 detach levels
        assert_eq!(rounds(Some(4)), 8 + 2 + 4);
        // A raw run: 8 relax + the last receipt round
        assert_eq!(rounds(None), 8 + 1);
    }

    #[test]
    fn zero_weight_edges() {
        let g = Graph::from_edges(
            3,
            true,
            vec![
                congest_graph::Edge::new(0, 1, 0u64),
                congest_graph::Edge::new(1, 2, 0),
                congest_graph::Edge::new(0, 2, 0),
            ],
        );
        let topo = setup(&g);
        let (res, _) =
            run_bf(&g, &topo, 0, Direction::Out, 2, None, Some(2), SimConfig::default()).unwrap();
        assert_eq!(res.entries[2].dist, 0);
        // min-hop tie-break: direct edge (1 hop) preferred over 2-hop
        assert_eq!(res.entries[2].hops, 1);
        assert_eq!(res.entries[2].parent, Some(0));
    }

    #[test]
    fn tracked_first_hops_telescope_on_full_sssp() {
        for seed in 0..6 {
            let g = gnm_connected(20, 44, true, WeightDist::Uniform(0, 9), seed);
            let topo = setup(&g);
            let (res, _) =
                run_full_sssp(&g, &topo, 0, Direction::Out, SimConfig::default()).unwrap();
            let from0 = dijkstra(&g, 0, Direction::Out);
            assert!(res.entries[0].first.is_none(), "source has no first hop");
            for v in 1..g.n() {
                let e = &res.entries[v];
                if !e.reached() {
                    assert!(e.first.is_none());
                    continue;
                }
                let f = e.first.expect("reached non-source entry must carry a first hop");
                let w = g
                    .out_edges(0)
                    .filter(|&(t, _)| t == f)
                    .map(|(_, w)| w)
                    .min()
                    .expect("first hop must be an out-neighbor of the source");
                let fromf = dijkstra(&g, f, Direction::Out);
                // δ(s, v) = w(s, f) + δ(f, v): the recorded first hop lies
                // on a shortest path.
                assert_eq!(from0[v], w.plus(fromf[v]), "seed {seed} v={v} f={f}");
            }
        }
    }

    #[test]
    fn only_out_direction_runs_track() {
        let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 9), 4);
        let topo = setup(&g);
        let run = |dir: Direction| {
            run_bf(&g, &topo, 0, dir, 4, None, Some(4), SimConfig::default()).unwrap()
        };
        let (out, rep_out) = run(Direction::Out);
        let (inn, rep_in) = run(Direction::In);
        for v in 1..g.n() {
            let e = &out.entries[v];
            assert_eq!(e.first.is_some(), e.reached(), "out entry {v} must carry its first hop");
            assert!(inn.entries[v].first.is_none(), "in entry {v} must carry no first hop");
        }
        // An out relax carries dist + hops + first hop; an in relax only
        // dist + hops (its parent already is the next hop).
        assert_eq!(rep_out.max_msg_words, 3);
        assert_eq!(rep_in.max_msg_words, 2);
    }

    #[test]
    fn seeded_first_hops_propagate() {
        // Path 0-1-2-3; seed node 2 with dist 10 claiming its path from the
        // origin starts at node 1: node 3's relaxed entry must inherit that
        // first hop, while node 1 (relaxed by the source itself) becomes
        // its own first hop.
        let g = path(4, true, WeightDist::Unit, 0);
        let topo = setup(&g);
        let mut init = vec![u64::INF; 4];
        init[2] = 10;
        let mut first = vec![congest_graph::NO_SUCC; 4];
        first[2] = 1;
        let (res, _) = run_bf(
            &g,
            &topo,
            0,
            Direction::Out,
            1,
            Some(BfSeeds { dist: &init, first: &first }),
            None,
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(res.entries[3].dist, 11);
        assert_eq!(res.entries[3].first, Some(1), "seed first hop must ride the relaxation");
        assert_eq!(res.entries[1].first, Some(1), "source-adjacent node is its own first hop");
        assert_eq!(res.entries[2].first, Some(1), "seeded entry keeps its seed first hop");
    }

    #[test]
    fn parallel_edges_use_min_weight() {
        let g = Graph::from_edges(
            2,
            true,
            vec![congest_graph::Edge::new(0, 1, 9u64), congest_graph::Edge::new(0, 1, 2)],
        );
        let topo = setup(&g);
        let (res, _) =
            run_bf(&g, &topo, 0, Direction::Out, 1, None, Some(1), SimConfig::default()).unwrap();
        assert_eq!(res.entries[1].dist, 2);
    }
}
