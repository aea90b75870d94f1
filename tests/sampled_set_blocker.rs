//! Algorithm 2/2′'s sampled-set branch (Steps 11–14) runs end to end.
//!
//! Step 9 takes a single node whenever one covers δ³/(1+ε) of |Pij|, and
//! on the usual graph families at the paper's constants one always does,
//! so every selection step is a singleton pick. The comb below leaves no
//! such node: a hub with an edge to the head of each of k directed paths
//! of h unit edges. With h-hop trees, each path carries two full-length
//! paths, one from the hub and one from its head, and no node lies on more
//! than two of the 2k. At δ = 0.3 and ε = 1/12, Step 9's threshold is
//! 0.027/(13/12)·2k ≈ 3.2 paths, so Step 12 must sample a set.
//!
//! Algorithm 2′ is also checked pick for pick against `congest_derand`'s
//! sequential BRS cover, on combs and on the usual families.

use congest_apsp::blocker::{alg2_blocker, Alg2Stats, PathCtx};
use congest_apsp::csssp::{build_csssp, SsspCollection};
use congest_apsp::{BlockerParams, Recovery, Selection, Solver};
use congest_derand::brs_cover;
use congest_graph::generators::{broom, gnm_connected, WeightDist};
use congest_graph::seq::{apsp_dijkstra, Direction};
use congest_graph::{DistMatrix, Edge, Graph, NodeId, Weight};
use congest_sim::primitives::{build_bfs_tree, BfsTree};
use congest_sim::{Recorder, SimConfig, Topology};

/// Teeth of the comb.
const K: usize = 64;
/// Edges per tooth, and the hop parameter.
const H: usize = 3;
/// The constants that leave Step 9 no single node on a comb.
const SAMPLING: BlockerParams = BlockerParams { eps: 1.0 / 12.0, delta: 0.3 };

/// Node 0 is the hub; tooth t is the directed path `1 + t·(h + 1)` →
/// … → `(t + 1)·(h + 1)`, and the hub has an edge to its head.
fn comb(k: usize, h: usize) -> Graph<u64> {
    let mut edges = Vec::new();
    for t in 0..k {
        let head = (1 + t * (h + 1)) as NodeId;
        edges.push(Edge::new(0, head, 1));
        for i in 0..h as NodeId {
            edges.push(Edge::new(head + i, head + i + 1, 1));
        }
    }
    Graph::from_edges(1 + k * (h + 1), true, edges)
}

/// Every reachable pair's successor walk reaches its target along graph
/// edges whose weights sum to the distance.
fn assert_walkable(g: &Graph<u64>, dist: &DistMatrix<u64>) {
    let n = g.n() as NodeId;
    for u in 0..n {
        for v in 0..n {
            let d = dist[u as usize][v as usize];
            if u == v || d.is_inf() {
                continue;
            }
            let (mut at, mut total) = (u, 0);
            for _ in 0..n {
                if at == v {
                    break;
                }
                let next = dist.successor(at, v).unwrap_or_else(|| panic!("({u}, {v}) stops"));
                let w = g.out_edges(at).filter(|&(t, _)| t == next).map(|(_, w)| w).min();
                total += w.unwrap_or_else(|| panic!("({u}, {v}): {at} -> {next} is no edge"));
                at = next;
            }
            assert_eq!((at, total), (v, d), "successor walk ({u}, {v})");
        }
    }
}

/// Lemma 3.10's bound on |Q|, (n/h)·ln p with constant 1, on `comb(K, H)`:
/// n = 257 nodes and p = 2K = 128 full-length paths give 415.7. Both
/// selections clear it more than 3×, so this pins the lemma's shape, not a
/// constant.
fn lemma_3_10_bound(g: &Graph<u64>) -> f64 {
    g.n() as f64 / H as f64 * (2.0 * K as f64).ln()
}

/// Runs Ar20 on the comb with `selection`, checks the answer and |Q|
/// against Lemma 3.10, and returns the blocker set, the round and message
/// totals and the Algorithm-2 counters.
fn solve(g: &Graph<u64>, selection: Selection) -> (Vec<NodeId>, u64, u64, Alg2Stats) {
    let out = Solver::builder(g)
        .selection(selection)
        .hop_param(H)
        .blocker_params(SAMPLING)
        .run()
        .unwrap();
    assert_eq!(out.dist, apsp_dijkstra(g), "{selection:?} is exact");
    assert_walkable(g, &out.dist);
    let stats = out.meta.blocker_stats.expect("Algorithm 2/2′ reports its counters");
    assert!(stats.set_picks > 0, "{selection:?} picked no sampled set: {stats:?}");
    let bound = lemma_3_10_bound(g);
    assert!(
        out.meta.q.len() as f64 <= bound,
        "{selection:?}: |Q| = {} > {bound:.1}",
        out.meta.q.len()
    );
    let (rounds, messages) = (out.recorder.total_rounds(), out.recorder.total_messages());
    (out.meta.q, rounds, messages, stats)
}

#[test]
fn derandomized_selection_picks_a_sampled_set_deterministically() {
    let g = comb(K, H);
    let (q, rounds, messages, stats) = solve(&g, Selection::Derandomized);
    assert!(stats.sample_points_examined > 0, "{stats:?}");
    assert_eq!(q.len(), 128, "{stats:?}");
    // Golden totals: the whole Ar20 run, good-set commits included.
    assert_eq!((rounds, messages), (9_124, 223_671), "{stats:?}");
    let again = solve(&g, Selection::Derandomized);
    assert_eq!((&q, rounds, messages), (&again.0, again.1, again.2), "2′ is deterministic");
}

#[test]
fn randomized_selection_picks_a_sampled_set() {
    let g = comb(K, H);
    let (_, rounds, messages, stats) = solve(&g, Selection::Randomized { seed: 0xC0FFEE });
    assert_eq!(stats.good_set_sizes.len() as u64, stats.set_picks, "{stats:?}");
    // Golden totals at seed 0xC0FFEE.
    assert_eq!((rounds, messages), (7_565, 118_301), "{stats:?}");
}

/// The leader's BFS tree that Algorithm 2/2′ aggregates over, its build
/// recorded in `rec` beside the blocker's phases.
fn leader_tree(topo: &Topology, rec: &mut Recorder) -> BfsTree {
    let (tree, report) = build_bfs_tree(topo, SimConfig::default(), 0).unwrap();
    rec.record("alg2: leader BFS tree", report);
    tree
}

/// The all-sources h-hop collection of `g`, as Ar20's Step 1 builds it.
fn step1(g: &Graph<u64>, h: usize) -> (Topology, SsspCollection<u64>) {
    let topo = Topology::from_graph(g);
    let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let coll = build_csssp(
        g,
        &topo,
        &sources,
        h,
        Direction::Out,
        SimConfig::default(),
        &mut Recorder::new(),
        &mut Recovery::disabled(),
        "csssp",
    )
    .unwrap();
    (topo, coll)
}

/// The solver hands the seed inside `Selection::Randomized` to Algorithm
/// 2: for two seeds that pick different blocker sets on the comb, Ar20's
/// Q equals `alg2_blocker`'s on the Step-1 collection, in pick order.
#[test]
fn the_selection_seed_reaches_algorithm_2() {
    let g = comb(K, H);
    let (topo, coll) = step1(&g, H);
    let mut picks = Vec::new();
    for seed in [0xC0FFEE, 7] {
        let selection = Selection::Randomized { seed };
        let solved = Solver::builder(&g)
            .selection(selection)
            .hop_param(H)
            .blocker_params(SAMPLING)
            .run()
            .unwrap();
        let mut rec = Recorder::new();
        let tree = leader_tree(&topo, &mut rec);
        let (q, _) =
            alg2_blocker(&topo, SimConfig::default(), &coll, &tree, SAMPLING, selection, &mut rec)
                .unwrap();
        assert_eq!(solved.meta.q, q, "seed {seed:#x}");
        picks.push(q);
    }
    assert_ne!(picks[0], picks[1], "the two seeds pick alike, so the check proves nothing");
}

/// Runs Algorithm 2′ on the all-sources h-hop collection of `g` and the
/// sequential BRS cover on the hypergraph of its full-length paths, and
/// checks they pick the same nodes in the same order through the same
/// kinds of selection steps. Returns Algorithm 2′'s counters.
fn assert_matches_brs(g: &Graph<u64>, h: usize, params: BlockerParams) -> Alg2Stats {
    let (topo, coll) = step1(g, h);
    let sim = SimConfig::default();
    let (ctx, _) = PathCtx::build(&topo, sim, &coll).unwrap();
    let (cover, brs) = brs_cover(&ctx.hypergraph(g.n()), params, Selection::Derandomized);
    let mut rec = Recorder::new();
    let tree = leader_tree(&topo, &mut rec);
    let (q, alg2) =
        alg2_blocker(&topo, sim, &coll, &tree, params, Selection::Derandomized, &mut rec).unwrap();
    assert_eq!(q, cover, "h = {h}, {params:?}");
    assert_eq!(
        (alg2.selection_steps, alg2.singleton_picks, alg2.set_picks, alg2.sample_points_examined),
        (brs.selection_steps, brs.singleton_picks, brs.set_picks, brs.sample_points_examined),
        "h = {h}, {params:?}: {alg2:?} vs {brs:?}"
    );
    alg2
}

#[test]
fn derandomized_selection_matches_the_sequential_brs_cover() {
    for seed in 1..=5 {
        let g = gnm_connected(24, 48, true, WeightDist::Uniform(0, 7), seed);
        assert_matches_brs(&g, 3, BlockerParams::default());
        assert_matches_brs(&g, 2, SAMPLING);
    }
    assert_matches_brs(&broom(40, true, WeightDist::Uniform(1, 5), 3), 4, BlockerParams::default());
    // Step 9 still takes single nodes on the smaller combs; the big one
    // picks all 128 nodes in one sampled set.
    for (k, h) in [(16, 3), (32, 4)] {
        assert_matches_brs(&comb(k, h), h, SAMPLING);
    }
    let stats = assert_matches_brs(&comb(K, H), H, SAMPLING);
    assert_eq!(stats.good_set_sizes, [128], "{stats:?}");
}
