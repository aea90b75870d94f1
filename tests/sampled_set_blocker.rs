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

use congest_apsp::blocker::Alg2Stats;
use congest_apsp::{BlockerMethod, BlockerParams, Solver};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{DistMatrix, Edge, Graph, NodeId, Weight};

/// Teeth of the comb.
const K: usize = 64;
/// Edges per tooth, and the hop parameter.
const H: usize = 3;

/// Node 0 is the hub; tooth t is the directed path `1 + t·(H + 1)` →
/// … → `(t + 1)·(H + 1)`, and the hub has an edge to its head.
fn comb() -> Graph<u64> {
    let mut edges = Vec::new();
    for t in 0..K {
        let head = (1 + t * (H + 1)) as NodeId;
        edges.push(Edge::new(0, head, 1));
        for i in 0..H as NodeId {
            edges.push(Edge::new(head + i, head + i + 1, 1));
        }
    }
    Graph::from_edges(1 + K * (H + 1), true, edges)
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

/// Runs Ar20 on the comb with `method`, checks the answer and returns the
/// blocker set, the round and message totals and the Algorithm-2 counters.
fn solve(g: &Graph<u64>, method: BlockerMethod) -> (Vec<NodeId>, u64, u64, Alg2Stats) {
    let out = Solver::builder(g)
        .blocker_method(method)
        .hop_param(H)
        .blocker_params(BlockerParams { eps: 1.0 / 12.0, delta: 0.3 })
        .run()
        .unwrap();
    assert_eq!(out.dist, apsp_dijkstra(g), "{method:?} is exact");
    assert_walkable(g, &out.dist);
    let stats = out.meta.blocker_stats.expect("Algorithm 2/2′ reports its counters");
    assert!(stats.set_picks > 0, "{method:?} picked no sampled set: {stats:?}");
    let (rounds, messages) = (out.recorder.total_rounds(), out.recorder.total_messages());
    (out.meta.q, rounds, messages, stats)
}

#[test]
fn derandomized_selection_picks_a_sampled_set_deterministically() {
    let g = comb();
    let (q, rounds, messages, stats) = solve(&g, BlockerMethod::Derandomized);
    assert!(stats.sample_points_examined > 0, "{stats:?}");
    let again = solve(&g, BlockerMethod::Derandomized);
    assert_eq!((&q, rounds, messages), (&again.0, again.1, again.2), "2′ is deterministic");
}

#[test]
fn randomized_selection_picks_a_sampled_set() {
    let g = comb();
    let (_, _, _, stats) = solve(&g, BlockerMethod::Randomized);
    assert_eq!(stats.good_set_sizes.len() as u64, stats.set_picks, "{stats:?}");
}
