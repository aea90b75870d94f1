//! Exactness at n = 512, where blockers fire and Step 6 carries real load:
//! Ar20, Ar18 and Naive against Dijkstra on a hop-deep graph, on a sparse
//! weighted digraph and on `sparse_random`, where Step 6's relays carry
//! the most, with every pair's successor chain walked edge by edge. The
//! tier-1 exactness suites stay at n ≤ 64, so these run separately, in
//! release:
//!
//! ```text
//! cargo test --release --test scale_exactness -- --ignored --nocapture
//! ```
//!
//! Zero-weight families are left out until equal-weight routes break
//! their ties by a rule every source shares: their successor planes can
//! hold cycles although every distance is exact.

use congest_apsp::{Algorithm, Solver};
use congest_bench::workloads::{hop_deep, sparse_random};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{DistMatrix, Graph, NodeId, Weight};
use std::time::Instant;

/// Every reachable pair's successor walk reaches its target along graph
/// edges whose weights sum to the distance.
fn assert_walkable(g: &Graph<u64>, dist: &DistMatrix<u64>, alg: Algorithm) {
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
                let next =
                    dist.successor(at, v).unwrap_or_else(|| panic!("{alg:?}: ({u}, {v}) stops"));
                let w = g.out_edges(at).filter(|&(t, _)| t == next).map(|(_, w)| w).min();
                total += w.unwrap_or_else(|| panic!("{alg:?}: ({u}, {v}): {at} -> {next} no edge"));
                at = next;
            }
            assert_eq!((at, total), (v, d), "{alg:?}: successor walk ({u}, {v})");
        }
    }
}

/// `(|Q|, rounds, messages)` of one solve.
type Counts = (usize, u64, u64);

/// Runs Ar20, Ar18 and Naive on `g`, checks each against Dijkstra and
/// walks its successor plane. Returns their counts in that order.
fn check(name: &str, g: &Graph<u64>) -> Vec<Counts> {
    let oracle = apsp_dijkstra(g);
    let mut counts = Vec::new();
    for alg in [Algorithm::Ar20, Algorithm::Ar18, Algorithm::Naive] {
        let t = Instant::now();
        let out = Solver::builder(g).algorithm(alg).run().unwrap();
        let solve_s = t.elapsed().as_secs_f64();
        assert_eq!(out.dist, oracle, "{name} {alg:?}");
        assert_walkable(g, &out.dist, alg);
        println!(
            "{name} {alg:?}: |Q| = {}, {} rounds, {} messages, solve {solve_s:.1} s, exact",
            out.meta.q.len(),
            out.recorder.total_rounds(),
            out.recorder.total_messages()
        );
        counts.push((out.meta.q.len(), out.recorder.total_rounds(), out.recorder.total_messages()));
    }
    counts
}

#[test]
#[ignore = "n = 512 in release: run with --ignored"]
fn hop_deep_512_is_exact() {
    let counts = check("hop_deep(512, 1)", &hop_deep(512, 1));
    // Ar20 then Ar18; every protocol is deterministic.
    assert_eq!(counts[..2], [(34, 90_920, 4_062_037), (12, 61_398, 4_244_786)]);
}

#[test]
#[ignore = "n = 512 in release: run with --ignored"]
fn gnm_512_is_exact() {
    let g = gnm_connected(512, 1024, true, WeightDist::Uniform(1, 100), 1);
    check("gnm_connected(512, 1024)", &g);
}

#[test]
#[ignore = "n = 512 in release: run with --ignored"]
fn sparse_random_512_is_exact() {
    let counts = check("sparse_random(512, 1)", &sparse_random(512, 1));
    // Ar20 then Ar18; every protocol is deterministic.
    assert_eq!(counts[..2], [(74, 75_402, 12_482_126), (0, 36_864, 2_820_551)]);
}
