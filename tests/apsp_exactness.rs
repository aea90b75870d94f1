//! End-to-end exactness: every distributed APSP algorithm must reproduce
//! the sequential Dijkstra matrix on every workload family, directed and
//! undirected, with integer, zero-inflated and dyadic real weights
//! (Theorem 1.1).

use congest_apsp::{Algorithm, Selection, Solver};
use congest_graph::generators::{Family, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{Graph, F64};

fn check_all_algorithms(g: &Graph<u64>, label: &str) {
    let oracle = apsp_dijkstra(g);
    let paper = Solver::builder(g).run().unwrap();
    assert_eq!(paper.dist, oracle, "{label}: paper algorithm");
    let rand =
        Solver::builder(g).selection(Selection::Randomized { seed: 0xC0FFEE }).run().unwrap();
    assert_eq!(rand.dist, oracle, "{label}: randomized blocker variant");
    let ar18 = Solver::builder(g).algorithm(Algorithm::Ar18).run().unwrap();
    assert_eq!(ar18.dist, oracle, "{label}: AR18 baseline");
    let naive = Solver::builder(g).algorithm(Algorithm::Naive).run().unwrap();
    assert_eq!(naive.dist, oracle, "{label}: naive baseline");
}

#[test]
fn exact_on_all_families_directed() {
    for fam in Family::ALL {
        let g = fam.build(14, true, WeightDist::Uniform(0, 9), 31);
        check_all_algorithms(&g, fam.name());
    }
}

#[test]
fn exact_on_all_families_undirected() {
    for fam in Family::ALL {
        let g = fam.build(14, false, WeightDist::Uniform(1, 20), 32);
        check_all_algorithms(&g, fam.name());
    }
}

#[test]
fn exact_with_zero_weights() {
    for fam in [Family::SparseRandom, Family::Broom, Family::Grid] {
        let g = fam.build(14, true, WeightDist::ZeroInflated { p_zero: 0.4, hi: 7 }, 33);
        check_all_algorithms(&g, fam.name());
    }
}

#[test]
fn exact_with_unit_weights() {
    let g = Family::Cycle.build(15, true, WeightDist::Unit, 34);
    check_all_algorithms(&g, "cycle-unit");
}

#[test]
fn exact_with_real_weights() {
    // Dyadic f64 weights (w/8), on which every path sum is exact; other
    // reals round (see `congest_graph::F64`).
    let gu = Family::SparseRandom.build(13, true, WeightDist::Uniform(0, 1000), 35);
    let g = gu.map_weights(|w| F64::new(w as f64 / 8.0));
    let oracle = apsp_dijkstra(&g);
    let paper = Solver::builder(&g).run().unwrap();
    assert_eq!(paper.dist, oracle);
}

#[test]
fn exact_with_h_override_sweep() {
    // Correctness must not depend on the magic h = n^{1/3} choice.
    let g = Family::Broom.build(16, true, WeightDist::Uniform(1, 9), 36);
    let oracle = apsp_dijkstra(&g);
    for h in [1usize, 2, 4, 6] {
        let out = Solver::builder(&g).hop_param(h).run().unwrap();
        assert_eq!(out.dist, oracle, "h = {h}");
    }
}

#[test]
fn unreachable_pairs_are_inf() {
    use congest_graph::{Edge, Weight};
    // Directed path: communication is bidirectional but edges are one-way,
    // so reverse distances must be INF.
    let g: Graph<u64> = Graph::from_edges(
        4,
        true,
        vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(2, 3, 1)],
    );
    let out = Solver::builder(&g).run().unwrap();
    assert_eq!(out.dist[0][3], 3);
    assert_eq!(out.dist[3][0], u64::INF);
}
