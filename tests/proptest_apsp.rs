//! Property-based end-to-end tests: random graphs, random parameters —
//! distributed APSP must always equal the oracle, blocker sets must always
//! cover, and the simulator must never report a CONGEST violation.

use congest_apsp::{Algorithm, Selection, Solver};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn paper_apsp_exact_on_random_graphs(
        n in 8usize..18,
        extra in 0usize..40,
        seed in 0u64..10_000,
        directed: bool,
        max_w in 1u64..50,
    ) {
        let g = gnm_connected(n, extra, directed, WeightDist::Uniform(0, max_w), seed);
        let out = Solver::builder(&g).run().unwrap();
        prop_assert_eq!(out.dist, apsp_dijkstra(&g));
    }

    #[test]
    fn ar18_exact_on_random_graphs(
        n in 8usize..18,
        extra in 0usize..30,
        seed in 0u64..10_000,
    ) {
        let g = gnm_connected(n, extra, true, WeightDist::Uniform(0, 30), seed);
        let out = Solver::builder(&g).algorithm(Algorithm::Ar18).run().unwrap();
        prop_assert_eq!(out.dist, apsp_dijkstra(&g));
    }

    #[test]
    fn randomized_blocker_exact_any_seed(
        n in 8usize..16,
        seed in 0u64..10_000,
        algo_seed in 0u64..10_000,
    ) {
        let g = gnm_connected(n, 2 * n, true, WeightDist::Uniform(0, 20), seed);
        let out =
            Solver::builder(&g).selection(Selection::Randomized { seed: algo_seed }).run().unwrap();
        prop_assert_eq!(out.dist, apsp_dijkstra(&g));
    }
}
