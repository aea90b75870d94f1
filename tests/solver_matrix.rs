//! Property tests for the PR-3 API surface: the flat `DistMatrix` arena
//! and the `Solver` facade.
//!
//! * `DistMatrix::from_rows` → `row()` / `get()` / `as_slice()` must
//!   round-trip exactly, for any shape.
//! * `Solver` under every algorithm and selection must match
//!   `apsp_dijkstra` on small random graphs.
//! * The compute → serve handoff (`into_oracle`) must move the arena, not
//!   copy it.

use congest_apsp::{Algorithm, Selection, Solver};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::DistMatrix;
use congest_oracle::IntoOracle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// from_rows → row()/get()/as_slice() is the identity on the data.
    #[test]
    fn from_rows_round_trips(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 7usize),
            0usize..12,
        ),
    ) {
        let m = DistMatrix::from_rows(rows.clone());
        prop_assert_eq!(m.rows(), rows.len());
        prop_assert_eq!(m.cols(), if rows.is_empty() { 0 } else { 7 });
        let mut flat = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(m.row(r), row.as_slice());
            prop_assert_eq!(&m[r], row.as_slice());
            for (c, &w) in row.iter().enumerate() {
                prop_assert_eq!(m.get(r, c), w);
            }
            flat.extend_from_slice(row);
        }
        prop_assert_eq!(m.as_slice(), flat.as_slice());
    }

    /// Writes through set()/IndexMut land in the right cells and nowhere
    /// else.
    #[test]
    fn set_is_local(r in 0usize..5, c in 0usize..4, w in 0u64..1000) {
        let mut m = DistMatrix::filled(5, 4, u64::MAX / 4);
        m.set(r, c, w);
        for i in 0..5 {
            for j in 0..4 {
                let expect = if (i, j) == (r, c) { w } else { u64::MAX / 4 };
                prop_assert_eq!(m.get(i, j), expect);
            }
        }
    }
}

proptest! {
    // Each case runs four full CONGEST simulations; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every algorithm and selection reachable through the builder is
    /// exact on small random graphs and carries a successor plane.
    #[test]
    fn solver_knob_matrix_is_exact(
        n in 8usize..14,
        extra in 0usize..24,
        seed in 0u64..10_000,
        directed: bool,
    ) {
        let g = gnm_connected(n, extra, directed, WeightDist::Uniform(0, 20), seed);
        let oracle = apsp_dijkstra(&g);
        for selection in [Selection::Randomized { seed: 0xC0FFEE }, Selection::Derandomized] {
            let out = Solver::builder(&g).selection(selection).run().unwrap();
            prop_assert!(out.dist == oracle, "Ar20/{selection:?} diverged");
            prop_assert!(out.dist.successors().is_some(), "Ar20/{selection:?}: no plane");
        }
        for algorithm in [Algorithm::Ar18, Algorithm::Naive] {
            let out = Solver::builder(&g).algorithm(algorithm).run().unwrap();
            prop_assert!(out.dist == oracle, "{algorithm:?} diverged");
            prop_assert!(out.dist.successors().is_some(), "{algorithm:?}: no plane");
        }
    }
}

/// The outcome's arena must land in the oracle without an n² copy.
#[test]
fn into_oracle_moves_the_arena() {
    let g = gnm_connected(16, 32, true, WeightDist::Uniform(1, 9), 7);
    let out = Solver::builder(&g).run().unwrap();
    let ptr = out.dist.as_slice().as_ptr();
    let oracle = out.into_oracle(&g);
    assert_eq!(oracle.distance_row(0).as_ptr(), ptr, "arena must move, not copy");
    assert_eq!(oracle.distance(0, 15), apsp_dijkstra(&g)[0][15]);
}
