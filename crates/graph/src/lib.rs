//! # congest-graph
//!
//! Graph substrate for the CONGEST APSP reproduction: weighted
//! directed/undirected graphs in CSR form, seeded generators for every
//! workload family used in the experiments, and sequential reference
//! shortest-path algorithms (Dijkstra, Floyd–Warshall, exact `δ_h`
//! hop-limited distances) that serve as correctness oracles.
//!
//! The distributed algorithms live in `congest-apsp`; the network simulator
//! in `congest-sim`. This crate is deliberately free of any distributed
//! machinery so oracles cannot share bugs with the system under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod generators;
mod graph;
pub mod matrix;
pub mod seq;
mod weight;

pub use graph::{Edge, Graph};
pub use matrix::{DistMatrix, NO_SUCC};
pub use weight::{Weight, F64};

/// Compact node identifier (vertices are numbered `0..n`).
pub type NodeId = u32;

#[cfg(test)]
mod proptests {
    use crate::generators::{gnm_connected, WeightDist};
    use crate::seq::{apsp_dijkstra, floyd_warshall};
    use crate::weight::Weight;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Dijkstra and Floyd–Warshall agree on random graphs — two
        /// independent oracles cross-checking each other.
        #[test]
        fn oracles_agree(n in 2usize..24, extra in 0usize..40, seed in 0u64..1000, directed: bool) {
            let g = gnm_connected(n, extra, directed, WeightDist::Uniform(0, 12), seed);
            prop_assert_eq!(apsp_dijkstra(&g), floyd_warshall(&g));
        }

        /// Triangle inequality holds for the computed metric.
        #[test]
        fn triangle_inequality(n in 2usize..16, extra in 0usize..30, seed in 0u64..1000) {
            let g = gnm_connected(n, extra, true, WeightDist::Uniform(0, 9), seed);
            let d = apsp_dijkstra(&g);
            for i in 0..g.n() {
                for j in 0..g.n() {
                    for k in 0..g.n() {
                        prop_assert!(d[i][j] <= d[i][k].plus(d[k][j]));
                    }
                }
            }
        }

        /// Weight laws for u64.
        #[test]
        fn weight_laws_u64(a in 0u64..u64::INF, b in 0u64..u64::INF) {
            prop_assert_eq!(a.plus(u64::ZERO), a);
            prop_assert_eq!(a.plus(u64::INF), u64::INF);
            prop_assert!(a.plus(b) >= a);
        }
    }
}
