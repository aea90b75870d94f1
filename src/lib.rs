//! # congest-apsp-repro
//!
//! Umbrella crate for the reproduction of *Faster Deterministic All Pairs
//! Shortest Paths in Congest Model* (Agarwal & Ramachandran, SPAA 2020):
//! re-exports the graph substrate, the CONGEST simulator, the
//! derandomization toolkit, the APSP algorithms and the distance-oracle
//! serving layer, and hosts the workspace-level examples and integration
//! tests.
//!
//! The one-line vertical slice — compute with the paper's deterministic
//! pipeline, then serve — is `congest_apsp::Solver::builder(&g).run()?`
//! followed by `.into_oracle(&g)` (from `congest_oracle::IntoOracle`); the
//! flat `congest_graph::DistMatrix` arena flows from the solver into the
//! oracle without a copy.
//!
//! The measured reproduction of the paper's round-complexity claims is the
//! `experiments` binary of `congest_bench` (`cargo run --release -p
//! congest_bench --bin experiments -- t1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub use congest_apsp as apsp;
pub use congest_derand as derand;
pub use congest_graph as graph;
pub use congest_oracle as oracle;
pub use congest_serve as serve;
pub use congest_sim as sim;
