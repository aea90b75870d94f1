//! # congest-bench
//!
//! Experiment harness regenerating the paper's round-complexity
//! comparisons (the empiricized Table 1) and the per-lemma validation
//! experiments T1–T5 / F2–F4, one function each in [`experiments`].
//!
//! Run `cargo run -p congest_bench --release --bin experiments -- all`
//! (or a single experiment id) to print the tables; CSV copies land in
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod experiments;
pub mod legacy;
pub mod stats;
pub mod workloads;
