//! # congest-derand
//!
//! Derandomization machinery for the CONGEST APSP reproduction: the
//! biased pairwise-independent sample space over GF(q), prime utilities,
//! and the Berger–Rompel–Shor hypergraph set-cover algorithm that the
//! paper's blocker-set construction distributes (§3). It also holds the
//! two choices a blocker construction takes: the constants ε, δ
//! ([`BlockerParams`]) and Algorithm 2 vs 2′ ([`Selection`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod pairwise;
pub mod primes;
mod setcover;

pub use pairwise::AffineSpace;
pub use setcover::{
    brs_cover, greedy_cover, verify_cover, BlockerParams, BrsStats, Hypergraph, Selection,
};
