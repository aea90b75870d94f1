//! # congest-derand
//!
//! Derandomization machinery for the CONGEST APSP reproduction:
//! pairwise-independent sample spaces (Luby's GF(2) linear-size space from
//! Appendix A.3 and the classical biased affine space over GF(q)), prime
//! utilities, and the Berger–Rompel–Shor hypergraph set-cover algorithm
//! that the paper's blocker-set construction distributes (§3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod pairwise;
pub mod primes;
mod setcover;

pub use pairwise::{AffineSpace, Gf2Space, SampleSpace};
pub use setcover::{
    brs_cover, greedy_cover, verify_cover, BrsParams, BrsStats, Hypergraph, Selection,
};
