//! # congest-apsp
//!
//! The paper's primary contribution: deterministic `Õ(n^{4/3})`-round
//! weighted APSP in the CONGEST model (Agarwal & Ramachandran, SPAA 2020),
//! with every substrate algorithm it depends on, plus the baselines it is
//! compared against in Table 1.
//!
//! ## Quickstart — the [`Solver`] facade
//!
//! All three algorithms are reached through one builder; every knob
//! defaults to the paper's headline configuration, and the result carries
//! the full distance matrix in a single flat
//! [`DistMatrix`](congest_graph::DistMatrix) arena:
//!
//! ```
//! use congest_apsp::{Algorithm, Selection, Solver};
//! use congest_graph::generators::{gnm_connected, WeightDist};
//!
//! let g = gnm_connected(16, 32, true, WeightDist::Uniform(0, 9), 42);
//!
//! // The paper's deterministic Õ(n^{4/3}) configuration is the default.
//! let out = Solver::builder(&g).run().unwrap();
//! assert_eq!(out.dist, congest_graph::seq::apsp_dijkstra(&g));
//! // One line per phase: the rounds it ran until quiescence, its
//! // messages and payload words.
//! println!("{}", out.recorder.table());
//!
//! // Every knob is an explicit builder method.
//! let compared = Solver::builder(&g)
//!     .algorithm(Algorithm::Ar18) // the Õ(n^{3/2}) predecessor
//!     .run()
//!     .unwrap();
//! assert_eq!(compared.dist, out.dist);
//!
//! // Step 2's blocker construction: Algorithm 2′ by default, or the
//! // randomized Algorithm 2 with its seed.
//! let randomized = Solver::builder(&g)
//!     .selection(Selection::Randomized { seed: 7 })
//!     .run()
//!     .unwrap();
//! assert_eq!(randomized.dist, out.dist);
//! ```
//!
//! ## Step-7 successor tracking (routing, not just distances)
//!
//! Every algorithm also performs *distributed successor tracking*, as in
//! the AR18 deterministic APSP construction the paper's §5 extension
//! builds on. Each out-direction relax message and each Step-6 push or
//! broadcast item carries the first hop of the path it summarizes. That is
//! one extra O(log n)-bit id word, visible in the recorder's payload
//! accounting. In-direction trees carry none: their parent pointers
//! already are the next hops toward the root. So as distances settle every
//! node also learns its next hop, and the outcome's `dist` carries a
//! target-major successor plane:
//!
//! ```
//! use congest_apsp::Solver;
//! use congest_graph::generators::{gnm_connected, WeightDist};
//!
//! let g = gnm_connected(12, 24, true, WeightDist::Uniform(1, 9), 7);
//! let out = Solver::builder(&g).run().unwrap();
//! let plane = out.dist.successors().expect("every outcome carries a plane");
//! assert_eq!(plane.len(), 12 * 12);
//! // dist.successor(u, v) = first hop from u toward v.
//! ```
//!
//! The serving layer picks the result up without copying:
//! `out.into_oracle(&g)` (via `congest_oracle::IntoOracle`) moves the n²
//! arena and the successor plane straight into a query-ready `Oracle`,
//! skipping the oracle's reverse-BFS successor derivation entirely
//! (`congest_oracle::successor_derivations` witnesses the zero-derivation
//! handoff).
//!
//! ## Fault model & recovery
//!
//! The pipeline is self-verifying: armed with a seeded
//! [`FaultSpec`](congest_sim::fault::FaultSpec) via
//! [`SolverBuilder::fault_plan`](solver::SolverBuilder::fault_plan), every
//! phase runs inside a detect-and-recover loop ([`Recovery`]). An attempt
//! is accepted only if the engine counted **zero injected faults** for it
//! *and* the phase's invariant sentinel (tree telescoping, row fixpoints,
//! flood completeness, transpose equality — see [`recovery::sentinels`])
//! passes; anything else re-runs just that phase under a fresh
//! deterministic per-attempt salt, up to
//! [`max_phase_retries`](solver::SolverBuilder::max_phase_retries). A
//! final whole-matrix certificate guards the assembled result.
//!
//! The contract, enforced by the differential `fault_matrix` test suite:
//! under *any* seeded plan, [`Solver::run`] returns distances (and
//! successor plane, and recorded per-phase rounds) **bit-identical** to
//! the fault-free run, or the typed [`SolverError::Unrecoverable`] — never
//! silently wrong answers, never a hang. The outcome's
//! [`FaultReport`](ApspOutcome::fault_report) records what recovery
//! absorbed (injections, retries, rounds lost to rejected attempts).
//!
//! ```
//! use congest_apsp::{Solver, SolverError};
//! use congest_graph::generators::{gnm_connected, WeightDist};
//! use congest_sim::fault::FaultSpec;
//!
//! let g = gnm_connected(14, 28, true, WeightDist::Uniform(0, 9), 3);
//! let clean = Solver::builder(&g).run().unwrap();
//! let plan = FaultSpec::seeded(7).drops(200).corruption(100);
//! match Solver::builder(&g).fault_plan(plan).max_phase_retries(8).run() {
//!     Ok(out) => {
//!         assert_eq!(out.dist, clean.dist); // recovered == bit-identical
//!         println!("absorbed: {:?}", out.fault_report);
//!     }
//!     Err(SolverError::Unrecoverable { phase, attempts, .. }) => {
//!         println!("refused after {attempts} attempts in {phase}");
//!     }
//!     Err(e) => panic!("armed plans never leak raw engine errors: {e}"),
//! }
//! ```
//!
//! With no plan armed the recovery layer is zero-cost: one attempt per
//! phase on the exact configuration, no sentinel evaluation, byte-identical
//! behavior.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]
// Index-based loops are used deliberately where they mirror the paper's
// per-node pseudocode or iterate parallel arrays; iterator rewrites would
// obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod apsp;
pub mod baselines;
pub mod bf;
pub mod blocker;
pub mod bottleneck;
pub mod config;
pub mod csssp;
pub mod extension;
pub mod pipeline;
pub mod recovery;
pub mod solver;
pub mod trees;

pub use apsp::{ApspMeta, ApspOutcome};
pub use config::ApspConfig;
pub use congest_derand::{BlockerParams, Selection};
pub use recovery::{FaultReport, Recovery, SolverError};
pub use solver::{Algorithm, Solver, SolverBuilder};
