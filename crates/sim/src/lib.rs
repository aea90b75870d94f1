//! # congest-sim
//!
//! A round-synchronous simulator for the CONGEST model of distributed
//! computing (paper §1.1): n nodes on the underlying undirected graph of
//! the input exchange O(log n)-bit messages in lock-step rounds, at most
//! one message per channel per round.
//!
//! The simulator *enforces* the model — a node addresses each message by
//! the index of a neighbor, and a second message on one channel in one
//! round aborts the run — so measured round counts are trustworthy
//! reproductions of the quantity the paper bounds. See
//! [`Engine`] for the execution loop, [`NodeLogic`] for the protocol
//! interface, and [`primitives`] for the broadcast/convergecast building
//! blocks of Appendix A.1/A.5.
//!
//! ## Fault model & recovery
//!
//! The engine carries an optional, fully deterministic fault-injection
//! plane (module [`fault`]). A [`FaultSpec`] in [`SimConfig::fault`] — or
//! an explicit scripted [`FaultPlan`] attached with
//! [`Engine::with_fault_plan`] — injects, at the message-plane boundary
//! and at round boundaries:
//!
//! * **message drops** — the frame is consumed from the channel (it still
//!   charges the sender's congestion) but never delivered;
//! * **payload corruption** — the receiver's
//!   [`NodeLogic::corrupt_msg`] hook rewrites the frame in-domain within
//!   the CONGEST word budget; protocols that opt out (the default) have
//!   the damaged frame dropped instead, modeling a failed checksum;
//! * **node crash/restart** — a node misses whole rounds at round
//!   granularity: it neither steps nor reads arriving messages (they
//!   vanish), then restarts warm with its local state intact;
//! * **link flaps** — a whole undirected link drops every frame in both
//!   directions for a contiguous window of rounds.
//!
//! Every decision is a pure hash of `(seed, channel, round)`, so a plan
//! replays bit-identically across runs, and
//! [`PhaseReport::faults`] counts exactly what was injected. With no plan
//! (or an all-zero spec) the engine's one delivery pass keeps every
//! message, so a fault-free run is byte-identical to a run under an armed
//! plan that never fires. Detection and recovery live one layer up, in
//! `congest_apsp`: phase sentinels verify invariants after each pipeline
//! phase and re-run only damaged phases (see that crate's docs), which is
//! why the engine itself never tries to mask a fault.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]
// Index-based loops are used deliberately where they mirror the paper's
// per-node pseudocode or iterate parallel arrays; iterator rewrites would
// obscure the correspondence.
#![allow(clippy::needless_range_loop)]

mod bitset;
mod engine;
mod error;
pub mod fault;
mod metrics;
pub mod primitives;

pub use bitset::BitSet;
pub use engine::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
pub use error::SimError;
pub use fault::{FaultCounters, FaultEvent, FaultPlan, FaultSpec, MsgFault};
pub use metrics::{PhaseReport, Recorder};
