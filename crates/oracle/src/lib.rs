//! # congest-oracle
//!
//! The **serving layer** on top of the CONGEST APSP reproduction: turns a
//! computed all-pairs shortest-path solution into a production-shaped
//! distance oracle — compute once, snapshot to disk, serve
//! distance/route/k-nearest queries from many threads.
//!
//! Three pieces, composable but independent:
//!
//! * [`Oracle`] — a compact query-ready snapshot: all `n²` distances in one
//!   flat arena plus a target-major successor matrix, giving O(path-length)
//!   shortest-path reconstruction (cycle-safe even with zero-weight edges;
//!   see [`oracle`] module docs). Every `congest_apsp::Solver` outcome
//!   already carries the Step-7 successor plane, which the oracle
//!   validates and adopts **by move** — zero reverse-BFS derivation,
//!   witnessed by [`successor_derivations`]; the derivation survives only
//!   as the fallback for plane-less matrices and snapshots.
//! * snapshot persistence — a versioned, checksummed binary format with no
//!   external dependencies; malformed input is always a [`SnapshotError`],
//!   never a panic. Every writer emits the blocked, per-block-checksummed
//!   v2 format: [`Oracle::save`] / [`Oracle::to_bytes`] with the default
//!   [`V2Config`], [`Oracle::save_v2`] with any, e.g. one that drops the
//!   successor plane on disk and embeds the graph instead. [`Oracle::load`]
//!   / [`Oracle::from_bytes`] read it eagerly, four blocks at a time in
//!   lockstep stripes decoded straight into the arenas; [`Oracle::load_on`]
//!   with [`Cores::Caller`] keeps the load's plane checks on the calling
//!   thread.
//!   Saves are atomic: temp file + fsync + rename, so a crashed writer
//!   can never leave a torn snapshot where a watcher might load it.
//! * [`PagedOracle`] — the out-of-core backend: opens any saved snapshot,
//!   validates only header + index eagerly, and pages blocks in lazily
//!   under a byte budget ([`PagedConfig`]) with per-block checksum
//!   verification on first touch — serving snapshots larger than RAM.
//! * [`QueryEngine`] — a sharded read-mostly server over **either**
//!   backend ([`QueryEngine::new`] eager / [`QueryEngine::new_paged`]):
//!   lock-free distance and k-nearest reads over the `Arc`'d snapshot,
//!   plus a per-shard LRU path cache so concurrent workers answering hot
//!   routes never contend on a single lock.
//!
//! ## Quickstart: compute → snapshot → serve
//!
//! ```
//! use congest_apsp::Solver;
//! use congest_graph::generators::{gnm_connected, WeightDist};
//! use congest_oracle::{EngineConfig, IntoOracle, Oracle, QueryEngine};
//! use std::sync::Arc;
//!
//! // 1. Compute: the paper's deterministic APSP pipeline is the Solver
//! //    default, and `into_oracle` moves its flat distance arena — plus
//! //    the Step-7 successor plane the pipeline filled during compute —
//! //    straight into the serving layer: no n² copy and no reverse-BFS
//! //    derivation at the boundary.
//! let g = gnm_connected(16, 32, true, WeightDist::Uniform(1, 9), 42);
//! let before = congest_oracle::successor_derivations();
//! let oracle = Solver::builder(&g).run().unwrap().into_oracle(&g);
//! assert_eq!(congest_oracle::successor_derivations(), before, "zero-derivation handoff");
//!
//! // 2. Snapshot: round-trip the oracle through bytes.
//! let bytes = oracle.to_bytes();
//! let restored = Oracle::<u64>::from_bytes(&bytes).unwrap();
//! assert_eq!(oracle, restored);
//!
//! // 3. Serve: shared, concurrent queries.
//! let engine = QueryEngine::new(Arc::new(restored), EngineConfig::default());
//! let d = engine.dist(0, 7).unwrap().expect("connected graph");
//! let route = engine.path(0, 7).unwrap().expect("connected graph");
//! assert_eq!(route.first(), Some(&0));
//! assert_eq!(route.last(), Some(&7));
//! let near = engine.k_nearest(0, 3).unwrap();
//! assert_eq!(near.len(), 3);
//! assert!(near.windows(2).all(|w| w[0].1 <= w[1].1), "sorted by distance");
//! # let _ = d;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod engine;
mod format_v2;
mod lru;
pub mod oracle;
mod paged;
mod parallel;
mod snapshot;

pub use engine::{CacheStats, EngineConfig, QueryEngine, QueryError};
pub use format_v2::V2Config;
pub use oracle::{successor_derivations, Cores, IntoOracle, Oracle, NO_SUCC};
pub use paged::{PagedConfig, PagedOracle, PagedStats};
pub use snapshot::{PortableWeight, SnapshotError, MAGIC, VERSION_V2};
