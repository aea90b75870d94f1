//! Network serving front-end for the CONGEST APSP distance oracle:
//! a thread-per-core TCP server speaking a compact binary protocol with
//! request batching, per-connection backpressure, and zero-downtime
//! snapshot swap.
//!
//! # Architecture
//!
//! - [`Server`] binds a listener, accepts with one thread per core, and
//!   gives each connection a blocking handler that drains the socket in
//!   large reads. One `read` syscall typically delivers a whole
//!   pipelined **batch** of frames; the batch is answered against a
//!   single snapshot generation (through
//!   `QueryEngine::{dist_batch, path_batch}`) and written back in one
//!   `write_all`.
//! - [`Client`] is the matching blocking client; its [`Client::batch`]
//!   builder pipelines any mix of requests into one write.
//! - [`GenerationCell`] is the swap primitive: reloads publish a new
//!   `(engine, generation)` pair atomically, in-flight batches finish
//!   on the generation they loaded, and every response names the
//!   generation that answered it.
//!
//! # Wire format
//!
//! All integers are little-endian. The handshake is fixed-size; after
//! it, both directions are length-prefixed frames:
//!
//! ```text
//!   client hello (8 B)                server hello (32 B)
//!   ┌───────┬─────────┬─────┬──────┐  ┌───────┬─────────┬────────┬─────┬─────┬─────┬────────┬───────────┐
//!   │ magic │ version │ tag │ flag │  │ magic │ version │ status │ tag │  n  │ gen │ window │ max_frame │
//!   │ CGSV  │   u16   │ u8  │  u8  │  │ CGSV  │   u16   │   u8   │ u8  │ u64 │ u64 │  u32   │    u32    │
//!   └───────┴─────────┴─────┴──────┘  └───────┴─────────┴────────┴─────┴─────┴─────┴────────┴───────────┘
//!
//!   frame                              pipelined batch = frames back to back
//!   ┌─────────┬──────────────────┐     ┌────┬─────────┬────┬─────────┬────┬─────────┐
//!   │ len u32 │ payload (len B)  │     │len₁│payload₁ │len₂│payload₂ │len₃│payload₃ │ → one write
//!   └─────────┴──────────────────┘     └────┴─────────┴────┴─────────┴────┴─────────┘
//! ```
//!
//! Request payloads (`id` echoes back in the matching response):
//!
//! | op | name     | payload layout                          |
//! |----|----------|-----------------------------------------|
//! | 1  | Dist     | `id u32, op u8, u u32, v u32`           |
//! | 2  | Path     | `id u32, op u8, u u32, v u32`           |
//! | 3  | KNearest | `id u32, op u8, u u32, k u32`           |
//! | 4  | Ping     | `id u32, op u8`                         |
//! | 5  | Reload   | `id u32, op u8`                         |
//! | 6  | Health   | `id u32, op u8`                         |
//!
//! Response payloads all start with the same head; `Ok` query answers
//! append a body:
//!
//! | status ≠ Ok / Ping / Reload | `id u32, status u8, generation u64`              |
//! |-----------------------------|--------------------------------------------------|
//! | Dist `Ok`                   | head + `weight 8 B`                              |
//! | Path `Ok`                   | head + `count u32, count × node u32`             |
//! | KNearest `Ok`               | head + `count u32, count × (node u32, weight 8 B)` |
//! | Health `Ok`                 | head + `uptime_ms u64, conns u32, max_conns u32, shed_busy u64, shed_overloaded u64, swaps u64, swap_errors u64, err_len u32, err utf-8` |
//!
//! Weights travel in the snapshot plane's canonical 8-byte encoding
//! (`PortableWeight`), and the handshake's weight tag guarantees both
//! sides agree on the type before any frame flows.
//!
//! # Backpressure
//!
//! Two bounds keep a connection from pinning server memory:
//!
//! 1. **In-flight window.** At most [`ServerConfig::window`] requests
//!    per batch are answered; the excess get [`proto::Status::Busy`]
//!    responses immediately (resend after draining). The window is
//!    advertised in the server hello.
//! 2. **Write timeout.** A peer that pipelines requests but stops
//!    reading responses trips [`ServerConfig::write_timeout`] and is
//!    disconnected.
//!
//! # Robustness
//!
//! The serving path carries its own fault plane, mirroring the
//! simulator's deterministic `congest_sim::fault` philosophy at the TCP
//! boundary.
//!
//! **Error taxonomy.** Every failure a caller can see is typed, and
//! every type is classified retryable or terminal:
//!
//! | class | members | retryable? |
//! |-------|---------|------------|
//! | shedding statuses | [`Status::Busy`] (per-connection window), [`Status::Overloaded`] (global in-flight budget) | yes — resend after backoff |
//! | transport | [`ClientError::Io`], [`ClientError::Protocol`] (stream desync) | yes — reconnect and replay |
//! | capacity hello | `HelloStatus::AtCapacity` refusal | yes — reconnect later |
//! | semantic statuses | `BadRequest`, `NodeOutOfRange`, `Unreachable`, `TooLarge`, `NotSupported`, `Corrupt`, `Internal` | no — the answer for this request |
//! | handshake verdicts | `BadVersion`, `WeightMismatch` | no — a config error, retrying cannot help |
//!
//! [`ClientError::is_retryable`] and [`Status::is_retryable`] encode
//! the table; [`ClientError::RetriesExhausted`] is what a retryable
//! failure becomes once the budget runs out, and carries the full
//! attempt trace ([`client::Attempt`]) for post-mortems.
//!
//! **Idempotence and replay.** Every protocol op except `Reload` is
//! read-only, so replaying it after an ambiguous failure (sent the
//! request, connection died before the response) is always safe.
//! [`ResilientClient`] exploits this: it retries Dist/Path/KNearest/
//! Ping/Health freely and deliberately does not expose Reload — the one
//! state-changing op must go through the plain [`Client`] where the
//! caller owns at-most-once semantics.
//!
//! **Deadline semantics.** [`client::RetryPolicy::op_deadline`] bounds
//! the **whole** operation — connect, handshake, every attempt, every
//! backoff sleep. Backoff between attempts is decorrelated jitter
//! (`base..prev×3`, capped), a pure function of
//! `(jitter_seed, attempt)` so tests replay schedules exactly. On the
//! server, [`ServerConfig::frame_deadline`] bounds how long a partial
//! frame may sit unfinished (slow-loris reclamation) and
//! [`ServerConfig::write_timeout`] bounds a dead reader.
//!
//! **Overload shedding.** [`ServerConfig::max_inflight`] is a global
//! budget across all connections; query ops beyond it are answered
//! [`Status::Overloaded`] immediately — shed, never queued — while
//! control ops (Ping/Reload/Health) bypass the budget so the server
//! stays observable under load. The `Health` op reports uptime, live
//! connections, both shed counters, swap counts, and the last
//! snapshot-swap error.
//!
//! **Chaos testing.** [`chaos::ChaosProxy`] is a deterministic
//! in-process TCP proxy: faults (delays, resets, truncations, 1-byte
//! write segmentation, payload bit-flips) are pure functions of
//! `(seed, conn, direction, byte_offset)` via the same splitmix mix the
//! simulator's fault plane uses, so a failing seed replays exactly —
//! independent of OS read chunking and thread scheduling. Point a
//! [`ResilientClient`] through a proxy with a [`chaos::ChaosSpec`] and
//! assert the differential contract: never a wrong answer for the
//! claimed generation, never a hang past the deadline (see
//! `tests/serve_chaos.rs` for the grid harness).
//!
//! # Snapshot swap
//!
//! A `Reload` control frame (or the snapshot-file mtime watcher, see
//! [`ServerConfig::watch_interval`]) loads and validates the new
//! snapshot **off to the side**, on the one thread that took the request
//! ([`Cores::Caller`](congest_oracle::Cores::Caller)) so the serving
//! generation keeps the other cores, then [`GenerationCell::swap`]
//! publishes it. Handlers take one generation per batch, so a swap never
//! tears a batch and never drops an in-flight query; the old snapshot is
//! freed when its last batch finishes. A failed reload leaves the previous
//! generation serving and answers `Internal`.
//!
//! # Example
//!
//! See `examples/serve_tcp.rs` for the end-to-end loop; the short
//! version:
//!
//! ```no_run
//! use congest_serve::{Client, Server, ServerConfig};
//! use congest_oracle::{EngineConfig, Oracle, QueryEngine};
//! use congest_graph::generators::{gnm_connected, WeightDist};
//! use congest_graph::seq::apsp_dijkstra;
//! use std::sync::Arc;
//!
//! let g = gnm_connected(64, 256, true, WeightDist::Uniform(1, 100), 7);
//! let oracle = Arc::new(Oracle::from_dist(&g, apsp_dijkstra(&g)));
//! let engine = Arc::new(QueryEngine::new(oracle, EngineConfig::default()));
//! let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())?;
//!
//! let mut client = Client::<u64>::connect(server.local_addr())?;
//! let mut batch = client.batch();
//! batch.dist(0, 63);
//! batch.path(0, 63);
//! let replies = batch.send()?;
//! assert_eq!(replies.len(), 2);
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod cell;
pub mod chaos;
pub mod client;
pub mod proto;
pub mod server;

pub use cell::{Generation, GenerationCell};
pub use chaos::{ChaosProxy, ChaosSpec};
pub use client::{
    Batch, Client, ClientError, Reply, ReplyBody, ResilienceStats, ResilientClient, ResilientOp,
    RetryPolicy, DEFAULT_HANDSHAKE_TIMEOUT,
};
pub use proto::{HealthReport, ProtocolError, Status};
pub use server::{BackendMode, ServeError, Server, ServerConfig, ServerHandle};
