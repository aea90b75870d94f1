//! The round-synchronous CONGEST engine, built on a zero-allocation,
//! double-buffered message plane.
//!
//! Model (paper §1.1): n nodes communicate over the *underlying undirected
//! graph* of the input in synchronous rounds. In each round every node may
//! send one O(log n)-bit message along each incident channel; messages
//! sent in round r are received in round r+1. Nodes have unbounded local
//! computation.
//!
//! The engine enforces the model mechanically: a node addresses a message
//! by the index of a neighbor, so it cannot reach a non-neighbor, and a
//! second message on one channel in one round aborts the simulation with
//! [`SimError::BandwidthExceeded`]. A protocol that compiles *and runs* is
//! therefore a legal CONGEST algorithm, and its measured round count is
//! the quantity the paper bounds.
//!
//! ## The message plane
//!
//! Every phase of the APSP pipeline executes through [`Engine::run`], so
//! its per-round constant factor multiplies the paper's Õ(n^{4/3}) round
//! counts. The round loop therefore performs **no heap allocation in
//! steady state**; all buffers are sized once per phase from the topology
//! and reused every round:
//!
//! * **Send side** — [`Topology`] stores the communication graph in CSR
//!   form: one flat sorted neighbor array plus per-node offsets. Each
//!   *directed channel* (v, i-th neighbor of v) owns one message slot in
//!   a flat `out` array; [`Outbox::send_nbr`] writes a message straight
//!   into the sender's slot for neighbor index i, and a slot that is
//!   already full is the bandwidth violation.
//! * **Receive side** — delivery walks each receiver's channel slots via
//!   the precomputed reverse-channel index ([`Topology`] knows, for every
//!   channel (v → u), where (u ← v) lives in u's row) and compacts the
//!   messages into one flat envelope array with per-node offsets. Since a
//!   node's channel slots are ordered by neighbor id, the compacted inbox
//!   is automatically **sender-id sorted** — the deterministic receive
//!   order the protocols rely on. Two such arrays (current/next) are
//!   swapped each round: the classic double buffer.
//! * **Stepping** — every round steps the nodes in id order on the
//!   calling thread. A node's step reads its inbox and writes only its
//!   own channel slots, so the order of steps within a round never changes
//!   a result; it only fixes which error is reported when several nodes
//!   fail in one round (the lowest id's).
//! * **Accounting** — in-flight messages are the length of the current
//!   envelope array (O(1)), not a per-round sum over all inboxes. Protocol
//!   activity is tracked the same way: instead of an O(n) scan of
//!   [`NodeLogic::active`] per round, the engine caches each node's flag
//!   and adjusts a counter as nodes step, so the quiescence check is O(1)
//!   and the maintenance cost is O(nodes whose activity changed).

use crate::error::SimError;
use crate::fault::{FaultCounters, FaultPlan, FaultSpec, MsgFault};
use crate::metrics::PhaseReport;
use congest_graph::{Graph, NodeId, Weight};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Communication topology in CSR form: the undirected adjacency over which
/// messages flow, with precomputed reverse-channel indices. Extracted from
/// a [`Graph`] so the engine is weight-agnostic.
#[derive(Clone, Debug)]
pub struct Topology {
    /// `off[v]..off[v+1]` delimits v's row in `adj` (and v's channel slots).
    off: Vec<u32>,
    /// Flat neighbor array; each row sorted ascending.
    adj: Vec<NodeId>,
    /// `rev[s]` for slot `s` = (v, u): the slot of the reverse channel
    /// (u, v) in u's row. Delivery walks a receiver's slots through this.
    rev: Vec<u32>,
}

impl Topology {
    /// Builds the communication topology of `g` (union of in/out adjacency;
    /// §1.1: channels are bidirectional even for directed inputs).
    #[must_use]
    pub fn from_graph<W: Weight>(g: &Graph<W>) -> Self {
        Self::from_adjacency(g.n(), |v| g.comm_neighbors(v))
    }

    /// Builds a topology from any sorted, symmetric adjacency accessor
    /// (a graph's, or a spanning tree's: [`crate::primitives::BfsTree::channels`]).
    pub(crate) fn from_adjacency<'a>(
        n: usize,
        neighbors_of: impl Fn(NodeId) -> &'a [NodeId],
    ) -> Self {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0u32);
        let mut adj: Vec<NodeId> = Vec::new();
        for v in 0..n as NodeId {
            let row = neighbors_of(v);
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "adjacency rows must be sorted");
            adj.extend_from_slice(row);
            let total = u32::try_from(adj.len()).expect("channel count exceeds u32");
            off.push(total);
        }
        // Reverse-channel index: for slot s = (v, u), find v in u's row.
        let mut rev = vec![0u32; adj.len()];
        for v in 0..n {
            let (lo, hi) = (off[v] as usize, off[v + 1] as usize);
            for s in lo..hi {
                let u = adj[s] as usize;
                let urow = &adj[off[u] as usize..off[u + 1] as usize];
                let i = urow
                    .binary_search(&(v as NodeId))
                    .expect("communication adjacency must be symmetric");
                rev[s] = off[u] + u32::try_from(i).expect("row length exceeds u32");
            }
        }
        Topology { off, adj, rev }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.off.len() - 1
    }

    /// Total number of *directed* channels (twice the undirected edges).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.adj.len()
    }

    /// Sorted neighbor list of `v`.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    /// Degree of `v` in the communication graph.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.off[v as usize + 1] - self.off[v as usize]) as usize
    }
}

/// A received message with its sender.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// The neighbor that sent this message in the previous round.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// Read-only per-node view passed to [`NodeLogic::on_round`].
#[derive(Debug)]
pub struct NodeEnv<'a> {
    /// This node's id.
    pub id: NodeId,
    /// Total number of nodes (global knowledge of n is standard in CONGEST).
    pub n: usize,
    /// Current round number, starting at 0.
    pub round: u64,
    /// Sorted neighbor ids.
    pub neighbors: &'a [NodeId],
}

impl NodeEnv<'_> {
    /// Position of neighbor `id` in [`NodeEnv::neighbors`], usable with
    /// [`Outbox::send_nbr`]. `None` if `id` is not a neighbor.
    #[must_use]
    pub fn neighbor_index(&self, id: NodeId) -> Option<usize> {
        self.neighbors.binary_search(&id).ok()
    }
}

/// Per-round send view of one node: one message slot per incident
/// channel, written directly into the flat message plane.
pub struct Outbox<'a, M> {
    from: NodeId,
    round: u64,
    neighbors: &'a [NodeId],
    /// This node's `deg` channel slots, in [`NodeEnv::neighbors`] order.
    slots: &'a mut [Option<M>],
    error: Option<SimError>,
}

impl<M> Outbox<'_, M> {
    /// Queues `msg` for the neighbor at position `ni` of
    /// [`NodeEnv::neighbors`] (see [`NodeEnv::neighbor_index`]), to be
    /// delivered next round.
    ///
    /// A second message on the same channel in one round is recorded as
    /// [`SimError::BandwidthExceeded`] and aborts the simulation at the
    /// end of the round; the first violation wins and later sends are
    /// ignored.
    ///
    /// # Panics
    /// Panics if `ni` is not below the node's degree (a protocol bug, not
    /// a CONGEST violation — there is no node the message could even be
    /// addressed to); the engine reports it as [`SimError::NodePanic`].
    pub fn send_nbr(&mut self, ni: usize, msg: M) {
        if self.error.is_some() {
            return;
        }
        let slot = &mut self.slots[ni];
        if slot.is_some() {
            self.error = Some(SimError::BandwidthExceeded {
                from: self.from,
                to: self.neighbors[ni],
                round: self.round,
            });
            return;
        }
        *slot = Some(msg);
    }

    /// Sends a copy of `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for ni in 0..self.neighbors.len() {
            self.send_nbr(ni, msg.clone());
        }
    }
}

/// Node-local protocol logic. One value of the implementing type exists per
/// node; the engine guarantees it only ever touches its own state, its
/// inbox, and its outbox — exactly the CONGEST information boundary.
pub trait NodeLogic {
    /// Message type exchanged by this protocol. One `Msg` models O(1)
    /// machine words (ids, weights, distance values), matching the paper's
    /// bandwidth assumption.
    type Msg: Clone + 'static;

    /// Called once per round. Round 0 has an empty inbox (initialization);
    /// in round r > 0 the inbox holds exactly the messages sent to this
    /// node in round r-1, ordered by sender id.
    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<Self::Msg>],
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// `true` while this node still intends to send in a future round even
    /// if it receives nothing (e.g. it holds queued relay messages).
    /// Reactive protocols can use the default `false`; quiescence is then
    /// "no messages in flight".
    ///
    /// **Contract:** the returned value must be a pure function of the
    /// node's own state and may only change as a result of this node's
    /// [`on_round`](NodeLogic::on_round). The engine samples it once per
    /// step and tracks flips incrementally (the O(1) quiescence check), so
    /// a value driven by interior mutability, time, or anything outside
    /// `on_round` would leave the engine's activity counter stale.
    fn active(&self) -> bool {
        false
    }

    /// On-wire width of one message, in O(log n)-bit machine words: each
    /// node id, weight, hop count, or counter in the payload counts as one
    /// word. The engine charges this into [`PhaseReport::payload_words`]
    /// and tracks the per-phase maximum in
    /// [`PhaseReport::max_msg_words`], so a protocol that grows its
    /// payload (e.g. distance messages that also carry a first-hop id for
    /// successor tracking) is visible in the accounting — and one that
    /// exceeds the CONGEST O(1)-words-per-message budget can be asserted
    /// against. The default models the classic one-word message.
    ///
    /// **Contract:** the width must be a pure function of the message
    /// value (and protocol-wide configuration replicated at every node);
    /// the engine may evaluate it at the receiver.
    fn msg_words(&self, msg: &Self::Msg) -> u32 {
        let _ = msg;
        1
    }

    /// Fault-plane corruption hook: mutate `msg` in place into a different
    /// but *in-domain* payload (stay within the CONGEST word budget and
    /// never produce a value that could index out of bounds at the
    /// receiver), deterministically from `entropy`, and return `true`.
    /// The default returns `false` — "this protocol cannot reinterpret a
    /// damaged frame" — and the engine then drops the message instead
    /// (modeled as a failed payload checksum), counting it as dropped
    /// rather than corrupted.
    ///
    /// **Contract:** like [`msg_words`](NodeLogic::msg_words), this must
    /// be a pure function of `(msg, entropy)` and protocol-wide
    /// configuration; the engine evaluates it at the receiver during the
    /// delivery pass.
    fn corrupt_msg(&self, msg: &mut Self::Msg, entropy: u64) -> bool {
        let _ = (msg, entropy);
        false
    }
}

/// How long to run a phase.
#[derive(Copy, Clone, Debug)]
pub enum RunUntil {
    /// Run exactly this many rounds; error if the protocol is still busy
    /// afterwards, so a test can check a protocol against an analytical
    /// bound.
    Exact(u64),
    /// Run until no messages are in flight and no node is active, erroring
    /// at `max` rounds: how every pipeline phase runs.
    Quiesce {
        /// Safety budget.
        max: u64,
    },
}

/// Engine configuration.
#[derive(Copy, Clone, Debug, Default)]
pub struct SimConfig {
    /// Optional seeded fault model (see [`crate::fault`]). `None` — or a
    /// spec with every rate zero — installs no fault plan, so every
    /// message is delivered. Because the spec rides inside the config,
    /// every primitive and algorithm built on the engine inherits faults
    /// without per-call-site changes.
    pub fault: Option<FaultSpec>,
}

/// The flat double-buffered message plane for one phase. All vectors are
/// sized once from the topology; the round loop only writes in place,
/// `clear()`s (capacity-preserving) and swaps.
struct Plane<M> {
    /// One message slot per directed channel (send side).
    out: Vec<Option<M>>,
    /// Compacted inbox being *read* this round, grouped by receiver,
    /// each group sorted by sender id.
    cur_buf: Vec<Envelope<M>>,
    /// `cur_off[v]..cur_off[v+1]` delimits v's inbox in `cur_buf`.
    cur_off: Vec<u32>,
    /// The buffers being *written* during delivery; swapped into place at
    /// the end of every round.
    next_buf: Vec<Envelope<M>>,
    next_off: Vec<u32>,
}

impl<M> Plane<M> {
    fn new(topo: &Topology) -> Self {
        Plane {
            out: (0..topo.channels()).map(|_| None).collect(),
            cur_buf: Vec::new(),
            cur_off: vec![0; topo.n() + 1],
            next_buf: Vec::new(),
            next_off: vec![0; topo.n() + 1],
        }
    }

    /// Messages currently in flight (delivered last round, readable this
    /// round). O(1) — this replaces the old per-round sum over all inboxes.
    fn in_flight(&self) -> usize {
        self.cur_buf.len()
    }

    /// Moves every queued message from the send slots into the next inbox
    /// buffer, grouped by receiver and sorted by sender, resetting the
    /// send side for the next round.
    ///
    /// `fate` is consulted once per message (sender, receiver, payload)
    /// and may mutate the payload in place; returning `false` discards the
    /// message. Sends are charged into `node_sent` either way (the channel
    /// was used), but only surviving messages count in the returned
    /// delivered total.
    fn deliver(
        &mut self,
        topo: &Topology,
        node_sent: &mut [u64],
        mut fate: impl FnMut(NodeId, NodeId, &mut M) -> bool,
    ) -> u64 {
        self.next_buf.clear();
        self.next_off[0] = 0;
        let mut delivered = 0u64;
        for u in 0..topo.n() {
            let (lo, hi) = (topo.off[u] as usize, topo.off[u + 1] as usize);
            for s in lo..hi {
                // Slot s is the channel u ← adj[s]; its send side lives at
                // the reverse slot in the sender's row.
                if let Some(mut msg) = self.out[topo.rev[s] as usize].take() {
                    let from = topo.adj[s];
                    node_sent[from as usize] += 1;
                    if fate(from, u as NodeId, &mut msg) {
                        delivered += 1;
                        self.next_buf.push(Envelope { from, msg });
                    }
                }
            }
            self.next_off[u + 1] =
                u32::try_from(self.next_buf.len()).expect("in-flight messages exceed u32");
        }
        std::mem::swap(&mut self.cur_buf, &mut self.next_buf);
        std::mem::swap(&mut self.cur_off, &mut self.next_off);
        delivered
    }
}

/// The round-loop executor for one protocol phase over a fixed topology.
pub struct Engine<'t> {
    topo: &'t Topology,
    plan: Option<FaultPlan>,
}

impl<'t> Engine<'t> {
    /// Creates an engine over `topo`. A fault spec in `cfg` (with at least
    /// one non-zero rate) becomes the engine's seeded fault plan.
    #[must_use]
    pub fn new(topo: &'t Topology, cfg: SimConfig) -> Self {
        let plan = cfg.fault.filter(FaultSpec::is_active).map(FaultPlan::Seeded);
        Engine { topo, plan }
    }

    /// Replaces the fault plan (e.g. with an explicit
    /// [`FaultPlan::Script`] in tests). Overrides whatever `cfg.fault`
    /// installed.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Runs one protocol phase: `nodes[v]` is node v's logic. Returns the
    /// phase report (unnamed; callers label it via
    /// [`crate::Recorder::record`]).
    ///
    /// Observability: the report's `wall_ns` is always populated (two
    /// `Instant` reads per phase — it never participates in report
    /// equality); when the global `congest_telemetry` plane is enabled
    /// the phase additionally runs inside an `engine.run` span whose
    /// arguments carry its rounds, messages and payload words.
    ///
    /// # Errors
    /// Propagates CONGEST violations and budget exhaustion as [`SimError`].
    pub fn run<N: NodeLogic>(
        &self,
        nodes: &mut [N],
        until: RunUntil,
    ) -> Result<PhaseReport, SimError> {
        let phase_start = std::time::Instant::now();
        let span = congest_telemetry::with(|t| t.span_start("engine.run"));
        let mut result = self.run_inner(nodes, until);
        let wall_ns = u64::try_from(phase_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Ok(rep) = &mut result {
            rep.wall_ns = wall_ns;
        }
        if let Some(id) = span {
            let attrs = match &result {
                Ok(rep) => vec![
                    ("rounds".to_string(), rep.rounds.to_string()),
                    ("messages".to_string(), rep.messages.to_string()),
                    ("payload_words".to_string(), rep.payload_words.to_string()),
                ],
                Err(e) => vec![("error".to_string(), e.to_string())],
            };
            congest_telemetry::global().span_end_with(id, attrs);
        }
        result
    }

    /// [`run`](Self::run) minus the phase-level timing and telemetry
    /// wrapper (the returned report's `wall_ns` stays 0). Exists only so
    /// the overhead-guard bench can measure what the instrumentation
    /// costs when telemetry is disabled; everything else should call
    /// `run`.
    ///
    /// # Errors
    /// Propagates CONGEST violations and budget exhaustion as [`SimError`].
    #[doc(hidden)]
    pub fn run_uninstrumented<N: NodeLogic>(
        &self,
        nodes: &mut [N],
        until: RunUntil,
    ) -> Result<PhaseReport, SimError> {
        self.run_inner(nodes, until)
    }

    fn run_inner<N: NodeLogic>(
        &self,
        nodes: &mut [N],
        until: RunUntil,
    ) -> Result<PhaseReport, SimError> {
        let n = self.topo.n();
        assert_eq!(nodes.len(), n, "one NodeLogic per topology node");

        let mut plane: Plane<N::Msg> = Plane::new(self.topo);
        let mut node_sent = vec![0u64; n];
        let mut messages: u64 = 0;
        let mut rounds: u64 = 0;
        let mut peak_in_flight: u64 = 0;
        let mut payload_words: u64 = 0;
        let mut max_msg_words: u32 = 0;

        // Active-set tracking: one O(n) scan up front, then incremental.
        // `active_flags[i]` caches node i's last-known `active()`, and
        // `active_count` follows its flips as nodes step.
        let mut active_flags: Vec<bool> = nodes.iter().map(N::active).collect();
        let mut active_count: usize = active_flags.iter().filter(|&&f| f).count();

        // Fault plane: all decisions are pure hashes of the plan, so every
        // run and every retry observes the identical pattern.
        let plan = self.plan.as_ref();
        let mut faults = FaultCounters::default();
        let node_faults = plan.is_some_and(FaultPlan::has_node_faults);
        let mut down: Vec<bool> = vec![false; if node_faults { n } else { 0 }];

        let budget = match until {
            RunUntil::Exact(r) => r,
            RunUntil::Quiesce { max } => max,
        };

        loop {
            let in_flight = plane.in_flight();
            let anyone_active = active_count > 0;
            match until {
                RunUntil::Exact(r) => {
                    if rounds >= r {
                        if in_flight > 0 || anyone_active {
                            return Err(SimError::RoundBudgetExhausted { budget });
                        }
                        break;
                    }
                }
                RunUntil::Quiesce { max } => {
                    if rounds > 0 && in_flight == 0 && !anyone_active {
                        break;
                    }
                    if rounds >= max {
                        return Err(SimError::RoundBudgetExhausted { budget });
                    }
                }
            }

            // Crash plane: recompute the down set at the round boundary. A
            // down node neither steps nor reads the messages that arrived
            // this round (they vanish when the inbox buffers swap); its
            // local state survives for the eventual warm restart.
            if node_faults {
                let plan = plan.expect("node_faults implies a plan");
                for (v, d) in down.iter_mut().enumerate() {
                    *d = plan.node_down(v as NodeId, rounds);
                    if *d {
                        faults.crashed_rounds += 1;
                        faults.injected += 1;
                    }
                }
            }

            // Step every node for round `rounds`, in id order. Each node
            // reads its inbox from the current buffer and writes only its
            // own channel slots. The whole round steps even after a node
            // fails; then the first error, the lowest id's, is returned.
            let Plane { out, cur_buf, cur_off, .. } = &mut plane;
            let mut error: Option<SimError> = None;
            for (i, node) in nodes.iter_mut().enumerate() {
                if node_faults && down[i] {
                    continue;
                }
                let id = i as NodeId;
                let neighbors = self.topo.neighbors(id);
                let (lo, hi) = (self.topo.off[i] as usize, self.topo.off[i + 1] as usize);
                let inbox = &cur_buf[cur_off[i] as usize..cur_off[i + 1] as usize];
                let env = NodeEnv { id, n, round: rounds, neighbors };
                let mut out = Outbox {
                    from: id,
                    round: rounds,
                    neighbors,
                    slots: &mut out[lo..hi],
                    error: None,
                };
                // Panic containment: a panicking protocol surfaces as a
                // typed error attributed to its node. The partially written
                // outbox is harmless: the run aborts before the delivery
                // pass. (AssertUnwindSafe: the node's state may be torn,
                // but it is never stepped or asked for `active()` again.)
                let stepped =
                    catch_unwind(AssertUnwindSafe(|| node.on_round(&env, inbox, &mut out)));
                if stepped.is_err() {
                    error.get_or_insert(SimError::NodePanic { node: id, round: rounds });
                    continue;
                }
                if let Some(e) = out.error {
                    error.get_or_insert(e);
                }
                // Activity flip tracking: a node's `active()` only changes
                // inside its own `on_round`, so comparing against the
                // cached flag here keeps the counter exact without any
                // per-round global scan.
                let now = node.active();
                if now != active_flags[i] {
                    active_flags[i] = now;
                    if now {
                        active_count += 1;
                    } else {
                        active_count -= 1;
                    }
                }
            }
            if let Some(err) = error {
                return Err(err);
            }

            // Deliver into the next buffer and swap: receive order is
            // sender-id sorted by construction of the slot walk. With a
            // fault plan, each message's fate is decided here — the single
            // injection point every protocol inherits.
            let delivered = match plan {
                None => plane.deliver(self.topo, &mut node_sent, |_, _, _| true),
                Some(plan) => {
                    let nodes_ro: &[N] = nodes;
                    plane.deliver(self.topo, &mut node_sent, |from, to, msg: &mut N::Msg| {
                        match plan.message_fault(rounds, from, to) {
                            None => true,
                            Some(MsgFault::Drop { flap }) => {
                                faults.dropped += 1;
                                faults.injected += 1;
                                if flap {
                                    faults.flapped += 1;
                                }
                                false
                            }
                            Some(MsgFault::Corrupt { entropy }) => {
                                if nodes_ro[to as usize].corrupt_msg(msg, entropy) {
                                    faults.corrupted += 1;
                                    faults.injected += 1;
                                    true
                                } else {
                                    // Protocol can't mutate this payload:
                                    // model the corruption as a frame that
                                    // failed its checksum and was discarded.
                                    faults.dropped += 1;
                                    faults.injected += 1;
                                    false
                                }
                            }
                        }
                    })
                }
            };
            messages += delivered;
            peak_in_flight = peak_in_flight.max(delivered);
            // Charge payload widths for the just-delivered messages (they
            // now sit in the current inbox buffer, grouped by receiver).
            if delivered > 0 {
                for (v, node) in nodes.iter().enumerate() {
                    let (lo, hi) = (plane.cur_off[v] as usize, plane.cur_off[v + 1] as usize);
                    for e in &plane.cur_buf[lo..hi] {
                        let w = node.msg_words(&e.msg);
                        payload_words += u64::from(w);
                        max_msg_words = max_msg_words.max(w);
                    }
                }
            }
            rounds += 1;
        }

        Ok(PhaseReport {
            name: String::new(),
            rounds,
            messages,
            max_node_congestion: node_sent.iter().copied().max().unwrap_or(0),
            node_sent,
            peak_in_flight,
            payload_words,
            max_msg_words,
            faults,
            wall_ns: 0, // populated by the `run` wrapper
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, path, WeightDist};

    /// Floods a token from node 0; each node records the round it was reached.
    struct Flood {
        reached: Option<u64>,
        is_root: bool,
        sent: bool,
    }

    impl NodeLogic for Flood {
        type Msg = ();
        fn on_round(
            &mut self,
            env: &NodeEnv<'_>,
            inbox: &[Envelope<()>],
            out: &mut Outbox<'_, ()>,
        ) {
            if env.round == 0 && self.is_root {
                self.reached = Some(0);
            }
            if self.reached.is_none() && !inbox.is_empty() {
                self.reached = Some(env.round);
            }
            if self.reached.is_some() && !self.sent {
                out.broadcast(());
                self.sent = true;
            }
        }
    }

    fn flood_nodes(n: usize) -> Vec<Flood> {
        (0..n).map(|i| Flood { reached: None, is_root: i == 0, sent: false }).collect()
    }

    #[test]
    fn flood_on_path_takes_hop_distance_rounds() {
        let g = path(6, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = flood_nodes(6);
        let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 100 }).unwrap();
        for (i, nd) in nodes.iter().enumerate() {
            assert_eq!(nd.reached, Some(i as u64), "node {i}");
        }
        // 6 rounds of sending (0..=5), plus the delivery round for the tail.
        assert!(report.rounds >= 6 && report.rounds <= 7, "rounds = {}", report.rounds);
        // each node broadcasts exactly once
        assert_eq!(report.messages, 2 * 5);
    }

    #[test]
    fn exact_budget_checks_completion() {
        let g = path(4, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = flood_nodes(4);
        // Too few rounds: flood still in flight -> error.
        let err = engine.run(&mut nodes, RunUntil::Exact(2)).unwrap_err();
        assert!(matches!(err, SimError::RoundBudgetExhausted { .. }));
        let mut nodes = flood_nodes(4);
        assert!(engine.run(&mut nodes, RunUntil::Exact(10)).is_ok());
    }

    /// In round 1, node 2 sends on channel index `deg`, one past its last
    /// neighbor. Every node stays active, so the run reaches round 1.
    struct PastDegree;
    impl NodeLogic for PastDegree {
        type Msg = u8;
        fn on_round(&mut self, env: &NodeEnv<'_>, _ib: &[Envelope<u8>], out: &mut Outbox<'_, u8>) {
            if env.round == 1 && env.id == 2 {
                out.send_nbr(env.neighbors.len(), 1);
            }
        }
        fn active(&self) -> bool {
            true
        }
    }

    #[test]
    fn send_past_degree_is_a_node_panic() {
        let g = path(4, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = vec![PastDegree, PastDegree, PastDegree, PastDegree];
        let err = engine.run(&mut nodes, RunUntil::Quiesce { max: 10 }).unwrap_err();
        assert_eq!(err, SimError::NodePanic { node: 2, round: 1 });
    }

    struct OverSender;
    impl NodeLogic for OverSender {
        type Msg = u8;
        fn on_round(&mut self, env: &NodeEnv<'_>, _ib: &[Envelope<u8>], out: &mut Outbox<'_, u8>) {
            if env.round == 0 && env.id == 0 {
                let ni = env.neighbor_index(1).expect("1 is a neighbor of 0");
                out.send_nbr(ni, 1);
                out.send_nbr(ni, 2); // second message on the same channel
            }
        }
    }

    #[test]
    fn bandwidth_enforced() {
        let g = path(2, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = vec![OverSender, OverSender];
        let err = engine.run(&mut nodes, RunUntil::Quiesce { max: 10 }).unwrap_err();
        assert_eq!(err, SimError::BandwidthExceeded { from: 0, to: 1, round: 0 });
    }

    /// Every node breaks the one-message-per-channel limit in round 1.
    #[derive(Clone)]
    struct EveryoneViolates;
    impl NodeLogic for EveryoneViolates {
        type Msg = u8;
        fn on_round(&mut self, env: &NodeEnv<'_>, _ib: &[Envelope<u8>], out: &mut Outbox<'_, u8>) {
            if env.round == 1 {
                // Second message on one channel: illegal everywhere.
                out.send_nbr(0, 1);
                out.send_nbr(0, 2);
            } else if env.round == 0 {
                out.broadcast(0);
            }
        }
    }

    #[test]
    fn first_violation_wins_deterministically() {
        let g = gnm_connected(17, 20, false, WeightDist::Unit, 4);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = vec![EveryoneViolates; 17];
        let err = engine.run(&mut nodes, RunUntil::Quiesce { max: 10 }).unwrap_err();
        let to = topo.neighbors(0)[0];
        assert_eq!(err, SimError::BandwidthExceeded { from: 0, to, round: 1 });
    }

    struct Echoer {
        budget: u32,
    }
    impl NodeLogic for Echoer {
        type Msg = u32;
        fn on_round(
            &mut self,
            env: &NodeEnv<'_>,
            inbox: &[Envelope<u32>],
            out: &mut Outbox<'_, u32>,
        ) {
            if env.round == 0 && env.id == 0 {
                out.send_nbr(0, 0);
                return;
            }
            for e in inbox {
                if self.budget > 0 {
                    self.budget -= 1;
                    let ni = env.neighbor_index(e.from).expect("senders are neighbors");
                    out.send_nbr(ni, e.msg + 1);
                }
            }
        }
    }

    #[test]
    fn quiesce_stops_when_echoes_exhaust() {
        let g = path(2, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = vec![Echoer { budget: 3 }, Echoer { budget: 3 }];
        let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 100 }).unwrap();
        // 1 initial send + 6 echoes (3 per node), each in its own round.
        assert_eq!(report.messages, 7);
        assert_eq!(report.rounds, 8);
        assert_eq!(report.max_node_congestion(), 4);
        assert_eq!(report.peak_in_flight, 1);
        // Default width: one word per message.
        assert_eq!(report.payload_words, 7);
        assert_eq!(report.max_msg_words, 1);
    }

    #[test]
    fn payload_words_charged_per_message() {
        struct Wide;
        impl NodeLogic for Wide {
            type Msg = (u32, u32, u32);
            fn on_round(
                &mut self,
                env: &NodeEnv<'_>,
                _ib: &[Envelope<Self::Msg>],
                out: &mut Outbox<'_, Self::Msg>,
            ) {
                if env.round == 0 {
                    out.broadcast((1, 2, 3));
                }
            }
            fn msg_words(&self, _msg: &Self::Msg) -> u32 {
                3
            }
        }
        let g = path(3, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = vec![Wide, Wide, Wide];
        let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 10 }).unwrap();
        // 4 directed channels, each crossed once, 3 words each.
        assert_eq!(report.messages, 4);
        assert_eq!(report.payload_words, 12);
        assert_eq!(report.max_msg_words, 3);
    }

    #[test]
    fn inbox_ordered_by_sender() {
        struct Collect {
            seen: Vec<NodeId>,
        }
        impl NodeLogic for Collect {
            type Msg = ();
            fn on_round(
                &mut self,
                env: &NodeEnv<'_>,
                inbox: &[Envelope<()>],
                out: &mut Outbox<'_, ()>,
            ) {
                if env.round == 0 && env.id != 2 {
                    out.send_nbr(env.neighbor_index(2).expect("2 is the center"), ());
                }
                if env.id == 2 {
                    self.seen.extend(inbox.iter().map(|e| e.from));
                }
            }
        }
        // star with center 2
        let g = congest_graph::Graph::<u64>::from_edges(
            4,
            false,
            vec![
                congest_graph::Edge::new(0, 2, 1),
                congest_graph::Edge::new(1, 2, 1),
                congest_graph::Edge::new(3, 2, 1),
            ],
        );
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes: Vec<Collect> = (0..4).map(|_| Collect { seen: vec![] }).collect();
        engine.run(&mut nodes, RunUntil::Quiesce { max: 10 }).unwrap();
        assert_eq!(nodes[2].seen, vec![0, 1, 3]);
    }

    #[test]
    fn send_nbr_and_send_agree() {
        struct ByIndex;
        impl NodeLogic for ByIndex {
            type Msg = u32;
            fn on_round(
                &mut self,
                env: &NodeEnv<'_>,
                _ib: &[Envelope<u32>],
                out: &mut Outbox<'_, u32>,
            ) {
                if env.round == 0 {
                    for ni in 0..env.neighbors.len() {
                        out.send_nbr(ni, env.id);
                    }
                }
            }
        }
        let g = path(5, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes = vec![ByIndex, ByIndex, ByIndex, ByIndex, ByIndex];
        let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 10 }).unwrap();
        assert_eq!(report.messages, 8); // every directed path channel once
    }

    #[test]
    fn topology_csr_shape() {
        let g = path(4, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        assert_eq!(topo.n(), 4);
        assert_eq!(topo.channels(), 6);
        assert_eq!(topo.neighbors(1), &[0, 2]);
        assert_eq!(topo.degree(0), 1);
        assert_eq!(topo.neighbors(3), &[2]);
        // Reverse-channel index round-trips.
        for v in 0..4usize {
            for s in topo.off[v] as usize..topo.off[v + 1] as usize {
                let u = topo.adj[s] as usize;
                let rs = topo.rev[s] as usize;
                assert!((topo.off[u] as usize..topo.off[u + 1] as usize).contains(&rs));
                assert_eq!(topo.adj[rs], v as NodeId);
                assert_eq!(topo.rev[rs] as usize, s);
            }
        }
    }
}
