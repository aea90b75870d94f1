//! Step 6 of Algorithm 1: the reversed q-sink shortest paths problem (§4).
//!
//! Every node x holds δ(x, c) for every blocker c ∈ Q (computed locally in
//! Step 5); the values must reach their blockers. The paper splits by the
//! hop-length of the shortest path:
//!
//! * **Far case** (Algorithm 8, hops > n^{2/3}): a second-level blocker
//!   set Q′ over the n^{2/3}-in-CSSSP of Q; full SSSPs from each c′ ∈ Q′
//!   and one broadcast of the (x, c′) table let each c combine
//!   δ(x,c′) + δ(c′,c) locally.
//! * **Near case** (Algorithm 9, hops ≤ n^{2/3}): prune bottleneck nodes B
//!   (Algorithm 13) so per-node congestion drops to n·√|Q|, handle pruned
//!   sources via B exactly like the far case, then push the remaining
//!   values up the in-trees with the simple cyclic **round-robin** of
//!   Steps 8–9 — the paper's second main contribution. Algorithm 10's
//!   frames/stages are the analysis; we instrument the run with
//!   per-checkpoint "active tree" counts to reproduce the Lemma 4.8
//!   progress measure (experiment F3).

use crate::bf::run_full_sssp;
use crate::blocker::alg2_blocker;
use crate::bottleneck::{compute_bottlenecks, BottleneckResult};
use crate::config::{ApspConfig, Charging};
use crate::csssp::build_csssp;
use congest_derand::Selection;
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{
    Engine, Envelope, NodeEnv, NodeLogic, Outbox, Recorder, RunUntil, SimConfig, SimError, Topology,
};
use std::collections::VecDeque;

/// Queue discipline of the near-case push (Step 9 uses round-robin; the
/// alternatives exist for the F4 ablation of this design choice).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PushDiscipline {
    /// The paper's cyclic round-robin over the blocker order O.
    #[default]
    RoundRobin,
    /// Always drain the lowest-indexed nonempty queue first (no fairness).
    FixedPriority,
    /// Always serve the longest queue (greedy load heuristic).
    LongestFirst,
}

/// A value table paired with a first-hop plane of the same shape — the
/// routing-aware currency of Steps 5–7.
///
/// `dist[r][c]` is a distance whose path starts at some origin node
/// (conventionally the *source* coordinate of the table: row `x` for the
/// n×|Q| `dvals` table, column `x` for the |Q|×n blocker table), and
/// `first_at(r, c)` is the first edge out of that origin on a path
/// realizing the value ([`NO_SUCC`] for zero-length paths, unreachable
/// pairs, or cells nobody routed). Keeping the two planes together is what
/// lets Step 6 deliver *routed* distances to the blockers and Step 7 seed
/// its extension runs with paths anchored at the true origin.
#[derive(Clone, Debug)]
pub struct RoutedTable<W> {
    /// The value table.
    pub dist: DistMatrix<W>,
    /// The parallel first-hop plane (row-major, same shape).
    pub first: Box<[NodeId]>,
}

impl<W: Weight> RoutedTable<W> {
    /// Wraps a table with an empty ([`NO_SUCC`]-filled) first-hop plane.
    #[must_use]
    pub fn new(dist: DistMatrix<W>) -> Self {
        let cells = dist.rows() * dist.cols();
        RoutedTable { dist, first: vec![NO_SUCC; cells].into_boxed_slice() }
    }

    /// First hop recorded for cell `(r, c)`.
    ///
    /// # Panics
    /// Panics if `(r, c)` is out of range.
    #[inline]
    #[must_use]
    pub fn first_at(&self, r: usize, c: usize) -> NodeId {
        let (rows, cols) = (self.dist.rows(), self.dist.cols());
        assert!(r < rows && c < cols, "cell ({r}, {c}) out of range");
        self.first[r * cols + c]
    }

    /// Records `first` for cell `(r, c)`.
    ///
    /// # Panics
    /// Panics if `(r, c)` is out of range.
    #[inline]
    pub fn set_first(&mut self, r: usize, c: usize, first: NodeId) {
        let (rows, cols) = (self.dist.rows(), self.dist.cols());
        assert!(r < rows && c < cols, "cell ({r}, {c}) out of range");
        self.first[r * cols + c] = first;
    }
}

/// Statistics from one Step-6 run (experiments T3/F3).
#[derive(Clone, Debug, Default)]
pub struct Step6Stats {
    /// |Q′| (far-case second-level blockers).
    pub q_prime_size: usize,
    /// |B| (near-case bottleneck nodes).
    pub b_size: usize,
    /// Max per-node congestion before bottleneck pruning.
    pub congestion_before: u64,
    /// Max per-node congestion after pruning (≤ n√|Q|).
    pub congestion_after: u64,
    /// Rounds spent in the round-robin push.
    pub round_robin_rounds: u64,
    /// Messages forwarded by the round-robin push.
    pub round_robin_messages: u64,
    /// `(round, max over nodes of #blocker-queues still nonempty)` sampled
    /// at powers of two — the empirical Lemma 4.8 progress measure.
    pub progress: Vec<(u64, usize)>,
}

// ---------------------------------------------------------------------
// Round-robin push (Algorithm 9 Steps 6-9 / Algorithm 10)
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct RrMsg<W> {
    qi: u32,
    x: NodeId,
    dist: W,
    /// First hop from `x` on the path realizing `dist`; one extra id word
    /// on the wire.
    first: NodeId,
}

struct RrNode<W> {
    discipline: PushDiscipline,
    /// Per tree: channel index of the parent toward the blocker root
    /// (pre-resolved so the push uses [`Outbox::send_nbr`]).
    parent_ni: Vec<Option<usize>>,
    /// Per tree: FIFO of (source, value, first hop) messages to forward.
    queues: Vec<VecDeque<(NodeId, W, NodeId)>>,
    /// Cyclic pointer into the blocker order O (Step 7).
    ptr: usize,
    outstanding: usize,
    /// Trees this node is the root of.
    root_of: Vec<bool>,
    /// Values received as root: (qi, x, dist, first hop).
    received: Vec<(u32, NodeId, W, NodeId)>,
    /// (round, nonempty-queue count) at power-of-two rounds.
    checkpoints: Vec<(u64, usize)>,
}

impl<W: Weight> NodeLogic for RrNode<W> {
    type Msg = RrMsg<W>;

    fn on_round(
        &mut self,
        env: &NodeEnv<'_>,
        inbox: &[Envelope<RrMsg<W>>],
        out: &mut Outbox<'_, RrMsg<W>>,
    ) {
        for e in inbox {
            let RrMsg { qi, x, dist, first } = e.msg;
            if self.root_of[qi as usize] {
                self.received.push((qi, x, dist, first));
            } else {
                self.queues[qi as usize].push_back((x, dist, first));
                self.outstanding += 1;
            }
        }
        if env.round.is_power_of_two() || env.round == 0 {
            let active = self.queues.iter().filter(|q| !q.is_empty()).count();
            self.checkpoints.push((env.round, active));
        }
        // One unsent message per round; the queue choice is the Step 7-9
        // design decision under ablation.
        let k = self.queues.len();
        let next = match self.discipline {
            PushDiscipline::RoundRobin => {
                (0..k).map(|t| (self.ptr + t) % k).find(|&qi| !self.queues[qi].is_empty())
            }
            PushDiscipline::FixedPriority => (0..k).find(|&qi| !self.queues[qi].is_empty()),
            PushDiscipline::LongestFirst => (0..k)
                .filter(|&qi| !self.queues[qi].is_empty())
                .max_by_key(|&qi| self.queues[qi].len()),
        };
        if let Some(qi) = next {
            let (x, dist, first) = self.queues[qi].pop_front().expect("nonempty");
            let ni = self.parent_ni[qi].expect("queued message implies a parent");
            out.send_nbr(ni, RrMsg { qi: qi as u32, x, dist, first });
            self.ptr = (qi + 1) % k;
            self.outstanding -= 1;
        }
    }

    fn active(&self) -> bool {
        self.outstanding > 0
    }

    fn msg_words(&self, _msg: &Self::Msg) -> u32 {
        // tree index + source id + distance + first-hop id.
        4
    }
}

/// The reversed q-sink propagation: delivers the `n × |Q|` table
/// `dvals.dist[x][qi] = δ(x, q[qi])` with its first-hop plane from every x
/// to blocker `q[qi]`. Returns the routed `|Q| × n` table
/// `out.dist[qi][x]` as known at the blocker (INF where no path exists)
/// plus the stats.
///
/// Every phase runs on `sim`; Q′ is built with `cfg.blocker`'s constants.
///
/// # Errors
/// Propagates engine errors.
pub fn propagate_to_blockers<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    cfg: &ApspConfig,
    sim: SimConfig,
    q: &[NodeId],
    dvals: &RoutedTable<W>,
    rec: &mut Recorder,
) -> Result<(RoutedTable<W>, Step6Stats), SimError> {
    propagate_to_blockers_with(g, topo, cfg, sim, q, dvals, PushDiscipline::RoundRobin, rec)
}

/// [`propagate_to_blockers`] with an explicit near-case queue discipline
/// (F4 ablation).
///
/// # Errors
/// Propagates engine errors.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn propagate_to_blockers_with<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    cfg: &ApspConfig,
    sim: SimConfig,
    q: &[NodeId],
    dvals: &RoutedTable<W>,
    discipline: PushDiscipline,
    rec: &mut Recorder,
) -> Result<(RoutedTable<W>, Step6Stats), SimError> {
    let n = g.n();
    let mut stats = Step6Stats::default();
    let mut out = RoutedTable::new(DistMatrix::filled(q.len(), n, W::INF));
    // A blocker trivially knows its own row entry (a zero-length path: no
    // first hop).
    for (qi, &c) in q.iter().enumerate() {
        out.dist[qi][c as usize] = W::ZERO;
    }
    if q.is_empty() {
        return Ok((out, stats));
    }
    let h2 = cfg.hop_param_sq(n);

    // Shared substrate: the n^{2/3}-in-CSSSP for source set Q (Alg 8
    // Step 1 / Alg 9 input). In-direction trees carry no first hops: the
    // push below forwards the origin's first hop verbatim.
    // Recovery is disabled here on purpose: the solver retries Step 6 as
    // one compound unit, so nested per-tree retries would only skew the
    // per-attempt fault accounting.
    let cq = build_csssp(
        g,
        topo,
        q,
        h2,
        Direction::In,
        sim,
        cfg.charging,
        rec,
        &mut crate::recovery::Recovery::disabled(),
        "step6: n^{2/3}-in-CSSSP for Q",
    )
    .map_err(|e| match e {
        crate::recovery::SolverError::Sim(e) => e,
        other => unreachable!("with recovery disabled only the engine can fail: {other}"),
    })?;

    // ---------------- Algorithm 8 (far case) ----------------
    let mut qp_rec = Recorder::new();
    let (q_prime, _) =
        alg2_blocker(topo, sim, &cq, cfg.blocker, Selection::Derandomized, &mut qp_rec)?;
    rec.absorb("step6/alg8: Q' ", qp_rec);
    stats.q_prime_size = q_prime.len();
    apply_relay_set(g, topo, cfg.charging, sim, q, &q_prime, &mut out, rec, "alg8")?;

    // ---------------- Algorithm 9 (near case) ----------------
    // Step 1: bottleneck nodes with the paper's n√|Q| threshold.
    let threshold = ((n as f64) * (q.len() as f64).sqrt()).ceil() as u64;
    let BottleneckResult { b, trees, congestion_before, congestion_after } =
        compute_bottlenecks(topo, sim, &cq, threshold, rec)?;
    stats.b_size = b.len();
    stats.congestion_before = congestion_before;
    stats.congestion_after = congestion_after;
    // Steps 2-4: SSSPs + broadcast for each b ∈ B.
    apply_relay_set(g, topo, cfg.charging, sim, q, &b, &mut out, rec, "alg9-B")?;

    // Steps 6-9: round-robin push along the pruned trees.
    let engine = Engine::new(topo, sim);
    let mut nodes: Vec<RrNode<W>> = (0..n)
        .map(|v| {
            let nbrs = topo.neighbors(v as NodeId);
            let parent_ni: Vec<Option<usize>> = (0..q.len())
                .map(|qi| {
                    if trees.removed(v as NodeId, qi) {
                        None
                    } else {
                        cq.parent(v as NodeId, qi)
                            .map(|p| nbrs.binary_search(&p).expect("tree parent is a neighbor"))
                    }
                })
                .collect();
            let mut queues: Vec<VecDeque<(NodeId, W, NodeId)>> = vec![VecDeque::new(); q.len()];
            let mut outstanding = 0;
            for (qi, &c) in q.iter().enumerate() {
                let vn = v as NodeId;
                if vn != c
                    && cq.is_member(vn, qi)
                    && !trees.removed(vn, qi)
                    && !dvals.dist[v][qi].is_inf()
                {
                    queues[qi].push_back((vn, dvals.dist[v][qi], dvals.first_at(v, qi)));
                    outstanding += 1;
                }
            }
            RrNode {
                discipline,
                parent_ni,
                queues,
                ptr: 0,
                outstanding,
                root_of: (0..q.len()).map(|qi| q[qi] == v as NodeId).collect(),
                received: Vec::new(),
                checkpoints: Vec::new(),
            }
        })
        .collect();
    // Budget: total message-hops ≤ n·|Q|·h2 (every value travels at most
    // h2 tree hops), far looser than the paper's Õ(n^{4/3}) bound.
    let budget = (n as u64) * (q.len() as u64) * (h2 as u64 + 2) + 4 * n as u64 + 64;
    let report = engine.run(&mut nodes, RunUntil::Quiesce { max: budget })?;
    stats.round_robin_rounds = report.rounds;
    stats.round_robin_messages = report.messages;
    rec.record("step6/alg9: round-robin push", report);
    // Collect at the blockers; aggregate the progress measure.
    let mut progress: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for (v, nd) in nodes.into_iter().enumerate() {
        for (qi, x, dist, first) in nd.received {
            debug_assert_eq!(q[qi as usize] as usize, v);
            if dist < out.dist[qi as usize][x as usize] {
                out.dist[qi as usize][x as usize] = dist;
                out.set_first(qi as usize, x as usize, first);
            }
        }
        for (round, active) in nd.checkpoints {
            let e = progress.entry(round).or_insert(0);
            *e = (*e).max(active);
        }
    }
    stats.progress = progress.into_iter().collect();
    Ok((out, stats))
}

/// Shared far-case/bottleneck relay machinery (Alg 8 Steps 3-5, Alg 9
/// Steps 2-4): for each relay r, run full in- and out-SSSP, broadcast
/// every (x, r, δ(x,r)) and let each blocker c combine δ(x,r) + δ(r,c).
///
/// The broadcast items also carry x's next hop toward the relay (its
/// in-SSSP parent — local knowledge at x), so each blocker learns the
/// *routed* value. When x is the relay itself the combined path starts on
/// the relay's out-tree, whose first hops the out-SSSP threads.
#[allow(clippy::too_many_arguments)]
fn apply_relay_set<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    charging: Charging,
    sim: SimConfig,
    q: &[NodeId],
    relays: &[NodeId],
    out: &mut RoutedTable<W>,
    rec: &mut Recorder,
    label: &str,
) -> Result<(), SimError> {
    if relays.is_empty() {
        return Ok(());
    }
    let n = g.n();
    // δ(x, r) and x's next hop at x (in-SSSP), δ(r, c) and r's first hop
    // at c (out-SSSP), r in sequence.
    let mut to_relay: Vec<Vec<W>> = Vec::with_capacity(relays.len()); // [ri][x]
    let mut to_relay_next: Vec<Vec<NodeId>> = Vec::with_capacity(relays.len()); // [ri][x]
    let mut from_relay: Vec<Vec<W>> = Vec::with_capacity(relays.len()); // [ri][v]
    let mut from_relay_first: Vec<Vec<NodeId>> = Vec::with_capacity(relays.len()); // [ri][v]
    for &r in relays {
        let (res_in, rep) = run_full_sssp(g, topo, r, Direction::In, sim, charging)?;
        rec.record(format!("step6/{label}: in-SSSP({r})"), rep);
        to_relay.push(res_in.entries.iter().map(|e| e.dist).collect());
        let (res_out, rep) = run_full_sssp(g, topo, r, Direction::Out, sim, charging)?;
        rec.record(format!("step6/{label}: out-SSSP({r})"), rep);
        from_relay.push(res_out.entries.iter().map(|e| e.dist).collect());
        to_relay_next.push(res_in.entries.iter().map(|e| e.parent.unwrap_or(NO_SUCC)).collect());
        from_relay_first.push(res_out.entries.iter().map(|e| e.first.unwrap_or(NO_SUCC)).collect());
    }
    // Broadcast (x, ri, δ(x, r_ri)) plus x's next hop toward the relay:
    // n·|relays| values in O(n·|relays|) rounds (Lemma A.2 / Alg 8 Step 4).
    let initial: Vec<Vec<BroadcastItem<W>>> = (0..n)
        .map(|x| {
            (0..relays.len())
                .filter(|&ri| !to_relay[ri][x].is_inf())
                .map(|ri| BroadcastItem {
                    x: x as NodeId,
                    ri: ri as u32,
                    dist: to_relay[ri][x],
                    first: to_relay_next[ri][x],
                })
                .collect()
        })
        .collect();
    let nr = relays.len();
    let key = move |it: &BroadcastItem<W>| it.x as usize * nr + it.ri as usize;
    let (_, rep) = all_to_all_broadcast(topo, sim, initial, 4, key)?;
    rec.record(format!("step6/{label}: (x, r) table broadcast"), rep);
    // Local combine at each blocker (the orchestrator mirrors what node c
    // now knows: the broadcast delivered the full table everywhere).
    for (qi, &c) in q.iter().enumerate() {
        for (ri, &r) in relays.iter().enumerate() {
            let rc = from_relay[ri][c as usize];
            if rc.is_inf() {
                continue;
            }
            for x in 0..n {
                let xr = to_relay[ri][x];
                if xr.is_inf() {
                    continue;
                }
                let via = xr.plus(rc);
                if via < out.dist[qi][x] {
                    out.dist[qi][x] = via;
                    // Path x →(in-tree) r →(out-tree) c: it starts on the
                    // in-tree segment unless x is the relay itself.
                    let f = if x == r as usize {
                        from_relay_first[ri][c as usize]
                    } else {
                        to_relay_next[ri][x]
                    };
                    out.set_first(qi, x, f);
                }
            }
        }
    }
    Ok(())
}

/// Flood payload: one (source, relay, distance, first hop) table entry,
/// keyed by its (x, ri) cell.
#[derive(Clone, Debug)]
struct BroadcastItem<W: Weight> {
    x: NodeId,
    ri: u32,
    dist: W,
    /// First hop from `x` ([`NO_SUCC`] for a zero-length path).
    first: NodeId,
}

/// Trivial deterministic alternative to Algorithms 8+9: broadcast all
/// n·|Q| values (the Õ(n^{5/3}) strawman the paper improves on; §4 "A
/// trivial solution is to broadcast all these messages in the network").
///
/// # Errors
/// Propagates engine errors.
pub fn propagate_trivial_broadcast<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    q: &[NodeId],
    dvals: &RoutedTable<W>,
    rec: &mut Recorder,
) -> Result<RoutedTable<W>, SimError> {
    let n = topo.n();
    let initial: Vec<Vec<BroadcastItem<W>>> = (0..n)
        .map(|x| {
            (0..q.len())
                .filter(|&qi| !dvals.dist[x][qi].is_inf())
                .map(|qi| BroadcastItem {
                    x: x as NodeId,
                    ri: qi as u32,
                    dist: dvals.dist[x][qi],
                    first: dvals.first_at(x, qi),
                })
                .collect()
        })
        .collect();
    let qn = q.len();
    let key = move |it: &BroadcastItem<W>| it.x as usize * qn + it.ri as usize;
    let (logs, rep) = all_to_all_broadcast(topo, sim, initial, 4, key)?;
    rec.record("step6-trivial: full broadcast", rep);
    let mut out = RoutedTable::new(DistMatrix::filled(q.len(), n, W::INF));
    for (qi, &c) in q.iter().enumerate() {
        out.dist[qi][c as usize] = W::ZERO;
        for item in logs.log(c) {
            if item.ri as usize == qi && item.dist < out.dist[qi][item.x as usize] {
                out.dist[qi][item.x as usize] = item.dist;
                out.set_first(qi, item.x as usize, item.first);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::{apsp_dijkstra, dijkstra};

    /// Oracle-driven harness: feed exact δ(x,c) values and verify delivery.
    fn run_case(n: usize, extra: usize, seed: u64, q: Vec<NodeId>) {
        let g = gnm_connected(n, extra, true, WeightDist::Uniform(0, 9), seed);
        let topo = Topology::from_graph(&g);
        let cfg = ApspConfig::default();
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut rec = Recorder::new();
        let (out, stats) =
            propagate_to_blockers(&g, &topo, &cfg, SimConfig::default(), &q, &dvals, &mut rec)
                .unwrap();
        for (qi, &c) in q.iter().enumerate() {
            let oracle = dijkstra(&g, c, Direction::In);
            for x in 0..n {
                assert_eq!(
                    out.dist[qi][x], oracle[x],
                    "seed {seed}: blocker {c} missing/incorrect δ({x},{c})"
                );
            }
        }
        // paper invariant: post-pruning congestion within threshold
        let threshold = ((n as f64) * (q.len() as f64).sqrt()).ceil() as u64;
        assert!(stats.congestion_after <= threshold);
    }

    #[test]
    fn delivers_exact_values_small() {
        run_case(14, 30, 3, vec![2, 7, 11]);
    }

    #[test]
    fn delivers_exact_values_more_blockers() {
        run_case(18, 36, 9, vec![0, 4, 8, 12, 16]);
    }

    #[test]
    fn delivers_on_sparse_graph() {
        run_case(16, 8, 5, vec![3, 10]);
    }

    /// A routed dvals table (exact distances + any valid first hop per
    /// value) must reach the blockers with first hops that telescope in the
    /// exact metric — whichever of the three delivery mechanisms (alg8
    /// relays, alg9 bottleneck relays, round-robin push) carried each
    /// value, and when the trivial broadcast carries them all.
    #[test]
    fn tracked_delivery_first_hops_telescope() {
        let n = 16;
        let g = gnm_connected(n, 34, true, WeightDist::Uniform(0, 9), 12);
        let topo = Topology::from_graph(&g);
        let cfg = ApspConfig::default();
        let q: Vec<NodeId> = vec![2, 7, 11];
        let exact = apsp_dijkstra(&g);
        let min_edge = |u: usize, f: NodeId| {
            g.out_edges(u as NodeId).filter(|&(t, _)| t == f).map(|(_, w)| w).min()
        };
        let mut dvals = RoutedTable::new(DistMatrix::filled(n, q.len(), u64::INF));
        for x in 0..n {
            for (qi, &c) in q.iter().enumerate() {
                let d = exact[x][c as usize];
                dvals.dist[x][qi] = d;
                if x != c as usize && d != u64::INF {
                    // Any out-neighbor on a shortest path is a valid first
                    // hop; pick the smallest-id one.
                    let f = g
                        .out_edges(x as NodeId)
                        .filter(|&(t, w)| w.plus(exact[t as usize][c as usize]) == d)
                        .map(|(t, _)| t)
                        .min()
                        .expect("finite distance implies a shortest-path edge");
                    dvals.set_first(x, qi, f);
                }
            }
        }
        let telescopes = |out: &RoutedTable<u64>, how: &str| {
            for (qi, &c) in q.iter().enumerate() {
                for x in 0..n {
                    let d = out.dist[qi][x];
                    assert_eq!(d, exact[x][c as usize], "{how}: δ({x},{c})");
                    if x == c as usize {
                        assert_eq!(out.first_at(qi, x), NO_SUCC, "{how}: zero-length path");
                        continue;
                    }
                    if d == u64::INF {
                        continue;
                    }
                    let f = out.first_at(qi, x);
                    assert_ne!(f, NO_SUCC, "{how}: delivered δ({x},{c}) lost its first hop");
                    let w = min_edge(x, f).expect("first hop must be an out-neighbor");
                    assert_eq!(
                        d,
                        w.plus(exact[f as usize][c as usize]),
                        "{how}: blocker {c}, source {x}: first hop {f} does not telescope"
                    );
                }
            }
        };
        let sim = SimConfig::default();
        let (out, _) =
            propagate_to_blockers(&g, &topo, &cfg, sim, &q, &dvals, &mut Recorder::new()).unwrap();
        telescopes(&out, "pipelined");
        let out =
            propagate_trivial_broadcast(&topo, sim, &q, &dvals, &mut Recorder::new()).unwrap();
        telescopes(&out, "trivial broadcast");
    }

    #[test]
    fn empty_q_is_noop() {
        let g = gnm_connected(8, 16, true, WeightDist::Unit, 1);
        let topo = Topology::from_graph(&g);
        let cfg = ApspConfig::default();
        let mut rec = Recorder::new();
        let (out, stats) = propagate_to_blockers::<u64>(
            &g,
            &topo,
            &cfg,
            SimConfig::default(),
            &[],
            &RoutedTable::new(DistMatrix::filled(8, 0, u64::INF)),
            &mut rec,
        )
        .unwrap();
        assert_eq!(out.dist.rows(), 0);
        assert_eq!(stats.round_robin_rounds, 0);
    }

    #[test]
    fn trivial_broadcast_delivers_same() {
        let n = 14;
        let g = gnm_connected(n, 30, true, WeightDist::Uniform(0, 9), 3);
        let topo = Topology::from_graph(&g);
        let q: Vec<NodeId> = vec![2, 7, 11];
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut rec = Recorder::new();
        let out =
            propagate_trivial_broadcast(&topo, SimConfig::default(), &q, &dvals, &mut rec).unwrap();
        for (qi, &c) in q.iter().enumerate() {
            for x in 0..n {
                assert_eq!(out.dist[qi][x], exact[x][c as usize], "blocker {c} x {x}");
            }
        }
    }

    #[test]
    fn progress_measure_monotone() {
        let n = 16;
        let g = gnm_connected(n, 32, true, WeightDist::Uniform(1, 9), 8);
        let topo = Topology::from_graph(&g);
        let cfg = ApspConfig::default();
        let q: Vec<NodeId> = vec![1, 5, 9, 13];
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut rec = Recorder::new();
        let (_, stats) =
            propagate_to_blockers(&g, &topo, &cfg, SimConfig::default(), &q, &dvals, &mut rec)
                .unwrap();
        // the max active-tree count must never increase over checkpoints
        // beyond its starting value's neighborhood (weak monotonicity: the
        // final checkpoint is 0 or the run ended early)
        if let (Some(first), Some(last)) = (stats.progress.first(), stats.progress.last()) {
            assert!(last.1 <= first.1.max(1));
        }
    }
}

#[cfg(test)]
mod discipline_tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    /// All queue disciplines must deliver every value; only round counts
    /// may differ (F4 ablation).
    #[test]
    fn all_disciplines_deliver() {
        let n = 18;
        let g = gnm_connected(n, 36, true, WeightDist::Uniform(0, 9), 6);
        let topo = Topology::from_graph(&g);
        let cfg = ApspConfig::default();
        let q: Vec<NodeId> = vec![0, 5, 9, 14];
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut reference: Option<DistMatrix<u64>> = None;
        for d in [
            PushDiscipline::RoundRobin,
            PushDiscipline::FixedPriority,
            PushDiscipline::LongestFirst,
        ] {
            let mut rec = Recorder::new();
            let (out, _) = propagate_to_blockers_with(
                &g,
                &topo,
                &cfg,
                SimConfig::default(),
                &q,
                &dvals,
                d,
                &mut rec,
            )
            .unwrap();
            match &reference {
                None => reference = Some(out.dist),
                Some(r) => assert_eq!(&out.dist, r, "{d:?} delivered different values"),
            }
        }
    }
}
