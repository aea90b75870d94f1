//! Step 6 of Algorithm 1: the reversed q-sink shortest paths problem (§4).
//!
//! Every node x holds δ(x, c) for every blocker c ∈ Q (computed locally in
//! Step 5); the values must reach their blockers. The paper splits by the
//! hop-length of the shortest path:
//!
//! * **Far case** (Algorithm 8, hops > n^{2/3}): a second-level blocker
//!   set Q′ over the n^{2/3}-in-CSSSP of Q; full SSSPs from each c′ ∈ Q′
//!   and one broadcast of the (x, c′) table let each c combine
//!   δ(x,c′) + δ(c′,c) locally ([`Relays`]).
//! * **Near case** (Algorithm 9, hops ≤ n^{2/3}): prune bottleneck nodes B
//!   (Algorithm 13) so per-node congestion drops to n·√|Q|, handle pruned
//!   sources via B exactly like the far case, then push the remaining
//!   values up the in-trees with the simple cyclic **round-robin** of
//!   Steps 8–9 — the paper's second main contribution. Algorithm 10's
//!   frames/stages are the analysis; we instrument the run with
//!   per-checkpoint "active tree" counts to reproduce the Lemma 4.8
//!   progress measure (experiment F3).
//!
//! [`Relays`] is also AR18's Steps 3–5, where every blocker is a relay,
//! and Algorithm 1's Steps 3–5 ([`crate::apsp`]), where Step 3's h-hop
//! in-trees fill its to-table, Step 4 floods the blockers' rows
//! (`flood_table`) and Step 5's closure over Q fills its from-table.
//! [`Relays::route`] is the one x → r → t combine of all three uses.
//!
//! Algorithm 1 builds one BFS tree rooted at the leader, in Step 2, and
//! Step 6 reuses it: for Q′, and as the channels its two relay tables
//! flood over, like Step 4's Q×Q matrix (Lemma A.2 pipelines over a BFS
//! tree, so each item crosses each tree edge once).

use crate::bf::run_full_sssp;
use crate::blocker::alg2_blocker;
use crate::bottleneck::{compute_bottlenecks, BottleneckResult};
use crate::config::ApspConfig;
use crate::csssp::build_csssp;
use crate::recovery::{sentinels, Recovery, SolverError};
use congest_derand::Selection;
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::primitives::{all_to_all_broadcast, BfsTree, FloodLogs};
use congest_sim::{
    Engine, Envelope, NodeEnv, NodeLogic, Outbox, PhaseReport, Recorder, RunUntil, SimConfig,
    SimError, Topology,
};
use std::collections::VecDeque;

/// A value table paired with a first-hop plane of the same shape — the
/// routing-aware currency of Steps 3–7 and of [`Relays`].
///
/// `dist[r][c]` is a distance whose path starts at some origin node
/// (conventionally the *source* coordinate of the table: row `x` for the
/// n×|Q| `dvals` table, column `x` for the |Q|×n blocker table), and
/// `get(r, c).1` is the first edge out of that origin on a path
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

    /// Cell `(r, c)`: its value and first hop.
    ///
    /// # Panics
    /// Panics if `(r, c)` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> (W, NodeId) {
        (self.dist[r][c], self.first[r * self.dist.cols() + c])
    }

    /// Sets cell `(r, c)` to a value and its first hop.
    ///
    /// # Panics
    /// Panics if `(r, c)` is out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, (dist, first): (W, NodeId)) {
        self.dist[r][c] = dist;
        let cols = self.dist.cols();
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
            } else if self.parent_ni[qi as usize].is_some() {
                self.queues[qi as usize].push_back((x, dist, first));
                self.outstanding += 1;
            }
            // Otherwise a lost removal token left a child's cell live below
            // this removed one: the value is dropped, and the fault that
            // lost the token has the attempt rejected.
        }
        if env.round.is_power_of_two() || env.round == 0 {
            let active = self.queues.iter().filter(|q| !q.is_empty()).count();
            self.checkpoints.push((env.round, active));
        }
        if self.outstanding == 0 {
            return; // every queue is empty: nothing to scan for
        }
        // One unsent message per round: the first nonempty queue at or
        // after the cyclic pointer (Steps 7-9).
        let k = self.queues.len();
        let next = (0..k).map(|t| (self.ptr + t) % k).find(|&qi| !self.queues[qi].is_empty());
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
/// `tree` is the leader's BFS tree of `topo` (Ar20 builds it in Step 2):
/// Q′'s Algorithm 2′ aggregates over it, and both relay tables flood over
/// its channels.
///
/// # Errors
/// Propagates engine errors as [`SolverError::Sim`].
#[allow(clippy::too_many_arguments)]
pub fn propagate_to_blockers<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    cfg: &ApspConfig,
    sim: SimConfig,
    q: &[NodeId],
    dvals: &RoutedTable<W>,
    tree: &BfsTree,
    rec: &mut Recorder,
) -> Result<(RoutedTable<W>, Step6Stats), SolverError> {
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
    // Recovery is disabled here on purpose: the solver retries Step 6 as
    // one compound unit, so nested per-phase retries would only skew the
    // per-attempt fault accounting. Without a plan only the engine fails.
    let mut rc = Recovery::disabled();

    // Shared substrate: the n^{2/3}-in-CSSSP for source set Q (Alg 8
    // Step 1 / Alg 9 input). In-direction trees carry no first hops: the
    // push below forwards the origin's first hop verbatim.
    let label = "step6: n^{2/3}-in-CSSSP for Q";
    let cq = build_csssp(g, topo, q, h2, Direction::In, sim, rec, &mut rc, label)?;

    // ---------------- Algorithm 8 (far case) ----------------
    let mut qp_rec = Recorder::new();
    let selection = Selection::Derandomized;
    let (q_prime, _) = alg2_blocker(topo, sim, &cq, tree, cfg.blocker, selection, &mut qp_rec)?;
    rec.absorb("step6/alg8: Q' ", qp_rec);
    stats.q_prime_size = q_prime.len();
    let flood = tree.channels();
    let labels = ["step6/alg8", "step6/alg8: (x, r) table broadcast"];
    let far = Relays::run(g, topo, &flood, &q_prime, sim, rec, &mut rc, labels)?;

    // ---------------- Algorithm 9 (near case) ----------------
    // Step 1: bottleneck nodes with the paper's n√|Q| threshold.
    let threshold = ((n as f64) * (q.len() as f64).sqrt()).ceil() as u64;
    let BottleneckResult { b, trees, congestion_before, congestion_after } =
        compute_bottlenecks(topo, sim, &cq, threshold, rec)?;
    stats.b_size = b.len();
    stats.congestion_before = congestion_before;
    stats.congestion_after = congestion_after;
    // Steps 2-4: SSSPs + broadcast for each b ∈ B.
    let labels = ["step6/alg9-B", "step6/alg9-B: (x, r) table broadcast"];
    let near = Relays::run(g, topo, &flood, &b, sim, rec, &mut rc, labels)?;
    // Each blocker c combines δ(x, r) + δ(r, c) over Q′, then over B (the
    // orchestrator mirrors what c knows once both floods have delivered
    // their tables everywhere).
    for (qi, &c) in q.iter().enumerate() {
        for x in 0..n {
            let mut cell = out.get(qi, x);
            far.route(x, c as usize, &mut cell);
            near.route(x, c as usize, &mut cell);
            out.set(qi, x, cell);
        }
    }

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
                    let (dist, first) = dvals.get(v, qi);
                    queues[qi].push_back((vn, dist, first));
                    outstanding += 1;
                }
            }
            RrNode {
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
                out.set(qi as usize, x as usize, (dist, first));
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

/// The relay construction of Algorithm 8 Steps 3–5 and Algorithm 9
/// Steps 2–4, which AR18 runs with its whole blocker set: one full in- and
/// out-SSSP per relay r, one Lemma A.2 flood of the
/// `(x, r, δ(x, r), x's next hop)` table, then a local x → r → t combine
/// ([`Relays::route`]).
///
/// x's next hop toward r is its in-SSSP parent, local knowledge at x that
/// rides the flood so the combine can name the *routed* first hop; the
/// out-SSSP threads r's own first hops for the paths that start at r.
///
/// Algorithm 1's Steps 3–5 fill the same two tables another way (Q as the
/// relays, h-hop in-trees for the to-table and the closure over Q, one row
/// per target blocker, for the from-table; see [`crate::apsp`]).
#[derive(Debug)]
pub struct Relays<W> {
    /// The relays r, in the order [`Relays::route`] tries them.
    pub(crate) relays: Vec<NodeId>,
    /// `(x, ri)`: δ(x, r) and x's next hop toward r.
    pub(crate) to: RoutedTable<W>,
    /// `(t, ri)`: δ(r, t) and r's first hop toward t.
    pub(crate) from: RoutedTable<W>,
}

impl<W: Weight> Relays<W> {
    /// Runs every relay's full in- and out-SSSP over `topo`, then floods
    /// the table over `flood`'s channels, each as one phase of `rc`
    /// (sentinels: [`sentinels::repaired_tree`] and
    /// [`sentinels::exact_row`] for the SSSPs,
    /// [`sentinels::flood_complete`] for the flood). Step 6 passes the
    /// leader tree's channels ([`BfsTree::channels`]); AR18, which builds
    /// no leader tree, passes `topo` (see `flood_table`). `labels` are the
    /// SSSPs' label prefix and the flood's label. No relays run nothing
    /// and record nothing.
    ///
    /// # Errors
    /// As [`Recovery::phase`].
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        g: &Graph<W>,
        topo: &Topology,
        flood: &Topology,
        relays: &[NodeId],
        sim: SimConfig,
        rec: &mut Recorder,
        rc: &mut Recovery,
        labels: [&str; 2],
    ) -> Result<Self, SolverError> {
        let nr = relays.len();
        let table = || RoutedTable::new(DistMatrix::filled(g.n(), nr, W::INF));
        let mut tables = Relays { relays: relays.to_vec(), to: table(), from: table() };
        for (ri, &r) in relays.iter().enumerate() {
            for (dir, name) in [(Direction::In, "in"), (Direction::Out, "out")] {
                let label = format!("{}: {name}-SSSP({r})", labels[0]);
                let (res, rep) = rc.phase(
                    &label,
                    sim,
                    |sim| run_full_sssp(g, topo, r, dir, sim),
                    |res| {
                        sentinels::repaired_tree(g, dir, r, res)?;
                        sentinels::exact_row(g, dir, r, |v| res.entries[v].dist)
                    },
                )?;
                rec.record(label, rep);
                for (v, e) in res.entries.iter().enumerate() {
                    let (table, hop) = match dir {
                        Direction::In => (&mut tables.to, e.parent),
                        Direction::Out => (&mut tables.from, e.first),
                    };
                    table.set(v, ri, (e.dist, hop.unwrap_or(NO_SUCC)));
                }
            }
        }
        if nr > 0 {
            let (_, rep) = rc.phase(
                labels[1],
                sim,
                |sim| flood_table(flood, sim, nr, 4, |x, ri| tables.to.get(x, ri)),
                sentinels::flood_complete,
            )?;
            rec.record(labels[1], rep);
        }
        Ok(tables)
    }

    /// Routes the pair x → t through the relays: `cell` holds the pair's
    /// distance and x's first hop, and each relay r in order replaces it
    /// when δ(x, r) + δ(r, t) is strictly shorter. The path x → r → t
    /// starts on r's in-tree at x's next hop, or on r's out-tree when x is
    /// r itself. `t` indexes the from-table's rows.
    pub fn route(&self, x: usize, t: usize, cell: &mut (W, NodeId)) {
        for (ri, &r) in self.relays.iter().enumerate() {
            let ((xr, next), (rt, first)) = (self.to.get(x, ri), self.from.get(t, ri));
            if xr.is_inf() || rt.is_inf() {
                continue;
            }
            let via = xr.plus(rt);
            if via < cell.0 {
                *cell = (via, if r as usize == x { first } else { next });
            }
        }
    }
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
    let (logs, rep) = flood_table(topo, sim, q.len(), 4, |x, qi| dvals.get(x, qi))?;
    rec.record("step6-trivial: full broadcast", rep);
    let mut out = RoutedTable::new(DistMatrix::filled(q.len(), topo.n(), W::INF));
    for (qi, &c) in q.iter().enumerate() {
        out.dist[qi][c as usize] = W::ZERO;
        for &(x, j, dist, first) in logs.log(c) {
            if j as usize == qi && dist < out.dist[qi][x as usize] {
                out.set(qi, x as usize, (dist, first));
            }
        }
    }
    Ok(out)
}

/// One flooded table cell: `(x, column, value, x's first hop)`.
type TableItem<W> = (NodeId, u32, W, NodeId);

/// Floods the finite cells of the n × `k` table `cell(x, column)` as
/// [`TableItem`]s of `words` words each, keyed by their cell and numbered
/// node by node and column by column, over `topo`'s channels: K values in
/// O(K + D) rounds (Lemma A.2). A 3-word item leaves x's first hop off the
/// wire, for tables whose readers need only their own.
///
/// Ar20 passes its leader tree's channels ([`BfsTree::channels`]) for Step
/// 4's Q×Q matrix and Step 6's two relay tables: each item then crosses
/// each tree edge once, K·(n − 1) messages within K + 2·height + O(1)
/// rounds, where a flood over every channel sends an item across each
/// channel up to once per direction. Every channel stays in use where
/// there is no leader tree or a tree costs rounds: AR18's (x, c) table
/// (Ar18 builds no tree, and one would cost D + 2 rounds, wasted on a
/// graph that is already a tree), the trivial Step-6 broadcast, and
/// Algorithm 2's Vi-id and max floods, which carry few items, so their
/// rounds follow the path lengths that a tree stretches.
pub(crate) fn flood_table<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    k: usize,
    words: u32,
    cell: impl Fn(usize, usize) -> (W, NodeId),
) -> Result<(FloodLogs<TableItem<W>>, PhaseReport), SimError> {
    let initial = (0..topo.n())
        .map(|x| {
            (0..k)
                .map(|j| (x as NodeId, j as u32, cell(x, j)))
                .filter(|(_, _, (dist, _))| !dist.is_inf())
                .map(|(x, j, (dist, first))| (x, j, dist, first))
                .collect()
        })
        .collect();
    let key = move |&(x, j, _, _): &TableItem<W>| x as usize * k + j as usize;
    all_to_all_broadcast(topo, sim, initial, words, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::{apsp_dijkstra, dijkstra};
    use congest_sim::primitives::build_bfs_tree;

    /// The leader's BFS tree, built fault-free.
    fn tree(topo: &Topology) -> BfsTree {
        build_bfs_tree(topo, SimConfig::default(), 0).unwrap().0
    }

    /// Step 6 with the default constants, over a fault-free leader tree.
    fn propagate(
        g: &Graph<u64>,
        topo: &Topology,
        sim: SimConfig,
        q: &[NodeId],
        dvals: &RoutedTable<u64>,
        rec: &mut Recorder,
    ) -> Result<(RoutedTable<u64>, Step6Stats), SolverError> {
        propagate_to_blockers(g, topo, &ApspConfig::default(), sim, q, dvals, &tree(topo), rec)
    }

    /// Oracle-driven harness: feed exact δ(x,c) values and verify delivery.
    fn run_case(n: usize, extra: usize, seed: u64, q: Vec<NodeId>) {
        let g = gnm_connected(n, extra, true, WeightDist::Uniform(0, 9), seed);
        let topo = Topology::from_graph(&g);
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut rec = Recorder::new();
        let (out, stats) =
            propagate(&g, &topo, SimConfig::default(), &q, &dvals, &mut rec).unwrap();
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
                    dvals.set(x, qi, (d, f));
                }
            }
        }
        let telescopes = |out: &RoutedTable<u64>, how: &str| {
            for (qi, &c) in q.iter().enumerate() {
                for x in 0..n {
                    let (d, f) = out.get(qi, x);
                    assert_eq!(d, exact[x][c as usize], "{how}: δ({x},{c})");
                    if x == c as usize {
                        assert_eq!(f, NO_SUCC, "{how}: zero-length path");
                        continue;
                    }
                    if d == u64::INF {
                        continue;
                    }
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
        let (out, _) = propagate(&g, &topo, sim, &q, &dvals, &mut Recorder::new()).unwrap();
        telescopes(&out, "pipelined");
        let out =
            propagate_trivial_broadcast(&topo, sim, &q, &dvals, &mut Recorder::new()).unwrap();
        telescopes(&out, "trivial broadcast");
    }

    #[test]
    fn empty_q_is_noop() {
        let g = gnm_connected(8, 16, true, WeightDist::Unit, 1);
        let topo = Topology::from_graph(&g);
        let mut rec = Recorder::new();
        let dvals = RoutedTable::new(DistMatrix::filled(8, 0, u64::INF));
        let (out, stats) =
            propagate(&g, &topo, SimConfig::default(), &[], &dvals, &mut rec).unwrap();
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
        let q: Vec<NodeId> = vec![1, 5, 9, 13];
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut rec = Recorder::new();
        let (_, stats) = propagate(&g, &topo, SimConfig::default(), &q, &dvals, &mut rec).unwrap();
        // the max active-tree count must never increase over checkpoints
        // beyond its starting value's neighborhood (weak monotonicity: the
        // final checkpoint is 0 or the run ended early)
        if let (Some(first), Some(last)) = (stats.progress.first(), stats.progress.last()) {
            assert!(last.1 <= first.1.max(1));
        }
    }

    /// A lost removal token leaves a child's cell live below a removed
    /// one, so the removed node receives a value in a tree where it has
    /// no parent. It drops the value (this plan once panicked the push
    /// with `SimError::NodePanic`), and the injected drops have the
    /// attempt rejected.
    #[test]
    fn a_value_below_a_removed_cell_is_dropped() {
        let n = 18;
        let g = gnm_connected(n, 40, true, WeightDist::Uniform(0, 9), 3);
        let topo = Topology::from_graph(&g);
        // The blocker set Ar20 picks on this graph.
        let q: Vec<NodeId> = vec![7, 3, 0, 4, 6];
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let sim = SimConfig { fault: Some(congest_sim::fault::FaultSpec::seeded(34).drops(2_000)) };
        let mut rec = Recorder::new();
        let res = propagate(&g, &topo, sim, &q, &dvals, &mut rec);
        assert!(res.is_ok(), "{:?}", res.err());
        assert!(rec.total_faults().dropped > 0, "the plan drops no message");
    }

    /// Every node a relay: routing each pair from (INF, NO_SUCC) gives
    /// Dijkstra's distance with a first hop that telescopes, and a pair
    /// whose source is the first relay takes that relay's out-tree hop.
    #[test]
    fn relays_route_every_pair_exactly() {
        let n = 10;
        let g = gnm_connected(n, 20, true, WeightDist::Uniform(0, 9), 7);
        let topo = Topology::from_graph(&g);
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let mut rec = Recorder::new();
        let labels = ["relay", "relay: table broadcast"];
        let sim = SimConfig::default();
        let relays =
            Relays::run(&g, &topo, &topo, &all, sim, &mut rec, &mut Recovery::disabled(), labels)
                .unwrap();
        assert_eq!(rec.phases().len(), 2 * n + 1, "two SSSPs per relay and one flood");
        let exact = apsp_dijkstra(&g);
        let (out0, _) = run_full_sssp(&g, &topo, 0, Direction::Out, sim).unwrap();
        for x in 0..n {
            for t in (0..n).filter(|&t| t != x) {
                let mut cell = (u64::INF, NO_SUCC);
                relays.route(x, t, &mut cell);
                let (d, f) = cell;
                assert_eq!(d, exact[x][t], "δ({x}, {t})");
                if d.is_inf() {
                    assert_eq!(f, NO_SUCC, "({x}, {t})");
                    continue;
                }
                let w = g.out_edges(x as NodeId).filter(|&(v, _)| v == f).map(|(_, w)| w).min();
                let w = w.unwrap_or_else(|| panic!("({x}, {t}): first hop {f} is no out-neighbor"));
                assert_eq!(d, w.plus(exact[f as usize][t]), "({x}, {t}): {f} does not telescope");
                if x == 0 {
                    assert_eq!(Some(f), out0.entries[t].first, "(0, {t}): relay 0's out-tree hop");
                }
            }
        }
    }

    /// A table flood over the leader tree's channels delivers every item
    /// to every node across each tree edge once: K·(n − 1) messages,
    /// within K + 2·height + 2 rounds. On `sparse_random(64, 1)`'s graph
    /// and a denser one, with every third node's row filled, like Step
    /// 4's blocker rows.
    #[test]
    fn a_table_flood_over_the_leader_tree_crosses_each_edge_once() {
        let graphs = [
            gnm_connected(64, 128, true, WeightDist::Uniform(0, 100), 1),
            gnm_connected(48, 300, true, WeightDist::Uniform(1, 9), 4),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.n();
            let topo = Topology::from_graph(g);
            let bfs = tree(&topo);
            let channels = bfs.channels();
            for k in [1, 5, 12] {
                // Only every third node's row, like Step 4's blocker rows.
                let cell = |x: usize, j: usize| {
                    let d = if x.is_multiple_of(3) { (x * k + j) as u64 } else { u64::INF };
                    (d, NO_SUCC)
                };
                let (logs, rep) = flood_table(&channels, SimConfig::default(), k, 3, cell).unwrap();
                let items = logs.item_count();
                assert_eq!(items, n.div_ceil(3) * k, "graph {gi}, k = {k}");
                assert!((0..n as NodeId).all(|v| logs.log_len(v) == items), "graph {gi}, k = {k}");
                assert_eq!(rep.messages, (items * (n - 1)) as u64, "graph {gi}, k = {k}");
                let bound = items as u64 + 2 * bfs.height() + 2;
                assert!(rep.rounds <= bound, "graph {gi}, k = {k}: {} > {bound}", rep.rounds);
            }
        }
    }

    #[test]
    fn no_relays_run_nothing_and_route_nothing() {
        let g = gnm_connected(8, 16, true, WeightDist::Uniform(1, 9), 2);
        let topo = Topology::from_graph(&g);
        let mut rec = Recorder::new();
        let labels = ["relay", "relay: table broadcast"];
        let sim = SimConfig::default();
        let relays =
            Relays::run(&g, &topo, &topo, &[], sim, &mut rec, &mut Recovery::disabled(), labels)
                .unwrap();
        assert!(rec.phases().is_empty());
        let mut cell = (5u64, 3);
        relays.route(1, 2, &mut cell);
        assert_eq!(cell, (5, 3));
    }
}
