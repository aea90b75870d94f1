//! Phase-level detect-and-recover for the APSP pipeline.
//!
//! The CONGEST engine can inject deterministic faults (see
//! `congest_sim::fault`); this module is the compute side's answer. Every
//! pipeline phase runs through a [`Recovery`] handle that
//!
//! 1. salts the fault seed per attempt (so a retry does not replay the
//!    identical fault pattern),
//! 2. checks the engine's per-phase fault counters and a cheap *invariant
//!    sentinel* on the phase output, and
//! 3. re-runs only the failed phase, up to a bounded number of retries.
//!
//! ## The accept rule and the bit-identical contract
//!
//! An attempt is accepted iff the engine injected **zero** faults into it
//! *and* the phase sentinel passes. Because every protocol in this
//! workspace is deterministic, a zero-fault attempt is bit-identical to
//! the fault-free execution of the same phase on the same inputs — so a
//! run in which every phase eventually passes produces distances,
//! successor planes, and phase accounting **bit-identical to the
//! fault-free run**. A phase that cannot produce a clean attempt within
//! the retry budget surfaces as [`SolverError::Unrecoverable`]. Wrong
//! answers are structurally impossible; hangs are bounded by the engine's
//! per-phase round budgets.
//!
//! The sentinels ([`sentinels`]) are the *detection* half: they re-check
//! phase invariants locally (fixed-point relaxation checks, parent
//! telescoping, flood-log completeness, routed-table transposition) and
//! would flag damage even if the counters were unavailable. Some are
//! complete certificates (full-horizon SSSP), some are one-sided
//! (hop-limited trees) — documented per function.
//!
//! With no fault plan configured, [`Recovery`] runs every attempt exactly
//! once on the base configuration and evaluates no sentinel: the fast
//! path is byte-identical to a build without this module.

use crate::csssp::SsspCollection;
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight};
use congest_sim::fault::{FaultCounters, FaultSpec};
use congest_sim::{PhaseReport, Recorder, SimConfig, SimError};

/// Errors surfaced by [`crate::Solver::run`].
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// The engine aborted and no recovery was configured (protocol bug or
    /// exhausted safety budget — see [`SimError`]).
    Sim(SimError),
    /// A pipeline phase could not produce a fault-free attempt within the
    /// configured retry budget. The computed state is discarded: the
    /// solver never returns damaged distances.
    Unrecoverable {
        /// Label of the phase that exhausted its budget.
        phase: String,
        /// Attempts consumed (1 initial + retries).
        attempts: u32,
        /// The engine error of the last attempt, if it aborted (as opposed
        /// to completing with injected faults or a tripped sentinel).
        last_error: Option<SimError>,
    },
    /// The communication graph is disconnected. CONGEST algorithms need a
    /// connected network: no message crosses between components.
    Disconnected,
    /// [`Algorithm::Ar20`](crate::Algorithm::Ar20) was given blocker
    /// constants Algorithm 2 does not accept: it needs 0 < ε ≤ 0.3,
    /// 0 < δ ≤ 0.3 and 1 − 3δ − ε > 0, and a NaN fails every test.
    InvalidBlockerParams {
        /// The ε given.
        eps: f64,
        /// The δ given.
        delta: f64,
    },
}

impl core::fmt::Display for SolverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolverError::Sim(e) => write!(f, "engine error: {e}"),
            SolverError::Disconnected => write!(f, "the communication graph is disconnected"),
            SolverError::InvalidBlockerParams { eps, delta } => write!(
                f,
                "blocker constants eps = {eps}, delta = {delta} out of range \
                 (need 0 < eps <= 0.3, 0 < delta <= 0.3 and 3 delta + eps < 1)"
            ),
            SolverError::Unrecoverable { phase, attempts, last_error } => {
                write!(f, "phase {phase:?} unrecoverable after {attempts} attempts")?;
                if let Some(e) = last_error {
                    write!(f, " (last engine error: {e})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Sim(e) => Some(e),
            SolverError::Unrecoverable { last_error, .. } => {
                last_error.as_ref().map(|e| e as &(dyn std::error::Error + 'static))
            }
            SolverError::Disconnected | SolverError::InvalidBlockerParams { .. } => None,
        }
    }
}

impl From<SimError> for SolverError {
    fn from(e: SimError) -> Self {
        SolverError::Sim(e)
    }
}

/// What the fault plane did to a run, carried on
/// [`ApspOutcome`](crate::ApspOutcome). All-zero when no fault plan was
/// configured (or none of its decisions hit).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults injected into every attempt that ran to its end, rejected
    /// ones included. (Accepted attempts are fault-free by the accept rule,
    /// so everything here was absorbed by recovery.) An attempt the engine
    /// aborted with a [`SimError`] adds nothing: its counters are lost
    /// with the run.
    pub faults: FaultCounters,
    /// Number of phases that needed at least one retry.
    pub phases_retried: u64,
    /// Total retries across all phases.
    pub retries: u64,
    /// Simulated rounds spent on attempts that ran to their end and were
    /// rejected — the round-complexity price of recovery. An attempt the
    /// engine aborted adds nothing here either.
    pub rounds_lost: u64,
    /// Number of attempts rejected by a sentinel (as opposed to the fault
    /// counters alone).
    pub sentinel_trips: u64,
}

impl FaultReport {
    /// `true` iff the fault plane never interfered with the run.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self == &FaultReport::default()
    }
}

/// Telemetry: a retry is worth seeing on a trace timeline. No-op while
/// the global plane is disabled.
fn note_retry(phase: &str, attempt: u32) {
    if congest_telemetry::enabled() {
        let tele = congest_telemetry::global();
        tele.registry().counter("recovery.retries").inc();
        tele.instant(
            "recovery.retry",
            vec![
                ("phase".to_string(), phase.to_string()),
                ("attempt".to_string(), attempt.to_string()),
            ],
        );
    }
}

/// Telemetry: a sentinel rejecting an attempt, ditto.
fn note_sentinel_trip(phase: &str) {
    if congest_telemetry::enabled() {
        let tele = congest_telemetry::global();
        tele.registry().counter("recovery.sentinel_trips").inc();
        tele.instant("recovery.sentinel_trip", vec![("phase".to_string(), phase.to_string())]);
    }
}

/// Per-run retry orchestrator threaded through the pipeline phases.
#[derive(Clone, Debug)]
pub struct Recovery {
    spec: Option<FaultSpec>,
    max_retries: u32,
    report: FaultReport,
    /// Monotone per-phase counter: combined with the attempt index it
    /// salts the fault seed so every (phase, attempt) pair sees an
    /// independent deterministic fault pattern.
    seq: u64,
}

impl Recovery {
    /// A recovery handle for the given fault spec (an inactive or absent
    /// spec disables recovery entirely).
    #[must_use]
    pub fn new(fault: Option<FaultSpec>, max_retries: u32) -> Self {
        Recovery {
            spec: fault.filter(FaultSpec::is_active),
            max_retries,
            report: FaultReport::default(),
            seq: 0,
        }
    }

    /// A handle for `cfg`'s fault plan and retry budget.
    #[must_use]
    pub fn from_config(cfg: &crate::ApspConfig) -> Self {
        Recovery::new(cfg.fault, cfg.max_phase_retries)
    }

    /// A handle that injects nothing and retries nothing — every phase
    /// runs exactly once on its base configuration (the fast path; used by
    /// direct callers of the phase functions, e.g. tests and benches).
    #[must_use]
    pub fn disabled() -> Self {
        Recovery::new(None, 0)
    }

    /// `true` iff a fault plan is active (sentinels will be evaluated).
    #[must_use]
    pub fn active(&self) -> bool {
        self.spec.is_some()
    }

    /// The accumulated [`FaultReport`].
    #[must_use]
    pub fn report(&self) -> FaultReport {
        self.report
    }

    /// The simulator config for `(seq, attempt)`, fault seed salted.
    fn salted(&self, seq: u64, attempt: u32) -> SimConfig {
        let spec = self.spec.expect("salted() is only reached with an active spec");
        SimConfig { fault: Some(spec.reseeded((seq << 16) | u64::from(attempt))) }
    }

    /// Runs one single-engine phase with detect-and-recover.
    ///
    /// `attempt` runs the phase on the given simulator config and returns
    /// the phase output plus its report; `sentinel` re-checks the output's
    /// invariant (evaluated only under an active fault plan). With no
    /// plan, the attempt runs exactly once on `base` — byte-identical to
    /// calling it directly.
    ///
    /// # Errors
    /// [`SolverError::Sim`] without a plan; [`SolverError::Unrecoverable`]
    /// when the retry budget is exhausted.
    pub fn phase<T>(
        &mut self,
        name: &str,
        base: SimConfig,
        mut attempt: impl FnMut(SimConfig) -> Result<(T, PhaseReport), SimError>,
        sentinel: impl Fn(&T) -> Result<(), String>,
    ) -> Result<(T, PhaseReport), SolverError> {
        let attempt = |sim| attempt(sim).map_err(SolverError::Sim);
        self.retry(name, base, attempt, |rep| (rep.faults, rep.rounds), sentinel)
    }

    /// Runs one *multi-engine* phase (e.g. the blocker construction or the
    /// Step-6 pipeline) with detect-and-recover. The attempt records its
    /// sub-phases into a scratch [`Recorder`]; only an accepted attempt's
    /// recording is absorbed into `rec` (under `prefix`), so rejected
    /// attempts never pollute the run's accounting — under faults, the
    /// final recorder equals the fault-free run's recorder exactly. The
    /// attempt's error is a [`SimError`] or a [`SolverError`]; an engine
    /// error is retried, any other is returned at once.
    ///
    /// # Errors
    /// As [`Recovery::phase`].
    pub fn compound<T, E: Into<SolverError>>(
        &mut self,
        name: &str,
        prefix: &str,
        base: SimConfig,
        rec: &mut Recorder,
        mut attempt: impl FnMut(SimConfig, &mut Recorder) -> Result<T, E>,
        sentinel: impl Fn(&T) -> Result<(), String>,
    ) -> Result<T, SolverError> {
        let (t, scratch) = self.retry(
            name,
            base,
            |sim| {
                let mut scratch = Recorder::new();
                attempt(sim, &mut scratch).map(|t| (t, scratch)).map_err(Into::into)
            },
            |scratch| (scratch.total_faults(), scratch.total_rounds()),
            sentinel,
        )?;
        rec.absorb(prefix, scratch);
        Ok(t)
    }

    /// The retry loop of [`phase`](Self::phase) and
    /// [`compound`](Self::compound). An attempt returns its output and
    /// what it ran, a [`PhaseReport`] or a scratch [`Recorder`]; `tally`
    /// reads the faults injected into that run and the rounds it took.
    fn retry<T, R>(
        &mut self,
        name: &str,
        base: SimConfig,
        mut attempt: impl FnMut(SimConfig) -> Result<(T, R), SolverError>,
        tally: impl Fn(&R) -> (FaultCounters, u64),
        sentinel: impl Fn(&T) -> Result<(), String>,
    ) -> Result<(T, R), SolverError> {
        if self.spec.is_none() {
            return attempt(base);
        }
        let seq = self.seq;
        self.seq += 1;
        let mut last_error = None;
        for attempt_no in 0..=self.max_retries {
            if attempt_no > 0 {
                self.report.retries += 1;
                if attempt_no == 1 {
                    self.report.phases_retried += 1;
                }
                note_retry(name, attempt_no);
            }
            match attempt(self.salted(seq, attempt_no)) {
                Err(SolverError::Sim(e)) => last_error = Some(e),
                Err(e) => return Err(e),
                Ok((t, ran)) => {
                    let (faults, rounds) = tally(&ran);
                    self.report.faults.merge(&faults);
                    let verified = sentinel(&t).is_ok();
                    if !verified {
                        self.report.sentinel_trips += 1;
                        note_sentinel_trip(name);
                    }
                    if faults.is_zero() && verified {
                        return Ok((t, ran));
                    }
                    self.report.rounds_lost += rounds;
                    last_error = None;
                }
            }
        }
        Err(SolverError::Unrecoverable {
            phase: name.to_string(),
            attempts: self.max_retries + 1,
            last_error,
        })
    }
}

/// Runs the end-of-pipeline whole-matrix certificate
/// ([`sentinels::matrix_exact`]) when a fault plan is active. Per-phase
/// sentinels make reaching this point with damage (vanishingly) unlikely;
/// a trip here means detection failed somewhere upstream, so there is
/// nothing sound to retry — it surfaces as
/// [`SolverError::Unrecoverable`].
pub(crate) fn final_certificate<W: Weight>(
    g: &Graph<W>,
    dist: &DistMatrix<W>,
    rc: &Recovery,
) -> Result<(), SolverError> {
    if !rc.active() {
        return Ok(());
    }
    sentinels::matrix_exact(g, dist).map_err(|e| SolverError::Unrecoverable {
        phase: format!("final matrix certificate ({e})"),
        attempts: 1,
        last_error: None,
    })
}

/// End-of-phase invariant sentinels. Each is a *local* re-check of what a
/// phase's output must look like — no oracle calls, no extra
/// communication rounds — evaluated only while a fault plan is active.
pub mod sentinels {
    use super::{Direction, DistMatrix, Graph, NodeId, SsspCollection, Weight};
    use crate::bf::BfTreeResult;
    use congest_sim::primitives::{BfsTree, FloodLogs};
    use congest_sim::Topology;

    /// The minimum weight of the direction-appropriate edge `p → v`
    /// (`None` if absent).
    fn edge_w<W: Weight>(g: &Graph<W>, dir: Direction, p: NodeId, v: NodeId) -> Option<W> {
        let it: Box<dyn Iterator<Item = (NodeId, W)>> = match dir {
            Direction::Out => Box::new(g.out_edges(p)),
            Direction::In => Box::new(g.in_edges(p)),
        };
        it.filter(|&(t, _)| t == v).map(|(_, w)| w).min()
    }

    /// Sentinel for a repaired hop-limited tree (Step 1 CSSSP trees):
    /// the root is at distance zero and every surviving parent pointer
    /// telescopes — `dist(v) = dist(parent) + w(parent, v)` with hop depth
    /// `hops(parent) + 1`. This certifies every recorded distance is
    /// *realizable* (an actual walk of that weight exists); it is
    /// one-sided — it cannot certify minimality under a hop limit.
    ///
    /// # Errors
    /// Describes the first violated link.
    pub fn repaired_tree<W: Weight>(
        g: &Graph<W>,
        dir: Direction,
        source: NodeId,
        res: &BfTreeResult<W>,
    ) -> Result<(), String> {
        let root = &res.entries[source as usize];
        if root.dist != W::ZERO || root.hops != 0 {
            return Err(format!("root {source} not at (0 dist, 0 hops)"));
        }
        for (v, e) in res.entries.iter().enumerate() {
            if !e.reached() {
                continue;
            }
            let Some(p) = e.parent else { continue };
            let pe = &res.entries[p as usize];
            if !pe.reached() {
                return Err(format!("node {v}: parent {p} detached"));
            }
            if pe.hops.checked_add(1) != Some(e.hops) {
                return Err(format!("node {v}: hop depth does not extend parent {p}"));
            }
            let Some(w) = edge_w(g, dir, p, v as NodeId) else {
                return Err(format!("node {v}: parent {p} is not a neighbor"));
            };
            if e.dist != pe.dist.plus(w) {
                return Err(format!("node {v}: distance does not telescope over parent {p}"));
            }
        }
        Ok(())
    }

    /// Sentinel for a raw (repair-free) hop-limited tree (Step 3 in-SSSPs):
    /// the root is at zero and every reached entry is within the hop
    /// budget. Parent linkage is intentionally *not* checked — without the
    /// repair sub-phase a parent's entry may legitimately have improved in
    /// the final receipt round (the horizon artifact, see `crate::bf`), so
    /// telescoping does not hold even on clean runs.
    ///
    /// # Errors
    /// Describes the first violation.
    pub fn bounded_tree<W: Weight>(
        source: NodeId,
        h: u64,
        res: &BfTreeResult<W>,
    ) -> Result<(), String> {
        let root = &res.entries[source as usize];
        if root.dist != W::ZERO || root.hops != 0 {
            return Err(format!("root {source} not at (0 dist, 0 hops)"));
        }
        for (v, e) in res.entries.iter().enumerate() {
            if e.reached() && u64::from(e.hops) > h {
                return Err(format!("node {v}: {} hops exceeds budget {h}", e.hops));
            }
        }
        Ok(())
    }

    /// Sentinel for a phase whose output row is a *complete* distance
    /// vector `d(v) = δ(src, v)` (full-horizon SSSP; Step-7 extension
    /// rows): `d(src) = 0` and the relaxation fixed point holds over every
    /// edge — `d(v) ≤ d(u) + w(u, v)` (direction-appropriate). Combined
    /// with `d ≥ δ` realizability this is a complete exactness
    /// certificate; on its own it bounds `d` from above by no more than
    /// one damaged relaxation.
    ///
    /// # Errors
    /// Describes the first violated edge.
    pub fn exact_row<W: Weight>(
        g: &Graph<W>,
        dir: Direction,
        source: NodeId,
        dist: impl Fn(usize) -> W,
    ) -> Result<(), String> {
        if dist(source as usize) != W::ZERO {
            return Err(format!("source {source} not at distance zero"));
        }
        for u in 0..g.n() as NodeId {
            let du = dist(u as usize);
            for (v, w) in g.out_edges(u) {
                // Out: d(v) ≤ d(u) + w.  In: d(u) ≤ d(v) + w.
                let (relaxed, over) = match dir {
                    Direction::Out => (dist(v as usize), du.plus(w)),
                    Direction::In => (du, dist(v as usize).plus(w)),
                };
                if relaxed > over {
                    return Err(format!("edge {u}->{v}: fixed point violated"));
                }
            }
        }
        Ok(())
    }

    /// Sentinel for the blocker set (Step 2): every root-to-full-leaf path
    /// in the CSSSP must contain a blocker below its root. Those h
    /// non-root vertices are the hyperedges of the paper's covering
    /// problem (§3.1). Complete for the phase's contract.
    ///
    /// # Errors
    /// Describes the first uncovered path.
    pub fn blocker_covers<W: Weight>(coll: &SsspCollection<W>, q: &[NodeId]) -> Result<(), String> {
        let mut in_q = vec![false; coll.n()];
        for &c in q {
            in_q[c as usize] = true;
        }
        for si in 0..coll.sources.len() {
            for v in 0..coll.n() as NodeId {
                if !coll.is_full_leaf(v, si) {
                    continue;
                }
                let path = coll.root_path(v, si).expect("full leaf is a member");
                // path is v..root; the root is no vertex of the hyperedge.
                if !path[..path.len() - 1].iter().any(|&u| in_q[u as usize]) {
                    return Err(format!("full-leaf path (tree {si}, leaf {v}) uncovered"));
                }
            }
        }
        Ok(())
    }

    /// Sentinel for the leader's BFS tree (Ar20's Step 2): it spans
    /// `topo` from its root. The root has no parent and depth 0; every
    /// other node has a parent that is its neighbor, one level above it,
    /// so every parent chain ends at the root; and the children lists are
    /// exactly the inverse of the parents, which is what the tree's
    /// channels ([`BfsTree::channels`]) and the convergecasts read.
    /// Complete for what its readers need (depths are not rechecked to be
    /// BFS distances).
    ///
    /// # Errors
    /// Names the first node that breaks the tree.
    pub fn spanning_tree(topo: &Topology, tree: &BfsTree) -> Result<(), String> {
        let n = topo.n();
        let sizes = [tree.parent.len(), tree.depth.len(), tree.children.len()];
        if sizes != [n; 3] {
            return Err(format!("the tree holds {sizes:?} entries for {n} nodes"));
        }
        let root = tree.root as usize;
        if root >= n || tree.parent[root].is_some() || tree.depth[root] != 0 {
            return Err(format!("root {root} has a parent or a nonzero depth"));
        }
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n as NodeId {
            if v == tree.root {
                continue;
            }
            let Some(p) = tree.parent[v as usize] else {
                return Err(format!("node {v} is not in the tree"));
            };
            if topo.neighbors(v).binary_search(&p).is_err() {
                return Err(format!("node {v}: parent {p} is not a neighbor"));
            }
            if tree.depth[p as usize].checked_add(1) != Some(tree.depth[v as usize]) {
                return Err(format!("node {v}: depth does not extend parent {p}"));
            }
            children[p as usize].push(v);
        }
        match (0..n).find(|&v| tree.children[v] != children[v]) {
            Some(v) => Err(format!("node {v}: children do not invert the parents")),
            None => Ok(()),
        }
    }

    /// Sentinel for an all-to-all flood (Step 4, the relay tables): every
    /// node's log holds every item the flood was seeded with. A lost frame
    /// starves the subtree behind it without any local symptom, so every
    /// log must be complete. Complete for drops (the flood pipeline
    /// delivers each item once per node on exactly one path).
    ///
    /// # Errors
    /// Names the first starved node.
    pub fn flood_complete<T>(logs: &FloodLogs<T>) -> Result<(), String> {
        let expected = logs.item_count();
        for v in 0..logs.n() as NodeId {
            if logs.log_len(v) != expected {
                return Err(format!("node {v} logged {} of {expected} items", logs.log_len(v)));
            }
        }
        Ok(())
    }

    /// Sentinel for Step 6 (delivery of `δ(·, q)` columns to their
    /// blockers): the delivered `|Q| × n` table must be the exact
    /// transpose of the locally computed `n × |Q|` source table — Step 6
    /// only *routes* known-exact values, so full equality is checkable.
    ///
    /// # Errors
    /// Names the first mismatched cell.
    pub fn transposed_delivery<W: Weight>(
        at_blocker: &DistMatrix<W>,
        dvals: &DistMatrix<W>,
    ) -> Result<(), String> {
        for qi in 0..at_blocker.rows() {
            for x in 0..at_blocker.cols() {
                if at_blocker[qi][x] != dvals[x][qi] {
                    return Err(format!("cell (q{qi}, {x}) diverges from the source table"));
                }
            }
        }
        Ok(())
    }

    /// Final whole-matrix sentinel (after Step 7, fault-active runs only):
    /// zero diagonal, the relaxation fixed point on every row, and
    /// first-hop telescoping `d(u, v) = w(u, s) + d(s, v)` for every
    /// recorded `s = successor(u, v)`. Fixed
    /// point bounds every entry from above by δ; telescoping certifies
    /// realizability, so together they are a complete exactness
    /// certificate.
    ///
    /// # Errors
    /// Describes the first violation.
    pub fn matrix_exact<W: Weight>(g: &Graph<W>, dist: &DistMatrix<W>) -> Result<(), String> {
        let n = g.n();
        for x in 0..n {
            if dist[x][x] != W::ZERO {
                return Err(format!("diagonal ({x}, {x}) not zero"));
            }
            exact_row(g, Direction::Out, x as NodeId, |t| dist[x][t])
                .map_err(|e| format!("row {x}: {e}"))?;
        }
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u == v {
                    continue;
                }
                let Some(s) = dist.successor(u, v) else { continue };
                let Some(w) = edge_w(g, Direction::Out, u, s) else {
                    return Err(format!("successor({u}, {v}) = {s} is not a neighbor"));
                };
                if dist[u as usize][v as usize] != w.plus(dist[s as usize][v as usize]) {
                    return Err(format!("successor({u}, {v}) does not telescope"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_phase(rounds: u64, faults: u64) -> (u8, PhaseReport) {
        let rep = PhaseReport {
            rounds,
            faults: FaultCounters { injected: faults, dropped: faults, ..FaultCounters::default() },
            ..PhaseReport::default()
        };
        (7, rep)
    }

    #[test]
    fn blocker_sentinel_rejects_a_cover_at_the_root_only() {
        use congest_graph::generators::{path, WeightDist};
        let g = path(4, true, WeightDist::Unit, 0);
        let topo = congest_sim::Topology::from_graph(&g);
        let coll = crate::csssp::build_csssp(
            &g,
            &topo,
            &[0],
            3,
            Direction::Out,
            SimConfig::default(),
            &mut Recorder::new(),
            &mut Recovery::disabled(),
            "c",
        )
        .unwrap();
        // The one full-length path is 0 -> 1 -> 2 -> 3; its root is no
        // vertex of the hyperedge.
        assert_eq!(
            sentinels::blocker_covers(&coll, &[0]),
            Err("full-leaf path (tree 0, leaf 3) uncovered".to_string())
        );
        assert!(!crate::blocker::is_valid_blocker(&coll, &[0]));
        for q in [1, 2, 3] {
            assert_eq!(sentinels::blocker_covers(&coll, &[q]), Ok(()), "q = {q}");
        }
    }

    /// The leader-tree sentinel passes the tree `build_bfs_tree` returns
    /// and rejects one that misses a node, one whose parent is no
    /// neighbor and one whose children lists do not invert its parents.
    #[test]
    fn spanning_tree_sentinel_rejects_broken_trees() {
        use congest_graph::generators::{gnm_connected, WeightDist};
        use congest_sim::primitives::build_bfs_tree;
        let g = gnm_connected(24, 30, false, WeightDist::Unit, 5);
        let topo = congest_sim::Topology::from_graph(&g);
        let (tree, _) = build_bfs_tree(&topo, SimConfig::default(), 0).unwrap();
        assert_eq!(sentinels::spanning_tree(&topo, &tree), Ok(()));
        // A leaf, its parent, and a node that is no neighbor of the leaf.
        let leaf = (0..24).find(|&v| tree.children[v].is_empty()).unwrap();
        let p = tree.parent[leaf].unwrap();
        let stranger = (1..24u32)
            .find(|&u| {
                u as usize != leaf && topo.neighbors(leaf as NodeId).binary_search(&u).is_err()
            })
            .unwrap();

        let mut missing = tree.clone();
        missing.parent[leaf] = None;
        missing.children[p as usize].retain(|&c| c as usize != leaf);
        assert_eq!(
            sentinels::spanning_tree(&topo, &missing),
            Err(format!("node {leaf} is not in the tree"))
        );
        let mut short = tree.clone();
        short.parent.pop();
        assert!(sentinels::spanning_tree(&topo, &short).is_err());

        let mut far = tree.clone();
        far.parent[leaf] = Some(stranger);
        assert_eq!(
            sentinels::spanning_tree(&topo, &far),
            Err(format!("node {leaf}: parent {stranger} is not a neighbor"))
        );

        let mut orphaned = tree.clone();
        orphaned.children[p as usize].retain(|&c| c as usize != leaf);
        assert_eq!(
            sentinels::spanning_tree(&topo, &orphaned),
            Err(format!("node {p}: children do not invert the parents"))
        );
    }

    #[test]
    fn disabled_recovery_runs_once_and_skips_sentinels() {
        let mut rc = Recovery::disabled();
        let mut calls = 0;
        let out = rc.phase(
            "p",
            SimConfig::default(),
            |sim| {
                calls += 1;
                assert!(sim.fault.is_none(), "no plan must reach the engine");
                Ok(ok_phase(3, 0))
            },
            |_| Err("sentinel must not be evaluated".into()),
        );
        assert!(out.is_ok());
        assert_eq!(calls, 1);
        assert!(rc.report().is_clean());
    }

    #[test]
    fn faulted_attempts_are_retried_until_clean() {
        let spec = FaultSpec::seeded(1).drops(1);
        let mut rc = Recovery::new(Some(spec), 4);
        let mut calls = 0;
        let (v, rep) = rc
            .phase(
                "p",
                SimConfig::default(),
                |sim| {
                    assert!(sim.fault.is_some(), "attempts must carry the salted plan");
                    calls += 1;
                    // Two damaged attempts, then a clean one.
                    Ok(ok_phase(10, u64::from(calls <= 2)))
                },
                |_| Ok(()),
            )
            .unwrap();
        assert_eq!((v, calls), (7, 3));
        assert!(rep.faults.is_zero(), "the accepted report is fault-free");
        let r = rc.report();
        assert_eq!(r.retries, 2);
        assert_eq!(r.phases_retried, 1);
        assert_eq!(r.rounds_lost, 20);
        assert_eq!(r.faults.injected, 2);
        assert_eq!(r.sentinel_trips, 0);
    }

    #[test]
    fn sentinel_trip_rejects_a_clean_attempt() {
        let spec = FaultSpec::seeded(2).drops(1);
        let mut rc = Recovery::new(Some(spec), 2);
        let mut calls = 0;
        let out = rc.phase(
            "p",
            SimConfig::default(),
            |_| {
                calls += 1;
                Ok(ok_phase(1, 0))
            },
            |_| Err("always broken".into()),
        );
        assert!(matches!(
            out,
            Err(SolverError::Unrecoverable { attempts: 3, last_error: None, .. })
        ));
        assert_eq!(calls, 3);
        assert_eq!(rc.report().sentinel_trips, 3);
    }

    #[test]
    fn engine_errors_are_retryable_and_reported() {
        let spec = FaultSpec::seeded(3).drops(1);
        let mut rc = Recovery::new(Some(spec), 1);
        let out: Result<(u8, PhaseReport), _> = rc.phase(
            "budget",
            SimConfig::default(),
            |_| Err(SimError::RoundBudgetExhausted { budget: 9 }),
            |_| Ok(()),
        );
        match out {
            Err(SolverError::Unrecoverable { phase, attempts, last_error }) => {
                assert_eq!(phase, "budget");
                assert_eq!(attempts, 2);
                assert_eq!(last_error, Some(SimError::RoundBudgetExhausted { budget: 9 }));
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn attempts_get_distinct_fault_seeds() {
        let spec = FaultSpec::seeded(4).drops(1);
        let mut rc = Recovery::new(Some(spec), 3);
        let mut seeds = Vec::new();
        let _ = rc.phase(
            "p",
            SimConfig::default(),
            |sim| {
                seeds.push(sim.fault.unwrap().seed);
                Ok(ok_phase(1, 1)) // never clean → exhausts the budget
            },
            |_| Ok(()),
        );
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "each attempt needs an independent pattern");
    }

    #[test]
    fn compound_absorbs_only_the_accepted_attempt() {
        let spec = FaultSpec::seeded(5).drops(1);
        let mut rc = Recovery::new(Some(spec), 3);
        let mut rec = Recorder::new();
        let mut calls = 0;
        let out = rc.compound(
            "c",
            "pre/",
            SimConfig::default(),
            &mut rec,
            |_, scratch| {
                calls += 1;
                let (_, rep) = ok_phase(5, u64::from(calls == 1));
                scratch.record(format!("sub{calls}"), rep);
                Ok::<_, SimError>(calls)
            },
            |_| Ok(()),
        );
        assert_eq!(out.unwrap(), 2);
        assert_eq!(rec.phases().len(), 1, "the rejected attempt's recording is discarded");
        assert_eq!(rec.phases()[0].name, "pre/sub2");
        assert!(rec.total_faults().is_zero());
        assert_eq!(rc.report().rounds_lost, 5);
    }
}
