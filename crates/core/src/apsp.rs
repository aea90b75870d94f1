//! Algorithm 1 — the paper's deterministic Õ(n^{4/3})-round APSP.
//!
//! Step map (§2):
//! 1. h-CSSSP for S = V, h = n^{1/3}           → [`crate::csssp`]
//! 2. blocker set Q                             → [`crate::blocker`]
//! 3. h-in-SSSP per c ∈ Q                       → [`crate::bf`]
//! 4. broadcast of the Q×Q δ_h matrix           → flooding (Lemma A.2)
//! 5. local min-plus closure at every node      → zero rounds
//! 6. reversed q-sink propagation               → [`crate::pipeline`]
//! 7. h-hop extension per source                → [`crate::extension`]

use crate::bf::run_bf;
use crate::blocker::{alg2_blocker, Alg2Stats};
use crate::config::ApspConfig;
use crate::csssp::build_csssp;
use crate::extension::extend_all_sources;
use crate::pipeline::{propagate_to_blockers, RoutedTable, Step6Stats};
use crate::recovery::{sentinels, FaultReport, Recovery, SolverError};
use congest_derand::Selection;
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{Recorder, SimConfig, Topology};
use std::time::Instant;

/// Metadata about one APSP run (sizes and lemma counters).
#[derive(Clone, Debug, Default)]
pub struct ApspMeta {
    /// Hop parameter h.
    pub h: usize,
    /// The blocker set Q.
    pub q: Vec<NodeId>,
    /// Blocker-construction counters (Algorithm 2/2′; Ar20 only).
    pub blocker_stats: Option<Alg2Stats>,
    /// Step-6 counters (Ar20 only).
    pub step6: Option<Step6Stats>,
}

/// Result of a distributed APSP run: the full distance matrix in one flat
/// arena (`dist[x][t]`, `INF` when unreachable), per-phase round
/// accounting, and run metadata.
///
/// `dist` also carries the target-major successor plane filled *during*
/// the distributed phases — `dist.successor(u, v)` is the first hop from `u`
/// toward `v` — which `congest_oracle::Oracle::from_dist` adopts by move,
/// skipping its reverse-BFS derivation entirely.
#[derive(Clone, Debug)]
pub struct ApspOutcome<W> {
    /// `dist[x][t] = δ(x, t)`, square and row-major.
    pub dist: DistMatrix<W>,
    /// Phase-by-phase rounds, messages, payload, host time and maximum
    /// node congestion. Each recorded phase keeps only these fixed-size
    /// counts; the per-node send counts are summed into one running total
    /// ([`Recorder::node_sent_totals`]), so the ledger costs O(n + phases)
    /// words beside the n² answer.
    pub recorder: Recorder,
    /// Sizes and counters.
    pub meta: ApspMeta,
    /// What the fault plane did to this run (all-zero without a plan; see
    /// [`crate::recovery`]). A successful outcome's `dist` is
    /// bit-identical to the fault-free run regardless of these counters —
    /// they measure what recovery *absorbed*, not residual damage.
    pub fault_report: FaultReport,
}

impl<W: Weight> ApspOutcome<W> {
    /// Number of nodes the run covered.
    #[must_use]
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// Consumes the outcome, handing the n² distance arena to a consumer
    /// (e.g. the `congest_oracle` serving layer) without cloning it; the
    /// recorder and metadata are dropped. For the one-line compute→serve
    /// handoff use `congest_oracle::IntoOracle::into_oracle` instead.
    #[must_use]
    pub fn into_dist(self) -> DistMatrix<W> {
        self.dist
    }
}

/// Runs Algorithm 1 (the paper's Õ(n^{4/3}) APSP) inside the frame of
/// [`crate::Solver::run`], which checks the input and builds `topo`, `rec`
/// and `rc`. `selection` picks Algorithm 2 or 2′ for Step 2; Step 6 runs
/// the pipelined Algorithms 8 and 9. Returns the distances with their
/// successor plane, and the run's sizes and counters.
pub(crate) fn run_ar20<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    cfg: &ApspConfig,
    selection: Selection,
    rec: &mut Recorder,
    rc: &mut Recovery,
) -> Result<(DistMatrix<W>, ApspMeta), SolverError> {
    let n = g.n();
    let mut meta = ApspMeta { h: cfg.hop_param(n), ..Default::default() };
    let h = meta.h;
    // Fault-free unless `rc` holds a fault plan, which then runs each
    // attempt on its own salted config.
    let sim = SimConfig::default();

    // Step 1: h-CSSSP for V (its out-trees thread first hops — the
    // extension seeds reuse them).
    let sources: Vec<NodeId> = (0..n as NodeId).collect();
    let coll =
        build_csssp(g, topo, &sources, h, Direction::Out, sim, rec, rc, "step1: h-CSSSP for V")?;

    // Step 2: blocker set (a multi-engine phase: recoverable as one unit,
    // with the covering property — every full root-to-leaf path hits Q —
    // as the sentinel).
    let (q, stats) = rc.compound(
        "step2: blocker set (Algorithm 2)",
        "step2/",
        sim,
        rec,
        |sim, brec| alg2_blocker(topo, sim, &coll, cfg.blocker, selection, brec),
        |(q, _)| sentinels::blocker_covers(&coll, q),
    )?;
    meta.blocker_stats = Some(stats);
    meta.q = q.clone();

    // Step 3: h-in-SSSP per blocker; to_q[qi][x] = δ_h(x, q_qi) at x. An
    // in-direction parent pointer *is* the next hop from x toward the
    // blocker, so successor tracking needs no extra message traffic here —
    // each node keeps its local parent as routing state.
    let mut to_q: Vec<Vec<W>> = Vec::with_capacity(q.len());
    let mut to_q_next: Vec<Vec<NodeId>> = Vec::with_capacity(q.len());
    for &c in &q {
        // Sentinel note: these trees run without the repair sub-phase, so
        // only the hop budget and the root entry are checkable — stale
        // parents are legitimate at a truncated horizon (see crate::bf).
        let label = format!("step3: h-in-SSSP({c})");
        let (res, rep) = rc.phase(
            &label,
            sim,
            |sim| run_bf(g, topo, c, Direction::In, h as u64, None, None, sim),
            |res| sentinels::bounded_tree(c, h as u64, res),
        )?;
        rec.record(label, rep);
        to_q.push(res.entries.iter().map(|e| e.dist).collect());
        to_q_next.push(res.entries.iter().map(|e| e.parent.unwrap_or(NO_SUCC)).collect());
    }

    // Step 4: every c broadcasts (c, c', δ_h(c, c')) — |Q|² values, each
    // keyed by its (from, to) blocker pair.
    let qn = q.len();
    if qn > 0 {
        let initial: Vec<Vec<(u32, u32, W)>> = (0..n)
            .map(|v| {
                if let Some(qi) = q.iter().position(|&c| c as usize == v) {
                    (0..qn)
                        .filter(|&qj| !to_q[qj][v].is_inf())
                        .map(|qj| (qi as u32, qj as u32, to_q[qj][v]))
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let key = move |&(qi, qj, _): &(u32, u32, W)| qi as usize * qn + qj as usize;
        // A dropped frame starves every log behind it without any local
        // symptom, so the sentinel demands complete logs everywhere.
        let expected: usize = initial.iter().map(Vec::len).sum();
        let label = "step4: QxQ matrix broadcast";
        let (_, rep) = rc.phase(
            label,
            sim,
            |sim| all_to_all_broadcast(topo, sim, initial.clone(), 3, key),
            |logs| sentinels::flood_complete(logs, expected),
        )?;
        rec.record(label, rep);
    }

    // Step 5 (local): min-plus closure of the Q×Q matrix, then
    // dvals[x][qi] = δ(x, q_qi). Every node performs the same closure on
    // the broadcast matrix; the orchestrator mirrors it once. The closure
    // also carries first-hop provenance:
    // `closure_fh[i][j]` is the first *graph* hop out of node q_i on the
    // realizing path toward q_j — local knowledge at q_i (its Step-3
    // parents) combined with the broadcast matrix, so every node can still
    // compute its own rows without extra communication.
    let step5 = Instant::now();
    let mut closure = vec![vec![W::INF; qn]; qn];
    let mut closure_fh = vec![vec![NO_SUCC; qn]; qn];
    for qi in 0..qn {
        closure[qi][qi] = W::ZERO;
        for qj in 0..qn {
            let d = to_q[qj][q[qi] as usize];
            if d < closure[qi][qj] {
                closure[qi][qj] = d;
                closure_fh[qi][qj] = to_q_next[qj][q[qi] as usize];
            }
        }
    }
    for k in 0..qn {
        for i in 0..qn {
            if closure[i][k].is_inf() {
                continue;
            }
            for j in 0..qn {
                let via = closure[i][k].plus(closure[k][j]);
                if via < closure[i][j] {
                    closure[i][j] = via;
                    closure_fh[i][j] = closure_fh[i][k];
                }
            }
        }
    }
    let mut dvals = RoutedTable::new(DistMatrix::filled(n, qn, W::INF));
    for x in 0..n {
        for qi in 0..qn {
            let mut best = to_q[qi][x];
            let mut first = to_q_next[qi][x];
            for qj in 0..qn {
                let seg = to_q[qj][x];
                if seg.is_inf() {
                    continue;
                }
                let via = seg.plus(closure[qj][qi]);
                if via < best {
                    best = via;
                    // The combined path starts with the δ_h(x, q_j)
                    // segment, unless x *is* q_j — then it starts inside
                    // the closure.
                    first = if q[qj] as usize == x { closure_fh[qj][qi] } else { to_q_next[qj][x] };
                }
            }
            dvals.dist.set(x, qi, best);
            dvals.set_first(x, qi, first);
        }
    }
    rec.record_local("step5: local closure over Q", step5.elapsed());

    // Step 6: reversed q-sink propagation. Step 6 only *routes* the
    // locally known-exact dvals table, so the sentinel can demand the
    // delivered table equal its transpose cell-for-cell.
    let (at_blocker, stats) = rc.compound(
        "step6: pipelined propagation",
        "",
        sim,
        rec,
        |sim, srec| propagate_to_blockers(g, topo, cfg, sim, &q, &dvals, srec),
        |(out, _)| sentinels::transposed_delivery(&out.dist, &dvals.dist),
    )?;
    meta.step6 = Some(stats);

    // Step 7: h-hop extension per source (assembles the successor plane).
    let dist = extend_all_sources(g, topo, &coll, &q, &at_blocker, rec, rc)?;
    Ok((dist, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Algorithm, Solver};
    use congest_derand::BlockerParams;
    use congest_graph::generators::{gnm_connected, Family, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    fn check_exact(g: &Graph<u64>, selection: Selection) {
        let out = Solver::builder(g).selection(selection).run().unwrap();
        let oracle = apsp_dijkstra(g);
        assert_eq!(out.dist, oracle, "{selection:?}");
    }

    #[test]
    fn paper_configuration_exact_on_random_graphs() {
        for seed in 0..3 {
            let g = gnm_connected(16, 32, true, WeightDist::Uniform(0, 9), seed);
            check_exact(&g, Selection::Derandomized);
        }
    }

    #[test]
    fn randomized_blocker_exact() {
        let g = gnm_connected(15, 30, true, WeightDist::Uniform(1, 9), 7);
        check_exact(&g, Selection::Randomized { seed: 0xC0FFEE });
    }

    #[test]
    fn exact_on_families() {
        for fam in [Family::Path, Family::Star, Family::Broom, Family::Layered] {
            let g = fam.build(15, true, WeightDist::Uniform(1, 6), 3);
            check_exact(&g, Selection::Derandomized);
        }
    }

    #[test]
    fn meta_reports_q_and_h() {
        let g = gnm_connected(20, 40, true, WeightDist::Uniform(1, 9), 1);
        let out = Solver::builder(&g).run().unwrap();
        assert_eq!(out.meta.h, 3); // ceil(20^(1/3))
        assert!(out.recorder.total_rounds() > 0);
        // Q must be a valid blocker-sized set (possibly empty on shallow graphs)
        assert!(out.meta.q.len() <= 20);
    }

    #[test]
    fn out_of_range_blocker_params_are_a_typed_error() {
        let g = gnm_connected(20, 40, true, WeightDist::Uniform(1, 9), 1);
        let oracle = apsp_dijkstra(&g);
        let bad =
            [(0.5, 0.1), (f64::NAN, 0.1), (0.1, f64::NAN), (0.0, 0.1), (0.1, -0.1), (0.3, 0.3)];
        for (eps, delta) in bad {
            let params = BlockerParams { eps, delta };
            assert!(!params.in_range(), "{params:?}");
            // Step 6's Q′ reads the constants too, so every Ar20
            // selection refuses them.
            for selection in [Selection::Derandomized, Selection::Randomized { seed: 1 }] {
                match Solver::builder(&g).selection(selection).blocker_params(params).run() {
                    Err(SolverError::InvalidBlockerParams { eps: e, delta: d }) => {
                        assert_eq!((e.to_bits(), d.to_bits()), (eps.to_bits(), delta.to_bits()));
                    }
                    other => panic!("{params:?}/{selection:?}: {:?}", other.map(|o| o.meta.q)),
                }
            }
            // Ar18 and Naive never read them.
            for alg in [Algorithm::Ar18, Algorithm::Naive] {
                let out = Solver::builder(&g).algorithm(alg).blocker_params(params).run().unwrap();
                assert_eq!(out.dist, oracle, "{alg:?}");
            }
        }
        assert!(BlockerParams::default().in_range());
    }

    #[test]
    fn disconnected_rejected() {
        let g: Graph<u64> = Graph::from_edges(4, true, vec![congest_graph::Edge::new(0, 1, 1)]);
        for alg in [Algorithm::Ar20, Algorithm::Ar18, Algorithm::Naive] {
            let res = Solver::builder(&g).algorithm(alg).run();
            assert!(matches!(res, Err(SolverError::Disconnected)), "{alg:?}");
        }
    }
}
