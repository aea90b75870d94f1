//! Algorithm 1 — the paper's deterministic Õ(n^{4/3})-round APSP.
//!
//! Step map (§2):
//! 1. h-CSSSP for S = V, h = n^{1/3}           → [`crate::csssp`]
//! 2. blocker set Q                             → [`crate::blocker`]
//! 3. h-in-SSSP per c ∈ Q                       → [`crate::bf`]
//! 4. broadcast of the Q×Q δ_h matrix           → flooding over the leader
//!    tree (Lemma A.2)
//! 5. local min-plus closure at every node      → zero rounds
//! 6. reversed q-sink propagation               → [`crate::pipeline`]
//! 7. h-hop extension per source                → [`crate::extension`]
//!
//! Step 2 opens with the leader's BFS tree (Algorithm 7 Step 2), built
//! once per run: Algorithm 2/2′ aggregates over it, Step 6's Q′ reuses it,
//! and the Lemma A.2 table floods of Steps 4 and 6 run over its channels,
//! so each item crosses each tree edge once.
//!
//! Steps 3–5 (`dist_to_blockers`) run on Step 6's relay parts, with Q
//! as the relays ([`Relays`]): the in-trees fill the to-table, the flood
//! is the one Lemma A.2 table flood, the closure fills the from-table and
//! [`Relays::route`] combines x → c′ → c.

use crate::bf::run_bf;
use crate::blocker::{alg2_blocker, Alg2Stats};
use crate::config::ApspConfig;
use crate::csssp::build_csssp;
use crate::extension::extend_all_sources;
use crate::pipeline::{flood_table, propagate_to_blockers, Relays, RoutedTable, Step6Stats};
use crate::recovery::{sentinels, FaultReport, Recovery, SolverError};
use congest_derand::Selection;
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::primitives::build_bfs_tree;
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

    // Step 2 opens with the leader's BFS tree (Algorithm 7 Step 2), the
    // one tree of the run: Step 2 and Step 6's Q′ aggregate over it, and
    // the table floods of Steps 4 and 6 run over its channels.
    let label = "step2: leader BFS tree";
    let (tree, rep) = rc.phase(
        label,
        sim,
        |sim| build_bfs_tree(topo, sim, 0),
        |tree| sentinels::spanning_tree(topo, tree),
    )?;
    rec.record(label, rep);

    // Step 2: blocker set (a multi-engine phase: recoverable as one unit,
    // with the covering property — every full root-to-leaf path hits Q —
    // as the sentinel).
    let (q, stats) = rc.compound(
        "step2: blocker set (Algorithm 2)",
        "step2/",
        sim,
        rec,
        |sim, brec| alg2_blocker(topo, sim, &coll, &tree, cfg.blocker, selection, brec),
        |(q, _)| sentinels::blocker_covers(&coll, q),
    )?;
    meta.blocker_stats = Some(stats);
    meta.q = q.clone();

    // Steps 3-5: δ(x, c) at every x for every blocker c.
    let dvals = dist_to_blockers(g, topo, &tree.channels(), h, &q, rec, rc)?;

    // Step 6: reversed q-sink propagation. Step 6 only *routes* the
    // locally known-exact dvals table, so the sentinel can demand the
    // delivered table equal its transpose cell-for-cell.
    let (at_blocker, stats) = rc.compound(
        "step6: pipelined propagation",
        "",
        sim,
        rec,
        |sim, srec| propagate_to_blockers(g, topo, cfg, sim, &q, &dvals, &tree, srec),
        |(out, _)| sentinels::transposed_delivery(&out.dist, &dvals.dist),
    )?;
    meta.step6 = Some(stats);

    // Step 7: h-hop extension per source (assembles the successor plane).
    let dist = extend_all_sources(g, topo, &coll, &q, &at_blocker, rec, rc)?;
    Ok((dist, meta))
}

/// Algorithm 1's Steps 3–5: returns the routed n × |Q| table of δ(x, c)
/// for every node x and blocker `c = q[qi]`, with x's first hop toward c.
/// They run on [`Relays`], with Q as the relays:
///
/// 3. each blocker's h-hop in-tree fills the to-table with δ_h(x, c′) and
///    x's parent, its next hop toward c′ (local routing state, so it costs
///    no message);
/// 4. the blockers' rows of that table, the Q×Q δ_h matrix, are flooded
///    over `flood`'s channels (Ar20 passes its leader tree's) as 3-word
///    items (c, c′, δ_h(c, c′)): c's own parent rides along but only c
///    reads it;
/// 5. every node closes the matrix with Floyd–Warshall into the
///    from-table (one row per target blocker c: δ(c′, c) with c′'s first
///    hop, known at c′ from its own parents), and routes each
///    x → c′ → c with [`Relays::route`]; the orchestrator mirrors it once.
///
/// Each tree and the flood is one phase of `rc`, on the fault-free config.
///
/// # Errors
/// As [`Recovery::phase`].
pub(crate) fn dist_to_blockers<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    flood: &Topology,
    h: usize,
    q: &[NodeId],
    rec: &mut Recorder,
    rc: &mut Recovery,
) -> Result<RoutedTable<W>, SolverError> {
    let (n, qn) = (g.n(), q.len());
    let sim = SimConfig::default();
    let table = |rows| RoutedTable::new(DistMatrix::filled(rows, qn, W::INF));
    let mut relays = Relays { relays: q.to_vec(), to: table(n), from: table(qn) };
    for (qi, &c) in q.iter().enumerate() {
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
        for (x, e) in res.entries.iter().enumerate() {
            relays.to.set(x, qi, (e.dist, e.parent.unwrap_or(NO_SUCC)));
        }
    }

    if qn > 0 {
        let label = "step4: QxQ matrix broadcast";
        let blocker_row = |x: usize, j| {
            if q.contains(&(x as NodeId)) {
                relays.to.get(x, j)
            } else {
                (W::INF, NO_SUCC)
            }
        };
        let (_, rep) = rc.phase(
            label,
            sim,
            |sim| flood_table(flood, sim, qn, 3, blocker_row),
            sentinels::flood_complete,
        )?;
        rec.record(label, rep);
    }

    // Step 5 (local): `from` holds δ(c_i, c_j) at (j, i).
    let step5 = Instant::now();
    let from = &mut relays.from;
    for (i, &c) in q.iter().enumerate() {
        from.set(i, i, (W::ZERO, NO_SUCC));
        for j in 0..qn {
            let cell = relays.to.get(c as usize, j);
            if cell.0 < from.dist[j][i] {
                from.set(j, i, cell);
            }
        }
    }
    for k in 0..qn {
        for i in 0..qn {
            let (ik, first) = from.get(k, i);
            if ik.is_inf() {
                continue;
            }
            for j in 0..qn {
                let via = ik.plus(from.dist[j][k]);
                if via < from.dist[j][i] {
                    from.set(j, i, (via, first));
                }
            }
        }
    }
    let mut dvals = table(n);
    for x in 0..n {
        for qi in 0..qn {
            let mut cell = relays.to.get(x, qi);
            relays.route(x, qi, &mut cell);
            dvals.set(x, qi, cell);
        }
    }
    rec.record_local("step5: local closure over Q", step5.elapsed());
    Ok(dvals)
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

    /// Steps 3–5 give every node its exact distance to every blocker,
    /// with a first hop that telescopes, on a graph where Q is large and
    /// on a hop-deep one (Q as Ar20's Step 2 picks it).
    #[test]
    fn steps_3_to_5_route_every_blocker_exactly() {
        let cases = [
            (gnm_connected(64, 128, true, WeightDist::Uniform(0, 100), 1), 20),
            (congest_graph::generators::broom(64, true, WeightDist::Uniform(1, 20), 1), 9),
        ];
        for (g, qn) in cases {
            let q = Solver::builder(&g).run().unwrap().meta.q;
            assert_eq!(q.len(), qn);
            let (topo, h) = (Topology::from_graph(&g), ApspConfig::default().hop_param(g.n()));
            let mut rc = Recovery::disabled();
            let tree = build_bfs_tree(&topo, SimConfig::default(), 0).unwrap().0;
            let (flood, mut rec) = (tree.channels(), Recorder::new());
            let dvals = dist_to_blockers(&g, &topo, &flood, h, &q, &mut rec, &mut rc).unwrap();
            let exact = apsp_dijkstra(&g);
            for x in 0..g.n() {
                for (qi, &c) in q.iter().enumerate() {
                    let c = c as usize;
                    let (d, f) = dvals.get(x, qi);
                    assert_eq!(d, exact[x][c], "δ({x}, {c})");
                    if x == c || d.is_inf() {
                        continue;
                    }
                    let w = g.out_edges(x as NodeId).filter(|&(v, _)| v == f).map(|(_, w)| w).min();
                    let w = w.unwrap_or_else(|| panic!("({x}, {c}): {f} is no out-neighbor"));
                    assert_eq!(
                        d,
                        w.plus(exact[f as usize][c]),
                        "({x}, {c}): {f} does not telescope"
                    );
                }
            }
        }
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
