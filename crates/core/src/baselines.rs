//! Baseline APSP algorithms from Table 1 of the paper, for the empirical
//! round-complexity comparison (experiment T1). Both are selected
//! through [`crate::Solver`] via [`crate::Algorithm`].
//!
//! * `Naive` — one full Bellman–Ford per source: the folklore O(n²)
//!   worst-case algorithm (fast on low-hop-diameter graphs).
//! * `Ar18` — a same-framework reconstruction of Agarwal, Ramachandran,
//!   King & Pontecorvi (PODC 2018): h = √n CSSSP, greedy blocker set
//!   (O(nh + n|Q|)), one full in- and out-SSSP per blocker (O(n|Q|)), one
//!   O(n|Q|)-round broadcast of the (x, c) distance table, local combine.
//!   Measured rounds scale as Θ̃(n^{3/2}) — the bound the paper improves
//!   to Õ(n^{4/3}).

use crate::apsp::ApspMeta;
use crate::bf::run_full_sssp;
use crate::blocker::greedy_blocker;
use crate::config::ApspConfig;
use crate::csssp::build_csssp;
use crate::recovery::{sentinels, Recovery, SolverError};
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{Recorder, SimConfig, Topology};
use std::time::Instant;

/// One full Bellman–Ford per source (n sequential SSSPs), inside the frame
/// of [`crate::Solver::run`] with [`crate::Algorithm::Naive`].
///
/// Each SSSP threads first hops through its relax messages, so the outcome
/// carries the same target-major successor plane the AR pipelines produce
/// — an independent witness for the differential plane tests.
pub(crate) fn run_naive<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    cfg: &ApspConfig,
    rec: &mut Recorder,
    rc: &mut Recovery,
) -> Result<(DistMatrix<W>, ApspMeta), SolverError> {
    let n = g.n();
    let mut dist = DistMatrix::square(n, W::INF).with_empty_successors();
    for x in 0..n as NodeId {
        // A full-horizon SSSP admits a complete certificate: realizable
        // parents (telescoping) plus the relaxation fixed point.
        let (res, rep) = rc.phase(
            &format!("naive: SSSP({x})"),
            SimConfig::default(),
            |sim| run_full_sssp(g, topo, x, Direction::Out, sim, cfg.charging),
            |res| {
                sentinels::repaired_tree(g, Direction::Out, x, res)?;
                sentinels::exact_row(g, Direction::Out, x, |t| res.entries[t].dist)
            },
        )?;
        rec.record(format!("naive: SSSP({x})"), rep);
        for t in 0..n {
            dist[x as usize][t] = res.entries[t].dist;
            dist.set_successor(x, t as NodeId, res.entries[t].first.unwrap_or(NO_SUCC));
        }
    }
    Ok((dist, ApspMeta::default()))
}

/// The Õ(n^{3/2})-round deterministic baseline (\[2\]-style), inside the
/// frame of [`crate::Solver::run`] with [`crate::Algorithm::Ar18`].
pub(crate) fn run_ar18<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    cfg: &ApspConfig,
    rec: &mut Recorder,
    rc: &mut Recovery,
) -> Result<(DistMatrix<W>, ApspMeta), SolverError> {
    let n = g.n();
    // h = ⌈√n⌉ balances O(nh) against O(n|Q|) with |Q| = Õ(n/h).
    let h = (n as f64).sqrt().ceil() as usize;
    let mut meta = ApspMeta { h, ..Default::default() };
    // Fault-free unless `rc` holds a fault plan, which then runs each
    // attempt on its own salted config.
    let sim = SimConfig::default();

    // Step 1: h-CSSSP for V.
    let sources: Vec<NodeId> = (0..n as NodeId).collect();
    let coll = build_csssp(
        g,
        topo,
        &sources,
        h,
        Direction::Out,
        sim,
        cfg.charging,
        rec,
        rc,
        "ar18/step1: sqrt(n)-CSSSP",
    )?;

    // Step 2: greedy blocker set (the O(n·|Q|) construction of [2]).
    let q = rc.compound(
        "ar18/step2: greedy blocker set",
        "ar18/step2/",
        sim,
        rec,
        |sim, brec| greedy_blocker(topo, sim, &coll, brec),
        |q| sentinels::blocker_covers(&coll, q),
    )?;
    meta.q = q.clone();

    // Step 3: full in-SSSP and out-SSSP per blocker (O(n) rounds each).
    // For successor tracking, an in-SSSP parent at x doubles as x's next
    // hop toward the blocker, and the out-SSSP threads first hops so a
    // blocker source x = c knows its own first hop toward every sink.
    let mut to_q: Vec<Vec<W>> = Vec::with_capacity(q.len()); // δ(x, c) at x
    let mut to_q_next: Vec<Vec<NodeId>> = Vec::with_capacity(q.len()); // next hop at x
    let mut from_q: Vec<Vec<W>> = Vec::with_capacity(q.len()); // δ(c, t) at t
    let mut from_q_first: Vec<Vec<NodeId>> = Vec::with_capacity(q.len()); // c's first hop
    for &c in &q {
        let full_cert = |dir: Direction| {
            move |res: &crate::bf::BfTreeResult<W>| {
                sentinels::repaired_tree(g, dir, c, res)?;
                sentinels::exact_row(g, dir, c, |t| res.entries[t].dist)
            }
        };
        let (res, rep) = rc.phase(
            &format!("ar18/step3: in-SSSP({c})"),
            sim,
            |sim| run_full_sssp(g, topo, c, Direction::In, sim, cfg.charging),
            full_cert(Direction::In),
        )?;
        rec.record(format!("ar18/step3: in-SSSP({c})"), rep);
        to_q.push(res.entries.iter().map(|e| e.dist).collect());
        to_q_next.push(res.entries.iter().map(|e| e.parent.unwrap_or(NO_SUCC)).collect());
        let (res, rep) = rc.phase(
            &format!("ar18/step3: out-SSSP({c})"),
            sim,
            |sim| run_full_sssp(g, topo, c, Direction::Out, sim, cfg.charging),
            full_cert(Direction::Out),
        )?;
        rec.record(format!("ar18/step3: out-SSSP({c})"), rep);
        from_q.push(res.entries.iter().map(|e| e.dist).collect());
        from_q_first.push(res.entries.iter().map(|e| e.first.unwrap_or(NO_SUCC)).collect());
    }

    // Step 4: broadcast the n×|Q| table (O(n·|Q|) rounds, Lemma A.2), one
    // (x, qi, δ(x, c), x's next hop toward c) item per cell, keyed by the
    // cell: the sink t needs the hop for its successor in Step 5, and only
    // x holds it.
    let qn = q.len();
    if qn > 0 {
        type Item<W> = (NodeId, u32, W, NodeId);
        let initial: Vec<Vec<Item<W>>> = (0..n)
            .map(|x| {
                (0..qn)
                    .filter(|&qi| !to_q[qi][x].is_inf())
                    .map(|qi| (x as NodeId, qi as u32, to_q[qi][x], to_q_next[qi][x]))
                    .collect()
            })
            .collect();
        let key = move |&(x, qi, _, _): &Item<W>| x as usize * qn + qi as usize;
        let expected: usize = initial.iter().map(Vec::len).sum();
        let (_, rep) = rc.phase(
            "ar18/step4: (x, c) table broadcast",
            sim,
            |sim| all_to_all_broadcast(topo, sim, initial.clone(), 4, key),
            |logs| sentinels::flood_complete(logs, expected),
        )?;
        rec.record("ar18/step4: (x, c) table broadcast", rep);
    }

    // Step 5 (local at every sink t): δ(x,t) = min(δ_h(x,t),
    // min_c δ(x,c) + δ(c,t)), tracking the first hop of the winning
    // decomposition.
    let step5 = Instant::now();
    let mut dist = DistMatrix::square(n, W::INF).with_empty_successors();
    for x in 0..n {
        for t in 0..n {
            let mut best = if x == t { W::ZERO } else { coll.dist[t][x] };
            let mut first = if x == t { NO_SUCC } else { coll.first[t][x] };
            for qi in 0..q.len() {
                let a = to_q[qi][x];
                let b = from_q[qi][t];
                if a.is_inf() || b.is_inf() {
                    continue;
                }
                let via = a.plus(b);
                if via < best {
                    best = via;
                    // Path x →(in-tree) c →(out-tree) t starts on the
                    // in-tree segment unless x is the blocker itself.
                    first =
                        if q[qi] as usize == x { from_q_first[qi][t] } else { to_q_next[qi][x] };
                }
            }
            dist[x][t] = best;
            dist.set_successor(
                x as NodeId,
                t as NodeId,
                if best.is_inf() { NO_SUCC } else { first },
            );
        }
    }
    rec.record_local("ar18/step5: local combine", step5.elapsed());
    Ok((dist, meta))
}

#[cfg(test)]
mod tests {
    use crate::solver::{Algorithm, Solver};
    use congest_graph::generators::{gnm_connected, Family, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    #[test]
    fn naive_exact() {
        for seed in 0..3 {
            let g = gnm_connected(14, 28, true, WeightDist::Uniform(0, 9), seed);
            let out = Solver::builder(&g).algorithm(Algorithm::Naive).run().unwrap();
            assert_eq!(out.dist, apsp_dijkstra(&g));
        }
    }

    #[test]
    fn ar18_exact() {
        for seed in 0..3 {
            let g = gnm_connected(16, 32, true, WeightDist::Uniform(0, 9), seed);
            let out = Solver::builder(&g).algorithm(Algorithm::Ar18).run().unwrap();
            assert_eq!(out.dist, apsp_dijkstra(&g), "seed {seed}");
        }
    }

    #[test]
    fn ar18_exact_on_deep_families() {
        for fam in [Family::Path, Family::Broom, Family::Cycle] {
            let g = fam.build(18, true, WeightDist::Uniform(1, 5), 4);
            let out = Solver::builder(&g).algorithm(Algorithm::Ar18).run().unwrap();
            assert_eq!(out.dist, apsp_dijkstra(&g), "{}", fam.name());
        }
    }

    #[test]
    fn ar18_h_is_sqrt_n() {
        let g = gnm_connected(25, 50, false, WeightDist::Unit, 0);
        let out = Solver::builder(&g).algorithm(Algorithm::Ar18).run().unwrap();
        assert_eq!(out.meta.h, 5);
    }
}
