//! Baseline APSP algorithms from Table 1 of the paper, for the empirical
//! round-complexity comparison (experiment T1). Both are selected
//! through [`crate::Solver`] via [`crate::Algorithm`].
//!
//! * `Naive` — one full Bellman–Ford per source: the folklore O(n²)
//!   worst-case algorithm (fast on low-hop-diameter graphs).
//! * `Ar18` — a same-framework reconstruction of Agarwal, Ramachandran,
//!   King & Pontecorvi (PODC 2018): h = √n CSSSP, greedy blocker set
//!   (O(nh + n|Q|)), one full in- and out-SSSP per blocker (O(n|Q|)), one
//!   O(n|Q|)-round broadcast of the (x, c) distance table, local combine —
//!   the last three are Step 6's relay construction
//!   ([`crate::pipeline::Relays`]) with Q as the relays.
//!   Measured rounds scale as Θ̃(n^{3/2}) — the bound the paper improves
//!   to Õ(n^{4/3}).

use crate::apsp::ApspMeta;
use crate::bf::run_full_sssp;
use crate::blocker::greedy_blocker;
use crate::csssp::build_csssp;
use crate::pipeline::Relays;
use crate::recovery::{sentinels, Recovery, SolverError};
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
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
    rec: &mut Recorder,
    rc: &mut Recovery,
) -> Result<(DistMatrix<W>, ApspMeta), SolverError> {
    let n = g.n();
    let mut dist = DistMatrix::square(n, W::INF).with_empty_successors();
    for x in 0..n as NodeId {
        // A full-horizon SSSP admits a complete certificate: realizable
        // parents (telescoping) plus the relaxation fixed point.
        let label = format!("naive: SSSP({x})");
        let (res, rep) = rc.phase(
            &label,
            SimConfig::default(),
            |sim| run_full_sssp(g, topo, x, Direction::Out, sim),
            |res| {
                sentinels::repaired_tree(g, Direction::Out, x, res)?;
                sentinels::exact_row(g, Direction::Out, x, |t| res.entries[t].dist)
            },
        )?;
        rec.record(label, rep);
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

    // Steps 3-4: Q is the relay set — a full in- and out-SSSP per blocker
    // (O(n) rounds each), then the n×|Q| table flood (O(n·|Q|) rounds,
    // Lemma A.2) with x's next hop toward c, which the sink t needs for its
    // successor in Step 5 and only x holds. The flood uses every channel:
    // Ar18 builds no leader tree, and one would cost D + 2 rounds.
    let labels = ["ar18/step3", "ar18/step4: (x, c) table broadcast"];
    let relays = Relays::run(g, topo, topo, &q, sim, rec, rc, labels)?;

    // Step 5 (local at every sink t): δ(x,t) = min(δ_h(x,t),
    // min_c δ(x,c) + δ(c,t)), tracking the first hop of the winning
    // decomposition.
    let step5 = Instant::now();
    let mut dist = DistMatrix::square(n, W::INF).with_empty_successors();
    for x in 0..n {
        for t in 0..n {
            // A non-member's cell is (INF, NO_SUCC), and no relay routes
            // a pair to INF, so an unreachable pair keeps no successor.
            let mut cell =
                if x == t { (W::ZERO, NO_SUCC) } else { (coll.dist[t][x], coll.first[t][x]) };
            relays.route(x, t, &mut cell);
            dist[x][t] = cell.0;
            dist.set_successor(x as NodeId, t as NodeId, cell.1);
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
