//! Step 7 of Algorithm 1: h-hop shortest-path extension (§5).
//!
//! For each source x in sequence, run h rounds of Bellman–Ford where every
//! blocker node c starts at its known δ(x, c) and every node t starts at
//! its δ_h(x, t) from the Step-1 CSSSP. Extended h-hop paths from blockers
//! then reach every sink with the exact δ(x, t) (Lemma 5.1; O(nh) rounds
//! total).
//!
//! Every seed is *routed* — it carries the first hop out of x on the path
//! its value summarizes (Step-1 trees for the δ_h seeds, the Step-6
//! delivery for the blocker seeds) — and the extension's relax messages
//! keep threading that first hop forward. After the run for source x, node
//! t's entry names x's successor toward t, and the per-source results
//! aggregate into the target-major successor plane on the returned matrix:
//! no reverse-BFS post-pass anywhere.

use crate::bf::{run_bf, BfSeeds};
use crate::csssp::SsspCollection;
use crate::pipeline::RoutedTable;
use crate::recovery::{sentinels, Recovery, SolverError};
use congest_graph::seq::Direction;
use congest_graph::{DistMatrix, Graph, NodeId, Weight, NO_SUCC};
use congest_sim::{Recorder, SimConfig, Topology};

/// Runs the extension for every source and returns the full distance
/// matrix `dist[x][t]` carrying the target-major successor plane.
///
/// * `coll` — the Step-1 h-hop CSSSP (out direction, S = V, with its
///   first-hop plane).
/// * `q` / `at_blocker` — blocker ids and the `|Q| × n` table
///   `at_blocker.dist[qi][x] = δ(x, q_qi)` as delivered by Step 6 (each
///   blocker knows its own column, with the first hop out of x riding
///   along).
///
/// Every per-source extension runs through `rc` as its own recoverable
/// phase (sentinel: [`sentinels::exact_row`] — the extension's output row
/// is a complete distance vector, so the relaxation fixed point is
/// checkable locally).
///
/// # Errors
/// Propagates engine errors; [`SolverError::Unrecoverable`] when a source
/// exhausts the retry budget.
pub fn extend_all_sources<W: Weight>(
    g: &Graph<W>,
    topo: &Topology,
    coll: &SsspCollection<W>,
    q: &[NodeId],
    at_blocker: &RoutedTable<W>,
    rec: &mut Recorder,
    rc: &mut Recovery,
) -> Result<DistMatrix<W>, SolverError> {
    let n = g.n();
    let h = coll.h as u64;
    let mut dist = DistMatrix::square(n, W::INF).with_empty_successors();
    for x in 0..n as NodeId {
        let xi = x as usize;
        // Initialization known locally at each node: blockers hold the
        // Step-6 value; every tree member holds its Step-1 δ_h(x, ·). The
        // first hops ride along without participating in any comparison.
        let mut init = vec![W::INF; n];
        let mut init_first = vec![NO_SUCC; n];
        for (qi, &c) in q.iter().enumerate() {
            (init[c as usize], init_first[c as usize]) = at_blocker.get(qi, xi);
        }
        for t in 0..n {
            let d = coll.dist[t][xi];
            if d < init[t] {
                init[t] = d;
                init_first[t] = coll.first[t][xi];
            }
        }
        let label = format!("step7: extension from {x}");
        let (res, rep) = rc.phase(
            &label,
            SimConfig::default(),
            |sim| {
                let seeds = BfSeeds { dist: &init, first: &init_first };
                run_bf(g, topo, x, Direction::Out, h, Some(seeds), None, sim)
            },
            |res| sentinels::exact_row(g, Direction::Out, x, |t| res.entries[t].dist),
        )?;
        rec.record(label, rep);
        for t in 0..n {
            dist[xi][t] = res.entries[t].dist;
            // Target-major aggregation: x's successor toward t.
            dist.set_successor(x, t as NodeId, res.entries[t].first.unwrap_or(NO_SUCC));
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csssp::build_csssp;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    /// With oracle-exact blocker values, the extension must produce the
    /// exact APSP matrix whenever every (x, t) pair either has an ≤h-hop
    /// shortest path or a blocker within h hops of t on a shortest path.
    /// Feeding ALL nodes as blockers guarantees that unconditionally.
    #[test]
    fn extension_with_all_blockers_is_exact() {
        let n = 14;
        let g = gnm_connected(n, 30, true, WeightDist::Uniform(0, 9), 4);
        let topo = Topology::from_graph(&g);
        // This harness feeds oracle distances without first hops, so only
        // the distances are checked.
        let mut rec = Recorder::new();
        let sources: Vec<NodeId> = (0..n as NodeId).collect();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            2,
            congest_graph::seq::Direction::Out,
            SimConfig::default(),
            &mut rec,
            &mut Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        let exact = apsp_dijkstra(&g);
        let q: Vec<NodeId> = (0..n as NodeId).collect();
        // at_blocker[qi][x] = δ(x, qi)
        let at_blocker = RoutedTable::new(congest_graph::DistMatrix::from_rows(
            (0..n).map(|c| (0..n).map(|x| exact[x][c]).collect()).collect(),
        ));
        let dist = extend_all_sources(
            &g,
            &topo,
            &coll,
            &q,
            &at_blocker,
            &mut rec,
            &mut Recovery::disabled(),
        )
        .unwrap();
        assert_eq!(dist, exact);
    }

    #[test]
    fn extension_without_blockers_gives_h_hop_distances() {
        let n = 12;
        let g = gnm_connected(n, 24, true, WeightDist::Uniform(1, 7), 6);
        let topo = Topology::from_graph(&g);
        let h = 3;
        let mut rec = Recorder::new();
        let sources: Vec<NodeId> = (0..n as NodeId).collect();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            h,
            congest_graph::seq::Direction::Out,
            SimConfig::default(),
            &mut rec,
            &mut Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        let empty = RoutedTable::new(congest_graph::DistMatrix::filled(0, n, u64::INF));
        let dist =
            extend_all_sources(&g, &topo, &coll, &[], &empty, &mut rec, &mut Recovery::disabled())
                .unwrap();
        // with no blockers, result must be within [δ, δ_2h]: at least the
        // h-hop reachability of the CSSSP extended by h more hops.
        let exact = apsp_dijkstra(&g);
        for x in 0..n {
            for t in 0..n {
                assert!(dist[x][t] >= exact[x][t]);
                if coll.dist[t][x] != u64::INF {
                    assert!(dist[x][t] <= coll.dist[t][x]);
                }
            }
        }
    }
}
