//! The blocker-set machinery as a standalone tool (§3 of the paper): build
//! an h-CSSSP on a hop-deep workload, construct blocker sets with all
//! three algorithms (greedy [2], randomized Algorithm 2, derandomized
//! Algorithm 2′) and compare sizes, rounds and the Lemma 3.8–3.10
//! counters — plus the sequential Berger–Rompel–Shor set cover on the
//! exported hypergraph as a sanity oracle.
//!
//! ```text
//! cargo run --release --example blocker_set_cover
//! ```

use congest_apsp::blocker::{alg2_blocker, greedy_blocker, is_valid_blocker, PathCtx};
use congest_apsp::csssp::build_csssp;
use congest_apsp::{BlockerParams, Selection};
use congest_derand::{brs_cover, greedy_cover, verify_cover};
use congest_graph::generators::{broom, WeightDist};
use congest_graph::seq::Direction;
use congest_graph::NodeId;
use congest_sim::primitives::build_bfs_tree;
use congest_sim::{Recorder, SimConfig, Topology};

fn main() {
    // A broom graph keeps shortest paths hop-deep, so full-length h-hop
    // paths (the hyperedges) actually exist.
    let n = 40;
    let h = 4;
    let g = broom(n, true, WeightDist::Uniform(1, 9), 7);
    let topo = Topology::from_graph(&g);
    let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let mut rec = Recorder::new();
    let coll = build_csssp(
        &g,
        &topo,
        &sources,
        h,
        Direction::Out,
        SimConfig::default(),
        &mut rec,
        &mut congest_apsp::Recovery::disabled(),
        "csssp",
    )
    .unwrap();
    let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
    println!("workload: broom n={n}, h={h}: {} full-length paths to cover\n", ctx.alive_count());

    // Greedy baseline of [2].
    let mut grec = Recorder::new();
    let gres = greedy_blocker(&topo, SimConfig::default(), &coll, &mut grec).unwrap();
    assert!(is_valid_blocker(&coll, &gres));
    println!("greedy [2]          : |Q| = {:2}, rounds = {:6}", gres.len(), grec.total_rounds());

    // Algorithm 2/2′ aggregate over the leader's BFS tree; each run's
    // rounds include building it.
    let (tree, tree_report) = build_bfs_tree(&topo, SimConfig::default(), 0).unwrap();

    // Randomized Algorithm 2.
    let mut rrec = Recorder::new();
    rrec.record("alg2: leader BFS tree", tree_report.clone());
    let (rres, rstats) = alg2_blocker(
        &topo,
        SimConfig::default(),
        &coll,
        &tree,
        BlockerParams::default(),
        Selection::Randomized { seed: 1 },
        &mut rrec,
    )
    .unwrap();
    assert!(is_valid_blocker(&coll, &rres));
    println!(
        "Algorithm 2  (rand) : |Q| = {:2}, rounds = {:6}, selection steps = {}, singleton/set = {}/{}",
        rres.len(),
        rrec.total_rounds(),
        rstats.selection_steps,
        rstats.singleton_picks,
        rstats.set_picks
    );

    // Derandomized Algorithm 2′.
    let mut drec = Recorder::new();
    drec.record("alg2: leader BFS tree", tree_report);
    let (dres, dstats) = alg2_blocker(
        &topo,
        SimConfig::default(),
        &coll,
        &tree,
        BlockerParams::default(),
        Selection::Derandomized,
        &mut drec,
    )
    .unwrap();
    assert!(is_valid_blocker(&coll, &dres));
    println!(
        "Algorithm 2' (det)  : |Q| = {:2}, rounds = {:6}, selection steps = {}, sample points = {}",
        dres.len(),
        drec.total_rounds(),
        dstats.selection_steps,
        dstats.sample_points_examined
    );

    // Sequential oracles on the same hypergraph.
    let hg = ctx.hypergraph(g.n());
    let sg = greedy_cover(&hg);
    let (sb, _) = brs_cover(&hg, BlockerParams::default(), Selection::Derandomized);
    assert!(verify_cover(&hg, &sg) && verify_cover(&hg, &sb));
    println!("\nsequential oracles  : greedy cover = {}, BRS cover = {}", sg.len(), sb.len());
    println!(
        "\nLemma 3.10 bound    : O(n ln p / h) = {:.1} (p = {} paths)",
        (n as f64) * (ctx.alive_count().max(2) as f64).ln() / h as f64,
        ctx.alive_count()
    );
}
