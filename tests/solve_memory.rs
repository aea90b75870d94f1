//! The solver's memory contract, measured with a counting global allocator
//! (the only test in its binary, so nothing else allocates while it runs):
//!
//! * a flood of K distinct items over n nodes holds each item once plus
//!   (1 + degree) bitsets and a window of at most K `u32` indices per
//!   node, so on a well-connected graph its live-heap peak stays within
//!   n·K·4·2 + K·size_of::<T>() + the bitsets, where per-node copies of
//!   every item would take n·K·size_of::<T>();
//! * on a tree, a flood's windows drain as fast as they fill, so its peak
//!   stays within K·size_of::<T>() + the bitsets + one full window of K
//!   indices + [`TREE_FLOOD_NODE_BYTES`] per node, where an n·K·4-byte
//!   log per node would not fit;
//! * an h-hop CSSSP collection retains at most 32 bytes per (node, tree)
//!   cell plus O(n) row headers;
//! * a solve's phase ledger retains at most [`LEDGER_PHASE_BYTES`] per
//!   recorded phase plus 16 bytes per node: each phase keeps its
//!   fixed-size counts, and the per-node send counts live in one running
//!   total, where a per-phase copy would cost 8·n bytes a phase.
//!
//! Every result is checked complete, so no bound is met by dropping data.

use congest_apsp::csssp::build_csssp;
use congest_apsp::{Recovery, Solver};
use congest_bench::workloads::sparse_random;
use congest_graph::generators::{broom, gnm_connected, WeightDist};
use congest_graph::seq::Direction;
use congest_graph::NodeId;
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{PhaseReport, Recorder, SimConfig, Topology};

mod counting_alloc;

/// One n × q table cell: (row, column, value), three words on the wire.
type Cell = (NodeId, u32, u64);

/// What a tree flood may hold per node beside the bitsets and the one full
/// window: its share of the engine's buffers, its channel cursors and
/// bitset headers, its own row's indices and a leaf's few-entry window.
const TREE_FLOOD_NODE_BYTES: usize = 512;

/// What one recorded phase may retain: its report, twice over for the
/// phase vector's growth slack, plus a 64-byte label.
const LEDGER_PHASE_BYTES: usize = 2 * std::mem::size_of::<PhaseReport>() + 64;

/// Floods an n × q table, every node broadcasting its q-cell row, checks
/// every node learned all of it, and returns the flood's live-heap peak.
fn table_flood_peak(topo: &Topology, q: usize) -> usize {
    let n = topo.n();
    let initial: Vec<Vec<Cell>> = (0..n)
        .map(|x| (0..q).map(|c| (x as NodeId, c as u32, (x * q + c) as u64)).collect())
        .collect();
    let ((logs, _), peak) = counting_alloc::peak_above_start(|| {
        all_to_all_broadcast(topo, SimConfig::default(), initial, 3, |&(x, c, _)| {
            x as usize * q + c as usize
        })
        .unwrap()
    });
    for v in 0..n as NodeId {
        let mut cells: Vec<usize> =
            logs.log(v).map(|&(x, c, _)| x as usize * q + c as usize).collect();
        cells.sort_unstable();
        assert!(cells.iter().copied().eq(0..n * q), "node {v} logged an incomplete table");
        assert!(logs.log(v).all(|&(x, c, val)| val == u64::from(x) * q as u64 + u64::from(c)));
    }
    peak
}

#[test]
fn floods_and_collections_stay_within_their_bounds() {
    // Flood on a well-connected graph: slow channels keep windows near K.
    let (n, q) = (96, 8);
    let k = n * q;
    let topo = Topology::from_graph(&gnm_connected(n, 3 * n, false, WeightDist::Unit, 5));
    let bitsets = (n + topo.channels()) * k.div_ceil(64) * 8;
    let flood_bound = n * k * 4 * 2 + k * std::mem::size_of::<Cell>() + bitsets;
    let flood_peak = table_flood_peak(&topo, q);
    println!(
        "flood gnm n={n} K={k}: peak {flood_peak} B, bound {flood_bound} B ({:.2} of it)",
        flood_peak as f64 / flood_bound as f64
    );

    // Flood on a tree: every cursor keeps pace, so the hub holds about one
    // window and the rest almost nothing.
    let topo = Topology::from_graph(&broom(n, false, WeightDist::Unit, 5));
    let bitsets = (n + topo.channels()) * k.div_ceil(64) * 8;
    let tree_bound = k * std::mem::size_of::<Cell>() + bitsets + k * 4 + TREE_FLOOD_NODE_BYTES * n;
    let tree_peak = table_flood_peak(&topo, q);
    println!(
        "flood broom n={n} K={k}: peak {tree_peak} B, bound {tree_bound} B ({:.2} of it)",
        tree_peak as f64 / tree_bound as f64
    );

    // Collection: all-sources h-hop trees at n = 128.
    let (n, h) = (128, 6);
    let g = gnm_connected(n, 3 * n, true, WeightDist::Uniform(1, 9), 11);
    let topo = Topology::from_graph(&g);
    let sources: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rec = Recorder::new();
    let mut rc = Recovery::disabled();
    let base = counting_alloc::live();
    let coll = build_csssp(
        &g,
        &topo,
        &sources,
        h,
        Direction::Out,
        SimConfig::default(),
        &mut rec,
        &mut rc,
        "csssp",
    )
    .unwrap();
    drop(rec);
    let retained = counting_alloc::live() - base;
    let cells = n * sources.len();
    let coll_bound = 32 * cells + 64 * n;
    println!(
        "collection n={n} h={h}: {retained} B retained, bound {coll_bound} B ({:.1} B per cell)",
        retained as f64 / cells as f64
    );
    coll.check_consistency(&g).unwrap();
    let (mut members, mut links) = (0, 0);
    for si in 0..sources.len() {
        for v in 0..n as NodeId {
            links += coll.children(v, si).len();
            if !coll.is_member(v, si) {
                continue;
            }
            members += 1;
            if let Some(p) = coll.parent(v, si) {
                assert!(coll.children(p, si).contains(&v), "tree {si}: {v} missing under {p}");
            }
        }
    }
    assert_eq!(links, members - sources.len(), "every non-root member is one child link");
    println!("collection members: {members} of {cells} cells");

    // Ledger: an Ar20 solve on a graph where blockers fire.
    let g = sparse_random(128, 1);
    let n = g.n();
    let mut out = Solver::builder(&g).run().unwrap();
    assert!(!out.meta.q.is_empty(), "blockers fire on sparse_random(128, 1)");
    let rec = std::mem::take(&mut out.recorder);
    let (phases, sent) = (rec.phases().len(), rec.node_sent_totals());
    assert_eq!(sent.iter().sum::<u64>(), rec.total_messages(), "each message is one send");
    let before = counting_alloc::live();
    drop(rec);
    let ledger = before - counting_alloc::live();
    let ledger_bound = LEDGER_PHASE_BYTES * phases + 16 * n;
    println!(
        "ledger n={n}: {phases} phases, {ledger} B retained, bound {ledger_bound} B \
         ({:.1} B per phase)",
        ledger as f64 / phases as f64
    );

    assert!(flood_peak <= flood_bound, "flood peaked {flood_peak} B > bound {flood_bound} B");
    assert!(tree_peak <= tree_bound, "tree flood peaked {tree_peak} B > bound {tree_bound} B");
    assert!(retained <= coll_bound, "collection retained {retained} B > bound {coll_bound} B");
    assert!(ledger <= ledger_bound, "ledger retained {ledger} B > bound {ledger_bound} B");
}
