//! The solver's memory contract, measured with a counting global allocator
//! (the only test in its binary, so nothing else allocates while it runs):
//!
//! * a flood of K distinct items over n nodes holds each item once plus a
//!   `u32` index log and (1 + degree) bitsets per node, so its live-heap
//!   peak stays within n·K·4·2 + K·size_of::<T>() + the bitsets, where
//!   per-node copies of every item would take n·K·size_of::<T>();
//! * an h-hop CSSSP collection retains at most 32 bytes per (node, tree)
//!   cell plus O(n) row headers.
//!
//! Both results are checked complete, so no bound is met by dropping data.

use congest_apsp::csssp::build_csssp;
use congest_apsp::{Charging, Recovery};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::Direction;
use congest_graph::NodeId;
use congest_sim::primitives::all_to_all_broadcast;
use congest_sim::{Recorder, SimConfig, Topology};

mod counting_alloc;

/// One n × q table cell: (row, column, value), three words on the wire.
type Cell = (NodeId, u32, u64);

#[test]
fn floods_and_collections_stay_within_their_bounds() {
    // Flood: every node broadcasts its q-cell row of an n × q table.
    let (n, q) = (96, 8);
    let g = gnm_connected(n, 3 * n, false, WeightDist::Unit, 5);
    let topo = Topology::from_graph(&g);
    let initial: Vec<Vec<Cell>> = (0..n)
        .map(|x| (0..q).map(|c| (x as NodeId, c as u32, (x * q + c) as u64)).collect())
        .collect();
    let k = n * q;
    let bitsets = (n + topo.channels()) * k.div_ceil(64) * 8;
    let flood_bound = n * k * 4 * 2 + k * std::mem::size_of::<Cell>() + bitsets;
    let ((logs, _), flood_peak) = counting_alloc::peak_above_start(|| {
        all_to_all_broadcast(&topo, SimConfig::default(), initial, 3, |&(x, c, _)| {
            x as usize * q + c as usize
        })
        .unwrap()
    });
    println!(
        "flood n={n} K={k}: peak {flood_peak} B, bound {flood_bound} B ({:.2} of it)",
        flood_peak as f64 / flood_bound as f64
    );
    for v in 0..n as NodeId {
        let mut cells: Vec<usize> =
            logs.log(v).map(|&(x, c, _)| x as usize * q + c as usize).collect();
        cells.sort_unstable();
        assert!(cells.iter().copied().eq(0..k), "node {v} logged an incomplete table");
        assert!(logs.log(v).all(|&(x, c, val)| val == u64::from(x) * q as u64 + u64::from(c)));
    }
    drop(logs);

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
        Charging::Quiesce,
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

    assert!(flood_peak <= flood_bound, "flood peaked {flood_peak} B > bound {flood_bound} B");
    assert!(retained <= coll_bound, "collection retained {retained} B > bound {coll_bound} B");
}
