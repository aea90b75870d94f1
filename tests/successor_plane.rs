//! Differential property tests for Step-7 distributed successor tracking.
//!
//! Every pipeline-produced successor plane must (a) be adopted by the
//! oracle *without* a reverse-BFS derivation (witnessed by the process-wide
//! derivation counter), (b) survive the oracle's full plane validation
//! (`check_plane` + graph-consistency telescoping — adoption panics
//! otherwise, so building the oracle *is* the check), and (c) reconstruct
//! paths that are weight-identical to those of a derivation-built oracle
//! and to the Dijkstra distances — across directed/undirected, zero-weight
//! and real-valued (F64) graph classes, for all three algorithms.

use congest_apsp::{Algorithm, Selection, Solver};
use congest_bench::workloads::hop_deep;
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{Graph, NodeId, Weight, F64};
use congest_oracle::{successor_derivations, IntoOracle, Oracle};
use proptest::prelude::*;
use std::sync::Mutex;

/// The derivation counter is process-wide; tests that compare its deltas
/// must not interleave with other oracle builds in this binary.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Total weight of `walk` in `g`, taking the min parallel edge per step.
fn walk_weight<W: Weight>(g: &Graph<W>, walk: &[NodeId]) -> W {
    let mut total = W::ZERO;
    for pair in walk.windows(2) {
        let w = g
            .out_edges(pair[0])
            .filter(|&(t, _)| t == pair[1])
            .map(|(_, w)| w)
            .min()
            .expect("every path step must be an edge of the graph");
        total = total.plus(w);
    }
    total
}

/// The full differential contract for one graph + algorithm:
/// supplied-plane oracle == derived-plane oracle == Dijkstra, with zero
/// derivations on the supplied path and exactly one on the derived path.
fn check_plane_contract<W: Weight>(g: &Graph<W>, solver: Solver<'_, W>) {
    let _guard = lock();
    let exact = apsp_dijkstra(g);
    let out = solver.run().unwrap();
    assert!(out.dist.successors().is_some(), "every outcome must carry a plane");
    assert!(out.dist == exact, "distances diverged");

    let before = successor_derivations();
    // Adoption runs check_plane + the graph-consistency telescoping pass;
    // an invalid pipeline plane would panic right here.
    let supplied = out.into_oracle(g);
    assert_eq!(successor_derivations(), before, "supplied plane must skip the derivation");
    let derived = Oracle::from_dist(g, exact.clone());
    assert_eq!(successor_derivations(), before + 1, "plane-less build must derive");

    let n = g.n();
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            let d = exact[u as usize][v as usize];
            let (ps, pd) = (supplied.path(u, v), derived.path(u, v));
            if u == v {
                assert_eq!(ps, Some(vec![u]));
                continue;
            }
            if d.is_inf() {
                assert!(ps.is_none() && pd.is_none(), "({u}, {v}) must be unreachable");
                continue;
            }
            let ps = ps.expect("reachable pair must have a supplied-plane path");
            let pd = pd.expect("reachable pair must have a derived-plane path");
            assert_eq!((ps[0], *ps.last().unwrap()), (u, v));
            assert_eq!(walk_weight(g, &ps), d, "supplied path ({u}, {v}) not min-weight");
            assert_eq!(walk_weight(g, &pd), d, "derived path ({u}, {v}) not min-weight");
            assert_eq!(supplied.distance(u, v), d);
        }
    }
}

proptest! {
    // Each case runs full CONGEST simulations plus n² path walks over two
    // oracles; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Ar20 (the paper pipeline) across directed/undirected and
    /// zero-weight random graphs.
    #[test]
    fn ar20_plane_is_exact(
        n in 8usize..14,
        extra in 0usize..24,
        seed in 0u64..10_000,
        directed: bool,
        zero_weights: bool,
    ) {
        let wd = if zero_weights { WeightDist::Uniform(0, 6) } else { WeightDist::Uniform(1, 9) };
        let g = gnm_connected(n, extra, directed, wd, seed);
        check_plane_contract(&g, Solver::builder(&g).build());
    }

    /// The baselines fill the plane too — an independent witness computed
    /// by entirely different machinery (full SSSPs instead of the
    /// blocker/extension pipeline).
    #[test]
    fn baseline_planes_are_exact(
        n in 8usize..13,
        extra in 0usize..20,
        seed in 0u64..10_000,
        directed: bool,
    ) {
        let g = gnm_connected(n, extra, directed, WeightDist::Uniform(0, 9), seed);
        for algorithm in [Algorithm::Ar18, Algorithm::Naive] {
            check_plane_contract(&g, Solver::builder(&g).algorithm(algorithm).build());
        }
    }
}

/// Real-valued weights go through the same contract (halved integers keep
/// every path sum exactly representable, so equality is exact).
#[test]
fn f64_plane_is_exact() {
    let g = gnm_connected(14, 30, true, WeightDist::Uniform(0, 8), 17);
    let gf = g.map_weights(|w| F64::new(w as f64 * 0.5));
    check_plane_contract(&gf, Solver::builder(&gf).build());
}

/// Small hop parameters force traffic through every Step-6 delivery
/// mechanism (relays and the round-robin push); the adopted plane must
/// stay valid under both Step-2 selections.
#[test]
fn plane_valid_under_step6_variants_and_small_h() {
    let g = gnm_connected(15, 28, true, WeightDist::Uniform(0, 7), 23);
    for h in [1usize, 2] {
        for selection in [Selection::Derandomized, Selection::Randomized { seed: 0xC0FFEE }] {
            check_plane_contract(&g, Solver::builder(&g).hop_param(h).selection(selection).build());
        }
    }
}

/// CONGEST message-size budget: every phase's widest message stays within
/// 4 machine words (tree/source ids, a distance, a first-hop id — each one
/// O(log n) bits), and the per-phase payload accounting is populated.
#[test]
fn message_size_within_congest_budget_with_tracking() {
    let g = gnm_connected(20, 44, true, WeightDist::Uniform(0, 9), 77);
    for algorithm in [Algorithm::Ar20, Algorithm::Ar18, Algorithm::Naive] {
        let out = Solver::builder(&g).algorithm(algorithm).run().unwrap();
        for p in out.recorder.phases() {
            assert!(
                p.max_msg_words <= 4,
                "{algorithm:?}/{}: {}-word message exceeds the O(log n)-bit budget",
                p.name,
                p.max_msg_words
            );
            if p.messages > 0 {
                assert!(p.payload_words >= p.messages, "{algorithm:?}/{}", p.name);
            }
        }
        // Tracking is visible in the accounting: some phase carries the
        // extra first-hop word.
        assert!(
            out.recorder.max_msg_words() >= 3,
            "{algorithm:?}: tracked relax messages must be ≥ 3 words"
        );
    }
}

/// A table broadcast tells every sink the source's next hop with its
/// distance, since only the source holds it: 4 words per message, in
/// Ar18's Step 4 and in Step 6's relay broadcasts alike.
#[test]
fn table_broadcasts_carry_the_next_hop() {
    let g = hop_deep(64, 1);
    for algorithm in [Algorithm::Ar18, Algorithm::Ar20] {
        let out = Solver::builder(&g).algorithm(algorithm).run().unwrap();
        let tables: Vec<_> =
            out.recorder.phases().iter().filter(|p| p.name.ends_with("table broadcast")).collect();
        assert!(!tables.is_empty(), "{algorithm:?}: blockers fire on hop_deep(64, 1)");
        for p in tables {
            assert!(p.messages > 0, "{algorithm:?}/{}", p.name);
            assert_eq!(
                (p.payload_words, p.max_msg_words),
                (4 * p.messages, 4),
                "{algorithm:?}/{}: words per message",
                p.name
            );
        }
    }
}
