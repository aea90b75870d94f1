//! Engine determinism suite: the parallel stepping path must be
//! *bit-identical* to sequential stepping — same node states, same phase
//! reports, same errors — for every worker count and every topology.
//!
//! The engine relies on this (the paper's algorithms are deterministic, so
//! any divergence is a simulator bug): parallel stepping partitions nodes
//! into contiguous ranges whose outbox slot ranges are disjoint, and
//! delivery compacts messages in a fixed receiver-major, sender-sorted
//! order that cannot observe thread scheduling.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_sim::fault::FaultSpec;
use congest_sim::primitives::{
    all_to_all_broadcast, broadcast_stream, build_bfs_tree, convergecast_budget, convergecast_sum,
};
use congest_sim::{
    Engine, Envelope, NodeEnv, NodeLogic, Outbox, PhaseReport, RunUntil, SimConfig, SimError,
    Topology,
};
use proptest::prelude::*;

/// Sequential reference configuration.
fn seq_cfg() -> SimConfig {
    SimConfig { parallel_threshold: usize::MAX, ..Default::default() }
}

/// Forces the worker-pool path regardless of n.
fn par_cfg(workers: usize) -> SimConfig {
    SimConfig { parallel_threshold: 0, workers, ..Default::default() }
}

fn random_topo(n: usize, extra: usize, seed: u64) -> Topology {
    Topology::from_graph(&gnm_connected(n, extra, false, WeightDist::Unit, seed))
}

/// Flood key of items that are their own key.
fn id(x: &u32) -> usize {
    *x as usize
}

#[test]
fn flood_parallel_matches_sequential() {
    for seed in 0..5u64 {
        let topo = random_topo(24, 40, seed);
        let initial: Vec<Vec<u32>> = (0..24).map(|i| vec![i as u32, 1000 + seed as u32]).collect();
        let (seq_logs, seq_rep) =
            all_to_all_broadcast(&topo, seq_cfg(), initial.clone(), 1, id).unwrap();
        for workers in [2, 3, 5] {
            let (par_logs, par_rep) =
                all_to_all_broadcast(&topo, par_cfg(workers), initial.clone(), 1, id).unwrap();
            assert_eq!(seq_logs, par_logs, "seed {seed} workers {workers}: logs diverge");
            assert_eq!(seq_rep, par_rep, "seed {seed} workers {workers}: report diverges");
        }
    }
}

#[test]
fn bfs_tree_parallel_matches_sequential() {
    for seed in 0..5u64 {
        let topo = random_topo(30, 55, seed);
        let (seq_tree, seq_rep) = build_bfs_tree(&topo, seq_cfg(), 3).unwrap();
        for workers in [2, 4] {
            let (par_tree, par_rep) = build_bfs_tree(&topo, par_cfg(workers), 3).unwrap();
            assert_eq!(seq_tree.parent, par_tree.parent, "seed {seed} workers {workers}");
            assert_eq!(seq_tree.depth, par_tree.depth, "seed {seed} workers {workers}");
            assert_eq!(seq_tree.children, par_tree.children, "seed {seed} workers {workers}");
            assert_eq!(seq_rep, par_rep, "seed {seed} workers {workers}");
        }
    }
}

#[test]
fn tree_cast_parallel_matches_sequential() {
    let topo = random_topo(20, 30, 9);
    let (tree, _) = build_bfs_tree(&topo, seq_cfg(), 0).unwrap();
    let k = 12;
    let vals: Vec<Vec<u64>> =
        (0..20).map(|v| (0..k).map(|mu| (v * 31 + mu) as u64).collect()).collect();
    let until = RunUntil::Quiesce { max: convergecast_budget(&tree, k) };
    let (seq_sums, seq_rep) =
        convergecast_sum(&topo, seq_cfg(), &tree, vals.clone(), until).unwrap();
    let (par_sums, par_rep) = convergecast_sum(&topo, par_cfg(3), &tree, vals, until).unwrap();
    assert_eq!(seq_sums, par_sums);
    assert_eq!(seq_rep, par_rep);

    let values: Vec<u64> = (0..40).collect();
    let (seq_rx, seq_rep) = broadcast_stream(&topo, seq_cfg(), &tree, values.clone()).unwrap();
    let (par_rx, par_rep) = broadcast_stream(&topo, par_cfg(4), &tree, values).unwrap();
    assert_eq!(seq_rx, par_rx);
    assert_eq!(seq_rep, par_rep);
}

/// A protocol with order-sensitive state: each node keeps a running hash of
/// (round, sender, payload) receipt triples and echoes its hash onward, so
/// any difference in receive order or content snowballs.
struct HashChain {
    acc: u64,
    rounds_left: u32,
}

impl NodeLogic for HashChain {
    type Msg = u64;

    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
        for e in inbox {
            self.acc = self
                .acc
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(env.round)
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(u64::from(e.from))
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(e.msg);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.broadcast(self.acc ^ u64::from(env.id));
        }
    }

    fn active(&self) -> bool {
        self.rounds_left > 0
    }

    // Real in-domain corruption so seeded corrupt plans exercise mutation
    // (not the drop fallback): any u64 is a valid payload for this protocol.
    fn corrupt_msg(&self, msg: &mut u64, entropy: u64) -> bool {
        *msg ^= entropy | 1;
        true
    }
}

fn run_hash_chain(topo: &Topology, cfg: SimConfig) -> (Vec<u64>, PhaseReport) {
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<HashChain> =
        (0..topo.n()).map(|v| HashChain { acc: v as u64 + 1, rounds_left: 8 }).collect();
    let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 64 }).unwrap();
    (nodes.into_iter().map(|nd| nd.acc).collect(), report)
}

#[test]
fn order_sensitive_state_is_bit_identical() {
    for seed in 0..8u64 {
        let topo = random_topo(26, 50, seed);
        let (seq_state, seq_rep) = run_hash_chain(&topo, seq_cfg());
        for workers in [2, 3, 7] {
            let (par_state, par_rep) = run_hash_chain(&topo, par_cfg(workers));
            assert_eq!(seq_state, par_state, "seed {seed} workers {workers}");
            assert_eq!(seq_rep, par_rep, "seed {seed} workers {workers}");
        }
    }
}

/// Like [`run_hash_chain`] but fault-tolerant in the harness: under an
/// aggressive fault plan the run may legitimately exhaust its budget, and
/// that outcome must also be identical across stepping paths.
fn run_hash_chain_faulted(
    topo: &Topology,
    cfg: SimConfig,
) -> (Vec<u64>, Result<PhaseReport, SimError>) {
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<HashChain> =
        (0..topo.n()).map(|v| HashChain { acc: v as u64 + 1, rounds_left: 8 }).collect();
    let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 64 });
    (nodes.into_iter().map(|nd| nd.acc).collect(), report)
}

/// Same `FaultSpec` seed ⇒ byte-identical node states and phase reports
/// (including the fault counters) whether nodes are stepped sequentially
/// or by the worker pool, for every fault class.
#[test]
fn fault_injection_is_worker_invariant() {
    let classes = [
        ("drop", FaultSpec::seeded(0xD0).drops(120_000)),
        ("corrupt", FaultSpec::seeded(0xC0).corruption(120_000)),
        ("crash", FaultSpec::seeded(0xCA).crashes(150_000, 3)),
        ("flap", FaultSpec::seeded(0xF1).flaps(150_000, 3)),
        (
            "all",
            FaultSpec::seeded(0xA1)
                .drops(60_000)
                .corruption(60_000)
                .crashes(80_000, 2)
                .flaps(80_000, 2),
        ),
    ];
    for (name, spec) in classes {
        for seed in 0..4u64 {
            let topo = random_topo(22, 40, seed);
            let (seq_state, seq_rep) =
                run_hash_chain_faulted(&topo, SimConfig { fault: Some(spec), ..seq_cfg() });
            if let Ok(rep) = &seq_rep {
                assert!(
                    rep.faults.injected > 0,
                    "{name} seed {seed}: plan was meant to inject something"
                );
            }
            for workers in [2, 5] {
                let (par_state, par_rep) = run_hash_chain_faulted(
                    &topo,
                    SimConfig { fault: Some(spec), ..par_cfg(workers) },
                );
                assert_eq!(seq_state, par_state, "{name} seed {seed} workers {workers}: state");
                assert_eq!(seq_rep, par_rep, "{name} seed {seed} workers {workers}: report");
            }
        }
    }
}

/// Violations must surface identically: same error, attributed to the same
/// (lowest) node id, regardless of which worker stepped the offender.
#[derive(Clone)]
struct EveryoneViolates;

impl NodeLogic for EveryoneViolates {
    type Msg = u8;

    fn on_round(&mut self, env: &NodeEnv<'_>, _ib: &[Envelope<u8>], out: &mut Outbox<'_, u8>) {
        if env.round == 1 {
            // Second message on a bandwidth-1 channel: illegal everywhere.
            out.send_nbr(0, 1);
            out.send_nbr(0, 2);
        } else if env.round == 0 {
            out.broadcast(0);
        }
    }
}

#[test]
fn first_violation_wins_deterministically() {
    let topo = random_topo(17, 20, 4);
    let mk = || vec![EveryoneViolates; 17];
    let engine = Engine::new(&topo, seq_cfg());
    let seq_err = engine.run(&mut mk(), RunUntil::Quiesce { max: 10 }).unwrap_err();
    assert!(matches!(seq_err, SimError::BandwidthExceeded { from: 0, round: 1, .. }));
    for workers in [2, 3, 6] {
        let engine = Engine::new(&topo, par_cfg(workers));
        let par_err = engine.run(&mut mk(), RunUntil::Quiesce { max: 10 }).unwrap_err();
        assert_eq!(seq_err, par_err, "workers {workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Parallel == sequential on arbitrary graphs, worker counts and
    /// payload distributions, for the order-sensitive hash-chain protocol.
    #[test]
    fn hash_chain_deterministic(
        n in 2usize..32,
        extra in 0usize..60,
        seed in 0u64..500,
        workers in 2usize..8,
    ) {
        let topo = random_topo(n, extra, seed);
        let (seq_state, seq_rep) = run_hash_chain(&topo, seq_cfg());
        let (par_state, par_rep) = run_hash_chain(&topo, par_cfg(workers));
        prop_assert_eq!(seq_state, par_state);
        prop_assert_eq!(seq_rep, par_rep);
    }

    /// Flood logs (content *and* discovery order) are worker-invariant.
    #[test]
    fn flood_deterministic(
        n in 2usize..24,
        extra in 0usize..40,
        seed in 0u64..500,
        workers in 2usize..6,
        items in proptest::collection::vec((0usize..24, 0u32..90), 0..20),
    ) {
        let topo = random_topo(n, extra, seed);
        let mut initial: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (slot, item) in items {
            initial[slot % n].push(item);
        }
        let (seq_logs, seq_rep) =
            all_to_all_broadcast(&topo, seq_cfg(), initial.clone(), 1, id).unwrap();
        let (par_logs, par_rep) =
            all_to_all_broadcast(&topo, par_cfg(workers), initial, 1, id).unwrap();
        prop_assert_eq!(seq_logs, par_logs);
        prop_assert_eq!(seq_rep, par_rep);
    }
}

/// The exact engine tests from the module run identically under the pool;
/// spot-check the quiesce/budget bookkeeping fields too.
#[test]
fn report_bookkeeping_matches_across_paths() {
    let topo = random_topo(12, 14, 2);
    let initial: Vec<Vec<u32>> = (0..12).map(|i| vec![i as u32]).collect();
    let (_, seq) = all_to_all_broadcast(&topo, seq_cfg(), initial.clone(), 1, id).unwrap();
    let (_, par) = all_to_all_broadcast(&topo, par_cfg(5), initial, 1, id).unwrap();
    assert_eq!(seq.rounds, par.rounds);
    assert_eq!(seq.messages, par.messages);
    assert_eq!(seq.node_sent, par.node_sent);
    assert_eq!(seq.peak_in_flight, par.peak_in_flight);
    assert!(seq.peak_in_flight > 0);
}
