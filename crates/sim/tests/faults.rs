//! Fault-injection plane integration tests: scripted plans hit exactly
//! the addressed messages/rounds, seeded plans are reproducible, a
//! zero-rate spec and an armed plan that never fires are byte-identical
//! to no plan at all, and node panics surface as typed errors attributed
//! to the lowest panicking node id.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_sim::fault::{FaultEvent, FaultPlan, FaultSpec};
use congest_sim::{
    Engine, Envelope, NodeEnv, NodeLogic, Outbox, PhaseReport, RunUntil, SimConfig, SimError,
    Topology,
};

fn random_topo(n: usize, extra: usize, seed: u64) -> Topology {
    Topology::from_graph(&gnm_connected(n, extra, false, WeightDist::Unit, seed))
}

/// Node 0 broadcasts its round number for `sends` rounds; every other
/// node logs `(round received, sender, payload)`. The log pins down
/// exactly which frames survived.
struct Ticker {
    sends: u64,
    log: Vec<(u64, u32, u64)>,
}

impl Ticker {
    fn fleet(n: usize, sends: u64) -> Vec<Ticker> {
        (0..n).map(|_| Ticker { sends, log: Vec::new() }).collect()
    }
}

impl NodeLogic for Ticker {
    type Msg = u64;

    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
        for e in inbox {
            self.log.push((env.round, e.from, e.msg));
        }
        if env.id == 0 && env.round < self.sends {
            out.broadcast(env.round);
        }
    }
}

/// Same protocol, but able to reinterpret a corrupted frame: the payload
/// is replaced by the entropy word.
struct CorruptibleTicker(Ticker);

impl NodeLogic for CorruptibleTicker {
    type Msg = u64;

    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
        self.0.on_round(env, inbox, out);
    }

    fn corrupt_msg(&self, msg: &mut u64, entropy: u64) -> bool {
        *msg = entropy;
        true
    }
}

/// Two nodes, one edge: node 0 → node 1, five frames (payloads 0..5),
/// frame `r` read by node 1 in round `r + 1`.
fn pair() -> Topology {
    random_topo(2, 0, 1)
}

fn clean_log() -> Vec<(u64, u32, u64)> {
    (0..5).map(|r| (r + 1, 0, r)).collect()
}

#[test]
fn scripted_drop_removes_exactly_one_frame() {
    let topo = pair();
    let engine = Engine::new(&topo, SimConfig::default())
        .with_fault_plan(FaultPlan::Script(vec![FaultEvent::Drop { round: 2, from: 0, to: 1 }]));
    let mut nodes = Ticker::fleet(2, 5);
    let rep = engine.run(&mut nodes, RunUntil::Exact(6)).unwrap();
    let expect: Vec<_> = clean_log().into_iter().filter(|&(_, _, p)| p != 2).collect();
    assert_eq!(nodes[1].log, expect, "exactly the addressed frame is lost");
    assert_eq!(rep.faults.dropped, 1);
    assert_eq!(rep.faults.injected, 1);
    assert_eq!(rep.faults.corrupted, 0);
    // The sender still paid for the dropped frame (its channel was used).
    assert_eq!(rep.node_sent[0], 5);
    // But it was never delivered.
    assert_eq!(rep.messages, 4);
}

#[test]
fn corruption_without_protocol_support_degrades_to_drop() {
    let topo = pair();
    let script =
        FaultPlan::Script(vec![FaultEvent::Corrupt { round: 2, from: 0, to: 1, entropy: 0xDEAD }]);
    let engine = Engine::new(&topo, SimConfig::default()).with_fault_plan(script);
    let mut nodes = Ticker::fleet(2, 5);
    let rep = engine.run(&mut nodes, RunUntil::Exact(6)).unwrap();
    let expect: Vec<_> = clean_log().into_iter().filter(|&(_, _, p)| p != 2).collect();
    assert_eq!(nodes[1].log, expect, "un-corruptible frame must be dropped, not delivered");
    assert_eq!(rep.faults.dropped, 1, "fallback counts as a drop (failed checksum)");
    assert_eq!(rep.faults.corrupted, 0);
}

#[test]
fn corruption_with_protocol_support_mutates_in_place() {
    let topo = pair();
    let script =
        FaultPlan::Script(vec![FaultEvent::Corrupt { round: 2, from: 0, to: 1, entropy: 0xDEAD }]);
    let engine = Engine::new(&topo, SimConfig::default()).with_fault_plan(script);
    let mut nodes: Vec<CorruptibleTicker> =
        Ticker::fleet(2, 5).into_iter().map(CorruptibleTicker).collect();
    let rep = engine.run(&mut nodes, RunUntil::Exact(6)).unwrap();
    let expect: Vec<_> =
        clean_log().into_iter().map(|e| if e.2 == 2 { (e.0, e.1, 0xDEAD) } else { e }).collect();
    assert_eq!(nodes[1].0.log, expect, "the frame arrives, but mutated");
    assert_eq!(rep.faults.corrupted, 1);
    assert_eq!(rep.faults.dropped, 0);
    assert_eq!(rep.messages, 5, "a corrupted frame is still delivered");
}

#[test]
fn crashed_node_skips_rounds_and_loses_arrivals_but_keeps_state() {
    let topo = pair();
    let script = FaultPlan::Script(vec![FaultEvent::Crash { node: 1, from_round: 2, to_round: 3 }]);
    let engine = Engine::new(&topo, SimConfig::default()).with_fault_plan(script);
    let mut nodes = Ticker::fleet(2, 5);
    let rep = engine.run(&mut nodes, RunUntil::Exact(6)).unwrap();
    // Down in rounds 2 and 3: the frames it would have read there
    // (payloads 1 and 2) vanish; earlier log entries survive the warm
    // restart; later frames arrive normally.
    let expect: Vec<_> = clean_log().into_iter().filter(|&(_, _, p)| p != 1 && p != 2).collect();
    assert_eq!(nodes[1].log, expect);
    assert_eq!(rep.faults.crashed_rounds, 2);
    assert_eq!(rep.faults.injected, 2);
}

type TickLogs = Vec<Vec<(u64, u32, u64)>>;

#[test]
fn zero_rate_spec_is_byte_identical_to_no_plan() {
    let topo = random_topo(18, 30, 3);
    let run = |engine: Engine<'_>| -> (TickLogs, PhaseReport) {
        let mut nodes = Ticker::fleet(18, 6);
        let rep = engine.run(&mut nodes, RunUntil::Exact(7)).unwrap();
        (nodes.into_iter().map(|t| t.log).collect(), rep)
    };
    let with_fault = |fault: Option<FaultSpec>| SimConfig { fault };
    let (clean_logs, clean_rep) = run(Engine::new(&topo, with_fault(None)));
    let (zero_logs, zero_rep) =
        run(Engine::new(&topo, with_fault(Some(FaultSpec::seeded(0xFACE)))));
    assert_eq!(clean_logs, zero_logs);
    assert_eq!(clean_rep, zero_rep, "an all-zero spec must take the fault-free path");
    assert!(clean_rep.faults.is_zero());
    // An armed plan that injects nothing runs every message through the
    // fault branch of delivery, and must still change nothing.
    let (armed_logs, armed_rep) =
        run(Engine::new(&topo, SimConfig::default()).with_fault_plan(FaultPlan::Script(vec![])));
    assert_eq!(clean_logs, armed_logs);
    assert_eq!(clean_rep, armed_rep, "a plan that never fires must change nothing");
}

#[test]
fn seeded_plan_is_reproducible_and_counts_faults() {
    let topo = random_topo(20, 36, 5);
    let spec = FaultSpec::seeded(0xBEEF).drops(120_000).corruption(80_000);
    let run = || {
        let engine = Engine::new(&topo, SimConfig { fault: Some(spec) });
        let mut nodes: Vec<CorruptibleTicker> =
            Ticker::fleet(20, 8).into_iter().map(CorruptibleTicker).collect();
        let rep = engine.run(&mut nodes, RunUntil::Exact(9)).unwrap();
        (nodes.into_iter().map(|t| t.0.log).collect::<Vec<_>>(), rep)
    };
    let (logs_a, rep_a) = run();
    let (logs_b, rep_b) = run();
    assert_eq!(logs_a, logs_b, "same spec, same run");
    assert_eq!(rep_a, rep_b);
    assert!(rep_a.faults.injected > 0, "12%+8% over ~8 rounds of broadcast must hit");
    assert_eq!(rep_a.faults.injected, rep_a.faults.dropped + rep_a.faults.corrupted);
    assert!(rep_a.faults.corrupted > 0, "corruptible protocol takes real corruption");
}

/// Panics in `on_round` must surface as a typed error attributed to the
/// panicking node, not unwind out of `Engine::run`.
struct PanicAt {
    node: u32,
    round: u64,
}

impl NodeLogic for PanicAt {
    type Msg = u8;

    fn on_round(&mut self, env: &NodeEnv<'_>, _ib: &[Envelope<u8>], out: &mut Outbox<'_, u8>) {
        assert!(env.id != self.node || env.round != self.round, "injected test panic");
        if env.round == 0 {
            out.broadcast(1);
        }
    }
}

#[test]
fn node_panic_is_contained_and_deterministic() {
    // Silence the default panic hook: these unwinds are intentional.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let topo = random_topo(12, 18, 7);
    let engine = Engine::new(&topo, SimConfig::default());
    let mk = |node: u32| -> Vec<PanicAt> { (0..12).map(|_| PanicAt { node, round: 2 }).collect() };
    let err = engine.run(&mut mk(5), RunUntil::Exact(4)).unwrap_err();
    assert_eq!(err, SimError::NodePanic { node: 5, round: 2 });

    // Many nodes panicking in the same round: lowest id wins.
    let all =
        |round: u64| -> Vec<PanicAt> { (0..12).map(|v| PanicAt { node: v, round }).collect() };
    let err = engine.run(&mut all(1), RunUntil::Exact(4)).unwrap_err();
    assert_eq!(err, SimError::NodePanic { node: 0, round: 1 });

    std::panic::set_hook(hook);
}
