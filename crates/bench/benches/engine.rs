//! Engine-throughput benchmark: the flat double-buffered message plane vs
//! the pre-refactor boxed engine (`congest_bench::legacy`), on sustained
//! flood and Bellman–Ford workloads at n = 2^12 and n = 2^15. Both sizes
//! are far above any solver workload; the pair shows how the plane's
//! per-round cost scales with n.
//!
//! Run with `cargo bench -p congest_bench --bench engine`. Set
//! `BENCH_ENGINE_JSON=path` to additionally write the measured numbers as
//! JSON (this is how `BENCH_engine.json` at the repo root is produced).
//!
//! Both workloads are implemented twice — once per engine interface — with
//! identical logic, and the harness asserts both engines compute identical
//! (rounds, messages) before timing anything. A name filter that matches
//! no timing group, such as `cargo bench -p congest_bench --bench engine
//! -- cross-check`, runs only that cross-check, at both sizes.

use congest_bench::legacy::{legacy_run, LegacyEnvelope, LegacyLogic, LegacyOutbox};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::NodeId;
use congest_sim::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::VecDeque;

const SIZES: &[usize] = &[1 << 12, 1 << 15];
const WAVES: u32 = 64;
const BF_ROUNDS: u64 = 48;

/// Deterministic per-channel weight for the BF workload (both engines see
/// the same function of the endpoint ids).
fn edge_weight(u: NodeId, v: NodeId) -> u64 {
    let x = (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    1 + (z % 16)
}

// ---------------------------------------------------------------------
// Wave-flood workload: the root injects WAVES tokens; every node forwards
// each token once on every channel, one token per channel per round —
// sustained ~2m messages per round for ~WAVES + diameter rounds.
// ---------------------------------------------------------------------

struct WaveFlood {
    is_root: bool,
    seen: Vec<bool>,
    queue: VecDeque<u32>,
}

impl WaveFlood {
    fn new(is_root: bool) -> Self {
        WaveFlood { is_root, seen: vec![false; WAVES as usize], queue: VecDeque::new() }
    }

    fn receive(&mut self, wave: u32) {
        if !self.seen[wave as usize] {
            self.seen[wave as usize] = true;
            self.queue.push_back(wave);
        }
    }

    fn inject(&mut self, round: u64) {
        if self.is_root && round < u64::from(WAVES) {
            self.receive(round as u32);
        }
    }

    fn busy(&self) -> bool {
        !self.queue.is_empty() || (self.is_root && !self.seen[WAVES as usize - 1])
    }
}

impl NodeLogic for WaveFlood {
    type Msg = u32;
    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u32>], out: &mut Outbox<'_, u32>) {
        self.inject(env.round);
        for e in inbox {
            self.receive(e.msg);
        }
        if let Some(w) = self.queue.pop_front() {
            out.broadcast(w);
        }
    }
    fn active(&self) -> bool {
        self.busy()
    }
}

impl LegacyLogic for WaveFlood {
    type Msg = u32;
    fn on_round(
        &mut self,
        _id: NodeId,
        round: u64,
        _neighbors: &[NodeId],
        inbox: &[LegacyEnvelope<u32>],
        out: &mut LegacyOutbox<'_, u32>,
    ) {
        self.inject(round);
        for e in inbox {
            self.receive(e.msg);
        }
        if let Some(w) = self.queue.pop_front() {
            out.broadcast(w);
        }
    }
    fn active(&self) -> bool {
        self.busy()
    }
}

// ---------------------------------------------------------------------
// Bellman–Ford workload: weighted relaxation over the communication graph
// from node 0; a node whose distance improved broadcasts it next round.
// ---------------------------------------------------------------------

struct BfRelax {
    dist: u64,
    dirty: bool,
    rounds_left: u64,
}

impl BfRelax {
    fn new(id: NodeId) -> Self {
        let dist = if id == 0 { 0 } else { u64::MAX };
        BfRelax { dist, dirty: id == 0, rounds_left: BF_ROUNDS }
    }

    fn relax(&mut self, via: u64) {
        if via < self.dist {
            self.dist = via;
            self.dirty = true;
        }
    }

    fn step(&mut self) -> bool {
        self.rounds_left = self.rounds_left.saturating_sub(1);
        let fire = self.dirty && self.rounds_left > 0;
        if fire {
            self.dirty = false;
        }
        fire
    }
}

impl NodeLogic for BfRelax {
    type Msg = u64;
    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
        for e in inbox {
            let w = edge_weight(env.id, e.from);
            self.relax(e.msg.saturating_add(w));
        }
        let dist = self.dist;
        if self.step() {
            out.broadcast(dist);
        }
    }
    fn active(&self) -> bool {
        self.rounds_left > 0
    }
}

impl LegacyLogic for BfRelax {
    type Msg = u64;
    fn on_round(
        &mut self,
        id: NodeId,
        _round: u64,
        _neighbors: &[NodeId],
        inbox: &[LegacyEnvelope<u64>],
        out: &mut LegacyOutbox<'_, u64>,
    ) {
        for e in inbox {
            let w = edge_weight(id, e.from);
            self.relax(e.msg.saturating_add(w));
        }
        let dist = self.dist;
        if self.step() {
            out.broadcast(dist);
        }
    }
    fn active(&self) -> bool {
        self.rounds_left > 0
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn workload_topo(n: usize) -> Topology {
    Topology::from_graph(&gnm_connected(n, 2 * n, false, WeightDist::Unit, 7))
}

fn run_flat<L: NodeLogic>(topo: &Topology, mut mk: impl FnMut() -> Vec<L>) -> (u64, u64) {
    let engine = Engine::new(topo, SimConfig::default());
    let report = engine.run(&mut mk(), RunUntil::Quiesce { max: 100_000 }).unwrap();
    (report.rounds, report.messages)
}

struct MeasuredWorkload {
    name: &'static str,
    rounds: u64,
    messages: u64,
    legacy_ns: f64,
    flat_ns: f64,
}

struct MeasuredSize {
    n: usize,
    workloads: Vec<MeasuredWorkload>,
}

fn measure_size(c: &mut Criterion, n: usize) -> MeasuredSize {
    let topo = workload_topo(n);

    // -------- cross-check both engines before timing --------
    let mk_flood = || (0..n).map(|i| WaveFlood::new(i == 0)).collect::<Vec<_>>();
    let (fr, fm) = {
        let mut nodes = mk_flood();
        legacy_run(&topo, 1, &mut nodes, 100_000)
    };
    assert_eq!((fr, fm), run_flat(&topo, mk_flood), "flood: engines disagree");

    let mk_bf = || (0..n).map(|i| BfRelax::new(i as NodeId)).collect::<Vec<_>>();
    let (br, bm) = {
        let mut nodes = mk_bf();
        legacy_run(&topo, 1, &mut nodes, 100_000)
    };
    assert_eq!((br, bm), run_flat(&topo, mk_bf), "bf: engines disagree");

    // -------- timing --------
    let group_name = format!("engine-n{n}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("flood/legacy-boxed", |b| {
        b.iter(|| {
            let mut nodes = mk_flood();
            legacy_run(&topo, 1, &mut nodes, 100_000)
        })
    });
    group.bench_function("flood/flat", |b| b.iter(|| run_flat(&topo, mk_flood)));
    group.bench_function("bf/legacy-boxed", |b| {
        b.iter(|| {
            let mut nodes = mk_bf();
            legacy_run(&topo, 1, &mut nodes, 100_000)
        })
    });
    group.bench_function("bf/flat", |b| b.iter(|| run_flat(&topo, mk_bf)));
    group.finish();

    let median = |suffix: &str| -> f64 {
        c.results
            .iter()
            .find(|(name, _)| name.starts_with(&group_name) && name.ends_with(suffix))
            .map_or(0.0, |(_, s)| s.median_ns)
    };
    let workloads = vec![
        MeasuredWorkload {
            name: "flood",
            rounds: fr,
            messages: fm,
            legacy_ns: median("flood/legacy-boxed"),
            flat_ns: median("flood/flat"),
        },
        MeasuredWorkload {
            name: "bellman_ford",
            rounds: br,
            messages: bm,
            legacy_ns: median("bf/legacy-boxed"),
            flat_ns: median("bf/flat"),
        },
    ];

    for w in &workloads {
        if w.legacy_ns == 0.0 || w.flat_ns == 0.0 {
            continue; // filtered out on this run
        }
        println!(
            "n={n} {}: rounds={} messages={} | legacy {:.2} ms | flat {:.2} ms ({:.2}x)",
            w.name,
            w.rounds,
            w.messages,
            w.legacy_ns / 1e6,
            w.flat_ns / 1e6,
            w.legacy_ns / w.flat_ns,
        );
    }

    MeasuredSize { n, workloads }
}

fn bench_engine(c: &mut Criterion) {
    let sizes: Vec<MeasuredSize> = SIZES.iter().map(|&n| measure_size(c, n)).collect();

    if let Ok(path) = std::env::var("BENCH_ENGINE_JSON") {
        use congest_telemetry::json::{obj, Json};
        let ms = |ns: f64| Json::F64((ns / 1e6 * 1000.0).round() / 1000.0);
        let ratio = |a: f64, b: f64| Json::F64((a / b * 100.0).round() / 100.0);
        let sizes_json: Vec<Json> = sizes
            .iter()
            .map(|size| {
                // A name filter (`cargo bench ... -- <substring>`) leaves
                // skipped benchmarks with 0.0 medians; emitting those would
                // put NaN/inf ratios in the JSON, so drop them like the
                // console summary does.
                let workloads: Vec<Json> = size
                    .workloads
                    .iter()
                    .filter(|w| w.legacy_ns > 0.0 && w.flat_ns > 0.0)
                    .map(|w| {
                        obj(vec![
                            ("name", Json::from(w.name)),
                            ("rounds", Json::U64(w.rounds)),
                            ("messages", Json::U64(w.messages)),
                            ("legacy_boxed_ms", ms(w.legacy_ns)),
                            ("flat_ms", ms(w.flat_ns)),
                            ("speedup_flat_vs_legacy", ratio(w.legacy_ns, w.flat_ns)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("n", Json::from(size.n)),
                    ("extra_edges", Json::from(2 * size.n)),
                    ("workloads", Json::Arr(workloads)),
                ])
            })
            .collect();
        congest_telemetry::Manifest::new("bench-engine")
            .field(
                "benchmark",
                Json::from("engine message plane: legacy boxed vs flat double-buffered"),
            )
            .field(
                "knobs",
                obj(vec![
                    ("waves", Json::from(WAVES)),
                    ("bf_rounds", Json::U64(BF_ROUNDS)),
                    ("graph", Json::from("gnm_connected(n, 2n, unit weights, seed 7)")),
                ]),
            )
            .field("sizes", Json::Arr(sizes_json))
            .write(&path)
            .expect("write BENCH_ENGINE_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
