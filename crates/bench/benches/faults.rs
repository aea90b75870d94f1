//! Recovery-overhead benchmark: what detect-and-recover costs as a
//! function of the fault rate, at n = 2^10 and n = 2^11.
//!
//! The workload is the sustained Bellman–Ford relaxation phase (the shape
//! every pipeline step reduces to), run under a seeded fault plan through
//! a retry harness that mirrors the solver's accept rule exactly: an
//! attempt is accepted iff its engine report counted **zero injected
//! faults**; anything else re-runs the phase under a fresh per-attempt
//! salt. Overhead is reported two ways:
//!
//! * **rounds** — total simulated rounds across all attempts vs the
//!   rounds of the clean run (the CONGEST-model cost of recovery);
//! * **wall-clock** — measured time for the full retry loop vs the clean
//!   run (the simulator-side cost).
//!
//! Fault rates are chosen per size so the expected number of injections
//! per attempt λ hits fixed targets (0.25, 1, 2): the accept probability
//! is ~e^-λ, making the sweep comparable across n. A corruption point at
//! λ = 1 exercises the payload-mutation path (`corrupt_msg`).
//!
//! Run with `cargo bench -p congest_bench --bench faults`. Set
//! `BENCH_FAULTS_JSON=path` to write the numbers as JSON (this is how
//! `BENCH_faults.json` at the repo root is produced).

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::NodeId;
use congest_sim::fault::FaultSpec;
use congest_sim::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use criterion::{criterion_group, criterion_main, Criterion};

const SIZES: &[usize] = &[1 << 10, 1 << 11];
const BF_ROUNDS: u64 = 48;
const MAX_ATTEMPTS: u32 = 64;
/// Expected injections per attempt targeted by the rate sweep.
const LAMBDAS: &[f64] = &[0.25, 1.0, 2.0];

fn edge_weight(u: NodeId, v: NodeId) -> u64 {
    let x = (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    1 + (z % 16)
}

/// Bellman–Ford relaxation from node 0; a node whose distance improved
/// broadcasts it next round (same workload as the engine benchmark).
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
}

impl NodeLogic for BfRelax {
    type Msg = u64;
    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
        for e in inbox {
            let w = edge_weight(env.id, e.from);
            let via = e.msg.saturating_add(w);
            if via < self.dist {
                self.dist = via;
                self.dirty = true;
            }
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.dirty && self.rounds_left > 0 {
            self.dirty = false;
            out.broadcast(self.dist);
        }
    }
    fn active(&self) -> bool {
        self.rounds_left > 0
    }
    fn corrupt_msg(&self, msg: &mut u64, entropy: u64) -> bool {
        // Flip payload bits but keep the value finite so the workload
        // keeps relaxing on damaged (wrong) distances.
        *msg = (*msg ^ entropy) & (u64::MAX >> 1);
        true
    }
}

struct Attempted {
    attempts: u32,
    total_rounds: u64,
    accepted_rounds: u64,
    injected: u64,
    recovered: bool,
}

/// The solver's accept rule in miniature: run under `spec.reseeded(salt)`
/// per attempt, accept the first report with zero injected faults.
fn run_with_recovery(topo: &Topology, spec: Option<FaultSpec>, salt0: u64) -> Attempted {
    let mut out = Attempted {
        attempts: 0,
        total_rounds: 0,
        accepted_rounds: 0,
        injected: 0,
        recovered: false,
    };
    for attempt in 0..MAX_ATTEMPTS {
        out.attempts += 1;
        let cfg = SimConfig { fault: spec.map(|s| s.reseeded(salt0 ^ u64::from(attempt))) };
        let engine = Engine::new(topo, cfg);
        let n = topo.n();
        let mut nodes: Vec<BfRelax> = (0..n).map(|i| BfRelax::new(i as NodeId)).collect();
        let report = engine.run(&mut nodes, RunUntil::Quiesce { max: 100_000 }).unwrap();
        out.total_rounds += report.rounds;
        out.injected += report.faults.injected;
        if report.faults.is_zero() {
            out.accepted_rounds = report.rounds;
            out.recovered = true;
            return out;
        }
    }
    out
}

struct MeasuredRate {
    kind: &'static str,
    lambda: f64,
    ppm: u32,
    attempts: u32,
    total_rounds: u64,
    injected: u64,
    recovered: bool,
    median_ns: f64,
}

struct MeasuredSize {
    n: usize,
    clean_rounds: u64,
    clean_messages: u64,
    clean_ns: f64,
    rates: Vec<MeasuredRate>,
}

fn measure_size(c: &mut Criterion, n: usize) -> MeasuredSize {
    let topo = Topology::from_graph(&gnm_connected(n, 2 * n, false, WeightDist::Unit, 7));

    // Clean run: the baseline both overhead ratios divide by, and the
    // message count the per-size ppm rates are derived from.
    let clean = run_with_recovery(&topo, None, 0);
    assert!(clean.recovered && clean.attempts == 1);
    let clean_messages = {
        let engine = Engine::new(&topo, SimConfig::default());
        let mut nodes: Vec<BfRelax> = (0..n).map(|i| BfRelax::new(i as NodeId)).collect();
        engine.run(&mut nodes, RunUntil::Quiesce { max: 100_000 }).unwrap().messages
    };
    let ppm_for =
        |lambda: f64| -> u32 { ((lambda * 1e6 / clean_messages as f64).round() as u32).max(1) };

    let group_name = format!("faults-n{n}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("clean", |b| b.iter(|| run_with_recovery(&topo, None, 0)));
    for &lambda in LAMBDAS {
        let spec = FaultSpec::seeded(0xFA01).drops(ppm_for(lambda));
        group.bench_function(format!("drop/lambda-{lambda}"), |b| {
            b.iter(|| run_with_recovery(&topo, Some(spec), 11))
        });
    }
    let corrupt_spec = FaultSpec::seeded(0xFA02).corruption(ppm_for(1.0));
    group.bench_function("corrupt/lambda-1", |b| {
        b.iter(|| run_with_recovery(&topo, Some(corrupt_spec), 13))
    });
    group.finish();

    let median = |suffix: &str| -> f64 {
        c.results
            .iter()
            .find(|(name, _)| name.starts_with(&group_name) && name.ends_with(suffix))
            .map_or(0.0, |(_, s)| s.median_ns)
    };

    let mut rates = Vec::new();
    for &lambda in LAMBDAS {
        let ppm = ppm_for(lambda);
        let spec = FaultSpec::seeded(0xFA01).drops(ppm);
        let a = run_with_recovery(&topo, Some(spec), 11);
        rates.push(MeasuredRate {
            kind: "drop",
            lambda,
            ppm,
            attempts: a.attempts,
            total_rounds: a.total_rounds,
            injected: a.injected,
            recovered: a.recovered,
            median_ns: median(&format!("drop/lambda-{lambda}")),
        });
    }
    let a = run_with_recovery(&topo, Some(corrupt_spec), 13);
    rates.push(MeasuredRate {
        kind: "corrupt",
        lambda: 1.0,
        ppm: ppm_for(1.0),
        attempts: a.attempts,
        total_rounds: a.total_rounds,
        injected: a.injected,
        recovered: a.recovered,
        median_ns: median("corrupt/lambda-1"),
    });

    for r in &rates {
        if r.median_ns == 0.0 {
            continue; // filtered out on this run
        }
        println!(
            "n={n} {}@{}ppm (lambda={}): attempts={} rounds {} -> {} ({:.2}x) | {:.2} ms{}",
            r.kind,
            r.ppm,
            r.lambda,
            r.attempts,
            clean.total_rounds,
            r.total_rounds,
            r.total_rounds as f64 / clean.total_rounds as f64,
            r.median_ns / 1e6,
            if r.recovered { "" } else { " [NOT recovered]" },
        );
    }

    MeasuredSize {
        n,
        clean_rounds: clean.total_rounds,
        clean_messages,
        clean_ns: median("clean"),
        rates,
    }
}

fn bench_faults(c: &mut Criterion) {
    let sizes: Vec<MeasuredSize> = SIZES.iter().map(|&n| measure_size(c, n)).collect();

    if let Ok(path) = std::env::var("BENCH_FAULTS_JSON") {
        use congest_telemetry::json::{obj, Json};
        let round2 = |x: f64| Json::F64((x * 100.0).round() / 100.0);
        let ms = |ns: f64| Json::F64((ns / 1e6 * 1000.0).round() / 1000.0);
        let sizes_json: Vec<Json> = sizes
            .iter()
            .map(|size| {
                let rates: Vec<Json> = size
                    .rates
                    .iter()
                    .filter(|r| r.median_ns > 0.0)
                    .map(|r| {
                        obj(vec![
                            ("kind", Json::from(r.kind)),
                            ("lambda", Json::F64(r.lambda)),
                            ("rate_ppm", Json::from(r.ppm)),
                            ("attempts", Json::from(r.attempts)),
                            ("injected_faults", Json::U64(r.injected)),
                            ("recovered", Json::Bool(r.recovered)),
                            ("rounds_total", Json::U64(r.total_rounds)),
                            (
                                "rounds_overhead",
                                round2(r.total_rounds as f64 / size.clean_rounds as f64),
                            ),
                            ("wall_ms", ms(r.median_ns)),
                            (
                                "wall_overhead",
                                round2(if size.clean_ns > 0.0 {
                                    r.median_ns / size.clean_ns
                                } else {
                                    0.0
                                }),
                            ),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("n", Json::from(size.n)),
                    ("clean_rounds", Json::U64(size.clean_rounds)),
                    ("clean_messages", Json::U64(size.clean_messages)),
                    ("clean_ms", ms(size.clean_ns)),
                    ("rates", Json::Arr(rates)),
                ])
            })
            .collect();
        congest_telemetry::Manifest::new("bench-faults")
            .field(
                "benchmark",
                Json::from("detect-and-recover overhead vs fault rate (BF relaxation phase)"),
            )
            .field(
                "knobs",
                obj(vec![
                    ("max_attempts", Json::from(MAX_ATTEMPTS)),
                    ("bf_rounds", Json::U64(BF_ROUNDS)),
                    ("lambdas", Json::Arr(LAMBDAS.iter().map(|&l| Json::F64(l)).collect())),
                    ("graph", Json::from("gnm_connected(n, 2n, unit weights, seed 7)")),
                ]),
            )
            .field("sizes", Json::Arr(sizes_json))
            .write(&path)
            .expect("write BENCH_FAULTS_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
