//! Disabled-overhead guard: proves the telemetry instrumentation costs
//! nothing measurable when the plane is off.
//!
//! Three interleaved series time the same flood workload on the flat
//! engine:
//!
//! * **baseline** — `Engine::run_uninstrumented`, the phase body with no
//!   telemetry wrapper at all (the pre-telemetry code path);
//! * **disabled** — the public `Engine::run` with telemetry globally
//!   disabled (one relaxed atomic load + two `Instant` reads per phase);
//! * **enabled** — the public `Engine::run` with telemetry enabled
//!   (records one `engine.run` span per phase).
//!
//! The guard asserts the disabled median is within `TELEMETRY_BENCH_TOL`
//! (default 25%, generous for 1-CPU CI noise) of the baseline median, and
//! structurally that a disabled run records zero spans. Run with
//! `cargo bench -p congest_bench --bench telemetry`.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_sim::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use std::collections::VecDeque;
use std::time::Instant;

const N: usize = 1 << 10;
const WAVES: u32 = 32;
const WARMUP: usize = 3;
const SAMPLES: usize = 21;

/// Wave-flood workload (same shape as the engine benchmark's): the root
/// injects `WAVES` tokens, every node forwards each once per channel.
struct WaveFlood {
    is_root: bool,
    seen: Vec<bool>,
    queue: VecDeque<u32>,
}

impl WaveFlood {
    fn new(is_root: bool) -> Self {
        WaveFlood { is_root, seen: vec![false; WAVES as usize], queue: VecDeque::new() }
    }
}

impl NodeLogic for WaveFlood {
    type Msg = u32;
    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u32>], out: &mut Outbox<'_, u32>) {
        if self.is_root && env.round < u64::from(WAVES) {
            let w = env.round as u32;
            if !self.seen[w as usize] {
                self.seen[w as usize] = true;
                self.queue.push_back(w);
            }
        }
        for e in inbox {
            if !self.seen[e.msg as usize] {
                self.seen[e.msg as usize] = true;
                self.queue.push_back(e.msg);
            }
        }
        if let Some(w) = self.queue.pop_front() {
            out.broadcast(w);
        }
    }
    fn active(&self) -> bool {
        !self.queue.is_empty() || (self.is_root && !self.seen[WAVES as usize - 1])
    }
}

fn mk_nodes() -> Vec<WaveFlood> {
    (0..N).map(|i| WaveFlood::new(i == 0)).collect()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    // `cargo bench` passes harness flags (e.g. `--bench`); this guard has
    // no name filtering, so just ignore them.
    let tol: f64 =
        std::env::var("TELEMETRY_BENCH_TOL").ok().and_then(|s| s.parse().ok()).unwrap_or(0.25);

    let topo = Topology::from_graph(&gnm_connected(N, 2 * N, false, WeightDist::Unit, 7));
    let engine = Engine::new(&topo, SimConfig::default());

    congest_telemetry::disable();

    // Cross-check all three paths compute the same phase before timing.
    let reference = engine.run_uninstrumented(&mut mk_nodes(), RunUntil::Quiesce { max: 100_000 });
    let reference = reference.expect("baseline run");
    let check = engine.run(&mut mk_nodes(), RunUntil::Quiesce { max: 100_000 }).expect("run");
    assert_eq!(reference, check, "instrumented and baseline paths must agree");

    for _ in 0..WARMUP {
        let _ = engine.run(&mut mk_nodes(), RunUntil::Quiesce { max: 100_000 });
    }

    // Structural guard first: a disabled run must leave the span ring
    // untouched.
    let spans_before = congest_telemetry::global().spans().len();
    let _ = engine.run(&mut mk_nodes(), RunUntil::Quiesce { max: 100_000 });
    assert_eq!(
        congest_telemetry::global().spans().len(),
        spans_before,
        "disabled-mode run must record no spans"
    );

    // Interleaved timing: baseline / disabled / enabled per pass, so slow
    // drift (thermal, noisy neighbors) hits all three series equally.
    let mut base_ns = Vec::with_capacity(SAMPLES);
    let mut off_ns = Vec::with_capacity(SAMPLES);
    let mut on_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut nodes = mk_nodes();
        let t = Instant::now();
        let _ = engine.run_uninstrumented(&mut nodes, RunUntil::Quiesce { max: 100_000 });
        base_ns.push(t.elapsed().as_nanos() as f64);

        let mut nodes = mk_nodes();
        let t = Instant::now();
        let _ = engine.run(&mut nodes, RunUntil::Quiesce { max: 100_000 });
        off_ns.push(t.elapsed().as_nanos() as f64);

        congest_telemetry::enable();
        let mut nodes = mk_nodes();
        let t = Instant::now();
        let _ = engine.run(&mut nodes, RunUntil::Quiesce { max: 100_000 });
        on_ns.push(t.elapsed().as_nanos() as f64);
        congest_telemetry::disable();
    }

    // The enabled series must actually have recorded spans (one per run),
    // or the A/B above measured nothing.
    let engine_spans =
        congest_telemetry::global().spans().iter().filter(|e| e.name == "engine.run").count();
    assert!(engine_spans >= SAMPLES, "enabled-mode runs must record engine.run spans");

    let base = median(&mut base_ns);
    let off = median(&mut off_ns);
    let on = median(&mut on_ns);
    let overhead = off / base - 1.0;
    println!(
        "telemetry guard (n={N}, flood, {SAMPLES} samples): baseline {:.3} ms | disabled {:.3} ms ({:+.1}%) | enabled {:.3} ms ({:+.1}%)",
        base / 1e6,
        off / 1e6,
        overhead * 100.0,
        on / 1e6,
        (on / base - 1.0) * 100.0,
    );
    assert!(
        off <= base * (1.0 + tol),
        "disabled-mode overhead {:.1}% exceeds tolerance {:.0}% (baseline {:.3} ms, disabled {:.3} ms)",
        overhead * 100.0,
        tol * 100.0,
        base / 1e6,
        off / 1e6,
    );
    println!("telemetry guard: PASS (tolerance {:.0}%)", tol * 100.0);
}
