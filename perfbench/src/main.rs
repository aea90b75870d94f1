//! The repository's end-to-end benchmark. Each workload runs the whole
//! stack once: `Solver::run` (Ar20, Ar18, Naive) on seeded graphs, then
//! a snapshot served by the real `congest-serve` binary under open-loop
//! load. Every output is checked; the last stdout line is one JSON
//! object with the run's metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). See README.md for the workloads, the
//! metrics and which layer should move which number.
//!
//! ```text
//! perfbench --workload <name> --serve-bin <path> [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR]
//! ```

mod apsp;
mod serve;
mod stats;

use congest_bench::workloads::{hop_deep, sparse_random};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::Graph;
use congest_telemetry::json::{obj, Json};
use serve::{Ctx, Mode, ServeSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Seed stride between a run's graphs.
const GRAPH_SEED_STRIDE: u64 = 1_000_003;

struct Workload {
    name: &'static str,
    graph: fn(usize, u64) -> Graph<u64>,
    nodes: usize,
    /// Graphs per run for the compute half.
    graphs: u64,
    serve: ServeSpec,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sparse_eager",
        graph: sparse_random,
        nodes: 256,
        graphs: 9,
        serve: ServeSpec {
            mode: Mode::Eager,
            nominal_qps: 8_000.0,
            ladder: &[
                6_000.0, 12_000.0, 18_000.0, 24_000.0, 30_000.0, 36_000.0, 42_000.0, 48_000.0,
            ],
        },
    },
    Workload {
        name: "hopdeep_paged",
        graph: hop_deep,
        nodes: 384,
        graphs: 3,
        serve: ServeSpec {
            mode: Mode::Paged,
            nominal_qps: 1_000.0,
            ladder: &[
                250.0, 500.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0, 3_000.0, 3_500.0, 4_000.0,
                4_500.0, 5_000.0, 5_500.0, 6_000.0, 6_500.0, 7_000.0, 8_000.0,
            ],
        },
    },
];

/// Named metrics with units, in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v, u)| {
                    (k.clone(), obj(vec![("value", Json::F64(*v)), ("unit", Json::from(*u))]))
                })
                .collect(),
        )
    }
}

/// Runs `f` inside a trace span named `name` (recorded only while
/// telemetry is enabled, i.e. in the traced run).
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let id = congest_telemetry::with(|t| t.span_start(name));
    let out = f();
    if let Some(id) = id {
        congest_telemetry::global().span_end(id);
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| argv.windows(2).find(|w| w[0] == key).map(|w| w[1].clone());
    let num = |key: &str, default: &str| -> Result<f64, String> {
        let v = get(key).unwrap_or_else(|| default.to_string());
        v.parse().map_err(|_| format!("{key} expects a number, got {v:?}"))
    };
    let seed = get("--seed").unwrap_or_else(|| "1".to_string());
    Ok(Args {
        workload: get("--workload").ok_or("--workload is required")?,
        seed: seed.parse().map_err(|_| format!("--seed expects an integer, got {seed:?}"))?,
        seconds: num("--seconds", "40")?,
        trace: num("--trace", "0")? != 0.0,
        serve_bin: get("--serve-bin").ok_or("--serve-bin is required")?.into(),
        out: get("--out").unwrap_or_else(|| "perfbench/out".to_string()).into(),
    })
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run(args: Args) -> Result<i32, String> {
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    if args.trace {
        congest_telemetry::enable().clear();
    }
    let mut m = Metrics::default();
    let reps = if args.trace { 1 } else { 3 };
    let graph_count = if args.trace { 1 } else { wl.graphs };
    let seeds: Vec<u64> =
        (0..graph_count).map(|i| args.seed.wrapping_add(i * GRAPH_SEED_STRIDE)).collect();

    // Set-up of the compute half: generating the graphs.
    let mut gen_s = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        graphs = span("bench.graph.generate", || {
            seeds.iter().map(|&s| (wl.graph)(wl.nodes, s)).collect::<Vec<_>>()
        });
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let references: Vec<_> =
        span("bench.reference.dijkstra", || graphs.iter().map(apsp_dijkstra).collect());

    // Compute half.
    let mut solves_run = 0u64;
    if args.trace {
        // An untraced warm-up pass (a process's first solves pay for
        // faulting in fresh memory), a traced pass for the ledger, and an
        // untraced pass to compare it with.
        let (g, r) = (&graphs[0], &references[0]);
        congest_telemetry::disable();
        for alg in apsp::ALGORITHMS {
            apsp::solve_checked(g, r, alg)?;
        }
        congest_telemetry::enable();
        let mut traced = 0u64;
        let mut unmatched = 0;
        let mut tables = String::new();
        for alg in apsp::ALGORITHMS {
            let s = span(&format!("bench.solve.{}", alg.1), || apsp::solve_checked(g, r, alg))?;
            traced += s.wall_ns;
            unmatched += apsp::layer_metrics(&s, &mut m);
            tables += &apsp::ledger_table(&s);
        }
        congest_telemetry::disable();
        let mut untraced = 0u64;
        for alg in apsp::ALGORITHMS {
            let wall_ns = apsp::solve_checked(g, r, alg)?.wall_ns;
            m.put(&format!("{}.solve_s", alg.1), wall_ns as f64 / 1e9, "s");
            untraced += wall_ns;
        }
        congest_telemetry::enable();
        solves_run += 9;
        m.put("ledger.other_phases", unmatched as f64, "count");
        m.put("trace.overhead_frac", traced as f64 / untraced as f64 - 1.0, "ratio");
        eprint!("{tables}");
        let path = args.out.join(format!("layers-{}-{}.txt", wl.name, args.seed));
        std::fs::write(&path, &tables).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let mut solves = Vec::new();
        for (g, r) in graphs.iter().zip(&references) {
            for alg in apsp::ALGORITHMS {
                solves.push(apsp::solve_checked(g, r, alg)?);
            }
        }
        solves_run += solves.len() as u64;
        for (_, name) in apsp::ALGORITHMS {
            let of_alg: Vec<&apsp::Solve> = solves.iter().filter(|s| s.alg == name).collect();
            apsp::e2e_metrics(&of_alg, &mut m);
        }
        let rss = stats::vm_hwm_mib("self").ok_or("cannot read VmHWM")?;
        m.put("solve_peak_rss_mb", rss, "MiB");
    }
    drop(graphs);
    drop(references);

    // Serving half.
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        serve_bin: &args.serve_bin,
        out_dir: &args.out,
        tag: format!("{}-{}-{}", wl.name, args.seed, std::process::id()),
    };
    let (tally, serve_times) = serve::run(&wl.serve, &ctx, &mut m)?;
    let sum = |serve: &[f64]| -> Vec<f64> { gen_s.iter().zip(serve).map(|(a, b)| a + b).collect() };
    if args.trace {
        m.put("graph.gen_s", stats::median(&sum(&serve_times.gen)), "s");
        let tele = congest_telemetry::global();
        congest_telemetry::disable();
        let path = args.out.join(format!("trace-{}-{}.json", wl.name, args.seed));
        let trace = congest_telemetry::export::chrome_trace(&tele.spans());
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: chrome trace written to {}", path.display());
    } else {
        m.put("setup_s", stats::median(&sum(&serve_times.total)), "s");
    }

    let correct = tally.wrong == 0;
    for (name, value, unit) in &m.0 {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(solves_run + tally.attempted)),
        ("failed", Json::U64(tally.failed)),
        ("metrics", m.to_json()),
    ]);
    println!("{}", result.compact());
    Ok(if correct { 0 } else { 1 })
}
