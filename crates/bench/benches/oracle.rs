//! Oracle serving-layer throughput: single-operation latencies via the
//! criterion harness, plus a multi-threaded queries/sec measurement of the
//! sharded [`QueryEngine`].
//!
//! Run with `cargo bench -p congest_bench --bench oracle`. Set
//! `BENCH_ORACLE_JSON=path` to additionally write the measured numbers as
//! JSON (this is how `BENCH_oracle.json` at the repo root is produced).
//!
//! The oracle is built from the sequential Dijkstra solution (bit-identical
//! to the distributed pipeline's output, as the exactness suites prove) so
//! the benchmark spends its time on the serving layer, not on re-running
//! the CONGEST simulation.

use congest_apsp::{ApspMeta, ApspOutcome};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{NodeId, NO_SUCC};
use congest_oracle::{
    successor_derivations, EngineConfig, IntoOracle, Oracle, PagedConfig, PagedOracle, QueryEngine,
    V2Config,
};
use congest_sim::Recorder;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 1 << 11; // 2048 nodes => 4M distances, 4M successors
const QUERIES_PER_THREAD: u64 = 200_000;
const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];
/// Fraction of mixed-workload queries that ask for a full path (the rest
/// are point distance lookups): 1 in 8.
const PATH_EVERY: u64 = 8;
/// Distinct ranked routes in the Zipf-skewed path workload. Much larger
/// than the total LRU capacity (shards × cache_per_shard), so the hit rate
/// measures how well the cache exploits the skew, not just its size.
const ZIPF_UNIVERSE: usize = 1 << 20;
/// Zipf exponent s in P(rank r) ∝ 1/r^s.
const ZIPF_S: f64 = 1.0;

/// The benchmark graph, its Dijkstra solution (computed once — the single
/// most expensive setup step) and the engine serving it.
fn build_engine(
    cache_per_shard: usize,
) -> (congest_graph::Graph<u64>, congest_graph::DistMatrix<u64>, QueryEngine<u64>) {
    let g = gnm_connected(N, 4 * N, true, WeightDist::Uniform(1, 100), 2026);
    let dist = apsp_dijkstra(&g);
    let oracle = Oracle::from_dist(&g, dist.clone());
    let engine = QueryEngine::new(Arc::new(oracle), EngineConfig { shards: 64, cache_per_shard });
    (g, dist, engine)
}

/// xorshift64* — cheap per-thread query-id stream.
fn next_rng(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn pair(state: &mut u64) -> (NodeId, NodeId) {
    let r = next_rng(state);
    (((r % N as u64) as u32), (((r >> 32) % N as u64) as u32))
}

/// Runs `threads` workers, each issuing `QUERIES_PER_THREAD` mixed
/// dist/path queries; returns aggregate queries per second.
fn mixed_qps(engine: &QueryEngine<u64>, threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            scope.spawn(move || {
                let mut state = 0x9E37_79B9 + t as u64;
                let mut checksum = 0u64;
                for i in 0..QUERIES_PER_THREAD {
                    let (u, v) = pair(&mut state);
                    if i % PATH_EVERY == 0 {
                        if let Some(p) = engine.path(u, v).expect("in range") {
                            checksum ^= p.len() as u64;
                        }
                    } else if let Some(d) = engine.dist(u, v).expect("in range") {
                        checksum ^= d;
                    }
                }
                black_box(checksum);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as u64 * QUERIES_PER_THREAD) as f64 / secs
}

/// Hot-route workload: every thread requests full paths from a small set
/// of popular pairs — the skewed-traffic regime the per-shard LRU cache
/// exists for (uniform random pairs over n² are its worst case).
fn hot_path_qps(engine: &QueryEngine<u64>, threads: usize, hot: &[(NodeId, NodeId)]) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            scope.spawn(move || {
                let mut state = 0xDEAD_BEEF + t as u64;
                let mut checksum = 0u64;
                for _ in 0..QUERIES_PER_THREAD {
                    let (u, v) = hot[(next_rng(&mut state) % hot.len() as u64) as usize];
                    if let Some(p) = engine.path(u, v).expect("in range") {
                        checksum ^= p.len() as u64;
                    }
                }
                black_box(checksum);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as u64 * QUERIES_PER_THREAD) as f64 / secs
}

/// Cumulative Zipf(s) weights over `ZIPF_UNIVERSE` ranks, for inverse-CDF
/// sampling.
fn zipf_cdf() -> Vec<f64> {
    let mut cum = Vec::with_capacity(ZIPF_UNIVERSE);
    let mut total = 0.0;
    for r in 1..=ZIPF_UNIVERSE {
        total += 1.0 / (r as f64).powf(ZIPF_S);
        cum.push(total);
    }
    cum
}

/// Deterministic rank → route mapping (the popular ranks land on
/// arbitrary but fixed pairs). Splitmix64 finalizer with the golden-ratio
/// pre-increment, so rank 0 does not fix-point to node 0; degenerate
/// `u == v` self-pairs (which `path` answers without reconstruction) are
/// nudged off the diagonal.
fn zipf_route(rank: usize) -> (NodeId, NodeId) {
    let mut h = (rank as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let a = (h % N as u64) as u32;
    let mut b = ((h >> 32) % N as u64) as u32;
    if a == b {
        b = (b + 1) % N as u32;
    }
    (a, b)
}

/// Zipf-skewed path workload: every thread requests full routes whose
/// popularity follows a Zipf(s) law over `ZIPF_UNIVERSE` ranked pairs —
/// the realistic skewed-traffic regime between `hot_path_qps` (tiny hot
/// set) and `mixed_qps` (uniform pairs, the LRU's worst case).
fn zipf_path_qps(engine: &QueryEngine<u64>, threads: usize, cum: &[f64]) -> f64 {
    let total = *cum.last().expect("nonempty cdf");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            scope.spawn(move || {
                let mut state = 0x5A1F_C0DE + t as u64;
                let mut checksum = 0u64;
                for _ in 0..QUERIES_PER_THREAD {
                    let u = next_rng(&mut state) as f64 / u64::MAX as f64 * total;
                    let rank = cum.partition_point(|&c| c < u);
                    let (a, b) = zipf_route(rank.min(ZIPF_UNIVERSE - 1));
                    if let Some(p) = engine.path(a, b).expect("in range") {
                        checksum ^= p.len() as u64;
                    }
                }
                black_box(checksum);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as u64 * QUERIES_PER_THREAD) as f64 / secs
}

struct ThroughputPoint {
    threads: usize,
    qps: f64,
    hot_qps: f64,
    zipf_qps: f64,
}

fn bench_oracle(c: &mut Criterion) {
    let (g, dist, engine) = build_engine(4096);
    let oracle = Arc::clone(engine.oracle().expect("bench engine is eager"));

    // -------- single-operation latencies --------
    let mut group = c.benchmark_group("oracle-ops");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    let mut state = 1u64;
    group.bench_function("dist", |b| {
        b.iter(|| {
            let (u, v) = pair(&mut state);
            black_box(oracle.distance(u, v))
        })
    });
    group.bench_function("path-uncached", |b| {
        b.iter(|| {
            let (u, v) = pair(&mut state);
            black_box(oracle.path(u, v))
        })
    });
    group.bench_function("path-cached", |b| {
        b.iter(|| {
            let (u, v) = pair(&mut state);
            black_box(engine.path(u, v).expect("in range"))
        })
    });
    group.bench_function("k-nearest-10", |b| {
        b.iter(|| {
            let (u, _) = pair(&mut state);
            black_box(oracle.k_nearest(u, 10))
        })
    });
    group.finish();

    // -------- per-op latency histograms (telemetry-enabled) --------
    // The criterion group above times the raw oracle; this loop drives the
    // same mixed workload through the QueryEngine with telemetry on, so the
    // per-op histograms a production serving process would export
    // (`oracle.op.dist_ns` / `path_ns` / `k_nearest_ns`) are populated and
    // their p50/p99/p999 land in `BENCH_oracle.json`.
    congest_telemetry::enable();
    {
        let mut state = 3u64;
        for i in 0..100_000u64 {
            let (u, v) = pair(&mut state);
            if i % PATH_EVERY == 0 {
                black_box(engine.path(u, v).expect("in range"));
            } else {
                black_box(engine.dist(u, v).expect("in range"));
            }
            if i % 64 == 0 {
                black_box(engine.k_nearest(u, 10).expect("in range"));
            }
        }
    }
    engine.publish_gauges();
    congest_telemetry::disable();
    let op_hist = |name: &str| congest_telemetry::global().registry().histogram(name);

    // -------- concurrent throughput --------
    // Per-workload cache accounting: the counters are cumulative across the
    // whole process, so each phase's hit rate is computed from the delta of
    // `cache_stats()` around it (the ops benches above already polluted the
    // absolute numbers).
    let delta_rate = |before: congest_oracle::CacheStats, after: congest_oracle::CacheStats| {
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        hits as f64 / (hits + misses).max(1) as f64
    };
    let hot: Vec<(NodeId, NodeId)> = {
        let mut state = 7u64;
        (0..4096).map(|_| pair(&mut state)).collect()
    };

    let before_mixed = engine.cache_stats();
    let mixed: Vec<f64> = THREAD_COUNTS.iter().map(|&t| mixed_qps(&engine, t)).collect();
    let uniform_hit_rate = delta_rate(before_mixed, engine.cache_stats());

    let before_hot = engine.cache_stats();
    let hots: Vec<f64> = THREAD_COUNTS.iter().map(|&t| hot_path_qps(&engine, t, &hot)).collect();
    let hot_hit_rate = delta_rate(before_hot, engine.cache_stats());

    let cum = zipf_cdf();
    let before_zipf = engine.cache_stats();
    let zipfs: Vec<f64> = THREAD_COUNTS.iter().map(|&t| zipf_path_qps(&engine, t, &cum)).collect();
    let zipf_hit_rate = delta_rate(before_zipf, engine.cache_stats());

    let points: Vec<ThroughputPoint> = THREAD_COUNTS
        .iter()
        .zip(mixed.iter().zip(hots.iter().zip(&zipfs)))
        .map(|(&threads, (&qps, (&hot_qps, &zipf_qps)))| ThroughputPoint {
            threads,
            qps,
            hot_qps,
            zipf_qps,
        })
        .collect();
    for p in &points {
        println!(
            "oracle-qps/{}-threads: {:.2} M queries/sec (mixed {}:1 dist:path, uniform) | {:.2} M paths/sec (hot routes) | {:.2} M paths/sec (zipf)",
            p.threads,
            p.qps / 1e6,
            PATH_EVERY - 1,
            p.hot_qps / 1e6,
            p.zipf_qps / 1e6,
        );
    }
    println!(
        "path cache: {:.1}% hit rate on uniform pairs, {:.1}% on hot routes, {:.1}% on zipf(s={ZIPF_S}) routes, {} resident",
        uniform_hit_rate * 100.0,
        hot_hit_rate * 100.0,
        zipf_hit_rate * 100.0,
        engine.cached_paths()
    );

    // -------- batched vs per-call entry points --------
    // The serving front-end hands the engine a whole frame of requests at
    // once; `dist_batch` amortizes per-op dispatch and `path_batch` takes
    // each shard lock once per batch. Measure both against the per-call
    // loop on the same pair stream.
    const BATCH: usize = 64;
    const BATCH_ROUNDS: usize = 2_000;
    let mut state = 11u64;
    let frames: Vec<Vec<(NodeId, NodeId)>> =
        (0..BATCH_ROUNDS).map(|_| (0..BATCH).map(|_| pair(&mut state)).collect()).collect();
    type FrameFn<'a> = dyn FnMut(&[(NodeId, NodeId)]) + 'a;
    let time_ns_per_op = |f: &mut FrameFn| {
        let t0 = Instant::now();
        for frame in &frames {
            f(frame);
        }
        t0.elapsed().as_secs_f64() * 1e9 / (BATCH_ROUNDS * BATCH) as f64
    };
    let dist_percall_ns = time_ns_per_op(&mut |frame| {
        for &(u, v) in frame {
            black_box(engine.dist(u, v).expect("in range"));
        }
    });
    let dist_batch_ns = time_ns_per_op(&mut |frame| {
        black_box(engine.dist_batch(frame));
    });
    let path_percall_ns = time_ns_per_op(&mut |frame| {
        for &(u, v) in frame {
            black_box(engine.path(u, v).expect("in range"));
        }
    });
    let path_batch_ns = time_ns_per_op(&mut |frame| {
        black_box(engine.path_batch(frame));
    });
    println!(
        "batched vs per-call ({BATCH}-request frames): dist {dist_percall_ns:.1} -> {dist_batch_ns:.1} ns/op, path {path_percall_ns:.1} -> {path_batch_ns:.1} ns/op"
    );

    // -------- build-from-outcome: the zero-copy compute → serve handoff --------
    // Two variants of the boundary. A *plane-less* outcome (a hand-built
    // matrix, or a snapshot saved without its plane) pays the reverse-BFS
    // successor derivation; a *Step-7-tracked* outcome hands its successor
    // plane over by move and only pays the plane-validation sweep — the
    // derivation counter proves the reverse BFS never runs on that path.
    let dist_for_supplied = dist.clone();
    let outcome = ApspOutcome {
        dist,
        recorder: Recorder::new(),
        meta: ApspMeta::default(),
        fault_report: congest_apsp::FaultReport::default(),
    };
    let arena_bytes = std::mem::size_of_val(outcome.dist.as_slice());
    // For contrast: what the pre-DistMatrix boundary paid on top — a full
    // n² arena copy (plus, historically, n per-row allocations). Measured
    // directly, before the arena moves out of the outcome.
    let t0 = Instant::now();
    let copied = black_box(outcome.dist.as_slice().to_vec());
    let avoided_copy_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(copied);
    let d0 = successor_derivations();
    let t0 = Instant::now();
    let rebuilt = outcome.into_oracle(&g);
    let derived_ms = t0.elapsed().as_secs_f64() * 1e3;
    let derived_derivations = successor_derivations() - d0;
    black_box(rebuilt.distance(0, 1));
    // Reconstruct the (valid) plane through the public successor API and
    // attach it, mimicking what a tracked pipeline outcome carries.
    let mut plane = vec![NO_SUCC; N * N];
    for v in 0..N as NodeId {
        for u in 0..N as NodeId {
            if let Some(s) = rebuilt.successor(u, v) {
                plane[v as usize * N + u as usize] = s;
            }
        }
    }
    let tracked_dist = dist_for_supplied.with_successors(plane);
    let d0 = successor_derivations();
    let t0 = Instant::now();
    let adopted = Oracle::from_dist(&g, tracked_dist);
    let supplied_ms = t0.elapsed().as_secs_f64() * 1e3;
    let supplied_derivations = successor_derivations() - d0;
    assert_eq!(supplied_derivations, 0, "supplied plane must skip the reverse-BFS derivation");
    assert_eq!(adopted, rebuilt, "both boundary paths must serve the same oracle");
    println!(
        "build-from-outcome: derived {derived_ms:.1} ms ({derived_derivations} reverse-BFS derivation) vs supplied plane {supplied_ms:.1} ms ({supplied_derivations} derivations, validation only); {arena_bytes} arena bytes moved, {avoided_copy_ms:.1} ms n² copy avoided"
    );

    // -------- snapshot size, for the record --------
    let snapshot_bytes = oracle.to_bytes().len();

    // -------- snapshot I/O: what a server pays at start and per swap --------
    // Median of SNAPSHOT_REPS atomic saves (encode, block checksums,
    // write, fsync, rename) and eager loads (read, checksums, decode,
    // plane check) of the n = 2048 oracle, at the default 64-row blocks
    // and the paged server's 16-row blocks. The loads' plane check splits
    // over the host's cores, so the CPU count goes in the record.
    const SNAPSHOT_REPS: usize = 5;
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let io_path = std::env::temp_dir().join(format!("bench_oracle_io_{}.snap", std::process::id()));
    let snapshot_io: Vec<(u32, f64, f64)> = [64u32, 16]
        .iter()
        .map(|&block_rows| {
            let cfg = V2Config { block_rows, ..V2Config::default() };
            let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
            for _ in 0..SNAPSHOT_REPS {
                let t0 = Instant::now();
                oracle.save_v2(&io_path, &cfg).expect("save snapshot");
                save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let t0 = Instant::now();
                let loaded = Oracle::<u64>::load(&io_path).expect("load snapshot");
                load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                assert!(loaded == *oracle, "a load must restore the saved oracle");
            }
            let median = |v: &mut Vec<f64>| {
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            };
            let (save, load) = (median(&mut save_ms), median(&mut load_ms));
            println!(
                "snapshot-io/{block_rows}-row blocks: save {save:.1} ms, eager load {load:.1} ms (median of {SNAPSHOT_REPS}, {host_cpus} CPUs)"
            );
            (block_rows, save, load)
        })
        .collect();
    std::fs::remove_file(&io_path).ok();

    // -------- paged backend: resident budget vs hit rate --------
    // The out-of-core question: how much of the blocked v2 snapshot must
    // stay resident before the paged backend serves a skewed workload at
    // a useful hit rate? Save the same oracle as v2, then sweep resident
    // budgets from 1/16 of the file up to the whole file, driving the
    // Zipf path/dist mix through a fresh `PagedOracle` per point (fresh
    // so each point's hit/miss counters are uncontaminated). The engine's
    // own path cache is disabled — the curve measures the paging layer,
    // not the LRU in front of it.
    const PAGED_BLOCK_ROWS: u32 = 16;
    const PAGED_QUERIES: u64 = 100_000;
    let v2_path =
        std::env::temp_dir().join(format!("bench_oracle_paged_{}.snap", std::process::id()));
    oracle
        .save_v2(&v2_path, &V2Config { block_rows: PAGED_BLOCK_ROWS, ..V2Config::default() })
        .expect("save v2 snapshot");
    let v2_file_bytes = std::fs::metadata(&v2_path).expect("v2 metadata").len() as usize;
    let ztotal = *cum.last().expect("nonempty cdf");
    struct PagedPoint {
        budget_bytes: usize,
        resident_bytes: usize,
        hit_rate: f64,
        evictions: u64,
        qps: f64,
    }
    let paged_points: Vec<PagedPoint> = [(1usize, 16usize), (1, 8), (1, 4), (1, 2), (1, 1)]
        .iter()
        .map(|&(num, den)| {
            let budget_bytes = v2_file_bytes * num / den;
            let paged = Arc::new(
                PagedOracle::<u64>::open(&v2_path, PagedConfig { resident_bytes: budget_bytes })
                    .expect("open paged"),
            );
            let pengine = QueryEngine::new_paged(
                Arc::clone(&paged),
                EngineConfig { shards: 64, cache_per_shard: 0 },
            );
            let mut state = 0xC0FF_EE00 ^ ((num as u64) << 8) ^ den as u64;
            let mut checksum = 0u64;
            let start = Instant::now();
            for i in 0..PAGED_QUERIES {
                let u01 = next_rng(&mut state) as f64 / u64::MAX as f64 * ztotal;
                let rank = cum.partition_point(|&c| c < u01);
                let (a, b) = zipf_route(rank.min(ZIPF_UNIVERSE - 1));
                if i % PATH_EVERY == 0 {
                    if let Some(p) = pengine.path(a, b).expect("in range") {
                        checksum ^= p.len() as u64;
                    }
                } else if let Some(d) = pengine.dist(a, b).expect("in range") {
                    checksum ^= d;
                }
            }
            let qps = PAGED_QUERIES as f64 / start.elapsed().as_secs_f64();
            black_box(checksum);
            let s = paged.stats();
            let hit_rate = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
            println!(
                "paged {num}/{den} budget ({:.1} MiB): {:.1}% block hit rate, {} evictions, {:.1} MiB resident, {:.2} M queries/sec",
                budget_bytes as f64 / (1 << 20) as f64,
                hit_rate * 100.0,
                s.evictions,
                s.resident_bytes as f64 / (1 << 20) as f64,
                qps / 1e6,
            );
            PagedPoint {
                budget_bytes,
                resident_bytes: s.resident_bytes,
                hit_rate,
                evictions: s.evictions,
                qps,
            }
        })
        .collect();
    std::fs::remove_file(&v2_path).ok();

    if let Ok(path) = std::env::var("BENCH_ORACLE_JSON") {
        use congest_telemetry::json::{obj, Json};
        let median = |suffix: &str| -> f64 {
            c.results.iter().find(|(n, _)| n.ends_with(suffix)).map_or(0.0, |(_, s)| s.median_ns)
        };
        let round1 = |x: f64| Json::F64((x * 10.0).round() / 10.0);
        let round3 = |x: f64| Json::F64((x * 1000.0).round() / 1000.0);
        let hist_quantiles = |name: &str| {
            let h = op_hist(name);
            obj(vec![
                ("count", Json::U64(h.count())),
                ("p50", Json::U64(h.p50())),
                ("p99", Json::U64(h.p99())),
                ("p999", Json::U64(h.p999())),
                ("max", Json::U64(h.max())),
            ])
        };
        let throughput: Vec<Json> = points
            .iter()
            .map(|p| {
                obj(vec![
                    ("threads", Json::from(p.threads)),
                    ("uniform_mixed_queries_per_sec", Json::F64(p.qps.round())),
                    ("hot_route_paths_per_sec", Json::F64(p.hot_qps.round())),
                    ("zipf_paths_per_sec", Json::F64(p.zipf_qps.round())),
                ])
            })
            .collect();
        congest_telemetry::Manifest::new("bench-oracle")
            .field("benchmark", Json::from("distance-oracle serving layer throughput"))
            .field(
                "knobs",
                obj(vec![
                    ("n", Json::from(N)),
                    ("extra_edges", Json::from(4 * N)),
                    ("graph", Json::from("gnm_connected(n, 4n, uniform 1..100, seed 2026)")),
                    ("shards", Json::U64(64)),
                    ("cache_per_shard", Json::U64(4096)),
                    ("queries_per_thread", Json::U64(QUERIES_PER_THREAD)),
                ]),
            )
            .field("snapshot_bytes", Json::from(snapshot_bytes))
            .field(
                "ops_ns",
                obj(vec![
                    ("dist", round1(median("dist"))),
                    ("path_uncached", round1(median("path-uncached"))),
                    ("path_cached", round1(median("path-cached"))),
                    ("k_nearest_10", round1(median("k-nearest-10"))),
                ]),
            )
            .field(
                "op_latency_ns",
                obj(vec![
                    ("dist", hist_quantiles("oracle.op.dist_ns")),
                    ("path", hist_quantiles("oracle.op.path_ns")),
                    ("k_nearest", hist_quantiles("oracle.op.k_nearest_ns")),
                ]),
            )
            .field(
                "workload",
                obj(vec![
                    (
                        "uniform_dist_to_path_ratio",
                        Json::from(format!("{}:1", PATH_EVERY - 1)),
                    ),
                    ("uniform_cache_hit_rate", round3(uniform_hit_rate)),
                    ("hot_route_pairs", Json::from(hot.len())),
                    ("hot_route_cache_hit_rate", round3(hot_hit_rate)),
                    ("zipf_universe_pairs", Json::from(ZIPF_UNIVERSE)),
                    ("zipf_exponent", Json::F64(ZIPF_S)),
                    ("zipf_cache_hit_rate", round3(zipf_hit_rate)),
                ]),
            )
            .field(
                "batched",
                obj(vec![
                    ("frame_requests", Json::from(BATCH)),
                    ("frames", Json::from(BATCH_ROUNDS)),
                    ("dist_per_call_ns", round1(dist_percall_ns)),
                    ("dist_batch_ns_per_op", round1(dist_batch_ns)),
                    ("path_per_call_ns", round1(path_percall_ns)),
                    ("path_batch_ns_per_op", round1(path_batch_ns)),
                    (
                        "note",
                        Json::from(
                            "dist_batch amortizes per-op dispatch; path_batch takes each shard lock once per frame instead of once per request",
                        ),
                    ),
                ]),
            )
            .field(
                "build_from_outcome",
                obj(vec![
                    ("n", Json::from(N)),
                    ("derived_plane_ms", round1(derived_ms)),
                    ("derived_reverse_bfs_derivations", Json::U64(derived_derivations)),
                    ("supplied_plane_ms", round1(supplied_ms)),
                    ("supplied_reverse_bfs_derivations", Json::U64(supplied_derivations)),
                    ("dist_arena_bytes_moved", Json::from(arena_bytes)),
                    ("avoided_n2_copy_ms", round1(avoided_copy_ms)),
                    (
                        "note",
                        Json::from(
                            "arena (and any Step-7 successor plane) moves from ApspOutcome into Oracle; supplied-plane time is the validation sweep only, zero reverse-BFS",
                        ),
                    ),
                ]),
            )
            .field(
                "snapshot_io",
                obj(vec![
                    ("n", Json::from(N)),
                    ("host_cpus", Json::from(host_cpus)),
                    ("reps", Json::from(SNAPSHOT_REPS)),
                    (
                        "medians",
                        Json::Arr(
                            snapshot_io
                                .iter()
                                .map(|&(block_rows, save, load)| {
                                    obj(vec![
                                        ("block_rows", Json::U64(u64::from(block_rows))),
                                        ("save_ms", round1(save)),
                                        ("eager_load_ms", round1(load)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "note",
                        Json::from(
                            "Oracle::save_v2 (atomic: temp file, fsync, rename) and Oracle::load of the same oracle, median of reps each",
                        ),
                    ),
                ]),
            )
            .field(
                "paged",
                obj(vec![
                    ("v2_file_bytes", Json::from(v2_file_bytes)),
                    ("block_rows", Json::U64(u64::from(PAGED_BLOCK_ROWS))),
                    ("queries_per_point", Json::U64(PAGED_QUERIES)),
                    (
                        "workload",
                        Json::from(
                            "zipf(s=1.0) routes, 7:1 dist:path, engine path cache disabled",
                        ),
                    ),
                    (
                        "resident_budget_curve",
                        Json::Arr(
                            paged_points
                                .iter()
                                .map(|p| {
                                    obj(vec![
                                        ("budget_bytes", Json::from(p.budget_bytes)),
                                        ("resident_bytes", Json::from(p.resident_bytes)),
                                        ("block_hit_rate", round3(p.hit_rate)),
                                        ("evictions", Json::U64(p.evictions)),
                                        ("queries_per_sec", Json::F64(p.qps.round())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )
            .field("throughput", Json::Arr(throughput))
            .write(&path)
            .expect("write BENCH_ORACLE_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
