//! Differential chaos suite for the serving path: a deterministic chaos
//! proxy sits between a [`ResilientClient`] and a live server, injecting
//! delays, pathological 1-byte segmentation, mid-frame truncations, and
//! connection resets on a seeded per-byte schedule. The contract under
//! test, across a grid of seeds × fault rates:
//!
//! 1. **Never a wrong answer.** Every reply the resilient client hands
//!    back is exactly correct for the snapshot generation it claims
//!    (generations have different weight functions, so a stale or torn
//!    answer fails loudly).
//! 2. **Never a hang.** Every operation either succeeds or fails with a
//!    typed [`ClientError::RetriesExhausted`] within its deadline.
//! 3. **Nothing leaks.** After the client and proxy go away, the server
//!    drains to zero connections and `join()` returns.
//!
//! Bit-flips are exercised separately: the wire format carries no
//! end-to-end checksum, so a flip inside a response body is undetectable
//! by construction; what the resilience layer owes under flips is typed,
//! bounded failure (flipped *requests* are fully defended — the server
//! answers `BadRequest`), not answer exactness.
//!
//! The `chaos_matrix_*` test names are stable: CI's chaos-matrix job
//! filters on them per seed and rate.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{DistMatrix, Graph, Weight};
use congest_oracle::{EngineConfig, Oracle, PortableWeight, QueryEngine};
use congest_serve::chaos::{ChaosProxy, ChaosSpec, Direction};
use congest_serve::client::{ResilientClient, ResilientOp, RetryPolicy};
use congest_serve::proto::{self, Status};
use congest_serve::{Client, ClientError, ReplyBody, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 24;

/// One generation variant: ground truth for validating replies against
/// the generation they claim.
struct Variant {
    dist: DistMatrix<u64>,
    edge: HashMap<(u32, u32), u64>,
    engine: Arc<QueryEngine<u64>>,
}

fn variant(seed: u64) -> Variant {
    let g: Graph<u64> = gnm_connected(N, 3 * N, true, WeightDist::Uniform(1, 97), seed);
    let dist = apsp_dijkstra(&g);
    let mut edge = HashMap::new();
    for e in g.edges() {
        let w = edge.entry((e.from, e.to)).or_insert(e.weight);
        *w = (*w).min(e.weight);
        if !g.is_directed() {
            let w = edge.entry((e.to, e.from)).or_insert(e.weight);
            *w = (*w).min(e.weight);
        }
    }
    let engine = Arc::new(QueryEngine::new(
        Arc::new(Oracle::from_dist(&g, dist.clone())),
        EngineConfig::default(),
    ));
    Variant { dist, edge, engine }
}

fn quick_server_config() -> ServerConfig {
    ServerConfig { idle_poll: Duration::from_millis(2), ..ServerConfig::default() }
}

/// Polls until the server has drained every connection; panics if it
/// does not happen within `within` — a leaked handler.
fn assert_drained<W: PortableWeight>(handle: &congest_serve::ServerHandle<W>, within: Duration) {
    let deadline = Instant::now() + within;
    while handle.connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "server still holds {} connection(s) after the clients went away",
            handle.connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Validates one reply against the variant its claimed generation maps
/// to. Returns `true` when the reply was an answer (not a shed — sheds
/// never escape the resilient client, so seeing one here is a bug).
fn check_reply(reply: &congest_serve::Reply<u64>, op: ResilientOp, variants: &[Variant]) {
    assert!(
        (1..=variants.len() as u64).contains(&reply.generation),
        "reply claims generation {} which never existed",
        reply.generation
    );
    let var = &variants[(reply.generation - 1) as usize];
    assert!(
        !reply.is_retryable(),
        "a shed status ({:?}) escaped the resilient client",
        reply.status
    );
    match op {
        ResilientOp::Dist(u, v) => {
            let want = var.dist.get(u as usize, v as usize);
            match (&reply.status, &reply.body) {
                (Status::Ok, ReplyBody::Dist(w)) => {
                    assert_eq!(*w, want, "dist({u},{v}) wrong for generation {}", reply.generation);
                }
                (Status::Unreachable, _) => assert_eq!(want, u64::INF),
                (s, b) => panic!("dist({u},{v}) under chaos: {s:?} {b:?}"),
            }
        }
        ResilientOp::Path(u, v) => {
            let want = var.dist.get(u as usize, v as usize);
            match (&reply.status, &reply.body) {
                (Status::Ok, ReplyBody::Path(p)) => {
                    assert_eq!(p.first(), Some(&u));
                    assert_eq!(p.last(), Some(&v));
                    let mut total = 0u64;
                    for step in p.windows(2) {
                        total += *var.edge.get(&(step[0], step[1])).unwrap_or_else(|| {
                            panic!(
                                "path for generation {} uses edge ({},{}) absent there",
                                reply.generation, step[0], step[1]
                            )
                        });
                    }
                    assert_eq!(
                        total, want,
                        "path({u},{v}) weight wrong for generation {}",
                        reply.generation
                    );
                }
                (Status::Unreachable, _) => assert_eq!(want, u64::INF),
                (s, b) => panic!("path({u},{v}) under chaos: {s:?} {b:?}"),
            }
        }
        ResilientOp::KNearest(u, k) => {
            // Ties make the node choice ambiguous, so validate the value
            // profile: the returned distances must equal the k smallest
            // finite distances from u (sorted), per this generation.
            let (Status::Ok, ReplyBody::KNearest(items)) = (&reply.status, &reply.body) else {
                panic!("k_nearest({u},{k}) under chaos: {:?} {:?}", reply.status, reply.body);
            };
            let mut want: Vec<u64> = (0..N)
                .filter(|&v| v != u as usize)
                .map(|v| var.dist.get(u as usize, v))
                .filter(|&d| d != u64::INF)
                .collect();
            want.sort_unstable();
            want.truncate(k as usize);
            let got: Vec<u64> = items.iter().map(|&(_, d)| d).collect();
            assert_eq!(got, want, "k_nearest({u},{k}) wrong for generation {}", reply.generation);
        }
        ResilientOp::Ping => assert_eq!(reply.status, Status::Ok),
        ResilientOp::Health => {
            let (Status::Ok, ReplyBody::Health(h)) = (&reply.status, &reply.body) else {
                panic!("health under chaos: {:?}", reply.status);
            };
            assert_eq!(h.max_connections as usize, ServerConfig::default().max_connections);
        }
    }
}

/// One grid cell: a seeded chaos spec at either the low or high rate
/// tier, a two-generation server swap mid-run, and the full contract.
fn run_chaos_cell(seed: u64, high: bool) {
    let variants = vec![variant(9000 + seed), variant(9100 + seed)];
    let handle =
        Server::bind("127.0.0.1:0", Arc::clone(&variants[0].engine), quick_server_config())
            .expect("bind");

    let spec = if high {
        ChaosSpec::seeded(seed)
            .delays(5_000, Duration::from_micros(200))
            .segmentation(20_000)
            .truncation(2_000)
            .resets(2_000)
    } else {
        ChaosSpec::seeded(seed)
            .delays(2_000, Duration::from_micros(200))
            .segmentation(5_000)
            .truncation(300)
            .resets(300)
    };
    let proxy = ChaosProxy::start(handle.local_addr(), spec).expect("proxy start");

    let policy = RetryPolicy {
        max_attempts: 32,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        op_deadline: Duration::from_secs(20),
        jitter_seed: seed,
    };
    let mut client = ResilientClient::<u64>::new(proxy.local_addr(), policy);

    let rounds = 36u64;
    let mut x = 0x9E37_79B9u64.wrapping_mul(seed + 1);
    let mut successes = 0u64;
    for round in 0..rounds {
        if round == rounds / 2 {
            assert_eq!(handle.swap_engine(Arc::clone(&variants[1].engine)), 2);
        }
        let mut ops = Vec::new();
        for j in 0..6u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) % N as u64) as u32;
            let v = ((x >> 13) % N as u64) as u32;
            ops.push(match (round + j) % 5 {
                0 => ResilientOp::Path(u, v),
                1 => ResilientOp::Ping,
                2 => ResilientOp::Health,
                3 => ResilientOp::KNearest(u, 1 + (v % 5)),
                _ => ResilientOp::Dist(u, v),
            });
        }
        let t0 = Instant::now();
        let outcome = client.execute(&ops);
        let elapsed = t0.elapsed();
        assert!(
            elapsed <= policy.op_deadline + Duration::from_secs(5),
            "operation overran its deadline: {elapsed:?} (round {round})"
        );
        match outcome {
            Ok(replies) => {
                assert_eq!(replies.len(), ops.len(), "a reply went missing");
                for (reply, &op) in replies.iter().zip(&ops) {
                    check_reply(reply, op, &variants);
                }
                successes += 1;
            }
            Err(ClientError::RetriesExhausted { attempts }) => {
                // Typed, bounded failure: acceptable under chaos, and the
                // trace must actually describe the attempts.
                assert!(!attempts.is_empty(), "exhaustion with an empty attempt trace");
            }
            Err(e) => panic!("untyped failure escaped the resilient client: {e}"),
        }
    }
    assert!(
        successes >= rounds / 2,
        "chaos starved progress: only {successes}/{rounds} rounds succeeded"
    );
    if high {
        // At the high tier faults must actually have fired; a silent
        // no-op proxy would make the whole grid vacuous.
        assert!(!proxy.trace().is_empty(), "high-rate chaos injected nothing");
        assert!(client.stats().retries > 0, "high-rate chaos never forced a retry");
    }

    drop(client);
    proxy.join();
    assert_drained(&handle, Duration::from_secs(5));
    handle.join();
}

#[test]
fn chaos_matrix_s1_low() {
    run_chaos_cell(1, false);
}
#[test]
fn chaos_matrix_s1_high() {
    run_chaos_cell(1, true);
}
#[test]
fn chaos_matrix_s2_low() {
    run_chaos_cell(2, false);
}
#[test]
fn chaos_matrix_s2_high() {
    run_chaos_cell(2, true);
}
#[test]
fn chaos_matrix_s3_low() {
    run_chaos_cell(3, false);
}
#[test]
fn chaos_matrix_s3_high() {
    run_chaos_cell(3, true);
}
#[test]
fn chaos_matrix_s4_low() {
    run_chaos_cell(4, false);
}
#[test]
fn chaos_matrix_s4_high() {
    run_chaos_cell(4, true);
}

/// Bit-flips have no exactness story without an end-to-end checksum
/// (a flipped response body is undetectable by construction), so the
/// contract here is the weaker half: every operation still terminates
/// within its deadline with either an answer or a typed error — no
/// hangs, no panics, no protocol wedge the client cannot escape.
#[test]
fn bitflips_stay_typed_and_bounded() {
    let variants = [variant(7500)];
    let handle =
        Server::bind("127.0.0.1:0", Arc::clone(&variants[0].engine), quick_server_config())
            .expect("bind");
    let spec = ChaosSpec::seeded(0xF11F).bitflips(4_000);
    let proxy = ChaosProxy::start(handle.local_addr(), spec).expect("proxy start");
    let policy = RetryPolicy {
        max_attempts: 16,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(10),
        op_deadline: Duration::from_secs(15),
        jitter_seed: 0xF11F,
    };
    let mut client = ResilientClient::<u64>::new(proxy.local_addr(), policy);
    for i in 0..40u32 {
        let t0 = Instant::now();
        let outcome = client.dist(i % N as u32, (i * 7) % N as u32);
        assert!(
            t0.elapsed() <= policy.op_deadline + Duration::from_secs(5),
            "bit-flip chaos caused a hang"
        );
        match outcome {
            Ok(_) => {}
            Err(
                ClientError::RetriesExhausted { .. }
                | ClientError::Server(_)
                | ClientError::Refused(_),
            ) => {}
            Err(e) => panic!("untyped failure under bit-flips: {e}"),
        }
    }
    drop(client);
    proxy.join();
    assert_drained(&handle, Duration::from_secs(5));
    handle.join();
}

/// The global in-flight budget sheds with a typed `Overloaded` instead
/// of queueing, `Health` reports the shed count, and the resilient
/// client re-drives only the shed requests to a complete exact answer.
#[test]
fn overload_sheds_typed_and_health_reports_it() {
    let var = variant(4242);
    let cfg = ServerConfig { max_inflight: 2, ..quick_server_config() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&var.engine), cfg.clone()).expect("bind");
    let addr = handle.local_addr();

    // Raw client first: the shed statuses must be visible and typed.
    let mut client = Client::<u64>::connect(addr).expect("connect");
    let mut shed_seen = 0usize;
    for _ in 0..20 {
        let mut batch = client.batch();
        let mut pairs = Vec::new();
        for i in 0..64u32 {
            let (u, v) = (i % N as u32, (i * 5) % N as u32);
            batch.dist(u, v);
            pairs.push((u, v));
        }
        let replies = batch.send().expect("batch under overload must still answer");
        assert_eq!(replies.len(), pairs.len(), "overload must shed, not drop");
        for (reply, &(u, v)) in replies.iter().zip(&pairs) {
            match reply.status {
                Status::Ok | Status::Unreachable => {
                    if let ReplyBody::Dist(w) = &reply.body {
                        assert_eq!(*w, var.dist.get(u as usize, v as usize));
                    }
                }
                Status::Overloaded => {
                    assert!(reply.is_retryable(), "Overloaded must classify retryable");
                    shed_seen += 1;
                }
                s => panic!("unexpected status under overload: {s:?}"),
            }
        }
        if shed_seen > 0 {
            break;
        }
    }
    assert!(shed_seen > 0, "a 64-wide batch against max_inflight=2 never shed");

    let (_, health) = client.health().expect("health must answer during overload");
    assert!(
        health.shed_overloaded >= shed_seen as u64,
        "health reports {} shed but the client saw {shed_seen}",
        health.shed_overloaded
    );
    assert_eq!(health.max_connections as usize, cfg.max_connections);

    // Resilient client: re-drives the shed requests until every answer
    // is in, and every answer is exact.
    let policy = RetryPolicy {
        max_attempts: 64,
        base: Duration::from_micros(100),
        cap: Duration::from_millis(2),
        op_deadline: Duration::from_secs(20),
        jitter_seed: 42,
    };
    let mut rc = ResilientClient::<u64>::new(addr, policy);
    let mut ops = Vec::new();
    for i in 0..48u32 {
        ops.push(ResilientOp::Dist(i % N as u32, (i * 11) % N as u32));
    }
    for _ in 0..20 {
        let replies = rc.execute(&ops).expect("re-drive must complete");
        for (reply, &op) in replies.iter().zip(&ops) {
            check_reply(reply, op, std::slice::from_ref(&var));
        }
        if rc.stats().retries > 0 {
            break;
        }
    }
    assert!(rc.stats().retries > 0, "48 queries against max_inflight=2 never re-drove");

    drop(client);
    drop(rc);
    assert_drained(&handle, Duration::from_secs(5));
    handle.join();
}

/// Per-connection window sheds (`Busy`) are equally typed and
/// retryable — the other half of the shed taxonomy.
#[test]
fn window_sheds_are_retryable_and_counted() {
    let var = variant(515);
    let cfg = ServerConfig { window: 4, ..quick_server_config() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&var.engine), cfg).expect("bind");
    let mut client = Client::<u64>::connect(handle.local_addr()).expect("connect");
    let mut busy_seen = 0u64;
    for _ in 0..20 {
        let mut batch = client.batch();
        for i in 0..16u32 {
            batch.dist(i % N as u32, (i * 3) % N as u32);
        }
        let replies = batch.send().expect("send");
        for reply in &replies {
            if reply.status == Status::Busy {
                assert!(reply.is_retryable(), "Busy must classify retryable");
                busy_seen += 1;
            }
        }
        if busy_seen > 0 {
            break;
        }
    }
    assert!(busy_seen > 0, "a 16-wide batch against window=4 never went Busy");
    let (_, health) = client.health().expect("health");
    assert!(health.shed_busy >= busy_seen, "health must count Busy sheds");
    drop(client);
    assert_drained(&handle, Duration::from_secs(5));
    handle.join();
}

/// A peer that starts a frame and stalls is reclaimed at
/// `frame_deadline` instead of pinning a handler forever.
#[test]
fn slow_loris_partial_frame_is_reclaimed() {
    let var = variant(1999);
    let cfg = ServerConfig { frame_deadline: Duration::from_millis(150), ..quick_server_config() };
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&var.engine), cfg).expect("bind");

    let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
    s.write_all(&proto::encode_client_hello(<u64 as PortableWeight>::TAG)).expect("hello");
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).expect("server hello");

    // Promise a 13-byte frame, deliver 2 bytes, stall.
    s.write_all(&13u32.to_le_bytes()).expect("len prefix");
    s.write_all(&[0x01, 0x02]).expect("partial payload");

    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let t0 = Instant::now();
    let mut buf = [0u8; 64];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break, // server closed us: reclaimed
            Ok(_) => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("server never reclaimed the stalled connection")
            }
            Err(_) => break, // reset is an equally valid reclamation
        }
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "connection died before the frame had its deadline to complete"
    );
    assert!(t0.elapsed() < Duration::from_secs(4), "reclamation exceeded the deadline");
    assert_drained(&handle, Duration::from_secs(5));
    handle.join();
}

/// Health over the wire tracks swaps and reload failures, including the
/// last swap error's text.
#[test]
fn health_reports_swaps_and_reload_failures() {
    let g: Graph<u64> = gnm_connected(N, 3 * N, true, WeightDist::Uniform(1, 50), 31);
    let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
    let path = std::env::temp_dir().join("serve_chaos_health_snapshot.bin");
    oracle.save(&path).expect("save");

    let handle = Server::bind_snapshot::<u64>("127.0.0.1:0", &path, quick_server_config())
        .expect("bind_snapshot");
    let mut client = Client::<u64>::connect(handle.local_addr()).expect("connect");

    let (gen, h) = client.health().expect("health");
    assert_eq!(gen, 1);
    assert_eq!(h.swaps, 0);
    assert_eq!(h.swap_errors, 0);
    assert!(h.last_swap_error.is_none());
    assert!(h.connections >= 1);

    // Corrupt the file: reload must fail typed and health must say why.
    std::fs::write(&path, b"not a snapshot").expect("corrupt");
    assert!(matches!(client.reload(), Err(ClientError::Server(Status::Internal))));
    let (gen, h) = client.health().expect("health after failed reload");
    assert_eq!(gen, 1, "a failed reload must not advance the generation");
    assert_eq!(h.swap_errors, 1);
    assert!(h.last_swap_error.is_some(), "the failure reason must be reported");

    // Restore a valid snapshot: reload succeeds and is counted.
    let g2: Graph<u64> = gnm_connected(N, 3 * N, true, WeightDist::Uniform(1, 50), 32);
    Oracle::from_dist(&g2, apsp_dijkstra(&g2)).save(&path).expect("re-save");
    assert_eq!(client.reload().expect("reload"), 2);
    let (gen, h) = client.health().expect("health after swap");
    assert_eq!(gen, 2);
    assert_eq!(h.swaps, 1);
    assert_eq!(h.swap_errors, 1, "old failures stay on the record");

    std::fs::remove_file(&path).ok();
    drop(client);
    handle.join();
}

/// The satellite fix: a snapshot rewritten with **the same mtime**
/// (same-second rewrite, below the filesystem's timestamp granularity)
/// must still be picked up, because the watcher also compares a content
/// fingerprint.
#[test]
fn watcher_catches_same_mtime_rewrite() {
    let g: Graph<u64> = gnm_connected(N, 3 * N, true, WeightDist::Uniform(1, 50), 61);
    let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
    let path = std::env::temp_dir().join("serve_chaos_watch_snapshot.bin");
    oracle.save(&path).expect("save");
    let mtime0 = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");

    let cfg =
        ServerConfig { watch_interval: Some(Duration::from_millis(20)), ..quick_server_config() };
    let handle = Server::bind_snapshot::<u64>("127.0.0.1:0", &path, cfg).expect("bind_snapshot");
    assert_eq!(handle.generation(), 1);
    // Give the watcher a tick to record its baseline stamp.
    std::thread::sleep(Duration::from_millis(60));

    // Rewrite with different content, then force the mtime back so the
    // timestamps are identical — only the fingerprint can tell.
    let g2: Graph<u64> = gnm_connected(N, 3 * N, true, WeightDist::Uniform(1, 50), 62);
    Oracle::from_dist(&g2, apsp_dijkstra(&g2)).save(&path).expect("re-save");
    std::fs::File::options()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_modified(mtime0))
        .expect("restore mtime");
    let restored = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");
    assert_eq!(restored, mtime0, "test setup: the rewrite must not move the mtime");

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.generation() < 2 {
        assert!(
            Instant::now() < deadline,
            "watcher missed a same-mtime rewrite (mtime-only comparison regressed)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    std::fs::remove_file(&path).ok();
    handle.join();
}

/// A draining upstream for proxy-only determinism tests. It never answers:
/// with no server→client bytes, no fault in that direction can close a
/// connection while its client→server pump is still mid-stream, which
/// would cut the live trace at a timing-dependent offset.
fn spawn_sink() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("sink bind");
    let addr = listener.local_addr().expect("sink addr");
    let h = std::thread::spawn(move || {
        // Serve until the listener errors out of accept (test end drops
        // nothing explicitly; the thread is detached by the caller).
        listener.set_nonblocking(true).ok();
        let started = Instant::now();
        let mut workers = Vec::new();
        while started.elapsed() < Duration::from_secs(30) {
            match listener.accept() {
                Ok((mut s, _)) => {
                    workers.push(std::thread::spawn(move || {
                        s.set_nonblocking(false).ok();
                        let mut buf = [0u8; 4096];
                        while let Ok(1..) = s.read(&mut buf) {}
                    }));
                    workers.retain(|w| !w.is_finished());
                    if workers.is_empty() && started.elapsed() > Duration::from_millis(500) {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    workers.retain(|w| !w.is_finished());
                    if workers.is_empty() && started.elapsed() > Duration::from_millis(500) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        for w in workers {
            let _ = w.join();
        }
    });
    (addr, h)
}

/// Determinism across runs and across concurrent pump threads: the live
/// client→server trace of every connection equals the pure
/// [`ChaosSpec::schedule`], whether connections run one at a time or all
/// at once, and repeats byte-identically run to run.
#[test]
fn live_trace_matches_schedule_across_runs_and_thread_counts() {
    const LEN: usize = 1500;
    let payload: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let spec = ChaosSpec::seeded(0xC4A0_5EED)
        .bitflips(3_000)
        .segmentation(10_000)
        .truncation(800)
        .resets(800);

    let mut runs: Vec<Vec<congest_serve::chaos::TraceEvent>> = Vec::new();
    for &conns in &[1usize, 4, 4] {
        let (sink_addr, sink) = spawn_sink();
        let proxy = ChaosProxy::start(sink_addr, spec).expect("proxy");
        // Connect sequentially so accept order (and therefore conn ids)
        // is deterministic; then write concurrently so pump threads
        // actually interleave.
        let sockets: Vec<TcpStream> = (0..conns)
            .map(|i| {
                let before = proxy.connections();
                let s = TcpStream::connect(proxy.local_addr()).expect("connect");
                // Wait for the proxy to register this connection before
                // opening the next, pinning conn id `i` to this socket.
                let t0 = Instant::now();
                while proxy.connections() <= before {
                    assert!(
                        t0.elapsed() < Duration::from_secs(2),
                        "proxy never accepted connection {i}"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                s
            })
            .collect();
        std::thread::scope(|scope| {
            for mut s in sockets {
                let payload = &payload;
                scope.spawn(move || {
                    // Resets may kill the socket mid-write; that is the
                    // chaos working, not a test failure.
                    let _ = s.write_all(payload);
                    let _ = s.flush();
                    let _ = s.shutdown(std::net::Shutdown::Write);
                    let mut sink = [0u8; 4096];
                    s.set_read_timeout(Some(Duration::from_millis(200))).ok();
                    loop {
                        match s.read(&mut sink) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                    }
                });
            }
        });
        // Let the pumps finish scanning what they buffered.
        std::thread::sleep(Duration::from_millis(100));
        let trace = proxy.join();
        let _ = sink.join();

        for conn in 0..conns as u64 {
            let got: Vec<_> = trace
                .iter()
                .copied()
                .filter(|e| e.conn == conn && e.dir == Direction::ClientToServer)
                .collect();
            let want = spec.schedule(conn, Direction::ClientToServer, LEN as u64);
            assert_eq!(
                got, want,
                "conn {conn} of a {conns}-connection run diverged from the pure schedule"
            );
        }
        runs.push(
            trace
                .into_iter()
                .filter(|e| e.conn == 0 && e.dir == Direction::ClientToServer)
                .collect(),
        );
    }
    // Same seed, same payload: conn 0's trace is byte-identical whether
    // it ran alone or alongside three others, and across repeat runs.
    assert_eq!(runs[0], runs[1], "trace changed with pump thread count");
    assert_eq!(runs[1], runs[2], "trace changed across identical runs");
}

mod chaos_purity {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `fault_at` and `schedule` are pure functions of
        /// `(seed, conn, direction, offset)`: two independently built
        /// specs with the same parameters agree everywhere, and a longer
        /// schedule extends a shorter one without rewriting history.
        #[test]
        fn schedules_are_pure_and_prefix_stable(
            seed in any::<u64>(),
            delay in 0u32..5_000,
            flip in 0u32..5_000,
            seg in 0u32..20_000,
            trunc in 0u32..3_000,
            reset in 0u32..3_000,
            len in 0u64..2_048,
            conn in 0u64..4,
        ) {
            let build = || ChaosSpec::seeded(seed)
                .delays(delay, Duration::from_micros(50))
                .bitflips(flip)
                .segmentation(seg)
                .truncation(trunc)
                .resets(reset);
            let (a, b) = (build(), build());
            for dir in [Direction::ClientToServer, Direction::ServerToClient] {
                prop_assert_eq!(a.schedule(conn, dir, len), b.schedule(conn, dir, len));
                for off in (0..len).step_by(97) {
                    prop_assert_eq!(a.fault_at(conn, dir, off), b.fault_at(conn, dir, off));
                }
                // Prefix stability: the double-length schedule starts
                // with the single-length one (terminal faults aside, the
                // short schedule IS the long one's prefix).
                let short = a.schedule(conn, dir, len);
                let long = a.schedule(conn, dir, len * 2);
                prop_assert!(long.len() >= short.len());
                prop_assert_eq!(&long[..short.len()], &short[..]);
            }
        }

        /// Different seeds decorrelate: `reseeded` produces a spec whose
        /// schedule (at these rates, over a long window) differs.
        #[test]
        fn reseeding_decorrelates(seed in any::<u64>(), salt in 1u64..u64::MAX) {
            let a = ChaosSpec::seeded(seed).segmentation(50_000);
            let b = a.reseeded(salt);
            prop_assert_eq!(a.segment_ppm, b.segment_ppm);
            // 16 KiB at 5% per byte: identical schedules under different
            // seeds are astronomically unlikely.
            prop_assert_ne!(
                a.schedule(0, Direction::ClientToServer, 16_384),
                b.schedule(0, Direction::ClientToServer, 16_384)
            );
        }
    }
}
