//! Serving-side integration tests for the v2/paged work: the atomic
//! save contract (a watcher or concurrent loader can never observe a
//! torn snapshot), the widened watcher fingerprint (changes past the
//! leading block are caught), and end-to-end TCP serving from the paged
//! backend including a watcher-driven hot swap that keeps the backend
//! mode.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{Edge, Graph};
use congest_oracle::{Oracle, V2Config};
use congest_serve::{BackendMode, Client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const N: usize = 24;

fn sample(seed: u64) -> Oracle<u64> {
    let g: Graph<u64> = gnm_connected(N, 3 * N, true, WeightDist::Uniform(1, 50), seed);
    Oracle::from_dist(&g, apsp_dijkstra(&g))
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("serve_paged_{}_{name}", std::process::id()))
}

fn quick_server_config() -> ServerConfig {
    ServerConfig { idle_poll: Duration::from_millis(2), ..ServerConfig::default() }
}

/// The satellite regression for the non-atomic save / watcher reload
/// race: a writer re-saves the watched snapshot in a tight loop while
/// the watcher polls every few milliseconds and a live client keeps
/// querying. With the old truncate-then-write save, the watcher would
/// routinely catch a half-written file and count failed swaps; with
/// atomic temp-file + rename publication, **zero** reloads may fail.
#[test]
fn watcher_races_atomic_saves_with_zero_failed_swaps() {
    let variants = [sample(70), sample(71)];
    let path = temp("atomic_race.bin");
    variants[0].save(&path).expect("initial save");

    let cfg =
        ServerConfig { watch_interval: Some(Duration::from_millis(5)), ..quick_server_config() };
    let handle = Server::bind_snapshot::<u64>("127.0.0.1:0", &path, cfg).expect("bind_snapshot");
    let addr = handle.local_addr();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 0..40 {
                variants[(i + 1) % 2].save(&path).expect("re-save");
                std::thread::sleep(Duration::from_millis(8));
            }
            done.store(true, Ordering::SeqCst);
        });
        // A client hammering the server through every swap: the serving
        // plane must never hiccup while generations churn underneath it.
        let mut client = Client::<u64>::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut x = 1u64;
        while !done.load(Ordering::SeqCst) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (u, v) = (((x >> 33) % N as u64) as u32, ((x >> 13) % N as u64) as u32);
            client.dist(u, v).expect("dist during swap churn");
            client.path(u, v).expect("path during swap churn");
        }
        let (_, health) = client.health().expect("health");
        assert_eq!(
            health.swap_errors, 0,
            "the watcher observed a torn snapshot: atomic save regressed \
             (last error: {:?})",
            health.last_swap_error
        );
        assert!(health.swaps > 0, "the watcher never swapped at all");
        writer.join().unwrap();
    });
    assert!(handle.generation() > 1);
    handle.shutdown();
    handle.join();
    std::fs::remove_file(&path).ok();
}

/// The same contract at the API level, without a server: `Oracle::load`
/// racing `Oracle::save` on one path must always see a complete file —
/// the old generation or the new one, never a prefix.
#[test]
fn concurrent_loads_during_repeated_saves_always_see_whole_files() {
    let a = sample(80);
    let b = sample(81);
    let path = temp("load_race.bin");
    a.save(&path).expect("initial save");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..30 {
                if i % 2 == 0 { &b } else { &a }.save(&path).expect("save");
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut seen = 0u64;
        while !done.load(Ordering::SeqCst) {
            let got = Oracle::<u64>::load(&path).expect("load raced a save and lost");
            assert!(got == a || got == b, "loaded snapshot is neither generation");
            seen += 1;
        }
        assert!(seen > 0, "reader never overlapped the writer");
    });
    std::fs::remove_file(&path).ok();
}

/// Regression for the fingerprint gap this PR closes: the watcher used
/// to hash only the leading 4 KiB, so a same-length same-mtime rewrite
/// whose bytes differ only *past* that block was invisible. A 512-node
/// path graph with only its last edge reweighted produces exactly that
/// shape: identical header and leading distance rows, changes confined
/// to deep column-511 cells (first at byte offset 4120) and the index
/// and footer checksums.
#[test]
fn watcher_catches_same_mtime_rewrite_past_the_leading_block() {
    let path_graph = |last_w: u64| {
        let edges = (0..511u32)
            .map(|i| Edge { from: i, to: i + 1, weight: if i == 510 { last_w } else { 1 } })
            .collect();
        let g: Graph<u64> = Graph::from_edges(512, true, edges);
        Oracle::from_dist(&g, apsp_dijkstra(&g))
    };
    let before = path_graph(1);
    let after = path_graph(3);
    let (b0, b1) = (before.to_bytes(), after.to_bytes());
    // Test setup proof: the rewrite is undetectable by mtime, length, or
    // the leading block alone.
    assert_eq!(b0.len(), b1.len());
    assert_eq!(b0[..4096], b1[..4096], "leading blocks must be identical for this test to bite");
    assert_ne!(b0, b1);

    let path = temp("tail_rewrite.bin");
    before.save(&path).expect("save");
    let mtime0 = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");
    let cfg =
        ServerConfig { watch_interval: Some(Duration::from_millis(20)), ..quick_server_config() };
    let handle = Server::bind_snapshot::<u64>("127.0.0.1:0", &path, cfg).expect("bind_snapshot");
    assert_eq!(handle.generation(), 1);
    std::thread::sleep(Duration::from_millis(60));

    after.save(&path).expect("re-save");
    std::fs::File::options()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_modified(mtime0))
        .expect("restore mtime");

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.generation() < 2 {
        assert!(
            Instant::now() < deadline,
            "watcher missed a rewrite past the leading 4 KiB (tail fingerprint regressed)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
    handle.join();
    std::fs::remove_file(&path).ok();
}

/// End-to-end: a server on the paged backend answers a TCP client
/// bit-identically to the eager oracle, and a watcher-driven hot swap
/// reloads through the same paged backend.
#[test]
fn paged_backend_serves_tcp_and_hot_swaps() {
    let first = sample(90);
    let second = sample(91);
    let path = temp("paged_serve.snap");
    first.save_v2(&path, &V2Config { block_rows: 5, ..V2Config::default() }).expect("save v2");

    let cfg = ServerConfig {
        watch_interval: Some(Duration::from_millis(10)),
        // A few KiB: a fraction of the ~170 KiB snapshot, so the server
        // pages and evicts while answering.
        backend: BackendMode::Paged { resident_bytes: 32 << 10 },
        ..quick_server_config()
    };
    let handle = Server::bind_snapshot::<u64>("127.0.0.1:0", &path, cfg).expect("bind_snapshot");
    let mut client = Client::<u64>::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");

    let check_against = |client: &mut Client<u64>, oracle: &Oracle<u64>| {
        for u in 0..N as u32 {
            for v in 0..N as u32 {
                let want = oracle.distance(u, v);
                let got = client.dist(u, v).expect("dist");
                assert_eq!(got, (!congest_graph::Weight::is_inf(want)).then_some(want));
                let walk = client.path(u, v).expect("path");
                assert_eq!(walk, oracle.try_path(u, v).expect("local walk"));
            }
            assert_eq!(client.k_nearest(u, 5).expect("k_nearest"), oracle.k_nearest(u, 5));
        }
    };
    check_against(&mut client, &first);

    // Hot swap: rewrite the file as v2 (atomic), watcher reloads it
    // through the same paged backend.
    second.save_v2(&path, &V2Config { block_rows: 5, ..V2Config::default() }).expect("re-save v2");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.generation() < 2 {
        assert!(Instant::now() < deadline, "paged watcher reload never happened");
        std::thread::sleep(Duration::from_millis(10));
    }
    check_against(&mut client, &second);

    let (_, health) = client.health().expect("health");
    assert_eq!(health.swap_errors, 0, "paged reload failed: {:?}", health.last_swap_error);
    handle.shutdown();
    handle.join();
    std::fs::remove_file(&path).ok();
}
