//! `congest-serve` — the serving front-end as a process.
//!
//! Subcommands:
//!
//! - `make-snapshot <out> [--nodes N] [--edges M] [--seed S] [--max-weight W]
//!   [--block-rows N] [--no-successors] [--from OLD]` builds a random
//!   connected graph, solves APSP, and saves the oracle as a blocked v2
//!   snapshot (weight type `u64`, `--block-rows` rows per block, default
//!   64) that `serve` can load eagerly or `--paged`. `--no-successors`
//!   drops the successor plane and embeds the graph instead; `--from OLD`
//!   re-blocks an existing snapshot instead of generating one.
//! - `serve <snapshot> [--addr A] [--watch-ms N] [--window N] [--max-conns N]
//!   [--paged] [--resident-mb M]` serves the snapshot until
//!   SIGTERM/SIGINT, then drains in-flight requests, closes the
//!   listener, and exits 0 — the contract the CI smoke test checks.
//!   `--paged` serves the snapshot out-of-core under a `--resident-mb`
//!   byte budget instead of loading it into RAM.
//! - `probe <addr> [--requests N] [--batch B]` connects (with retry, so
//!   it can race a starting server), pipelines query batches, verifies
//!   every response, and exits 0 on success.
//! - `health <addr>` sends one `Health` op and prints the server's
//!   self-report (generation, uptime, connections, shed counts, swap
//!   history); exits 0 when the server answers, 1 otherwise — fit for a
//!   liveness probe.
//!
//! An unknown flag, a flag missing its value or a number that does not
//! parse prints the usage and exits 2.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_oracle::{Oracle, V2Config};
use congest_serve::proto::Status;
use congest_serve::{BackendMode, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs SIGTERM (15) and SIGINT (2) handlers that set [`STOP`].
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(15, handler);
            signal(2, handler);
        }
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stopped() -> bool {
        false
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: congest-serve <command>\n\
         \n\
         commands:\n\
         \x20 make-snapshot <out> [--nodes N] [--edges M] [--seed S] [--max-weight W]\n\
         \x20               [--block-rows N] [--no-successors] [--from OLD]\n\
         \x20 serve <snapshot> [--addr A] [--watch-ms N] [--window N] [--max-conns N]\n\
         \x20                  [--paged] [--resident-mb M]\n\
         \x20 probe <addr> [--requests N] [--batch B] [--k-nearest]\n\
         \x20 health <addr>"
    );
    std::process::exit(2)
}

/// Prints `msg` and the usage, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("congest-serve: {msg}");
    usage()
}

/// What a flag takes after it.
#[derive(Copy, Clone, PartialEq)]
enum Takes {
    /// Nothing: a bare switch.
    Nothing,
    /// A non-negative integer.
    Number,
    /// Any string.
    Text,
}

const MAKE_SNAPSHOT_FLAGS: &[(&str, Takes)] = &[
    ("nodes", Takes::Number),
    ("edges", Takes::Number),
    ("seed", Takes::Number),
    ("max-weight", Takes::Number),
    ("block-rows", Takes::Number),
    ("no-successors", Takes::Nothing),
    ("from", Takes::Text),
];

const SERVE_FLAGS: &[(&str, Takes)] = &[
    ("addr", Takes::Text),
    ("watch-ms", Takes::Number),
    ("window", Takes::Number),
    ("max-conns", Takes::Number),
    ("paged", Takes::Nothing),
    ("resident-mb", Takes::Number),
];

const PROBE_FLAGS: &[(&str, Takes)] =
    &[("requests", Takes::Number), ("batch", Takes::Number), ("k-nearest", Takes::Nothing)];

/// One subcommand's arguments, checked against its flag allowlist.
struct Args<'a> {
    positional: Vec<&'a str>,
    /// `(name without the leading dashes, value)`; switches have no value.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` into positionals and flags. A flag not in `allowed`,
    /// a missing value or a number that does not parse as `u64` is a
    /// usage error, so a mistyped flag never silently falls back to a
    /// default.
    fn parse(args: &'a [String], allowed: &[(&str, Takes)]) -> Self {
        let mut parsed = Args { positional: Vec::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positional.push(arg);
                continue;
            };
            let Some(&(_, takes)) = allowed.iter().find(|(flag, _)| *flag == name) else {
                usage_error(&format!("unknown flag {arg}"))
            };
            let value = if takes == Takes::Nothing {
                None
            } else {
                let Some(value) = it.next() else { usage_error(&format!("{arg} needs a value")) };
                if takes == Takes::Number && value.parse::<u64>().is_err() {
                    usage_error(&format!("{arg} expects a non-negative integer, got {value:?}"));
                }
                Some(value.as_str())
            };
            parsed.flags.push((name, value));
        }
        parsed
    }

    fn text(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|(flag, _)| *flag == name).and_then(|&(_, value)| value)
    }

    fn number(&self, name: &str) -> Option<u64> {
        self.text(name).map(|v| v.parse().expect("parse checked every number"))
    }

    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    let code = match cmd.as_str() {
        "make-snapshot" => make_snapshot(rest),
        "serve" => serve(rest),
        "probe" => probe(rest),
        "health" => health(rest),
        _ => usage(),
    };
    std::process::exit(code);
}

fn make_snapshot(args: &[String]) -> i32 {
    let args = Args::parse(args, MAKE_SNAPSHOT_FLAGS);
    let [out] = args.positional.as_slice() else { usage() };
    let no_succ = args.switch("no-successors");
    let block_rows = args.number("block-rows").unwrap_or(64).clamp(1, u64::from(u32::MAX)) as u32;
    // Either convert an existing snapshot or generate a fresh one. A
    // converted snapshot has no graph to embed, so its successor plane
    // must ride along.
    let (oracle, graph, describe) = if let Some(from) = args.text("from") {
        if no_succ {
            eprintln!(
                "--no-successors cannot be combined with --from: converting a snapshot \
                       gives us no graph to embed for re-derivation"
            );
            return 2;
        }
        match Oracle::<u64>::load(from) {
            Ok(o) => (o, None, format!("converted from {from}")),
            Err(e) => {
                eprintln!("could not load {from}: {e}");
                return 1;
            }
        }
    } else {
        let n = args.number("nodes").unwrap_or(256) as usize;
        let m = args.number("edges").unwrap_or(4 * n as u64) as usize;
        let seed = args.number("seed").unwrap_or(7);
        let max_w = args.number("max-weight").unwrap_or(100);
        let g = gnm_connected(n, m, true, WeightDist::Uniform(1, max_w), seed);
        let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
        (oracle, Some(g), format!("{n} nodes, {m} edges, seed {seed}"))
    };
    let cfg = V2Config { block_rows, drop_successors: no_succ, graph: graph.as_ref() };
    match oracle.save_v2(out, &cfg) {
        Ok(()) => {
            println!("wrote snapshot: {out} ({describe}, {block_rows}-row blocks)");
            0
        }
        Err(e) => {
            eprintln!("snapshot save failed: {e}");
            1
        }
    }
}

fn serve(args: &[String]) -> i32 {
    let args = Args::parse(args, SERVE_FLAGS);
    let [snapshot] = args.positional.as_slice() else { usage() };
    let addr = args.text("addr").unwrap_or("127.0.0.1:7464");
    let mut cfg = ServerConfig::default();
    if let Some(ms) = args.number("watch-ms") {
        cfg.watch_interval = Some(Duration::from_millis(ms));
    }
    if let Some(w) = args.number("window") {
        cfg.window = w as usize;
    }
    if let Some(c) = args.number("max-conns") {
        cfg.max_connections = c as usize;
    }
    if args.switch("paged") {
        let resident_mb = args.number("resident-mb").unwrap_or(64).max(1) as usize;
        cfg.backend = BackendMode::Paged { resident_bytes: resident_mb << 20 };
    }
    let handle = match Server::bind_snapshot::<u64>(addr, *snapshot, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            return 1;
        }
    };
    // Handlers first: a client may send SIGTERM as soon as it reads the
    // address, and the default action would kill us without a drain.
    sig::install();
    println!("serving {snapshot} on {} (generation {})", handle.local_addr(), handle.generation());
    while !sig::stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("signal received: draining in-flight requests");
    handle.shutdown();
    handle.join();
    println!("clean shutdown");
    0
}

fn health(args: &[String]) -> i32 {
    let args = Args::parse(args, &[]);
    let [addr] = args.positional.as_slice() else { usage() };
    let mut client = match Client::<u64>::connect(*addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("could not connect to {addr}: {e}");
            return 1;
        }
    };
    if client.set_read_timeout(Some(Duration::from_secs(5))).is_err() {
        eprintln!("could not set read timeout");
        return 1;
    }
    match client.health() {
        Ok((gen, h)) => {
            println!("generation:      {gen}");
            println!("uptime:          {:.3}s", h.uptime_ms as f64 / 1000.0);
            println!("connections:     {}/{}", h.connections, h.max_connections);
            println!("shed busy:       {}", h.shed_busy);
            println!("shed overloaded: {}", h.shed_overloaded);
            println!("snapshot swaps:  {} ok, {} failed", h.swaps, h.swap_errors);
            match h.last_swap_error {
                Some(e) => println!("last swap error: {e}"),
                None => println!("last swap error: none"),
            }
            0
        }
        Err(e) => {
            eprintln!("health probe failed: {e}");
            1
        }
    }
}

fn probe(args: &[String]) -> i32 {
    let args = Args::parse(args, PROBE_FLAGS);
    let [addr] = args.positional.as_slice() else { usage() };
    let requests = args.number("requests").unwrap_or(256);
    let batch_size = args.number("batch").unwrap_or(32).max(1);

    // The smoke test starts the server and the probe together; retry the
    // connect briefly instead of racing.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match Client::<u64>::connect(*addr) {
            Ok(c) => break c,
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("could not connect to {addr}: {e}");
                    return 1;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    if client.set_read_timeout(Some(Duration::from_secs(10))).is_err() {
        eprintln!("could not set read timeout");
        return 1;
    }
    let n = client.n() as u32;
    if n < 2 {
        eprintln!("server snapshot has fewer than 2 nodes");
        return 1;
    }
    let gen = match client.ping() {
        Ok(gen) => gen,
        Err(e) => {
            eprintln!("ping failed: {e}");
            return 1;
        }
    };

    let knn = args.switch("k-nearest");
    let mut answered = 0u64;
    let mut x = 0x9e37_79b9u64; // cheap deterministic pair stream
    while answered < requests {
        let mut batch = client.batch();
        while (batch.len() as u64) < batch_size && answered + (batch.len() as u64) < requests {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 33) as u32 % n;
            let v = (x >> 13) as u32 % n;
            if knn && batch.len() % 3 == 2 {
                batch.k_nearest(u, 4.min(n - 1));
            } else if batch.len() % 2 == 0 {
                batch.dist(u, v);
            } else {
                batch.path(u, v);
            }
        }
        let count = batch.len() as u64;
        match batch.send() {
            Ok(replies) => {
                for r in &replies {
                    if !matches!(r.status, Status::Ok | Status::Unreachable) {
                        eprintln!("request {} answered with {:?}", r.id, r.status);
                        return 1;
                    }
                }
                answered += count;
            }
            Err(e) => {
                eprintln!("batch failed: {e}");
                return 1;
            }
        }
    }
    println!("probe ok: {answered} requests answered (n={n}, generation {gen})");
    0
}
