//! The serving half of every workload: a seeded `gnm_connected(2048,
//! 8192)` oracle is snapshotted, served by the real `congest-serve`
//! binary over loopback, and driven open loop by two connections with a
//! zipf-skewed dist/path/k-nearest mix. Every reply is checked against
//! the reference `Oracle` the benchmark holds. The traced run adds
//! in-process replays of the same mix through each serving layer.

use crate::stats;
use crate::{span, Metrics};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::Weight;
use congest_oracle::{EngineConfig, Oracle, PagedConfig, PagedOracle, QueryEngine, V2Config};
use congest_serve::proto::{self, Request, Status};
use congest_serve::{Client, ReplyBody};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NODES: usize = 2048;
pub const EDGES: usize = 8192;
const RESIDENT_MB: usize = 12;
const BLOCK_ROWS: u32 = 16;
/// Distinct (u, v) routes the zipf(1.0) popularity ranks are drawn over.
const UNIVERSE: usize = 1 << 20;
const K_NEAREST: u32 = 10;
const CONNECTIONS: u64 = 2;
/// A request unanswered this long counts as timed out (failed).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);
/// How long past a step's end the generator may keep draining a backlog;
/// requests still unsent then count as failed.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// Requests replayed in-process (half to warm caches, half timed); the
/// paged backend reads a block on most misses, so it replays fewer.
const REPLAY_OPS: [usize; 2] = [200_000, 20_000];
/// Width of the windows a ladder step's p99 is judged in.
const WINDOW: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Oracle::save` (v1), served fully resident.
    Eager,
    /// `save_v2` (16-row blocks, successors kept), served `--paged` under
    /// a 12 MiB resident budget, about a quarter of the file.
    Paged,
}

/// Limit on the p99 latency, in microseconds, for both backends.
const SLO_US: f64 = 10_000.0;

pub struct ServeSpec {
    pub mode: Mode,
    /// Fixed offered rate at which `p50_us`/`p99_us` are measured.
    pub nominal_qps: f64,
    /// The fixed open-loop ladder of offered rates, ascending.
    pub ladder: &'static [f64],
}

/// What a run needs to know about its surroundings.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: &'a Path,
    pub out_dir: &'a Path,
    pub tag: String,
}

/// Requests sent and how many failed (wrong, shed, errored, timed out or
/// never sent); `wrong` alone makes the run incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

// ------------------------------------------------------------- server

/// A `congest-serve serve` child process. Dropping it kills the process,
/// so no path out of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

unsafe extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

impl Server {
    /// Starts the server on an ephemeral port and returns once a client
    /// hello has been accepted.
    pub fn spawn(bin: &Path, snapshot: &Path, mode: Mode) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg(snapshot).args(["--addr", "127.0.0.1:0"]);
        if mode == Mode::Paged {
            cmd.args(["--paged", "--resident-mb", &RESIDENT_MB.to_string()]);
        }
        // SAFETY: the closure runs in the forked child before exec and
        // only calls prctl, which is async-signal-safe.
        unsafe {
            cmd.pre_exec(|| {
                // Die with the benchmark, even if it is killed.
                prctl(PR_SET_PDEATHSIG, SIGKILL as std::ffi::c_ulong);
                Ok(())
            });
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server { child, stdout, addr: String::new() };
        // First line: "serving <snapshot> on <addr> (generation <g>)".
        let mut line = String::new();
        server.stdout.read_line(&mut line).map_err(|e| format!("server stdout: {e}"))?;
        server.addr = line
            .rsplit_once(" on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .ok_or_else(|| format!("server did not report its address: {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        while let Err(e) = Client::<u64>::connect(server.addr.as_str()) {
            if Instant::now() > deadline {
                return Err(format!("no hello from {}: {e}", server.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGTERM, then waits for the drain; the server must exit 0 after
    /// printing "clean shutdown".
    pub fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range".to_string())?;
        // The server announces its address before it installs its SIGTERM
        // handler; a signal in between would kill it outright. Wait until
        // the kernel lists SIGTERM among its caught signals.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !catches_sigterm(&self.pid()) {
            if Instant::now() > deadline {
                return Err("server never installed its SIGTERM handler".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // SAFETY: `kill` only sends a signal. `pid` is our own child, not
        // yet reaped (we hold its `Child`), so the id cannot be reused.
        unsafe { kill(pid, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                return Err("server ignored SIGTERM".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !status.success() || !rest.contains("clean shutdown") {
            return Err(format!("server did not shut down cleanly ({status}): {rest}"));
        }
        Ok(())
    }
}

/// Whether process `pid` has a handler for SIGTERM (bit 14 of the
/// `SigCgt` mask in /proc/<pid>/status).
fn catches_sigterm(pid: &str) -> bool {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("SigCgt:"))
        .and_then(|mask| u64::from_str_radix(mask.trim(), 16).ok())
        .is_some_and(|mask| mask & (1 << 14) != 0)
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn connect(addr: &str) -> Result<Client<u64>, String> {
    let mut c = Client::<u64>::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(c)
}

// ---------------------------------------------------------------- mix

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Dist(u32, u32),
    Path(u32, u32),
    KNearest(u32),
}

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::Dist(..) => 0,
            Op::Path(..) => 1,
            Op::KNearest(_) => 2,
        }
    }
}

const OP_NAMES: [&str; 3] = ["dist", "path", "k_nearest"];

/// 80% dist, 15% path, 5% k-nearest(10), over a universe of 2^20 routes
/// whose popularity is zipf(s = 1.0) — skewed enough that the server's
/// path cache and the paged LRU both have a hot set to keep.
pub struct Mix {
    routes: Vec<(u32, u32)>,
    cdf: Vec<f64>,
}

impl Mix {
    pub fn new(n: usize, seed: u64) -> Mix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d69_7800);
        let routes = (0..UNIVERSE)
            .map(|_| loop {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if u != v {
                    break (u, v);
                }
            })
            .collect();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=UNIVERSE)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Mix { routes, cdf }
    }

    pub fn draw(&self, rng: &mut ChaCha8Rng) -> Op {
        let x = stats::unit_f64(rng);
        let rank = self.cdf.partition_point(|&c| c < x).min(UNIVERSE - 1);
        let (u, v) = self.routes[rank];
        match stats::unit_f64(rng) {
            p if p < 0.80 => Op::Dist(u, v),
            p if p < 0.95 => Op::Path(u, v),
            _ => Op::KNearest(u),
        }
    }
}

enum Verdict {
    Ok,
    Wrong,
    Shed,
    Errored,
}

/// Dist must match exactly, a path must be the same walk, k-nearest the
/// same list; `Unreachable` is right only for a pair the reference
/// cannot reach either.
fn judge(op: Op, status: Status, body: &ReplyBody<u64>, reference: &Oracle<u64>) -> Verdict {
    match status {
        Status::Busy | Status::Overloaded => return Verdict::Shed,
        Status::Ok | Status::Unreachable => {}
        _ => return Verdict::Errored,
    }
    let right = match (op, status, body) {
        (Op::Dist(u, v), Status::Ok, ReplyBody::Dist(w)) => *w == reference.distance(u, v),
        (Op::Path(u, v), Status::Ok, ReplyBody::Path(p)) => {
            reference.path(u, v).as_deref() == Some(p.as_slice())
        }
        (Op::KNearest(u), Status::Ok, ReplyBody::KNearest(items)) => {
            *items == reference.k_nearest(u, K_NEAREST as usize)
        }
        (Op::Dist(u, v) | Op::Path(u, v), Status::Unreachable, _) => {
            reference.distance(u, v).is_inf()
        }
        _ => false,
    };
    if right {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

// ------------------------------------------------------ open-loop load

/// One open-loop measurement at a fixed offered rate.
#[derive(Default)]
pub struct Load {
    /// From the common start to the last reply.
    pub elapsed_s: f64,
    /// Latency from each request's due time; `u64::MAX` marks a failure,
    /// so a failed request also misses every latency limit.
    pub lat_ns: Vec<u64>,
    pub op_lat_ns: [Vec<u64>; 3],
    /// When each request was due, in ns after the start (parallel to
    /// `lat_ns` until `finish` sorts it).
    due_ns: Vec<u64>,
    /// p99 of each 100 ms window of due times.
    pub window_p99_ns: Vec<u64>,
    /// How late the generator sent each request.
    pub late_ns: Vec<u64>,
    /// Median lateness over the last tenth of each connection's requests
    /// (the worse connection): a backlog that grows ends the step late.
    pub late_end_ns: u64,
    pub ok: u64,
    pub wrong: u64,
    pub shed: u64,
    pub errored: u64,
    pub unsent: u64,
}

impl Load {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.shed + self.errored + self.unsent
    }

    pub fn achieved_qps(&self) -> f64 {
        (self.ok + self.wrong + self.shed + self.errored) as f64 / self.elapsed_s.max(1e-9)
    }

    fn merge(&mut self, o: Load) {
        self.lat_ns.extend(o.lat_ns);
        for (a, b) in self.op_lat_ns.iter_mut().zip(o.op_lat_ns) {
            a.extend(b);
        }
        self.late_ns.extend(o.late_ns);
        self.due_ns.extend(o.due_ns);
        self.late_end_ns = self.late_end_ns.max(o.late_end_ns);
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.shed += o.shed;
        self.errored += o.errored;
        self.unsent += o.unsent;
    }

    fn finish(&mut self) {
        let mut windows: Vec<Vec<u64>> = Vec::new();
        for (&due, &lat) in self.due_ns.iter().zip(&self.lat_ns) {
            let w = (due / WINDOW.as_nanos() as u64) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(lat);
        }
        for w in windows.iter_mut().filter(|w| !w.is_empty()) {
            w.sort_unstable();
            self.window_p99_ns.push(stats::quantile(w, 0.99));
        }
        self.lat_ns.sort_unstable();
        self.op_lat_ns.iter_mut().for_each(|v| v.sort_unstable());
        self.late_ns.sort_unstable();
    }

    pub fn p_us(&self, q: f64) -> f64 {
        stats::quantile(&self.lat_ns, q) as f64 / 1e3
    }

    /// Median over the 100 ms windows of the window p99, in us.
    pub fn window_p99_us(&self) -> f64 {
        let w: Vec<f64> = self.window_p99_ns.iter().map(|&ns| ns as f64).collect();
        stats::median(&w) / 1e3
    }

    /// The step meets the limit: nothing failed, the generator still on
    /// schedule at the end (no growing backlog), and p99 within the limit
    /// in the median 100 ms window. Judging windows rather than the whole
    /// step keeps an isolated multi-millisecond host stall (a few a second
    /// on a small shared VM) from failing a step the server keeps up with;
    /// a growing backlog fails every window after it starts.
    fn meets(&self) -> bool {
        self.failed() == 0
            && self.window_p99_us() <= SLO_US
            && (self.late_end_ns as f64) <= SLO_US * 500.0
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Shrinks this thread's timer slack from the default 50 us to 1 ns, so
/// the generator can sleep until each due time (a few us late, burning
/// no CPU the server needs) instead of spinning.
fn precise_sleep() {
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) takes one unsigned long and
    // only changes the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

/// Offers `qps` for `secs` seconds over two connections, one thread
/// each, every request due on a fixed schedule whatever the replies do.
pub fn run_load(
    addr: &str,
    qps: f64,
    secs: f64,
    seed: u64,
    mix: &Mix,
    reference: &Oracle<u64>,
) -> Result<Load, String> {
    let period_ns = CONNECTIONS as f64 * 1e9 / qps;
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(secs);
    let mut total = Load::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let offset_ns = period_ns * c as f64 / CONNECTIONS as f64;
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x100).wrapping_add(c));
                s.spawn(move || {
                    drive(addr, start, end, offset_ns, period_ns, &mut rng, mix, reference)
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("load thread panicked")?);
        }
        Ok::<(), String>(())
    })?;
    total.finish();
    Ok(total)
}

#[allow(clippy::too_many_arguments)]
fn drive(
    addr: &str,
    start: Instant,
    end: Instant,
    offset_ns: f64,
    period_ns: f64,
    rng: &mut ChaCha8Rng,
    mix: &Mix,
    reference: &Oracle<u64>,
) -> Result<Load, String> {
    precise_sleep();
    let mut client = connect(addr)?;
    let mut load = Load::default();
    let planned = ((end - start).as_nanos() as f64 - offset_ns) / period_ns;
    let planned = planned.ceil().max(0.0) as u64;
    let mut last = start;
    for i in 0..planned {
        let due = start + Duration::from_nanos((offset_ns + i as f64 * period_ns) as u64);
        if Instant::now() > end + DRAIN_GRACE {
            load.unsent = planned - i;
            break;
        }
        wait_until(due);
        let sent = Instant::now();
        load.late_ns.push((sent - due).as_nanos() as u64);
        load.due_ns.push((due - start).as_nanos() as u64);
        let op = mix.draw(rng);
        let mut batch = client.batch();
        match op {
            Op::Dist(u, v) => batch.dist(u, v),
            Op::Path(u, v) => batch.path(u, v),
            Op::KNearest(u) => batch.k_nearest(u, K_NEAREST),
        };
        let reply = batch.send();
        // Stamp before judging: checking the answer is not latency.
        last = Instant::now();
        let verdict = match reply {
            Ok(replies) => match replies.first() {
                Some(r) => judge(op, r.status, &r.body, reference),
                None => Verdict::Errored,
            },
            Err(_) => {
                // Timed out or broken: the stream may be out of step, so
                // start a fresh connection for the next request.
                client = connect(addr)?;
                Verdict::Errored
            }
        };
        let lat = match verdict {
            Verdict::Ok => {
                load.ok += 1;
                (last - due).as_nanos() as u64
            }
            Verdict::Wrong => {
                eprintln!("perfbench: wrong answer to {op:?}");
                load.wrong += 1;
                u64::MAX
            }
            Verdict::Shed => {
                load.shed += 1;
                u64::MAX
            }
            Verdict::Errored => {
                load.errored += 1;
                u64::MAX
            }
        };
        load.lat_ns.push(lat);
        load.op_lat_ns[op.kind()].push(lat);
    }
    load.elapsed_s = (last - start).as_secs_f64();
    let tail = &load.late_ns[load.late_ns.len() - load.late_ns.len() / 10..];
    load.late_end_ns = stats::median(&tail.iter().map(|&x| x as f64).collect::<Vec<_>>()) as u64;
    Ok(load)
}

// ------------------------------------------------------------ replays

fn op_pairs(ops: &[Op], kind: usize) -> Vec<(u32, u32)> {
    ops.iter()
        .filter_map(|&op| match op {
            Op::Dist(u, v) if kind == 0 => Some((u, v)),
            Op::Path(u, v) if kind == 1 => Some((u, v)),
            _ => None,
        })
        .collect()
}

/// ns per op through `QueryEngine` (`dist_batch`/`path_batch` on 64-op
/// frames as the server does, `k_nearest` one by one), checked.
fn replay_engine(
    engine: &QueryEngine<u64>,
    ops: &[Op],
    reference: &Oracle<u64>,
) -> Result<[f64; 3], String> {
    let mut ns = [0u128; 3];
    let mut count = [0usize; 3];
    let mut wrong = 0;
    for frame in ops.chunks(64) {
        let dist = op_pairs(frame, 0);
        let t = Instant::now();
        let got = engine.dist_batch(&dist);
        ns[0] += t.elapsed().as_nanos();
        for (&(u, v), g) in dist.iter().zip(&got) {
            wrong += usize::from(*g != Ok(Some(reference.distance(u, v))));
        }
        let path = op_pairs(frame, 1);
        let t = Instant::now();
        let got = engine.path_batch(&path);
        ns[1] += t.elapsed().as_nanos();
        for (&(u, v), g) in path.iter().zip(&got) {
            let g = g.as_ref().ok().and_then(|p| p.as_deref().map(<[u32]>::to_vec));
            wrong += usize::from(g != reference.path(u, v));
        }
        for &op in frame {
            if let Op::KNearest(u) = op {
                let t = Instant::now();
                let got = engine.k_nearest(u, K_NEAREST as usize);
                ns[2] += t.elapsed().as_nanos();
                wrong += usize::from(got != Ok(reference.k_nearest(u, K_NEAREST as usize)));
            }
        }
        count[0] += dist.len();
        count[1] += path.len();
        count[2] += frame.len() - dist.len() - path.len();
    }
    if wrong > 0 {
        return Err(format!("engine replay: {wrong} answers differ from the reference"));
    }
    Ok([0, 1, 2].map(|k| ns[k] as f64 / count[k].max(1) as f64))
}

/// ns per dist and per path on the raw backend, below the engine.
fn replay_backend(
    ops: &[Op],
    dist: impl Fn(u32, u32) -> u64,
    path: impl Fn(u32, u32) -> Option<Vec<u32>>,
) -> [f64; 2] {
    let d = op_pairs(ops, 0);
    let t = Instant::now();
    for &(u, v) in &d {
        black_box(dist(u, v));
    }
    let dist_ns = t.elapsed().as_nanos() as f64 / d.len().max(1) as f64;
    let p = op_pairs(ops, 1);
    let t = Instant::now();
    for &(u, v) in &p {
        black_box(path(u, v));
    }
    [dist_ns, t.elapsed().as_nanos() as f64 / p.len().max(1) as f64]
}

/// ns to encode, and to decode, one request/response pair of the mix.
fn replay_proto(ops: &[Op], reference: &Oracle<u64>) -> Result<[f64; 2], String> {
    let (mut enc, mut dec) = (0u128, 0u128);
    let bad = |e: proto::ProtocolError| format!("protocol replay: {e}");
    for chunk in ops.chunks(1024) {
        let reqs: Vec<Request> = chunk
            .iter()
            .zip(1u32..)
            .map(|(&op, id)| match op {
                Op::Dist(u, v) => Request::Dist { id, u, v },
                Op::Path(u, v) => Request::Path { id, u, v },
                Op::KNearest(u) => Request::KNearest { id, u, k: K_NEAREST },
            })
            .collect();
        let t = Instant::now();
        let mut wire = Vec::new();
        for r in &reqs {
            proto::encode_request(&mut wire, r);
        }
        enc += t.elapsed().as_nanos();
        let t = Instant::now();
        let mut decoded = Vec::with_capacity(reqs.len());
        let mut at = 0;
        while let Some((payload, used)) = proto::decode_frame(&wire[at..], u32::MAX).map_err(bad)? {
            decoded.push(proto::decode_request(payload).map_err(bad)?);
            at += used;
        }
        dec += t.elapsed().as_nanos();
        if decoded != reqs {
            return Err("protocol replay: requests did not round-trip".to_string());
        }
        let answers: Vec<ReplyBody<u64>> = chunk
            .iter()
            .map(|&op| match op {
                Op::Dist(u, v) => ReplyBody::Dist(reference.distance(u, v)),
                Op::Path(u, v) => ReplyBody::Path(reference.path(u, v).unwrap_or_default()),
                Op::KNearest(u) => ReplyBody::KNearest(reference.k_nearest(u, K_NEAREST as usize)),
            })
            .collect();
        let t = Instant::now();
        let mut out = Vec::new();
        for (id, a) in (1u32..).zip(&answers) {
            match a {
                ReplyBody::Dist(w) => proto::encode_dist_ok(&mut out, id, 1, *w),
                ReplyBody::Path(p) => proto::encode_path_ok(&mut out, id, 1, p),
                ReplyBody::KNearest(k) => proto::encode_k_nearest_ok(&mut out, id, 1, k),
                _ => unreachable!("only query answers are built"),
            }
        }
        enc += t.elapsed().as_nanos();
        let t = Instant::now();
        let mut back = Vec::with_capacity(answers.len());
        let mut at = 0;
        for a in &answers {
            let (payload, used) = proto::decode_frame(&out[at..], u32::MAX)
                .map_err(bad)?
                .ok_or("protocol replay: truncated response stream")?;
            at += used;
            let (_, body) = proto::decode_response_head(payload).map_err(bad)?;
            back.push(match a {
                ReplyBody::Dist(_) => ReplyBody::Dist(proto::decode_dist_body(body).map_err(bad)?),
                ReplyBody::Path(_) => ReplyBody::Path(proto::decode_path_body(body).map_err(bad)?),
                _ => ReplyBody::KNearest(proto::decode_k_nearest_body(body).map_err(bad)?),
            });
        }
        dec += t.elapsed().as_nanos();
        if back != answers {
            return Err("protocol replay: responses did not round-trip".to_string());
        }
    }
    let n = ops.len() as f64;
    Ok([enc as f64 / n, dec as f64 / n])
}

/// Loads the snapshot in-process (timed) and replays the mix through the
/// engine, the raw backend and the wire codec; per-layer metrics only.
fn replays(
    spec: &ServeSpec,
    ctx: &Ctx,
    snapshot: &Path,
    mix: &Mix,
    reference: &Oracle<u64>,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x7265_706c);
    let count = REPLAY_OPS[usize::from(spec.mode == Mode::Paged)];
    let ops: Vec<Op> = (0..count).map(|_| mix.draw(&mut rng)).collect();
    let (warm, timed) = ops.split_at(count / 2);
    let io = |e: congest_oracle::SnapshotError| format!("in-process load: {e}");
    let t = Instant::now();
    let (engine, paged) = match spec.mode {
        Mode::Eager => {
            let o = span("bench.snapshot.load", || Oracle::<u64>::load(snapshot)).map_err(io)?;
            (QueryEngine::new(Arc::new(o), EngineConfig::default()), None)
        }
        Mode::Paged => {
            let cfg = PagedConfig { resident_bytes: RESIDENT_MB << 20 };
            let p = Arc::new(
                span("bench.snapshot.open", || PagedOracle::open(snapshot, cfg)).map_err(io)?,
            );
            (QueryEngine::new_paged(Arc::clone(&p), EngineConfig::default()), Some(p))
        }
    };
    m.put("snapshot.load_s", t.elapsed().as_secs_f64(), "s");
    span("bench.replay.engine.warm", || replay_engine(&engine, warm, reference))?;
    let before = engine.cache_stats();
    let paged_before = paged.as_ref().map(|p| p.stats()).unwrap_or_default();
    let ns = span("bench.replay.engine", || replay_engine(&engine, timed, reference))?;
    let after = engine.cache_stats();
    let paged_after = paged.as_ref().map(|p| p.stats()).unwrap_or_default();
    for (k, name) in OP_NAMES.iter().enumerate() {
        m.put(&format!("engine.{name}_ns"), ns[k], "ns");
    }
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.put("engine.path_cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    let raw = span("bench.replay.backend", || match &paged {
        None => {
            let o = engine.oracle().expect("eager engine holds an oracle");
            replay_backend(timed, |u, v| o.distance(u, v), |u, v| o.path(u, v))
        }
        Some(p) => replay_backend(
            timed,
            |u, v| p.distance(u, v).unwrap_or(u64::INF),
            |u, v| p.try_path(u, v).ok().flatten(),
        ),
    });
    m.put("oracle.dist_ns", raw[0], "ns");
    m.put("oracle.path_ns", raw[1], "ns");
    let (h, mi) = (paged_after.hits - paged_before.hits, paged_after.misses - paged_before.misses);
    m.put("paged.block_hit_rate", h as f64 / (h + mi).max(1) as f64, "ratio");
    m.put("paged.block_misses", mi as f64, "count");
    m.put("paged.evictions", (paged_after.evictions - paged_before.evictions) as f64, "count");
    m.put(
        "paged.validations",
        (paged_after.validations - paged_before.validations) as f64,
        "count",
    );
    let codec = span("bench.replay.proto", || replay_proto(timed, reference))?;
    m.put("proto.encode_ns", codec[0], "ns");
    m.put("proto.decode_ns", codec[1], "ns");
    Ok(())
}

// ----------------------------------------------------------- workflow

fn snapshot_path(ctx: &Ctx) -> PathBuf {
    ctx.out_dir.join(format!("snapshot-{}.bin", ctx.tag))
}

fn save(oracle: &Oracle<u64>, path: &Path, mode: Mode) -> Result<(), String> {
    let r = match mode {
        Mode::Eager => oracle.save(path),
        Mode::Paged => oracle.save_v2(
            path,
            &V2Config { block_rows: BLOCK_ROWS, drop_successors: false, graph: None },
        ),
    };
    r.map_err(|e| format!("snapshot save: {e}"))
}

/// The achieved rate at the highest rung of the ladder whose p99 meets the
/// limit with no growing backlog (0 when none does). A rung meets it if
/// either of two tries does, and the climb stops after two rungs in a row
/// fail both: a few seconds of host stalls do not end it early, a server
/// past its capacity fails every rung from there on.
fn climb(
    spec: &ServeSpec,
    ctx: &Ctx,
    addr: &str,
    mix: &Mix,
    reference: &Oracle<u64>,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut best = 0.0;
    let mut failed_rungs = 0;
    for (i, &rate) in spec.ladder.iter().enumerate() {
        let mut met = false;
        for attempt in 0..2 {
            let seed = ctx.seed ^ (16 + 2 * i as u64 + attempt);
            let step = run_load(addr, rate, 0.025 * ctx.seconds, seed, mix, reference)?;
            tally.wrong += step.wrong;
            met = step.meets();
            println!(
                "ladder {rate:>7.0} req/s: achieved {:>7.0}, window p99 {:>9.1} us, \
                 p99 {:>9.1} us, end lateness {:>9.1} us, failed {} -> {}",
                step.achieved_qps(),
                step.window_p99_us(),
                step.p_us(0.99),
                step.late_end_ns as f64 / 1e3,
                step.failed(),
                if met { "meets" } else { "misses" }
            );
            if met {
                best = step.achieved_qps();
                break;
            }
        }
        failed_rungs = if met { 0 } else { failed_rungs + 1 };
        if failed_rungs == 2 {
            break;
        }
    }
    Ok(best)
}

/// Seconds per set-up repetition: the whole set-up, and the graph
/// generation and snapshot save within it.
#[derive(Default)]
pub struct SetUpTimes {
    pub total: Vec<f64>,
    pub gen: Vec<f64>,
    pub save: Vec<f64>,
}

/// Sets the server up `reps` times (graph generation, snapshot save,
/// spawn until the first hello), leaving the last one running. The
/// reference oracle is built once, between the first generation and save:
/// it is the benchmark's input, not part of set-up.
fn set_up(
    spec: &ServeSpec,
    ctx: &Ctx,
    reps: usize,
) -> Result<(Server, Oracle<u64>, SetUpTimes), String> {
    let path = snapshot_path(ctx);
    let mut times = SetUpTimes::default();
    let mut running: Option<(Server, Oracle<u64>)> = None;
    for _ in 0..reps {
        let mut oracle = match running.take() {
            Some((server, oracle)) => {
                server.stop()?;
                Some(oracle)
            }
            None => None,
        };
        let t = Instant::now();
        let g = span("bench.graph.generate", || {
            gnm_connected(NODES, EDGES, true, WeightDist::Uniform(1, 100), ctx.seed ^ 0x5e7e)
        });
        let t_gen = t.elapsed().as_secs_f64();
        let o = oracle.get_or_insert_with(|| {
            let dist = span("bench.reference.dijkstra", || apsp_dijkstra(&g));
            Oracle::from_dist(&g, dist)
        });
        let t = Instant::now();
        span("bench.snapshot.save", || save(o, &path, spec.mode))?;
        let t_save = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let server = span("bench.server.spawn", || Server::spawn(ctx.serve_bin, &path, spec.mode))?;
        times.total.push(t_gen + t_save + t.elapsed().as_secs_f64());
        times.gen.push(t_gen);
        times.save.push(t_save);
        running = Some((server, oracle.expect("built above")));
    }
    let (server, oracle) = running.expect("at least one repetition");
    Ok((server, oracle, times))
}

/// Runs the serving half: returns the request tally and the set-up
/// times. The snapshot file is removed however the run ends.
pub fn run(spec: &ServeSpec, ctx: &Ctx, m: &mut Metrics) -> Result<(Tally, SetUpTimes), String> {
    let result = measure(spec, ctx, m);
    let _ = std::fs::remove_file(snapshot_path(ctx));
    result
}

fn measure(spec: &ServeSpec, ctx: &Ctx, m: &mut Metrics) -> Result<(Tally, SetUpTimes), String> {
    let (server, reference, times) = set_up(spec, ctx, if ctx.trace { 1 } else { 3 })?;
    let mix = span("bench.mix", || Mix::new(NODES, ctx.seed));
    let s = ctx.seconds;
    let addr = server.addr.clone();
    span("bench.load.warmup", || {
        run_load(&addr, spec.nominal_qps, 0.02 * s, ctx.seed ^ 1, &mix, &reference)
    })?;
    let cpu_before =
        stats::cpu_seconds(&server.pid()).ok_or("cannot read the server's CPU time")?;
    let nominal = span("bench.load.nominal", || {
        run_load(&addr, spec.nominal_qps, 0.15 * s, ctx.seed ^ 2, &mix, &reference)
    })?;
    let cpu =
        stats::cpu_seconds(&server.pid()).ok_or("cannot read the server's CPU time")? - cpu_before;
    let cpu_us_per_req = cpu * 1e6 / nominal.attempted().max(1) as f64;
    // The nominal-rate requests are the run's operations. Ladder tries past
    // the server's capacity are expected to fail and are reported per
    // rung instead, but a wrong answer anywhere fails the run.
    let mut tally =
        Tally { attempted: nominal.attempted(), failed: nominal.failed(), wrong: nominal.wrong };
    println!(
        "nominal {:.0} req/s: {}; achieved {:.0} req/s; generator lateness {}",
        spec.nominal_qps,
        stats::describe_us(&nominal.lat_ns),
        nominal.achieved_qps(),
        stats::describe_us(&nominal.late_ns)
    );
    if ctx.trace {
        let qps =
            span("bench.load.ladder", || climb(spec, ctx, &addr, &mix, &reference, &mut tally))?;
        m.put("qps_at_slo", qps, "req/s");
        let mut client = connect(&addr)?;
        let (_, health) = client.health().map_err(|e| format!("health: {e}"))?;
        m.put("server.shed_busy", health.shed_busy as f64, "count");
        m.put("server.shed_overloaded", health.shed_overloaded as f64, "count");
        let mut rtt = Vec::with_capacity(2000);
        for _ in 0..2000 {
            let t = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        m.put("transport.ping_rtt_us", stats::median(&rtt), "us");
    }
    let rss = stats::vm_hwm_mib(&server.pid()).ok_or("cannot read the server's VmHWM")?;
    span("bench.server.stop", || server.stop())?;
    if ctx.trace {
        let path = snapshot_path(ctx);
        m.put("snapshot.save_s", stats::median(&times.save), "s");
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        m.put("snapshot.bytes", bytes as f64, "count");
        replays(spec, ctx, &path, &mix, &reference, m)?;
        for (k, name) in OP_NAMES.iter().enumerate() {
            m.put(
                &format!("{name}.p99_us"),
                stats::quantile(&nominal.op_lat_ns[k], 0.99) as f64 / 1e3,
                "us",
            );
        }
        m.put("loadgen.late_p99_us", stats::quantile(&nominal.late_ns, 0.99) as f64 / 1e3, "us");
        m.put("loadgen.achieved_qps", nominal.achieved_qps(), "req/s");
        m.put("failed_frac", nominal.failed() as f64 / nominal.attempted().max(1) as f64, "ratio");
        m.put("p50_us", nominal.p_us(0.5), "us");
        m.put("p99_us", nominal.window_p99_us(), "us");
        m.put("p99_all_us", nominal.p_us(0.99), "us");
        m.put("server.cpu_us_per_req", cpu_us_per_req, "us");
    } else {
        m.put("ok_frac", nominal.ok as f64 / nominal.attempted().max(1) as f64, "ratio");
        m.put("peak_rss_mb", rss, "MiB");
    }
    Ok((tally, times))
}
