//! The TCP serving front-end.
//!
//! Architecture: `acceptors` accept-loop threads share the listening
//! socket (thread-per-core accept: the default acceptor count is the
//! machine's parallelism) and hand each accepted connection its own
//! handler thread. A handler drains the socket in large reads — one
//! `read` syscall typically delivers a whole pipelined batch of frames —
//! answers the batch against **one** generation of the oracle, and
//! writes every response back in one `write_all`. Backpressure is a
//! bounded per-batch in-flight window: requests beyond
//! [`ServerConfig::window`] in a single batch are answered
//! [`Status::Busy`] instead of being buffered without bound, and a peer
//! that stops reading its responses trips the write timeout and is
//! disconnected rather than pinning server memory.
//!
//! Snapshot swaps go through the [`GenerationCell`]: a `Reload` control
//! frame (or the snapshot-file mtime watcher) loads and validates the
//! new snapshot off to the side, then publishes it atomically. Batches
//! already dispatched keep their generation until they finish — queries
//! are never dropped or torn by a swap, and every response names the
//! generation that answered it.

use crate::cell::GenerationCell;
use crate::proto::{self, HealthReport, HelloStatus, ProtocolError, Request, ServerHello, Status};
use congest_oracle::{
    Cores, EngineConfig, Oracle, PagedConfig, PagedOracle, PortableWeight, QueryEngine, QueryError,
    SnapshotError,
};
use congest_telemetry::{Counter, Gauge, Histogram};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Why the server could not start or reload.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept, handshake I/O).
    Io(std::io::Error),
    /// The snapshot file failed to load or validate.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Snapshot(e) => write!(f, "serve snapshot error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// How snapshot files are opened into query engines — fully resident,
/// or paged in lazily from a blocked v2 snapshot under a byte budget.
/// Applies to [`Server::bind_snapshot`] and every subsequent reload
/// (watcher- or `Reload`-frame-triggered), so a hot-swap keeps the
/// backend the operator chose.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackendMode {
    /// Load the whole snapshot into RAM with
    /// [`Oracle::load`](congest_oracle::Oracle::load): n²·12 bytes
    /// resident (8-byte distances plus 4-byte successors), and a hot swap
    /// briefly holds two generations while the old one drains.
    Eager,
    /// Serve straight from a v2 file via
    /// [`PagedOracle`], keeping at most
    /// `resident_bytes` of decoded blocks resident.
    Paged {
        /// Byte budget for the resident block set.
        resident_bytes: usize,
    },
}

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Accept-loop threads sharing the listener; 0 means one per core
    /// (`std::thread::available_parallelism`).
    pub acceptors: usize,
    /// Hard cap on concurrent connections; beyond it, new peers get an
    /// [`HelloStatus::AtCapacity`] hello and a close.
    pub max_connections: usize,
    /// Per-connection, per-batch in-flight window: at most this many
    /// requests are answered per batch cycle, the rest get
    /// [`Status::Busy`] responses immediately.
    pub window: usize,
    /// Cap on a single frame's payload, bytes (both directions).
    pub max_frame_len: u32,
    /// Granularity at which idle handlers (via their read timeout) and
    /// acceptors (via nonblocking `accept`) poll the shutdown flag;
    /// also bounds how long shutdown waits for them.
    pub idle_poll: Duration,
    /// How long a response write may block before the peer is declared
    /// a dead/slow reader and disconnected.
    pub write_timeout: Duration,
    /// Global cap on query requests being answered concurrently across
    /// **all** connections. Requests beyond it are shed immediately with
    /// [`Status::Overloaded`] — never queued — so a traffic spike
    /// degrades into fast typed refusals instead of unbounded memory
    /// growth and collapse. Control ops (Ping/Reload/Health) are exempt,
    /// so the server stays observable while shedding.
    pub max_inflight: usize,
    /// Slow-loris guard: once a connection holds a **partial** frame, the
    /// rest of that frame must arrive within this deadline or the
    /// connection is reclaimed. A peer trickling one byte per poll can
    /// therefore pin a handler for at most `frame_deadline`, not forever.
    pub frame_deadline: Duration,
    /// Sharding/caching configuration for engines built from reloaded
    /// snapshots.
    pub engine: EngineConfig,
    /// When serving from a snapshot file: poll its mtime at this
    /// interval and hot-swap on change. `None` disables the watcher
    /// (`Reload` control frames still work).
    pub watch_interval: Option<Duration>,
    /// How snapshot files are opened: eager (fully resident) or paged
    /// (out-of-core over a v2 file). Ignored by [`Server::bind`], which
    /// is handed an already-built engine.
    pub backend: BackendMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            acceptors: 0,
            max_connections: 1024,
            window: 1024,
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
            idle_poll: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
            max_inflight: 16 * 1024,
            frame_deadline: Duration::from_secs(10),
            engine: EngineConfig::default(),
            watch_interval: None,
            backend: BackendMode::Eager,
        }
    }
}

/// Opens the snapshot at `path` into a fresh engine per the configured
/// [`BackendMode`] — the one code path both the initial
/// [`Server::bind_snapshot`] and every reload go through. `cores` bounds
/// an eager load's plane checks: every core at start, when nothing is
/// serving yet, and the calling thread on a reload, so the generation
/// still answering queries keeps the other cores.
fn open_engine<W: PortableWeight>(
    path: &Path,
    cfg: &ServerConfig,
    cores: Cores,
) -> Result<Arc<QueryEngine<W>>, SnapshotError> {
    match cfg.backend {
        BackendMode::Eager => {
            let oracle = Oracle::<W>::load_on(path, cores)?;
            Ok(Arc::new(QueryEngine::new(Arc::new(oracle), cfg.engine)))
        }
        BackendMode::Paged { resident_bytes } => {
            let paged = PagedOracle::<W>::open(path, PagedConfig { resident_bytes })?;
            Ok(Arc::new(QueryEngine::new_paged(Arc::new(paged), cfg.engine)))
        }
    }
}

/// Construction-cached telemetry handles; recording happens only while
/// the global plane is enabled (one relaxed load per site otherwise).
struct Metrics {
    accepted: Arc<Counter>,
    rejected_capacity: Arc<Counter>,
    handshake_rejects: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    busy: Arc<Counter>,
    overloaded: Arc<Counter>,
    loris_reclaimed: Arc<Counter>,
    swaps: Arc<Counter>,
    swap_errors: Arc<Counter>,
    connections: Arc<Gauge>,
    batch_frames: Arc<Histogram>,
    op_dist: Arc<Histogram>,
    op_path: Arc<Histogram>,
    op_k_nearest: Arc<Histogram>,
}

impl Metrics {
    fn new() -> Self {
        let reg = congest_telemetry::global().registry();
        Metrics {
            accepted: reg.counter("serve.conn.accepted"),
            rejected_capacity: reg.counter("serve.conn.rejected_capacity"),
            handshake_rejects: reg.counter("serve.conn.handshake_rejects"),
            protocol_errors: reg.counter("serve.protocol_errors"),
            busy: reg.counter("serve.busy_responses"),
            overloaded: reg.counter("serve.overloaded_responses"),
            loris_reclaimed: reg.counter("serve.conn.loris_reclaimed"),
            swaps: reg.counter("serve.snapshot_swaps"),
            swap_errors: reg.counter("serve.snapshot_swap_errors"),
            connections: reg.gauge("serve.connections"),
            batch_frames: reg.histogram("serve.batch.frames"),
            op_dist: reg.histogram("serve.op.dist_ns"),
            op_path: reg.histogram("serve.op.path_ns"),
            op_k_nearest: reg.histogram("serve.op.k_nearest_ns"),
        }
    }
}

/// What the watcher compares to decide whether the snapshot file
/// changed: mtime **plus** a cheap content fingerprint (file length and
/// FNV-1a over the leading and trailing blocks), so a rewrite that lands
/// within the filesystem's mtime granularity — same second, different
/// bytes — still triggers a reload. The leading block covers the
/// snapshot header and the start of the distance arena; the trailing
/// block covers the index + footer, which change whenever **any** byte
/// of the payload does — so a same-length edit past the first block can
/// no longer slip past the watcher.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct SnapshotStamp {
    mtime: Option<SystemTime>,
    len: u64,
    fnv: u64,
}

/// Bytes of the file's leading and trailing blocks folded into the
/// fingerprint.
const STAMP_BLOCK: usize = 4096;

/// Folds up to `STAMP_BLOCK` bytes from the file's current position
/// into `fnv`; stops early at EOF.
fn stamp_fold(file: &mut std::fs::File, mut fnv: u64) -> Option<u64> {
    let mut block = [0u8; STAMP_BLOCK];
    let mut read = 0;
    while read < STAMP_BLOCK {
        match file.read(&mut block[read..]) {
            Ok(0) => break,
            Ok(k) => read += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    for &b in &block[..read] {
        fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    Some(fnv)
}

fn stamp_snapshot(path: &Path) -> Option<SnapshotStamp> {
    let meta = std::fs::metadata(path).ok()?;
    let mtime = meta.modified().ok();
    let mut file = std::fs::File::open(path).ok()?;
    let mut fnv = stamp_fold(&mut file, 0xCBF2_9CE4_8422_2325u64)?;
    if meta.len() > STAMP_BLOCK as u64 {
        let tail_start = meta.len().saturating_sub(STAMP_BLOCK as u64).max(STAMP_BLOCK as u64);
        use std::io::Seek;
        file.seek(std::io::SeekFrom::Start(tail_start)).ok()?;
        fnv = stamp_fold(&mut file, fnv)?;
    }
    Some(SnapshotStamp { mtime, len: meta.len(), fnv })
}

struct Shared<W> {
    cell: GenerationCell<W>,
    cfg: ServerConfig,
    /// Snapshot file backing `Reload` frames and the mtime watcher.
    snapshot: Option<PathBuf>,
    /// Serializes reloads so racing `Reload` frames load the file once;
    /// holds the stamp of the file the current generation came from.
    reload_lock: Mutex<Option<SnapshotStamp>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    metrics: Metrics,
    /// Live connection count (the authoritative one; the gauge mirrors it).
    conns: AtomicUsize,
    /// When the server started (health reports uptime against it).
    started: Instant,
    /// Query requests currently being answered, across all connections —
    /// the global budget [`ServerConfig::max_inflight`] caps.
    inflight: AtomicUsize,
    /// Requests shed with `Busy` since start (authoritative, independent
    /// of whether the telemetry plane is enabled).
    shed_busy: AtomicU64,
    /// Requests shed with `Overloaded` since start.
    shed_overloaded: AtomicU64,
    /// Successful snapshot swaps since start.
    swaps: AtomicU64,
    /// Failed snapshot reloads since start.
    swap_errors: AtomicU64,
    /// Human-readable description of the most recent reload failure.
    last_swap_error: Mutex<Option<String>>,
}

impl<W: PortableWeight> Shared<W> {
    /// Loads the snapshot file and publishes it as the next generation.
    fn reload(&self) -> Result<u64, ServeError> {
        let path = self.snapshot.as_ref().ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                ErrorKind::Unsupported,
                "server has no snapshot file to reload",
            ))
        })?;
        let mut last = self.reload_lock.lock().expect("reload lock poisoned");
        let stamp = stamp_snapshot(path);
        let engine = match open_engine::<W>(path, &self.cfg, Cores::Caller) {
            Ok(e) => e,
            Err(e) => {
                let err = ServeError::Snapshot(e);
                self.note_swap_error(&err);
                return Err(err);
            }
        };
        let gen = self.cell.swap(engine);
        *last = stamp;
        self.note_swap();
        Ok(gen)
    }

    fn note_swap(&self) {
        self.swaps.fetch_add(1, Ordering::SeqCst);
        if congest_telemetry::enabled() {
            self.metrics.swaps.inc();
        }
    }

    fn note_swap_error(&self, e: &ServeError) {
        self.swap_errors.fetch_add(1, Ordering::SeqCst);
        *self.last_swap_error.lock().expect("swap error lock poisoned") = Some(e.to_string());
        if congest_telemetry::enabled() {
            self.metrics.swap_errors.inc();
        }
    }

    /// Takes up to `want` permits from the global in-flight budget;
    /// returns how many were granted. Never blocks, never queues — what
    /// the budget cannot cover is shed by the caller.
    fn acquire_inflight(&self, want: usize) -> usize {
        let mut granted = 0;
        let _ = self.inflight.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            granted = want.min(self.cfg.max_inflight.saturating_sub(cur));
            Some(cur + granted)
        });
        granted
    }

    fn release_inflight(&self, granted: usize) {
        if granted > 0 {
            self.inflight.fetch_sub(granted, Ordering::SeqCst);
        }
    }

    /// Assembles the health report a `Health` op answers with.
    fn health_report(&self) -> HealthReport {
        HealthReport {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            connections: u32::try_from(self.conns.load(Ordering::SeqCst)).unwrap_or(u32::MAX),
            max_connections: u32::try_from(self.cfg.max_connections).unwrap_or(u32::MAX),
            shed_busy: self.shed_busy.load(Ordering::SeqCst),
            shed_overloaded: self.shed_overloaded.load(Ordering::SeqCst),
            swaps: self.swaps.load(Ordering::SeqCst),
            swap_errors: self.swap_errors.load(Ordering::SeqCst),
            last_swap_error: self.last_swap_error.lock().expect("swap error lock poisoned").clone(),
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](ServerHandle::shutdown) (and then
/// [`join`](ServerHandle::join)) for the graceful drain the CI smoke
/// test exercises.
pub struct ServerHandle<W> {
    shared: Arc<Shared<W>>,
    acceptors: Vec<std::thread::JoinHandle<()>>,
    watcher: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Namespace for the server constructors.
pub struct Server;

impl Server {
    /// Binds `addr` and serves `engine`. `addr` may use port 0 to let
    /// the OS pick (read it back via [`ServerHandle::local_addr`]).
    ///
    /// # Errors
    /// [`ServeError::Io`] when the listener cannot be bound.
    pub fn bind<W: PortableWeight>(
        addr: impl ToSocketAddrs,
        engine: Arc<QueryEngine<W>>,
        cfg: ServerConfig,
    ) -> Result<ServerHandle<W>, ServeError> {
        Self::start(addr, engine, None, cfg)
    }

    /// Loads the snapshot at `path`, binds `addr` and serves it. The
    /// returned server supports `Reload` control frames, and — when
    /// [`ServerConfig::watch_interval`] is set — hot-swaps automatically
    /// whenever the file's mtime changes.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the file fails to load or
    /// validate; [`ServeError::Io`] when the listener cannot be bound.
    pub fn bind_snapshot<W: PortableWeight>(
        addr: impl ToSocketAddrs,
        path: impl Into<PathBuf>,
        cfg: ServerConfig,
    ) -> Result<ServerHandle<W>, ServeError> {
        let path = path.into();
        let engine = open_engine::<W>(&path, &cfg, Cores::All).map_err(ServeError::Snapshot)?;
        Self::start(addr, engine, Some(path), cfg)
    }

    fn start<W: PortableWeight>(
        addr: impl ToSocketAddrs,
        engine: Arc<QueryEngine<W>>,
        snapshot: Option<PathBuf>,
        cfg: ServerConfig,
    ) -> Result<ServerHandle<W>, ServeError> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking accept: the loops poll the shutdown flag between
        // `WouldBlock`s, so shutdown never depends on a wake-up
        // connection getting through. Set before cloning — the clones
        // share the flag.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let acceptor_count = if cfg.acceptors == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            cfg.acceptors
        };
        let shared = Arc::new(Shared {
            cell: GenerationCell::new(engine),
            cfg,
            snapshot,
            reload_lock: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            addr,
            metrics: Metrics::new(),
            conns: AtomicUsize::new(0),
            started: Instant::now(),
            inflight: AtomicUsize::new(0),
            shed_busy: AtomicU64::new(0),
            shed_overloaded: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swap_errors: AtomicU64::new(0),
            last_swap_error: Mutex::new(None),
        });
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let mut acceptors = Vec::with_capacity(acceptor_count);
        for i in 0..acceptor_count {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("serve-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &shared, &handlers))
                    .map_err(ServeError::Io)?,
            );
        }
        let watcher = match (shared.cfg.watch_interval, shared.snapshot.is_some()) {
            (Some(interval), true) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("serve-watch".to_string())
                        .spawn(move || watch_loop(&shared, interval))
                        .map_err(ServeError::Io)?,
                )
            }
            _ => None,
        };
        Ok(ServerHandle { shared, acceptors, watcher, handlers })
    }
}

impl<W: PortableWeight> ServerHandle<W> {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current snapshot generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.shared.cell.generation()
    }

    /// Live connection count.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.shared.conns.load(Ordering::SeqCst)
    }

    /// Publishes a new oracle (wrapped in a fresh engine with the
    /// server's [`EngineConfig`]) as the next generation; returns its
    /// number. In-flight batches finish on the generation they loaded.
    pub fn swap(&self, oracle: Arc<Oracle<W>>) -> u64 {
        self.swap_engine(Arc::new(QueryEngine::new(oracle, self.shared.cfg.engine)))
    }

    /// Publishes an already-built engine as the next generation.
    pub fn swap_engine(&self, engine: Arc<QueryEngine<W>>) -> u64 {
        let gen = self.shared.cell.swap(engine);
        self.shared.note_swap();
        gen
    }

    /// The health report a `Health` protocol op would answer with.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        self.shared.health_report()
    }

    /// Reloads the snapshot file (if the server was started with one)
    /// and swaps it in; returns the new generation.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the file fails to load or
    /// validate — the previous generation keeps serving.
    pub fn reload(&self) -> Result<u64, ServeError> {
        self.shared.reload()
    }

    /// Begins a graceful shutdown: acceptors stop taking connections,
    /// every handler finishes (and answers) the requests it has already
    /// read, then closes its connection. Returns immediately; use
    /// [`join`](ServerHandle::join) to wait for the drain.
    pub fn shutdown(&self) {
        // The listener is nonblocking, so every acceptor observes the
        // flag within one idle_poll tick — no wake-up traffic needed.
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits until every acceptor and connection handler has exited.
    /// Implies [`shutdown`](ServerHandle::shutdown).
    pub fn join(mut self) {
        self.shutdown();
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
    }
}

fn accept_loop<W: PortableWeight>(
    listener: &TcpListener,
    shared: &Arc<Shared<W>>,
    handlers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Nonblocking listener, nothing pending: sleep one poll
                // tick and re-check the shutdown flag.
                std::thread::sleep(shared.cfg.idle_poll);
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back off
                // briefly instead of spinning the core.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // a late client; just drop it
        }
        // Handlers pace reads with socket timeouts, which need a
        // blocking stream; some platforms inherit the listener's
        // nonblocking flag across accept.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        let prev = shared.conns.fetch_add(1, Ordering::SeqCst);
        if prev >= shared.cfg.max_connections {
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            if congest_telemetry::enabled() {
                shared.metrics.rejected_capacity.inc();
            }
            let hello = proto::encode_server_hello(&ServerHello {
                status: HelloStatus::AtCapacity,
                weight_tag: W::TAG,
                n: 0,
                generation: shared.cell.generation(),
                window: 0,
                max_frame_len: 0,
            });
            let mut stream = stream;
            let _ = stream.write_all(&hello);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        if congest_telemetry::enabled() {
            shared.metrics.accepted.inc();
            shared.metrics.connections.set((prev + 1) as i64);
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new().name("serve-conn".to_string()).spawn(move || {
            handle_connection(stream, &conn_shared);
            let now = conn_shared.conns.fetch_sub(1, Ordering::SeqCst) - 1;
            if congest_telemetry::enabled() {
                conn_shared.metrics.connections.set(now as i64);
            }
        });
        match spawned {
            Ok(handle) => {
                let mut list = handlers.lock().expect("handler list poisoned");
                // Opportunistically reap finished handlers so a
                // long-running server's list stays bounded.
                list.retain(|h| !h.is_finished());
                list.push(handle);
            }
            Err(_) => {
                shared.conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

fn watch_loop<W: PortableWeight>(shared: &Arc<Shared<W>>, interval: Duration) {
    let path = shared.snapshot.as_ref().expect("watcher requires a snapshot path");
    // Baseline: the stamp of the snapshot generation 1 was loaded from.
    *shared.reload_lock.lock().expect("reload lock poisoned") = stamp_snapshot(path);
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Sleep `interval` in short steps so shutdown is observed quickly
        // even with a long watch interval.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = (interval - slept).min(Duration::from_millis(50));
            std::thread::sleep(step);
            slept += step;
        }
        let Some(stamp) = stamp_snapshot(path) else {
            continue; // file momentarily absent (mid-rewrite): keep serving
        };
        // Compare mtime AND the content fingerprint: a rewrite that lands
        // within the filesystem's mtime granularity still changes the
        // length or the FNV of the leading block, so same-mtime rewrites
        // are not missed.
        let changed = *shared.reload_lock.lock().expect("reload lock poisoned") != Some(stamp);
        if changed {
            // A half-written file fails validation and is retried on the
            // next tick; the previous generation keeps serving throughout.
            let _ = shared.reload();
        }
    }
}

/// Reads with a poll-granularity timeout until `buf` is full; gives up
/// on shutdown, EOF, `deadline`, or a hard I/O error.
fn read_exact_polling<W: PortableWeight>(
    stream: &mut TcpStream,
    shared: &Shared<W>,
    buf: &mut [u8],
    deadline: Instant,
) -> bool {
    let mut at = 0;
    while at < buf.len() {
        match stream.read(&mut buf[at..]) {
            Ok(0) => return false,
            Ok(k) => at += k,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn handle_connection<W: PortableWeight>(mut stream: TcpStream, shared: &Shared<W>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_poll));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));

    // ---- handshake ----
    let mut hello = [0u8; proto::CLIENT_HELLO_LEN];
    if !read_exact_polling(&mut stream, shared, &mut hello, Instant::now() + Duration::from_secs(5))
    {
        return;
    }
    let status = match proto::decode_client_hello(&hello) {
        Ok(tag) if tag == W::TAG => HelloStatus::Ok,
        Ok(_) => HelloStatus::WeightMismatch,
        Err(ProtocolError::UnsupportedVersion { .. }) => HelloStatus::BadVersion,
        Err(_) => {
            // Not our protocol at all: close without feeding bytes to
            // whatever peer this is.
            if congest_telemetry::enabled() {
                shared.metrics.handshake_rejects.inc();
            }
            return;
        }
    };
    let (n, generation) = {
        let current = shared.cell.load();
        (u64::try_from(current.engine.n()).unwrap_or(u64::MAX), current.number)
    };
    let reply = proto::encode_server_hello(&ServerHello {
        status,
        weight_tag: W::TAG,
        n,
        generation,
        window: u32::try_from(shared.cfg.window).unwrap_or(u32::MAX),
        max_frame_len: shared.cfg.max_frame_len,
    });
    if stream.write_all(&reply).is_err() {
        return;
    }
    if status != HelloStatus::Ok {
        if congest_telemetry::enabled() {
            shared.metrics.handshake_rejects.inc();
        }
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }

    // ---- batch loop ----
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut outbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut scratch = [0u8; 64 * 1024];
    let mut draining = false;
    // Slow-loris guard: when the buffer first holds a partial frame, the
    // clock starts; the frame must complete before `frame_deadline` or
    // the connection is reclaimed.
    let mut partial_since: Option<Instant> = None;
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => draining = true,
            Ok(k) => inbuf.extend_from_slice(&scratch[..k]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    draining = true; // answer what is buffered, then close
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }

        // Split every complete frame out of the buffer.
        let mut requests: Vec<Result<Request, (u32, Status)>> = Vec::new();
        let mut consumed = 0;
        let mut fatal = false;
        loop {
            match proto::decode_frame(&inbuf[consumed..], shared.cfg.max_frame_len) {
                Ok(None) => break,
                Ok(Some((payload, used))) => {
                    match proto::decode_request(payload) {
                        Ok(req) => requests.push(Ok(req)),
                        Err(e) => {
                            // Well-framed but senseless: answer BadRequest
                            // (with the request's id when one is present)
                            // and keep the connection — framing is intact.
                            if congest_telemetry::enabled() {
                                shared.metrics.protocol_errors.inc();
                            }
                            let id = if payload.len() >= 4 {
                                u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"))
                            } else {
                                proto::CONNECTION_ID
                            };
                            debug_assert!(matches!(
                                e,
                                ProtocolError::Runt { .. }
                                    | ProtocolError::UnknownOp { .. }
                                    | ProtocolError::BadArgs { .. }
                            ));
                            requests.push(Err((id, Status::BadRequest)));
                        }
                    }
                    consumed += used;
                }
                Err(_) => {
                    // Oversized frame: the stream cannot be re-synced.
                    // Answer everything decoded so far plus one
                    // connection-level error, then close.
                    if congest_telemetry::enabled() {
                        shared.metrics.protocol_errors.inc();
                    }
                    requests.push(Err((proto::CONNECTION_ID, Status::BadRequest)));
                    fatal = true;
                    break;
                }
            }
        }
        inbuf.drain(..consumed);

        // Leftover bytes are a partial frame. A peer trickling one byte
        // per poll would otherwise pin this handler forever; give the
        // frame `frame_deadline` to complete, then reclaim.
        if inbuf.is_empty() {
            partial_since = None;
        } else {
            let since = *partial_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= shared.cfg.frame_deadline {
                if congest_telemetry::enabled() {
                    shared.metrics.loris_reclaimed.inc();
                }
                fatal = true;
            }
        }

        if !requests.is_empty() {
            outbuf.clear();
            answer_batch(shared, &requests, &mut outbuf);
            if stream.write_all(&outbuf).is_err() {
                return; // slow/dead reader tripped the write timeout
            }
        }
        // The decode pass above split out every complete frame, so once
        // `draining` is set any leftover bytes are a partial frame that
        // will never be answered: after EOF no more bytes are coming,
        // and the shutdown drain only answers requests already read.
        // Waiting for the buffer to empty instead would spin forever on
        // a truncated frame (EOF re-reads Ok(0) in a tight loop).
        if fatal || draining {
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Answers one batch of decoded requests against a single snapshot
/// generation, encoding responses in arrival order. Dist and Path
/// requests inside the window are dispatched through the engine's batch
/// entry points, so shard locks are taken once per batch.
fn answer_batch<W: PortableWeight>(
    shared: &Shared<W>,
    requests: &[Result<Request, (u32, Status)>],
    out: &mut Vec<u8>,
) {
    let telemetry = congest_telemetry::enabled();
    let t0 = telemetry.then(Instant::now);
    let generation = shared.cell.load();
    let (engine, gen) = (&generation.engine, generation.number);
    let window = shared.cfg.window;

    // Take permits for the window's query ops from the global in-flight
    // budget. What the budget cannot cover is shed right here with
    // `Overloaded` — never queued — so a fleet-wide spike degrades into
    // fast typed refusals. Control ops (Ping/Reload/Health) bypass the
    // budget: the server stays observable while shedding.
    let query_ops = requests.iter().take(window).flatten().filter(|req| req.is_query()).count();
    let granted = shared.acquire_inflight(query_ops);

    // Group the in-window, budget-granted dist/path requests for the
    // batch entry points.
    let mut dist_pairs: Vec<(u32, u32)> = Vec::new();
    let mut path_pairs: Vec<(u32, u32)> = Vec::new();
    let mut qseen = 0usize;
    for req in requests.iter().take(window).flatten() {
        match *req {
            Request::Dist { u, v, .. } => {
                if qseen < granted {
                    dist_pairs.push((u, v));
                }
                qseen += 1;
            }
            Request::Path { u, v, .. } => {
                if qseen < granted {
                    path_pairs.push((u, v));
                }
                qseen += 1;
            }
            Request::KNearest { .. } => qseen += 1,
            _ => {}
        }
    }
    let dist_t0 = telemetry.then(Instant::now);
    let dists = engine.dist_batch(&dist_pairs);
    let dist_ns = per_op_ns(dist_t0, dists.len());
    let path_t0 = telemetry.then(Instant::now);
    let paths = engine.path_batch(&path_pairs);
    let path_ns = per_op_ns(path_t0, paths.len());

    let (mut di, mut pi) = (0, 0);
    let mut qi = 0usize;
    let mut busy = 0u64;
    let mut overloaded = 0u64;
    for (i, req) in requests.iter().enumerate() {
        let req = match req {
            Ok(req) => req,
            Err((id, status)) => {
                proto::encode_status(out, *id, *status, gen);
                continue;
            }
        };
        if i >= window {
            // Backpressure: out-of-window requests are refused *now*
            // instead of queueing unboundedly behind a slow batch.
            busy += 1;
            proto::encode_status(out, req.id(), Status::Busy, gen);
            continue;
        }
        if req.is_query() {
            let granted_here = qi < granted;
            qi += 1;
            if !granted_here {
                // The global in-flight budget is spent: shed, don't queue.
                overloaded += 1;
                proto::encode_status(out, req.id(), Status::Overloaded, gen);
                continue;
            }
        }
        let frame_cap = out.len();
        match *req {
            Request::Dist { id, .. } => {
                let r = &dists[di];
                di += 1;
                match r {
                    Ok(Some(w)) => proto::encode_dist_ok(out, id, gen, *w),
                    Ok(None) => proto::encode_status(out, id, Status::Unreachable, gen),
                    Err(e) => proto::encode_status(out, id, query_status(e), gen),
                }
                if let Some(ns) = dist_ns {
                    shared.metrics.op_dist.record(ns);
                }
            }
            Request::Path { id, .. } => {
                let r = &paths[pi];
                pi += 1;
                match r {
                    Ok(Some(p)) => {
                        proto::encode_path_ok(out, id, gen, p);
                        if out.len() - frame_cap - 4 > shared.cfg.max_frame_len as usize {
                            out.truncate(frame_cap);
                            proto::encode_status(out, id, Status::TooLarge, gen);
                        }
                    }
                    Ok(None) => proto::encode_status(out, id, Status::Unreachable, gen),
                    Err(e) => proto::encode_status(out, id, query_status(e), gen),
                }
                if let Some(ns) = path_ns {
                    shared.metrics.op_path.record(ns);
                }
            }
            Request::KNearest { id, u, k } => {
                let op_t0 = telemetry.then(Instant::now);
                match engine.k_nearest(u, k as usize) {
                    Ok(items) => {
                        proto::encode_k_nearest_ok(out, id, gen, &items);
                        if out.len() - frame_cap - 4 > shared.cfg.max_frame_len as usize {
                            out.truncate(frame_cap);
                            proto::encode_status(out, id, Status::TooLarge, gen);
                        }
                    }
                    Err(e) => proto::encode_status(out, id, query_status(&e), gen),
                }
                if let Some(ns) = per_op_ns(op_t0, 1) {
                    shared.metrics.op_k_nearest.record(ns);
                }
            }
            Request::Ping { id } => proto::encode_status(out, id, Status::Ok, gen),
            Request::Health { id } => {
                proto::encode_health_ok(out, id, gen, &shared.health_report());
            }
            Request::Reload { id } => match shared.reload() {
                Ok(new_gen) => proto::encode_status(out, id, Status::Ok, new_gen),
                Err(ServeError::Io(e)) if e.kind() == ErrorKind::Unsupported => {
                    proto::encode_status(out, id, Status::NotSupported, gen);
                }
                Err(_) => proto::encode_status(out, id, Status::Internal, gen),
            },
        }
    }
    shared.release_inflight(granted);
    if busy > 0 {
        shared.shed_busy.fetch_add(busy, Ordering::SeqCst);
        if telemetry {
            shared.metrics.busy.add(busy);
        }
    }
    if overloaded > 0 {
        shared.shed_overloaded.fetch_add(overloaded, Ordering::SeqCst);
        if telemetry {
            shared.metrics.overloaded.add(overloaded);
        }
    }
    if let Some(t0) = t0 {
        let tele = congest_telemetry::global();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.metrics.batch_frames.record(requests.len() as u64);
        tele.complete_span(
            "serve.batch",
            tele.now_ns().saturating_sub(ns),
            ns,
            vec![
                ("frames".to_string(), requests.len().to_string()),
                ("generation".to_string(), gen.to_string()),
                ("bytes_out".to_string(), out.len().to_string()),
            ],
        );
    }
}

/// Amortized per-op share of a batch group's wall time; `None` while
/// telemetry is disabled or the group was empty.
fn per_op_ns(t0: Option<Instant>, ops: usize) -> Option<u64> {
    let t0 = t0?;
    if ops == 0 {
        return None;
    }
    Some(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) / ops as u64)
}

fn query_status(e: &QueryError) -> Status {
    match e {
        QueryError::NodeOutOfRange { .. } => Status::NodeOutOfRange,
        QueryError::CorruptSuccessors { .. } => Status::Corrupt,
        // A paged backend lost a block (I/O or checksum): the server is
        // at fault, not the request — surface it as an internal error so
        // well-formed clients can retry elsewhere.
        QueryError::BlockUnavailable { .. } => Status::Internal,
    }
}
