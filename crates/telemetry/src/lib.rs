//! Unified observability plane for the CONGEST APSP workspace.
//!
//! Every layer — simulator, solver pipeline, oracle build, query serving,
//! benchmarks — emits into one process-global [`Telemetry`] instance:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   latency [`Histogram`]s (lock-free on the hot path: handles are
//!   plain atomics; the name → handle map is only locked at
//!   registration),
//! * structured trace spans ([`Telemetry::span_start`] /
//!   [`Telemetry::span_end`], with key=value attributes, monotonic
//!   nanosecond timestamps and logical thread ids) recorded into a
//!   bounded in-memory ring,
//! * exporters: Chrome trace-event JSON ([`export::chrome_trace`],
//!   loadable in Perfetto), a Prometheus-style text dump
//!   ([`export::prometheus`]), and a machine-readable run manifest
//!   ([`Manifest`], written as `results/run-*.json`).
//!
//! # Enabling
//!
//! The global plane starts **disabled**. In that state every
//! instrumentation site in the workspace reduces to one relaxed atomic
//! load and a branch ([`enabled`]) — nothing is timed, allocated, or
//! recorded, so a disabled build performs within measurement noise of a
//! build without the instrumentation (`benches/telemetry.rs` in
//! `congest_bench` guards this). Turn it on around the region you want
//! to observe:
//!
//! ```
//! let tele = congest_telemetry::enable();
//! // ... run a Solver, serve queries, ...
//! tele.registry().counter("demo.events").inc();
//! let trace = congest_telemetry::export::chrome_trace(&tele.spans());
//! congest_telemetry::disable();
//! assert!(trace.contains("traceEvents"));
//! ```
//!
//! # Reading a trace in Perfetto
//!
//! 1. Run an instrumented binary, e.g.
//!    `cargo run --release --example telemetry_trace`; it writes
//!    `results/trace-*.json` (and a `results/run-*.json` manifest).
//! 2. Open <https://ui.perfetto.dev> (or `chrome://tracing`) and load
//!    the `trace-*.json` file.
//! 3. Each solver phase appears as one complete slice whose name is the
//!    `Recorder` phase label (`step1: h-CSSSP for V`, …); engine-level
//!    `engine.run` begin/end pairs sit on the emitting thread's track.
//!    Slice arguments carry rounds/messages/payload words.
//!
//! # Run manifests
//!
//! [`Manifest`] is the workspace's one JSON sink: it stamps
//! [`SCHEMA_VERSION`], a `kind`, and a creation timestamp, then takes
//! free-form sections built from [`json::Json`] values — graph
//! parameters, solver knobs, per-phase [`PhaseRow`]s, registry
//! snapshots. The `BENCH_*.json` files and `results/run-*.json` are all
//! written through it, so every artifact carries schema + knob
//! provenance. [`json::parse`] is a dependency-free validator for all
//! of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod export;
pub mod hist;
pub mod json;
pub mod registry;
pub mod spans;

pub use export::{Manifest, PhaseRow, SCHEMA_VERSION};
pub use hist::Histogram;
pub use registry::{Counter, Gauge, Registry};
pub use spans::{SpanEvent, SpanId, SpanKind};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-global observability plane: a span ring plus a metric
/// registry sharing one monotonic clock. Obtained via [`global`] (or
/// [`enable`]); instrumentation sites guard every use with [`enabled`].
pub struct Telemetry {
    epoch: Instant,
    registry: Registry,
    spans: spans::SpanRing,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            epoch: Instant::now(),
            registry: Registry::new(),
            spans: spans::SpanRing::new(spans::DEFAULT_RING_CAPACITY),
        }
    }

    /// Monotonic nanoseconds since the plane was first touched.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The metric registry (counters, gauges, histograms).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Opens a span: records a begin event now and returns the id to
    /// close it with.
    pub fn span_start(&self, name: &str) -> SpanId {
        self.spans.start(name, self.now_ns())
    }

    /// Closes a span opened by [`span_start`](Self::span_start).
    pub fn span_end(&self, id: SpanId) {
        self.spans.end(id, self.now_ns(), Vec::new());
    }

    /// Closes a span, attaching `key=value` attributes to the end event.
    pub fn span_end_with(&self, id: SpanId, attrs: Vec<(String, String)>) {
        self.spans.end(id, self.now_ns(), attrs);
    }

    /// Records an already-measured complete span (begin + duration in
    /// one event) — used when the caller timed the region itself.
    pub fn complete_span(
        &self,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        attrs: Vec<(String, String)>,
    ) {
        self.spans.complete(name, start_ns, dur_ns, attrs);
    }

    /// Records a zero-duration instant event (e.g. a sampled simulator
    /// round, a recovery retry).
    pub fn instant(&self, name: &str, attrs: Vec<(String, String)>) {
        self.spans.instant(name, self.now_ns(), attrs);
    }

    /// Snapshot of the span ring, oldest first.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans.snapshot()
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn dropped_spans(&self) -> u64 {
        self.spans.dropped()
    }

    /// Clears the span ring and every registered metric value (names
    /// and handles survive). Benches use this between measured regions.
    pub fn clear(&self) {
        self.spans.clear();
        self.registry.clear_values();
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// `true` iff the global plane is recording. One relaxed atomic load —
/// this is the whole cost of the disabled path, so call it **before**
/// taking any timestamp or building any attribute.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global [`Telemetry`] instance (created on first use). Reading
/// exports through it is fine while disabled; recording sites should
/// guard with [`enabled`] instead of calling this unconditionally.
#[must_use]
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::new)
}

/// Switches the global plane on and returns it.
pub fn enable() -> &'static Telemetry {
    let t = global();
    ENABLED.store(true, Ordering::SeqCst);
    t
}

/// Switches the global plane off — the default state. Already-recorded
/// spans and metric values survive until [`Telemetry::clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Runs `f` against the global plane iff it is enabled; `None`
/// otherwise. The canonical instrumentation-site shape:
///
/// ```
/// let span = congest_telemetry::with(|t| t.span_start("phase"));
/// // ... work ...
/// if let Some(id) = span {
///     congest_telemetry::global().span_end(id);
/// }
/// ```
#[inline]
pub fn with<R>(f: impl FnOnce(&'static Telemetry) -> R) -> Option<R> {
    if enabled() {
        Some(f(global()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global ENABLED flag is process-wide, so every test touching it
    // runs under this lock to stay order-independent.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_with_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        disable();
        assert!(!enabled());
        assert_eq!(with(|_| 1), None);
    }

    #[test]
    fn enable_records_spans_and_metrics() {
        let _g = TEST_LOCK.lock().unwrap();
        let t = enable();
        t.clear();
        let id = t.span_start("outer");
        t.instant("tick", vec![("round".into(), "3".into())]);
        t.span_end_with(id, vec![("rounds".into(), "10".into())]);
        t.registry().counter("test.hits").add(2);
        let spans = t.spans();
        disable();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].kind, SpanKind::Begin);
        assert_eq!(spans[1].kind, SpanKind::Instant);
        assert_eq!(spans[2].kind, SpanKind::End);
        assert!(spans[2].ts_ns >= spans[0].ts_ns, "monotonic timestamps");
        assert_eq!(spans[0].tid, spans[2].tid);
        assert_eq!(t.registry().counter("test.hits").get(), 2);
        t.clear();
        assert!(t.spans().is_empty());
        assert_eq!(t.registry().counter("test.hits").get(), 0);
    }

    #[test]
    fn complete_span_carries_duration() {
        let _g = TEST_LOCK.lock().unwrap();
        let t = enable();
        t.clear();
        t.complete_span("phase-x", 100, 40, vec![("k".into(), "v".into())]);
        let spans = t.spans();
        disable();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].ts_ns, spans[0].dur_ns), (100, 40));
        assert_eq!(spans[0].kind, SpanKind::Complete);
        assert_eq!(spans[0].attrs, vec![("k".to_string(), "v".to_string())]);
    }
}
