//! Round and message accounting.
//!
//! The paper measures algorithms purely by *round complexity*; we record
//! rounds per phase plus message totals and per-node send counts, because
//! the paper's §4 analysis (bottleneck nodes, Lemma A.15) reasons about
//! *congestion at a node* = number of messages a node sends during an
//! algorithm.
//!
//! A [`PhaseReport`] fresh from [`crate::Engine::run`] carries its
//! per-node send counts. A [`Recorder`] keeps each phase's fixed-size
//! fields, including its [`PhaseReport::max_node_congestion`], and folds
//! the per-node counts into one running total per recorder, so a ledger
//! costs O(n + phases) words rather than O(n · phases).

use crate::fault::FaultCounters;
use std::time::Duration;

/// Statistics for one protocol phase (one [`crate::Engine::run`] call).
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    /// Human-readable phase label, e.g. `"step1: h-CSSSP"`.
    pub name: String,
    /// Number of simulated communication rounds.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Per-node messages sent during this phase, as [`crate::Engine::run`]
    /// and [`PhaseReport::merge`] return it. A [`Recorder`] folds it into
    /// its running totals ([`Recorder::node_sent_totals`]), so every
    /// phase a recorder holds has an empty `node_sent`.
    pub node_sent: Vec<u64>,
    /// Maximum congestion at any node during this phase (paper's
    /// footnote 4 definition): the largest entry of `node_sent`, filled
    /// in by [`crate::Engine::run`] and [`PhaseReport::merge`] and kept
    /// when a recorder drops the vector.
    pub max_node_congestion: u64,
    /// Maximum number of messages in flight after any single round — the
    /// high-water mark of the engine's message plane, tracked incrementally
    /// by the delivery pass.
    pub peak_in_flight: u64,
    /// Total payload delivered, in O(log n)-bit machine words (each id,
    /// weight, or counter in a message counts as one word; see
    /// [`crate::NodeLogic::msg_words`]).
    pub payload_words: u64,
    /// Widest single message delivered during the phase, in words. The
    /// CONGEST model caps this at O(1) words of O(log n) bits each, so a
    /// protocol that silently grows its payload shows up here.
    pub max_msg_words: u32,
    /// Faults the engine injected during this phase (see [`crate::fault`]).
    /// All-zero when no fault plan is active, so fault-free reports compare
    /// equal to pre-fault-plane ones.
    pub faults: FaultCounters,
    /// Host wall-clock spent simulating the phase, in nanoseconds.
    /// Observability only — **excluded from equality** (see the manual
    /// [`PartialEq`] below), because the simulated outcome of a
    /// deterministic protocol is bit-identical across runs while the
    /// host timing never is.
    pub wall_ns: u64,
}

/// Equality covers every *simulated* quantity and ignores `wall_ns`
/// (host timing), keeping the bit-identical contracts — the recovery
/// accept rule, the run-to-run determinism tests, the fault-matrix
/// differential suite — valid verbatim. Precedent:
/// `DistMatrix` equality ignores its successor plane.
impl PartialEq for PhaseReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.rounds == other.rounds
            && self.messages == other.messages
            && self.node_sent == other.node_sent
            && self.max_node_congestion == other.max_node_congestion
            && self.peak_in_flight == other.peak_in_flight
            && self.payload_words == other.payload_words
            && self.max_msg_words == other.max_msg_words
            && self.faults == other.faults
    }
}

impl Eq for PhaseReport {}

impl PhaseReport {
    /// Maximum congestion at any node (paper's footnote 4 definition).
    #[must_use]
    pub fn max_node_congestion(&self) -> u64 {
        self.max_node_congestion
    }

    /// Adds another engine run's report into this one, so several runs
    /// record as one phase: rounds, messages, payload, wall time, faults
    /// and per-node sends add up, `peak_in_flight` and `max_msg_words`
    /// take the larger value, and the congestion is recomputed from the
    /// summed `node_sent`.
    pub fn merge(&mut self, other: &PhaseReport) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.payload_words += other.payload_words;
        self.wall_ns += other.wall_ns;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.max_msg_words = self.max_msg_words.max(other.max_msg_words);
        self.faults.merge(&other.faults);
        add_sent(&mut self.node_sent, &other.node_sent);
        self.max_node_congestion = self.node_sent.iter().copied().max().unwrap_or(0);
    }

    /// This report as a run-manifest row (see `congest_telemetry`).
    #[must_use]
    pub fn manifest_row(&self) -> congest_telemetry::PhaseRow {
        congest_telemetry::PhaseRow {
            name: self.name.clone(),
            rounds: self.rounds,
            messages: self.messages,
            payload_words: self.payload_words,
            max_msg_words: self.max_msg_words,
            max_node_congestion: self.max_node_congestion(),
            wall_ns: self.wall_ns,
        }
    }
}

/// Adds `sent` into `total` entry by entry, growing `total` to fit.
fn add_sent(total: &mut Vec<u64>, sent: &[u64]) {
    if total.len() < sent.len() {
        total.resize(sent.len(), 0);
    }
    for (t, s) in total.iter_mut().zip(sent) {
        *t += s;
    }
}

/// Accumulates phase reports across a multi-phase algorithm run.
///
/// Each recorded phase keeps its fixed-size fields and its
/// `max_node_congestion`; its `node_sent` is added into the recorder's
/// one running per-node total and left empty.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    phases: Vec<PhaseReport>,
    /// Per-node messages sent, summed over every recorded phase.
    node_sent: Vec<u64>,
}

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Records a finished phase, relabelling it with `name`. Its per-node
    /// sends move into the running totals; the phase keeps their maximum.
    pub fn record(&mut self, name: impl Into<String>, mut report: PhaseReport) {
        report.name = name.into();
        let sent = std::mem::take(&mut report.node_sent);
        let peak = sent.iter().copied().max().unwrap_or(0);
        report.max_node_congestion = report.max_node_congestion.max(peak);
        add_sent(&mut self.node_sent, &sent);
        self.phases.push(report);
    }

    /// Adds a zero-communication local phase (for bookkeeping parity with the
    /// paper's "Local Step" lines) that took `wall` of host time.
    pub fn record_local(&mut self, name: impl Into<String>, wall: Duration) {
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.phases.push(PhaseReport { name: name.into(), wall_ns, ..Default::default() });
    }

    /// All recorded phases in order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseReport] {
        &self.phases
    }

    /// Total rounds across phases.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.phases.iter().map(|p| p.rounds).sum()
    }

    /// Total messages across phases.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.messages).sum()
    }

    /// Maximum per-phase node congestion observed.
    #[must_use]
    pub fn max_node_congestion(&self) -> u64 {
        self.phases.iter().map(PhaseReport::max_node_congestion).max().unwrap_or(0)
    }

    /// Total payload across phases, in machine words.
    #[must_use]
    pub fn total_payload_words(&self) -> u64 {
        self.phases.iter().map(|p| p.payload_words).sum()
    }

    /// Widest single message delivered in any phase, in machine words —
    /// the number the CONGEST O(log n)-bits-per-message budget bounds.
    #[must_use]
    pub fn max_msg_words(&self) -> u32 {
        self.phases.iter().map(|p| p.max_msg_words).max().unwrap_or(0)
    }

    /// Total fault counters merged across all phases.
    #[must_use]
    pub fn total_faults(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for p in &self.phases {
            total.merge(&p.faults);
        }
        total
    }

    /// Per-node total messages sent across all phases.
    #[must_use]
    pub fn node_sent_totals(&self) -> &[u64] {
        &self.node_sent
    }

    /// Total host wall-clock across phases, in nanoseconds.
    #[must_use]
    pub fn total_wall_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.wall_ns).sum()
    }

    /// Merges another recorder's phases (used when a sub-algorithm keeps its
    /// own recorder), prefixing each phase name.
    pub fn absorb(&mut self, prefix: &str, other: Recorder) {
        add_sent(&mut self.node_sent, &other.node_sent);
        for mut p in other.phases {
            p.name = format!("{prefix}{}", p.name);
            self.phases.push(p);
        }
    }

    /// The recorded phases as run-manifest rows (see `congest_telemetry`).
    #[must_use]
    pub fn manifest_rows(&self) -> Vec<congest_telemetry::PhaseRow> {
        self.phases.iter().map(PhaseReport::manifest_row).collect()
    }

    /// Emits one complete trace span per recorded phase into the global
    /// telemetry plane (no-op while telemetry is disabled). Span names
    /// are exactly the recorded phase labels; the phases are laid out
    /// back-to-back ending now, preserving order and true durations
    /// (a local phase's slice is its measured host time).
    pub fn trace_phases(&self) {
        if !congest_telemetry::enabled() {
            return;
        }
        let tele = congest_telemetry::global();
        let mut start = tele.now_ns().saturating_sub(self.total_wall_ns());
        for p in &self.phases {
            tele.complete_span(
                &p.name,
                start,
                p.wall_ns,
                vec![
                    ("rounds".to_string(), p.rounds.to_string()),
                    ("messages".to_string(), p.messages.to_string()),
                    ("payload_words".to_string(), p.payload_words.to_string()),
                    ("max_msg_words".to_string(), p.max_msg_words.to_string()),
                    ("max_node_congestion".to_string(), p.max_node_congestion().to_string()),
                ],
            );
            start += p.wall_ns;
        }
    }

    /// Renders a compact per-phase table (used by examples and
    /// experiments) covering the full CONGEST budget picture: rounds,
    /// messages, payload words, widest message, per-node congestion,
    /// and host wall-clock (ms).
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        const FMT_W: (usize, usize, usize, usize, usize, usize, usize) =
            (44, 10, 12, 13, 6, 10, 10);
        let (wn, wr, wm, wp, ww, wc, wt) = FMT_W;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<wn$} {:>wr$} {:>wm$} {:>wp$} {:>ww$} {:>wc$} {:>wt$}",
            "phase", "rounds", "messages", "payload-words", "max-w", "max-cong", "wall-ms"
        );
        let mut row = |name: &str, r: u64, m: u64, p: u64, w: u32, c: u64, ns: u64| {
            let _ = writeln!(
                s,
                "{:<wn$} {:>wr$} {:>wm$} {:>wp$} {:>ww$} {:>wc$} {:>wt$.3}",
                name,
                r,
                m,
                p,
                w,
                c,
                ns as f64 / 1e6
            );
        };
        for p in &self.phases {
            row(
                &p.name,
                p.rounds,
                p.messages,
                p.payload_words,
                p.max_msg_words,
                p.max_node_congestion(),
                p.wall_ns,
            );
        }
        row(
            "TOTAL",
            self.total_rounds(),
            self.total_messages(),
            self.total_payload_words(),
            self.max_msg_words(),
            self.max_node_congestion(),
            self.total_wall_ns(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rounds: u64, messages: u64, sent: Vec<u64>) -> PhaseReport {
        PhaseReport { rounds, messages, node_sent: sent, ..Default::default() }
    }

    #[test]
    fn totals_accumulate() {
        let mut r = Recorder::new();
        r.record("a", phase(10, 100, vec![5, 95]));
        r.record("b", phase(7, 3, vec![3, 0]));
        r.record_local("c", Duration::ZERO);
        assert_eq!(r.total_rounds(), 17);
        assert_eq!(r.total_messages(), 103);
        assert_eq!(r.max_node_congestion(), 95);
        assert_eq!(r.node_sent_totals(), vec![8, 95]);
        assert_eq!(r.phases().len(), 3);
    }

    #[test]
    fn payload_words_accumulate() {
        let mut r = Recorder::new();
        r.record("a", PhaseReport { payload_words: 30, max_msg_words: 3, ..phase(1, 10, vec![]) });
        r.record("b", PhaseReport { payload_words: 8, max_msg_words: 4, ..phase(1, 2, vec![]) });
        assert_eq!(r.total_payload_words(), 38);
        assert_eq!(r.max_msg_words(), 4);
    }

    #[test]
    fn absorb_prefixes() {
        let mut inner = Recorder::new();
        inner.record("x", phase(1, 1, vec![1]));
        let mut outer = Recorder::new();
        outer.absorb("sub/", inner);
        assert_eq!(outer.phases()[0].name, "sub/x");
    }

    #[test]
    fn table_renders() {
        let mut r = Recorder::new();
        r.record("phase-one", phase(2, 4, vec![2, 2]));
        let t = r.table();
        assert!(t.contains("phase-one"));
        assert!(t.contains("TOTAL"));
    }

    #[test]
    fn table_covers_the_full_budget_picture() {
        let mut r = Recorder::new();
        r.record(
            "p",
            PhaseReport {
                payload_words: 123,
                max_msg_words: 4,
                wall_ns: 2_500_000,
                ..phase(1, 2, vec![2])
            },
        );
        let t = r.table();
        for col in ["payload-words", "max-w", "wall-ms"] {
            assert!(t.contains(col), "missing column {col} in:\n{t}");
        }
        assert!(t.contains("123"));
        assert!(t.contains("2.500"), "wall_ns rendered as ms:\n{t}");
    }

    #[test]
    fn wall_ns_is_excluded_from_equality() {
        let a = PhaseReport { wall_ns: 10, ..phase(3, 7, vec![1, 6]) };
        let b = PhaseReport { wall_ns: 99_999, ..phase(3, 7, vec![1, 6]) };
        assert_eq!(a, b, "host timing must not break bit-identical comparisons");
        let c = PhaseReport { rounds: 4, ..a.clone() };
        assert_ne!(a, c, "simulated quantities still compare");
        assert_eq!(a.manifest_row().wall_ns, 10, "manifest rows keep the timing");
    }

    #[test]
    fn manifest_rows_and_wall_totals() {
        let mut r = Recorder::new();
        r.record("a", PhaseReport { wall_ns: 5, ..phase(1, 2, vec![2]) });
        r.record("b", PhaseReport { wall_ns: 7, ..phase(3, 4, vec![1, 3]) });
        assert_eq!(r.total_wall_ns(), 12);
        let rows = r.manifest_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].name, "b");
        assert_eq!(rows[1].rounds, 3);
        assert_eq!(rows[1].max_node_congestion, 3);
        assert_eq!(rows[1].wall_ns, 7);
    }
}
