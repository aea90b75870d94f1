//! The compute half of every workload: `Solver::run` for Ar20, Ar18 and
//! Naive on seeded graphs, each result checked against Dijkstra, and a
//! ledger that files every recorded phase under the step (and so the
//! crate) that ran it.

use crate::{stats, Metrics};
use congest_apsp::{Algorithm, ApspMeta, Solver};
use congest_graph::{DistMatrix, Graph};
use congest_oracle::IntoOracle;
use congest_sim::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// The algorithms every workload runs, in order, with their metric prefix.
pub const ALGORITHMS: [(Algorithm, &str); 3] =
    [(Algorithm::Ar20, "ar20"), (Algorithm::Ar18, "ar18"), (Algorithm::Naive, "naive")];

/// One checked `Solver::run`.
pub struct Solve {
    pub alg: &'static str,
    pub wall_ns: u64,
    pub recorder: Recorder,
    pub meta: ApspMeta,
}

/// Runs `alg` on `g` with the paper's defaults and checks the outcome:
/// distances equal `reference` (Dijkstra), and Ar20's successor plane is
/// adopted by `into_oracle` without a single reverse-BFS derivation.
pub fn solve_checked(
    g: &Graph<u64>,
    reference: &DistMatrix<u64>,
    (alg, name): (Algorithm, &'static str),
) -> Result<Solve, String> {
    let t0 = Instant::now();
    let mut out =
        Solver::builder(g).algorithm(alg).run().map_err(|e| format!("{name} failed: {e}"))?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    if out.dist != *reference {
        return Err(format!("{name} distances differ from Dijkstra"));
    }
    let recorder = std::mem::take(&mut out.recorder);
    let meta = std::mem::take(&mut out.meta);
    if alg == Algorithm::Ar20 {
        let before = congest_oracle::successor_derivations();
        let oracle = out.into_oracle(g);
        let derived = congest_oracle::successor_derivations() - before;
        if derived != 0 || oracle.n() != g.n() {
            return Err(format!("ar20 into_oracle derived {derived} successor planes, expected 0"));
        }
    }
    Ok(Solve { alg: name, wall_ns, recorder, meta })
}

/// The step a recorded phase label belongs to: `step1`..`step7` for the
/// Ar20 and Ar18 pipelines (Ar18 labels carry an `ar18/` prefix; the
/// bottleneck pruning runs inside Step 6), `sssp` for Naive's per-source
/// runs, and `other` for anything unrecognised, which is reported, never
/// dropped.
pub fn step_of(label: &str) -> &'static str {
    let l = label.strip_prefix("ar18/").unwrap_or(label);
    if l.starts_with("bottleneck: ") {
        return "step6";
    }
    if l.starts_with("naive: SSSP(") {
        return "sssp";
    }
    if !l.starts_with("step") {
        return "other";
    }
    match l.as_bytes().get(4) {
        Some(b'1') => "step1",
        Some(b'2') => "step2",
        Some(b'3') => "step3",
        Some(b'4') => "step4",
        Some(b'5') => "step5",
        Some(b'6') => "step6",
        Some(b'7') => "step7",
        _ => "other",
    }
}

/// The code that does a step's work.
pub fn layer_of(step: &str) -> &'static str {
    match step {
        "step1" => "congest_apsp::csssp",
        "step2" => "congest_apsp::blocker+trees, congest_derand",
        "step3" | "sssp" => "congest_apsp::bf",
        "step4" => "congest_sim::primitives::flood",
        "step5" => "orchestration (local)",
        "step6" => "congest_apsp::pipeline",
        "step7" => "congest_apsp::extension",
        _ => "unclassified",
    }
}

/// Rounds, messages and host time summed over a set of phases.
#[derive(Clone, Copy, Default)]
pub struct Bucket {
    pub wall_ns: u64,
    pub rounds: u64,
    pub messages: u64,
    pub phases: u64,
}

impl Bucket {
    fn add(&mut self, wall_ns: u64, rounds: u64, messages: u64) {
        self.wall_ns += wall_ns;
        self.rounds += rounds;
        self.messages += messages;
        self.phases += 1;
    }
}

/// Every phase of one run, grouped by step, plus the two Step-2
/// sub-buckets the flood and convergecast primitives are judged by.
#[derive(Default)]
pub struct Ledger {
    pub steps: BTreeMap<&'static str, Bucket>,
    pub score_flood: Bucket,
    pub convergecast: Bucket,
    pub unmatched: Vec<String>,
}

impl Ledger {
    pub fn of(rec: &Recorder) -> Ledger {
        let mut l = Ledger::default();
        for p in rec.phases() {
            let step = step_of(&p.name);
            l.steps.entry(step).or_default().add(p.wall_ns, p.rounds, p.messages);
            if step == "step2" && p.name.contains("score flood") {
                l.score_flood.add(p.wall_ns, p.rounds, p.messages);
            }
            if step == "step2" && p.name.contains("convergecast") {
                l.convergecast.add(p.wall_ns, p.rounds, p.messages);
            }
            if step == "other" {
                l.unmatched.push(p.name.clone());
            }
        }
        l
    }

    pub fn step(&self, step: &str) -> Bucket {
        self.steps.get(step).copied().unwrap_or_default()
    }

    pub fn wall_ns(&self) -> u64 {
        self.steps.values().map(|b| b.wall_ns).sum()
    }
}

/// End-to-end metrics over the run's solves of one algorithm: rounds and
/// messages, exact per graph, as their mean over the graphs. The mean,
/// not the median: whether a graph makes Ar18 pick a blocker flips its
/// message count by a third, and a median of such a two-valued count
/// jumps between the two values from seed to seed. Wall time is printed
/// (fastest and median) but is not an end-to-end metric: on a shared
/// host it swings by a third from one minute to the next.
pub fn e2e_metrics(solves: &[&Solve], m: &mut Metrics) {
    let alg = solves[0].alg;
    let mut wall: Vec<u64> = solves.iter().map(|s| s.wall_ns).collect();
    wall.sort_unstable();
    let secs = |ns: u64| ns as f64 / 1e9;
    println!(
        "{alg}: solve fastest {:.3} s, median {:.3} s over {} graphs",
        secs(wall[0]),
        secs(stats::quantile(&wall, 0.5)),
        wall.len()
    );
    if alg != "naive" {
        let mean = |count: fn(&Recorder) -> u64| {
            solves.iter().map(|s| count(&s.recorder) as f64).sum::<f64>() / solves.len() as f64
        };
        m.put(&format!("{alg}.rounds"), mean(Recorder::total_rounds), "count");
        m.put(&format!("{alg}.messages"), mean(Recorder::total_messages), "count");
    }
}

/// Per-layer metrics of one traced run of one algorithm:
/// `engine_wall_s + unattributed_s` equals `traced_solve_s` exactly.
/// Returns how many phases no step claims.
pub fn layer_metrics(s: &Solve, m: &mut Metrics) -> usize {
    let alg = s.alg;
    let rec = &s.recorder;
    let l = Ledger::of(rec);
    for label in &l.unmatched {
        eprintln!("perfbench: {alg} phase {label:?} matches no step; filed under other");
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut put = |name: &str, v: f64, unit: &'static str| m.put(&format!("{alg}.{name}"), v, unit);
    put("traced_solve_s", secs(s.wall_ns), "s");
    put("engine_wall_s", secs(rec.total_wall_ns()), "s");
    put("payload_words", rec.total_payload_words() as f64, "count");
    let peak = rec.phases().iter().map(|p| p.peak_in_flight).max().unwrap_or(0);
    put("peak_in_flight", peak as f64, "count");
    put("unattributed_s", (s.wall_ns as f64 - rec.total_wall_ns() as f64) / 1e9, "s");
    match alg {
        "ar20" | "ar18" => {
            let (s1, s2, s3, s4) =
                (l.step("step1"), l.step("step2"), l.step("step3"), l.step("step4"));
            put("step1.rounds", s1.rounds as f64, "count");
            put("step1.messages", s1.messages as f64, "count");
            put("step2.wall_s", secs(s2.wall_ns), "s");
            put("step3.wall_s", secs(s3.wall_ns), "s");
            put("step4.wall_s", secs(s4.wall_ns), "s");
            put("step4.rounds", s4.rounds as f64, "count");
            put("step4.messages", s4.messages as f64, "count");
            if alg == "ar18" {
                put("q_size", s.meta.q.len() as f64, "count");
                return l.unmatched.len();
            }
            put("step2.rounds", s2.rounds as f64, "count");
            put("step2.messages", s2.messages as f64, "count");
            put("step2.score_flood.wall_s", secs(l.score_flood.wall_ns), "s");
            put("step2.score_flood.rounds", l.score_flood.rounds as f64, "count");
            put("step2.score_flood.messages", l.score_flood.messages as f64, "count");
            put("step2.convergecast.wall_s", secs(l.convergecast.wall_ns), "s");
            let b = s.meta.blocker_stats.clone().unwrap_or_default();
            put("blocker.q_size", s.meta.q.len() as f64, "count");
            put("blocker.selection_steps", b.selection_steps as f64, "count");
            put("blocker.sample_points_examined", b.sample_points_examined as f64, "count");
            put("blocker.fallbacks", b.fallbacks as f64, "count");
            let s6 = l.step("step6");
            let st = s.meta.step6.clone().unwrap_or_default();
            put("step6.wall_s", secs(s6.wall_ns), "s");
            put("step6.rounds", s6.rounds as f64, "count");
            put("step6.messages", s6.messages as f64, "count");
            put("step6.round_robin_rounds", st.round_robin_rounds as f64, "count");
            put("step6.q_prime_size", st.q_prime_size as f64, "count");
            put("step6.congestion_after", st.congestion_after as f64, "count");
            put("step7.wall_s", secs(l.step("step7").wall_ns), "s");
        }
        _ => put("sssp.wall_s", secs(l.step("sssp").wall_ns), "s"),
    }
    l.unmatched.len()
}

/// The per-step table of one traced run: host time, its share of the
/// solve, rounds and messages, ending with the unattributed remainder.
pub fn ledger_table(s: &Solve) -> String {
    let l = Ledger::of(&s.recorder);
    let pct = |ns: u64| 100.0 * ns as f64 / s.wall_ns as f64;
    let mut t = format!(
        "{} solve {:.3} s\n  {:<6} {:<44} {:>9} {:>6} {:>9} {:>11}\n",
        s.alg,
        s.wall_ns as f64 / 1e9,
        "step",
        "layer",
        "wall_s",
        "share",
        "rounds",
        "messages"
    );
    for (step, b) in &l.steps {
        t += &format!(
            "  {step:<6} {:<44} {:>9.4} {:>5.1}% {:>9} {:>11}\n",
            layer_of(step),
            b.wall_ns as f64 / 1e9,
            pct(b.wall_ns),
            b.rounds,
            b.messages
        );
    }
    let rest = s.wall_ns.saturating_sub(l.wall_ns());
    t + &format!("  {:<51} {:>9.4} {:>5.1}%\n", "unattributed", rest as f64 / 1e9, pct(rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_bench::workloads::hop_deep;
    use congest_graph::seq::apsp_dijkstra;

    #[test]
    fn current_labels_land_in_their_steps() {
        for (label, step) in [
            ("step1: h-CSSSP for V", "step1"),
            ("step2/alg2: singleton pick: score flood", "step2"),
            ("step2/alg2: scoreij convergecast", "step2"),
            ("step3: h-in-SSSP(17)", "step3"),
            ("step4: QxQ matrix broadcast", "step4"),
            ("step5: local closure over Q", "step5"),
            ("step6/alg9: round-robin push", "step6"),
            ("step6: n^{2/3}-in-CSSSP for Q", "step6"),
            ("step6-trivial: full broadcast", "step6"),
            ("bottleneck: count broadcast #3", "step6"),
            ("step7: extension from 5", "step7"),
            ("ar18/step1: sqrt(n)-CSSSP", "step1"),
            ("ar18/step2/greedy: score broadcast #1", "step2"),
            ("ar18/step3: in-SSSP(4)", "step3"),
            ("ar18/step4: (x, c) table broadcast", "step4"),
            ("ar18/step5: local combine", "step5"),
            ("naive: SSSP(12)", "sssp"),
            ("a renamed phase", "other"),
        ] {
            assert_eq!(step_of(label), step, "{label}");
        }
    }

    /// A real run of every algorithm on a graph where blockers fire files
    /// every phase under a step: a renamed phase fails here instead of
    /// silently leaving the ledger.
    #[test]
    fn every_recorded_phase_is_classified() {
        let g = hop_deep(64, 1);
        let reference = apsp_dijkstra(&g);
        for alg in ALGORITHMS {
            let s = solve_checked(&g, &reference, alg).unwrap();
            let l = Ledger::of(&s.recorder);
            assert!(l.unmatched.is_empty(), "{}: {:?}", s.alg, l.unmatched);
            assert_eq!(l.wall_ns(), s.recorder.total_wall_ns());
            assert_eq!(
                l.steps.values().map(|b| b.phases).sum::<u64>(),
                s.recorder.phases().len() as u64
            );
            if s.alg == "ar20" {
                assert!(!s.meta.q.is_empty(), "blockers must fire for this test to cover step2-6");
                assert!(l.score_flood.phases > 0 && l.convergecast.phases > 0);
            }
        }
    }
}
