//! Differential fault-matrix contract tests.
//!
//! The recovery contract: under ANY seeded fault plan, `Solver::run`
//! either returns distances (and successor plane, and recorded rounds)
//! bit-identical to the fault-free run, or the typed
//! `SolverError::Unrecoverable` — never silently wrong answers, never a
//! hang, never a raw engine error once a plan is armed. With no plan (or
//! an all-zero plan) the fast path must be byte-identical to today,
//! including an all-zero `FaultReport`.
//!
//! One test per fault kind (drop / corrupt / crash / flap) so CI can run
//! them as a matrix: `cargo test --test fault_matrix fault_matrix_drop`.

use congest_apsp::{Algorithm, FaultReport, Solver, SolverError};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::NodeId;
use congest_sim::fault::FaultSpec;
use std::fmt::Write as _;

const SEEDS: [u64; 4] = [3, 17, 71, 104_729];

/// The four fault kinds of the matrix.
const KINDS: [&str; 4] = ["drop", "corrupt", "crash", "flap"];

/// The plan of fault kind `kind` on the matrix graph of `seed`.
fn spec(kind: &str, seed: u64) -> FaultSpec {
    match kind {
        "drop" => FaultSpec::seeded(seed ^ 0xD0).drops(150),
        "corrupt" => FaultSpec::seeded(seed ^ 0xC0).corruption(150),
        "crash" => FaultSpec::seeded(seed ^ 0xCA).crashes(4_000, 64),
        "flap" => FaultSpec::seeded(seed ^ 0xF1).flaps(4_000, 64),
        other => unreachable!("no fault kind {other}"),
    }
}

/// Runs the solver clean and under `spec` on the same graph, asserting
/// the recover-or-refuse contract. Returns `true` when the faulted run
/// observably hit the fault plane (recovered injections or a typed
/// refusal), so callers can assert the matrix was not vacuous.
fn recovered_or_refused(algorithm: Algorithm, seed: u64, spec: FaultSpec) -> bool {
    let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 9), seed);
    let clean = Solver::builder(&g).algorithm(algorithm).run().unwrap();
    let faulted =
        Solver::builder(&g).algorithm(algorithm).fault_plan(spec).max_phase_retries(8).run();
    match faulted {
        Ok(out) => {
            // Recovered: every accepted phase ran fault-free, so the
            // result — distances, successor plane, even the per-phase
            // round accounting — must be bit-identical to the clean run.
            assert_eq!(out.dist, clean.dist, "seed {seed}: recovered distances differ");
            for u in 0..18u32 {
                for v in 0..18u32 {
                    assert_eq!(
                        out.dist.successor(u, v),
                        clean.dist.successor(u, v),
                        "seed {seed}: successor plane diverged at ({u}, {v})"
                    );
                }
            }
            assert_eq!(
                out.recorder.total_rounds(),
                clean.recorder.total_rounds(),
                "seed {seed}: accepted attempts must cost the clean round count"
            );
            let rep = out.fault_report;
            if rep.is_clean() {
                assert_eq!(rep, FaultReport::default());
                false
            } else {
                // Either the merged counters saw injections, or an
                // attempt died mid-run (its counters are lost with the
                // aborted engine) and was retried.
                assert!(
                    rep.faults.injected > 0 || rep.retries > 0,
                    "seed {seed}: unclean report with no witness: {rep:?}"
                );
                assert!(rep.retries >= rep.phases_retried, "seed {seed}: {rep:?}");
                true
            }
        }
        // Typed refusal is the other permitted outcome.
        Err(SolverError::Unrecoverable { phase, attempts, .. }) => {
            assert!(!phase.is_empty());
            assert!(attempts > 0);
            true
        }
        Err(SolverError::Sim(e)) => {
            panic!("seed {seed}: armed plan must never leak a raw engine error: {e}")
        }
        Err(SolverError::Disconnected) => unreachable!("matrix graphs are connected"),
        Err(SolverError::InvalidBlockerParams { .. }) => unreachable!("default constants"),
    }
}

/// Asserts the contract across all seeds and that at least one seed
/// actually exercised the fault plane (otherwise the rates are too low
/// and the matrix proves nothing).
fn run_matrix(kind: &str) {
    let mut exercised = false;
    for seed in SEEDS {
        exercised |= recovered_or_refused(Algorithm::Ar20, seed, spec(kind, seed));
    }
    assert!(exercised, "{kind}: no seed injected a single fault — raise the rates");
}

#[test]
fn fault_matrix_drop() {
    run_matrix("drop");
}

#[test]
fn fault_matrix_corrupt() {
    run_matrix("corrupt");
}

#[test]
fn fault_matrix_crash() {
    run_matrix("crash");
}

#[test]
fn fault_matrix_flap() {
    run_matrix("flap");
}

/// What recovery absorbed is pinned run by run: Ar20, Ar18 and Naive on
/// every matrix graph under every fault kind, at retry budgets 8 and 1,
/// one line per run (its `FaultReport`, or the phase that refused and its
/// attempts). A change that moves a report on purpose regenerates
/// `tests/golden/fault_reports.txt` from the lines this test prints
/// (`cargo test --test fault_matrix fault_reports_are_pinned --
/// --nocapture`) and says why.
#[test]
fn fault_reports_are_pinned() {
    let mut lines = String::new();
    for seed in SEEDS {
        let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 9), seed);
        for algorithm in [Algorithm::Ar20, Algorithm::Ar18, Algorithm::Naive] {
            for kind in KINDS {
                for retries in [8, 1] {
                    let run = Solver::builder(&g)
                        .algorithm(algorithm)
                        .fault_plan(spec(kind, seed))
                        .max_phase_retries(retries)
                        .run();
                    let what = match run {
                        Ok(out) => format!("{:?}", out.fault_report),
                        Err(SolverError::Unrecoverable { phase, attempts, .. }) => {
                            format!("unrecoverable in {phase:?} after {attempts} attempts")
                        }
                        Err(e) => panic!("{algorithm:?} seed {seed} {kind}: {e}"),
                    };
                    let _ = writeln!(
                        lines,
                        "{algorithm:?} seed {seed} {kind} retries {retries}: {what}"
                    );
                }
            }
        }
    }
    print!("{lines}");
    let golden = include_str!("golden/fault_reports.txt");
    assert_eq!(lines.lines().count(), golden.lines().count(), "run count");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
}

/// A mixed plan across the other two algorithm engines: the contract is
/// solver-wide, not AR20-specific.
#[test]
fn fault_matrix_all_algorithms() {
    for algorithm in [Algorithm::Naive, Algorithm::Ar18] {
        let spec = FaultSpec::seeded(99).drops(80).corruption(80);
        let _ = recovered_or_refused(algorithm, 5, spec);
    }
}

/// An armed-but-all-zero plan must take the clean fast path: outcome
/// byte-identical to a plan-less run, report all zeros.
#[test]
fn fault_matrix_zero_rates_are_byte_identical() {
    let g = gnm_connected(16, 32, true, WeightDist::Uniform(0, 9), 12);
    let clean = Solver::builder(&g).run().unwrap();
    let armed = Solver::builder(&g).fault_plan(FaultSpec::seeded(7)).run().unwrap();
    assert_eq!(armed.dist, clean.dist);
    assert_eq!(armed.recorder.total_rounds(), clean.recorder.total_rounds());
    assert_eq!(armed.fault_report, FaultReport::default());
    assert_eq!(clean.fault_report, FaultReport::default());
}

/// Recovery must be deterministic: the same graph + plan + knobs give the
/// same outcome AND the same fault accounting, run after run.
#[test]
fn fault_matrix_runs_are_reproducible() {
    let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 9), 31);
    let spec = FaultSpec::seeded(41).drops(200).corruption(100);
    let run = || Solver::builder(&g).fault_plan(spec).max_phase_retries(8).run();
    match (run(), run()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.fault_report, b.fault_report);
            assert_eq!(a.recorder.total_rounds(), b.recorder.total_rounds());
        }
        (
            Err(SolverError::Unrecoverable { phase: a, .. }),
            Err(SolverError::Unrecoverable { phase: b, .. }),
        ) => {
            assert_eq!(a, b);
        }
        (a, b) => panic!("non-deterministic recovery: {a:?} vs {b:?}"),
    }
}

/// With retries forbidden, any injected fault must surface as the typed
/// refusal — and the error names the phase that failed.
#[test]
fn fault_matrix_zero_retries_refuses() {
    let g = gnm_connected(18, 40, true, WeightDist::Uniform(0, 9), 3);
    // Aggressive drops: some phase will certainly see an injection.
    let res = Solver::builder(&g)
        .fault_plan(FaultSpec::seeded(13).drops(50_000))
        .max_phase_retries(0)
        .run();
    match res {
        Err(SolverError::Unrecoverable { phase, attempts, .. }) => {
            assert!(!phase.is_empty());
            assert_eq!(attempts, 1);
        }
        other => panic!("expected Unrecoverable at retries = 0, got {other:?}"),
    }
}

/// Hop budget sanity for the walk helper used in assertions above.
#[test]
fn fault_matrix_recovered_paths_are_walkable() {
    let g = gnm_connected(18, 40, true, WeightDist::Uniform(1, 9), 17);
    let spec = FaultSpec::seeded(23).drops(150);
    if let Ok(out) = Solver::builder(&g).fault_plan(spec).max_phase_retries(8).run() {
        // Walk each successor chain; it must terminate within n hops.
        for u in 0..18 as NodeId {
            for v in 0..18 as NodeId {
                let mut cur = u;
                let mut hops = 0;
                while cur != v {
                    match out.dist.successor(cur, v) {
                        Some(nxt) => cur = nxt,
                        None => break,
                    }
                    hops += 1;
                    assert!(hops <= 18, "successor cycle at ({u}, {v})");
                }
            }
        }
    }
}
