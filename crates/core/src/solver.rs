//! The unified [`Solver`] facade — one typed entry point for every APSP
//! algorithm in the workspace, configured through a builder:
//!
//! ```
//! use congest_apsp::{Algorithm, Selection, Solver};
//! use congest_graph::generators::{gnm_connected, WeightDist};
//!
//! let g = gnm_connected(16, 32, true, WeightDist::Uniform(0, 9), 42);
//! let out = Solver::builder(&g)
//!     .algorithm(Algorithm::Ar20) // the paper's Õ(n^{4/3}) pipeline
//!     .selection(Selection::Derandomized) // Algorithm 2′ in Step 2
//!     .run()
//!     .unwrap();
//! assert_eq!(out.dist, congest_graph::seq::apsp_dijkstra(&g));
//! ```
//!
//! Every setter has the paper's headline configuration as its default,
//! so `Solver::builder(&g).run()` is the deterministic Õ(n^{4/3}) result:
//! Ar20 with Algorithm 2′ in Step 2 and the pipelined Algorithms 8–9 in
//! Step 6. [`Solver::run`] is the one frame around all three algorithms:
//! it checks the input, builds the topology, the phase ledger and the
//! recovery handle, hands them to the algorithm's driver, and certifies
//! and assembles what the driver returns.

use crate::apsp::{run_ar20, ApspOutcome};
use crate::baselines::{run_ar18, run_naive};
use crate::config::ApspConfig;
use crate::recovery::{final_certificate, Recovery, SolverError};
use congest_derand::{BlockerParams, Selection};
use congest_graph::{Graph, Weight};
use congest_sim::fault::FaultSpec;
use congest_sim::{Recorder, Topology};

/// Which APSP algorithm the [`Solver`] runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Algorithm {
    /// Agarwal–Ramachandran SPAA 2020 — the paper's deterministic
    /// Õ(n^{4/3})-round Algorithm 1 (the default).
    #[default]
    Ar20,
    /// The Õ(n^{3/2}) predecessor (Agarwal, Ramachandran, King &
    /// Pontecorvi, PODC 2018 reconstruction): the greedy blocker set and a
    /// full broadcast. Ignores the selection and the blocker constants.
    Ar18,
    /// One full Bellman–Ford per source — the folklore O(n²) baseline.
    /// Ignores the selection and the blocker constants.
    Naive,
}

/// Builder for a [`Solver`]; obtained via [`Solver::builder`].
#[derive(Clone, Debug)]
pub struct SolverBuilder<'g, W: Weight> {
    solver: Solver<'g, W>,
}

impl<'g, W: Weight> SolverBuilder<'g, W> {
    /// Selects the algorithm (default [`Algorithm::Ar20`]).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.solver.algorithm = algorithm;
        self
    }

    /// Selects Step 2's blocker construction: Algorithm 2′ (default
    /// [`Selection::Derandomized`]) or Algorithm 2 with its seed
    /// ([`Algorithm::Ar20`] only).
    #[must_use]
    pub fn selection(mut self, selection: Selection) -> Self {
        self.solver.selection = selection;
        self
    }

    /// Overrides the hop parameter h (default: the paper's ⌈n^{1/3}⌉).
    #[must_use]
    pub fn hop_param(mut self, h: usize) -> Self {
        self.solver.cfg.h = Some(h);
        self
    }

    /// Sets the blocker-set constants ε, δ ([`Algorithm::Ar20`] only).
    #[must_use]
    pub fn blocker_params(mut self, params: BlockerParams) -> Self {
        self.solver.cfg.blocker = params;
        self
    }

    /// Arms the deterministic fault-injection plane: every pipeline phase
    /// runs under `spec` (reseeded per phase and attempt) with phase-level
    /// detect-and-recover (see [`crate::recovery`]). A successful run's
    /// distances are bit-identical to the fault-free run; an exhausted
    /// retry budget surfaces as
    /// [`SolverError::Unrecoverable`] —
    /// the solver never returns damaged results. An inactive (all-zero)
    /// spec is equivalent to not calling this at all.
    #[must_use]
    pub fn fault_plan(mut self, spec: FaultSpec) -> Self {
        self.solver.cfg.fault = Some(spec);
        self
    }

    /// Sets the per-phase retry budget under an active fault plan
    /// (default 4; ignored without one).
    #[must_use]
    pub fn max_phase_retries(mut self, retries: u32) -> Self {
        self.solver.cfg.max_phase_retries = retries;
        self
    }

    /// Finalizes the configuration into a reusable [`Solver`].
    #[must_use]
    pub fn build(self) -> Solver<'g, W> {
        self.solver
    }

    /// Convenience: [`build`](Self::build) + [`Solver::run`] in one call.
    ///
    /// # Errors
    /// As [`Solver::run`].
    pub fn run(self) -> Result<ApspOutcome<W>, SolverError> {
        self.build().run()
    }
}

/// A fully configured APSP run over a borrowed graph. Reusable: `run` can
/// be called repeatedly (the deterministic configurations are bit-stable
/// across calls).
#[derive(Clone, Debug)]
pub struct Solver<'g, W: Weight> {
    g: &'g Graph<W>,
    cfg: ApspConfig,
    algorithm: Algorithm,
    selection: Selection,
}

impl<'g, W: Weight> Solver<'g, W> {
    /// Starts a builder over `g` with the paper's headline defaults:
    /// `Ar20` / `Derandomized`, h = ⌈n^{1/3}⌉.
    #[must_use]
    pub fn builder(g: &'g Graph<W>) -> SolverBuilder<'g, W> {
        SolverBuilder {
            solver: Solver {
                g,
                cfg: ApspConfig::default(),
                algorithm: Algorithm::default(),
                selection: Selection::default(),
            },
        }
    }

    /// The configured algorithm.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Runs the configured algorithm to completion.
    ///
    /// # Errors
    /// [`SolverError::InvalidBlockerParams`] when [`Algorithm::Ar20`] is
    /// given blocker constants out of range, before any phase runs and
    /// before connectivity is checked; [`SolverError::Disconnected`] when
    /// the communication graph is disconnected; [`SolverError::Sim`] on an
    /// engine abort without a fault plan; [`SolverError::Unrecoverable`]
    /// when an armed fault plan defeats the per-phase retry budget. Never
    /// damaged results: a successful outcome is bit-identical to the
    /// fault-free run.
    pub fn run(&self) -> Result<ApspOutcome<W>, SolverError> {
        let span = congest_telemetry::with(|t| t.span_start("solver.run"));
        let (g, cfg) = (self.g, &self.cfg);
        let result = (|| {
            // Ar20's Step 2 and Step 6's Q′ both run Algorithm 2 on these
            // constants; Ar18 and Naive never read them.
            if self.algorithm == Algorithm::Ar20 && !cfg.blocker.in_range() {
                let BlockerParams { eps, delta } = cfg.blocker;
                return Err(SolverError::InvalidBlockerParams { eps, delta });
            }
            if !g.is_comm_connected() {
                return Err(SolverError::Disconnected);
            }
            let topo = Topology::from_graph(g);
            let (mut rec, mut rc) = (Recorder::new(), Recovery::from_config(cfg));
            let (dist, meta) = match self.algorithm {
                Algorithm::Ar20 => run_ar20(g, &topo, cfg, self.selection, &mut rec, &mut rc),
                Algorithm::Ar18 => run_ar18(g, &topo, &mut rec, &mut rc),
                Algorithm::Naive => run_naive(g, &topo, &mut rec, &mut rc),
            }?;
            // Whole-matrix certificate (fault-active runs only): zero
            // diagonal, relaxation fixed point, successor telescoping.
            final_certificate(g, &dist, &rc)?;
            Ok(ApspOutcome { dist, recorder: rec, meta, fault_report: rc.report() })
        })();
        if let Some(id) = span {
            // Emit the per-phase slices (span names = `Recorder` phase
            // labels), then close the solver span annotated with the
            // configuration and the recovery outcome.
            let tele = congest_telemetry::global();
            match &result {
                Ok(out) => {
                    out.recorder.trace_phases();
                    tele.span_end_with(id, self.span_attrs(out));
                }
                Err(e) => tele.span_end_with(id, vec![("error".to_string(), e.to_string())]),
            }
        }
        result
    }

    /// Solver-span annotations: algorithm, selection, recovery outcome.
    fn span_attrs(&self, out: &ApspOutcome<W>) -> Vec<(String, String)> {
        let fr = out.fault_report;
        let mut attrs = vec![
            ("algorithm".to_string(), format!("{:?}", self.algorithm)),
            ("selection".to_string(), format!("{:?}", self.selection)),
            ("n".to_string(), self.g.n().to_string()),
            ("h".to_string(), out.meta.h.to_string()),
            ("retries".to_string(), fr.retries.to_string()),
            ("sentinel_trips".to_string(), fr.sentinel_trips.to_string()),
        ];
        if fr.faults.injected > 0 {
            attrs.push(("faults_injected".to_string(), fr.faults.injected.to_string()));
            attrs.push(("rounds_lost".to_string(), fr.rounds_lost.to_string()));
        }
        attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    fn graph() -> Graph<u64> {
        gnm_connected(14, 28, true, WeightDist::Uniform(0, 9), 11)
    }

    #[test]
    fn defaults_are_the_paper_configuration() {
        let g = graph();
        let out = Solver::builder(&g).run().unwrap();
        assert_eq!(out.dist, apsp_dijkstra(&g));
        assert_eq!(out.meta.h, 3); // ceil(14^{1/3})
        assert!(out.recorder.phases().len() > 1, "per-phase detail by default");
    }

    #[test]
    fn every_algorithm_is_exact() {
        let g = graph();
        let oracle = apsp_dijkstra(&g);
        for algorithm in [Algorithm::Ar20, Algorithm::Ar18, Algorithm::Naive] {
            let out = Solver::builder(&g).algorithm(algorithm).run().unwrap();
            assert_eq!(out.dist, oracle, "{algorithm:?}");
        }
    }

    #[test]
    fn builder_knobs_reach_the_config() {
        let g = graph();
        let solver = Solver::builder(&g)
            .hop_param(2)
            .selection(Selection::Randomized { seed: 7 })
            .blocker_params(BlockerParams { eps: 0.05, delta: 0.05 })
            .build();
        let out = solver.run().unwrap();
        assert_eq!(out.meta.h, 2);
        assert_eq!(out.dist, apsp_dijkstra(&g));
    }

    /// The frame checks Ar20's constants before connectivity, and only
    /// Ar20's: on a disconnected graph with out-of-range constants, Ar20
    /// refuses the constants while Ar18 and Naive report the graph.
    #[test]
    fn the_frame_checks_constants_before_connectivity() {
        let g: Graph<u64> = Graph::from_edges(4, true, vec![congest_graph::Edge::new(0, 1, 1)]);
        let bad = BlockerParams { eps: 0.5, delta: 0.1 };
        let run = |algorithm| Solver::builder(&g).algorithm(algorithm).blocker_params(bad).run();
        assert!(matches!(
            run(Algorithm::Ar20),
            Err(SolverError::InvalidBlockerParams { eps, delta }) if (eps, delta) == (0.5, 0.1)
        ));
        for algorithm in [Algorithm::Ar18, Algorithm::Naive] {
            assert!(matches!(run(algorithm), Err(SolverError::Disconnected)), "{algorithm:?}");
        }
    }

    #[test]
    fn solver_is_reusable_and_deterministic() {
        let g = graph();
        let solver = Solver::builder(&g).build();
        let a = solver.run().unwrap();
        let b = solver.run().unwrap();
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.recorder.total_rounds(), b.recorder.total_rounds());
    }
}
