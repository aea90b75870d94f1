//! Deprecated free-function shims for the pre-[`Solver`](crate::Solver)
//! API.
//!
//! These delegate to the same engines the builder runs, so results are
//! bit-identical; they exist only so downstream code can migrate
//! mechanically. The workspace itself builds with `deny(deprecated)` —
//! this module is the single place the shims may live (and its tests the
//! single place they may be called).
//!
//! | old call | new call |
//! |---|---|
//! | `apsp_agarwal_ramachandran(&g, &cfg, m, s)` | `Solver::builder(&g).config(cfg).blocker_method(m).step6_method(s).run()` |
//! | `apsp_ar18(&g, &cfg)` | `Solver::builder(&g).algorithm(Algorithm::Ar18).config(cfg).run()` |
//! | `apsp_naive(&g, &cfg)` | `Solver::builder(&g).algorithm(Algorithm::Naive).config(cfg).run()` |
//!
//! ## Migration note: Step-7 successor tracking
//!
//! Since the Step-7 tracking change, `ApspConfig` carries a
//! `track_successors` field (default **on**) and the outcome's `dist`
//! carries a target-major successor plane that
//! `congest_oracle::Oracle::from_dist` adopts without re-derivation.
//! Callers of the shims observe three differences:
//!
//! * `ApspConfig` struct literals need the new field (or
//!   `..Default::default()`).
//! * Distances are bit-identical with tracking on or off, but the wire
//!   payload is one id word wider per relax/push message — visible in the
//!   recorder's new `payload_words` / `max_msg_words` accounting, not in
//!   rounds or message counts.
//! * Code that wants the pre-tracking behavior (distances only, oracle
//!   derives successors) sets `track_successors: false` — or
//!   `Solver::builder(&g).track_successors(false)` on the builder path.

#![allow(deprecated)]

use crate::apsp::{ApspOutcome, BlockerMethod, Step6Method};
use crate::config::ApspConfig;
use crate::recovery::SolverError;
use congest_graph::{Graph, Weight};
use congest_sim::SimError;

/// The shims predate the fault plane and keep their [`SimError`] return
/// type; fault-injection runs must go through the [`Solver`](crate::Solver)
/// API, whose [`SolverError`] can express an exhausted recovery budget.
fn downgrade<T>(res: Result<T, SolverError>) -> Result<T, SimError> {
    res.map_err(|e| match e {
        SolverError::Sim(e) => e,
        SolverError::Unrecoverable { .. } => {
            unreachable!("recovery only arms with cfg.fault set, which the shims reject up front")
        }
        SolverError::Disconnected => panic!("CONGEST algorithms need a connected network"),
    })
}

fn reject_fault_plan(cfg: &ApspConfig) {
    assert!(
        cfg.fault.is_none(),
        "fault injection requires the Solver API (Solver::builder(..).fault_plan(..))"
    );
}

/// Runs Algorithm 1 (the paper's Õ(n^{4/3}) APSP).
///
/// # Errors
/// Propagates engine errors.
///
/// # Panics
/// Panics if the communication graph is disconnected, or if `cfg.fault`
/// is set (fault-injection runs must use the `Solver` API).
#[deprecated(
    since = "0.1.0",
    note = "use `Solver::builder(&g).blocker_method(..).step6_method(..).run()` instead"
)]
pub fn apsp_agarwal_ramachandran<W: Weight>(
    g: &Graph<W>,
    cfg: &ApspConfig,
    method: BlockerMethod,
    step6: Step6Method,
) -> Result<ApspOutcome<W>, SimError> {
    reject_fault_plan(cfg);
    downgrade(crate::apsp::run_ar20(g, cfg, method, step6))
}

/// Runs the Õ(n^{3/2}) AR18-style baseline.
///
/// # Errors
/// Propagates engine errors.
///
/// # Panics
/// Panics if the communication graph is disconnected, or if `cfg.fault`
/// is set (fault-injection runs must use the `Solver` API).
#[deprecated(
    since = "0.1.0",
    note = "use `Solver::builder(&g).algorithm(Algorithm::Ar18).run()` instead"
)]
pub fn apsp_ar18<W: Weight>(g: &Graph<W>, cfg: &ApspConfig) -> Result<ApspOutcome<W>, SimError> {
    reject_fault_plan(cfg);
    downgrade(crate::baselines::run_ar18(g, cfg))
}

/// Runs one full Bellman–Ford per source (the naive O(n²) baseline).
///
/// # Errors
/// Propagates engine errors.
///
/// # Panics
/// Panics if the communication graph is disconnected, or if `cfg.fault`
/// is set (fault-injection runs must use the `Solver` API).
#[deprecated(
    since = "0.1.0",
    note = "use `Solver::builder(&g).algorithm(Algorithm::Naive).run()` instead"
)]
pub fn apsp_naive<W: Weight>(g: &Graph<W>, cfg: &ApspConfig) -> Result<ApspOutcome<W>, SimError> {
    reject_fault_plan(cfg);
    downgrade(crate::baselines::run_naive(g, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Algorithm, Solver};
    use congest_graph::generators::{gnm_connected, WeightDist};

    /// The shims must stay bit-identical to the builder path they wrap.
    #[test]
    fn shims_match_solver() {
        let g = gnm_connected(13, 26, true, WeightDist::Uniform(0, 9), 5);
        let cfg = ApspConfig::default();
        let via_shim = apsp_agarwal_ramachandran(
            &g,
            &cfg,
            BlockerMethod::Derandomized,
            Step6Method::Pipelined,
        )
        .unwrap();
        let via_solver = Solver::builder(&g).run().unwrap();
        assert_eq!(via_shim.dist, via_solver.dist);
        assert_eq!(via_shim.recorder.total_rounds(), via_solver.recorder.total_rounds());

        let ar18 = apsp_ar18(&g, &cfg).unwrap();
        assert_eq!(ar18.dist, Solver::builder(&g).algorithm(Algorithm::Ar18).run().unwrap().dist);
        let naive = apsp_naive(&g, &cfg).unwrap();
        assert_eq!(naive.dist, Solver::builder(&g).algorithm(Algorithm::Naive).run().unwrap().dist);
    }
}
