//! Shared configuration for the distributed APSP algorithms.
//!
//! No knob here changes how rounds are counted: every phase stops at
//! quiescence (no message in flight, no node active), and its analytical
//! bound serves only as a safety budget, so a recorded round count is
//! what the protocol used.

use congest_derand::BlockerParams;
use congest_sim::fault::FaultSpec;

/// Top-level configuration for the APSP algorithms.
#[derive(Copy, Clone, Debug)]
pub struct ApspConfig {
    /// Hop parameter h; `None` means the paper's h = ⌈n^{1/3}⌉.
    pub h: Option<usize>,
    /// Blocker-set constants ε, δ: Ar20's Step 2 and Step 6's Q′.
    pub blocker: BlockerParams,
    /// Optional fault-injection plan: every pipeline phase runs under this
    /// spec (reseeded per phase and attempt) with phase-level
    /// detect-and-recover (see [`crate::recovery`]). `None` (the default)
    /// means the literal fault-free code path.
    pub fault: Option<FaultSpec>,
    /// Retry budget per phase under an active `fault` plan: a phase may
    /// run up to `1 + max_phase_retries` times before the solver gives up
    /// with [`crate::SolverError::Unrecoverable`]. Ignored without a plan.
    pub max_phase_retries: u32,
}

impl Default for ApspConfig {
    fn default() -> Self {
        ApspConfig { h: None, blocker: BlockerParams::default(), fault: None, max_phase_retries: 4 }
    }
}

impl ApspConfig {
    /// The paper's h = ⌈n^{1/3}⌉ (Algorithm 1 input), or the override.
    #[must_use]
    pub fn hop_param(&self, n: usize) -> usize {
        self.h.unwrap_or_else(|| (n as f64).powf(1.0 / 3.0).ceil() as usize).max(1)
    }

    /// The paper's second-level parameter n^{2/3} used by Algorithms 8/9.
    #[must_use]
    pub fn hop_param_sq(&self, n: usize) -> usize {
        let h = self.hop_param(n);
        (h * h).min(n.saturating_sub(1).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_h_is_cube_root() {
        let cfg = ApspConfig::default();
        assert_eq!(cfg.hop_param(8), 2);
        assert_eq!(cfg.hop_param(27), 3);
        assert_eq!(cfg.hop_param(28), 4); // ceil
        assert_eq!(cfg.hop_param(1), 1);
    }

    #[test]
    fn h_override() {
        let cfg = ApspConfig { h: Some(5), ..Default::default() };
        assert_eq!(cfg.hop_param(1000), 5);
        assert_eq!(cfg.hop_param_sq(1000), 25);
    }

    #[test]
    fn hop_sq_capped_by_n() {
        let cfg = ApspConfig { h: Some(10), ..Default::default() };
        assert_eq!(cfg.hop_param_sq(20), 19);
    }
}
