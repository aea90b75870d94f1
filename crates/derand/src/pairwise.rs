//! The pairwise-independent sample space behind Algorithm 2/2′ (§3.2).
//!
//! [`AffineSpace`] is the classical biased construction over GF(q):
//! sample points are pairs (a, b) ∈ GF(q)², and
//! `X_v = [ (a·v + b) mod q < k ]` with k = round(p·q). The X_v are
//! pairwise independent with bias k/q (within 1/q of the requested p).
//! It stands in for the paper's linear-size space (Appendix A.3), because
//! Algorithm 2 samples with bias p = δ/(1+ε)^j < 1/2, which Luby's
//! unbiased GF(2) space cannot express and whose biased linear-size
//! counterpart the paper leaves unspecified. Lemma 3.8's good-point
//! argument needs only pairwise independence and the bias, and a lazy
//! scan in blocks pays only for the blocks it examines before a good
//! point.

use crate::primes::next_prime;

/// Classical affine pairwise-independent space over GF(q) with bias ≈ p:
/// an indexed family of 0/1 assignments `X^{(µ)} : {0..n_vars} -> {0,1}`
/// that is pairwise independent when µ is uniform.
#[derive(Clone, Debug)]
pub struct AffineSpace {
    n_vars: u64,
    q: u64,
    k: u64,
}

impl AffineSpace {
    /// Builds a space for `n_vars` variables with marginal probability as
    /// close to `p` as q permits. `q` is the smallest prime ≥ max(n_vars,
    /// 2/p, 17), so the realized bias `k/q` is within 1/q of `p` and at
    /// least 1/q > 0.
    #[must_use]
    pub fn new(n_vars: u64, p: f64) -> Self {
        assert!(n_vars >= 1);
        assert!((0.0..=1.0).contains(&p), "bias must be a probability, got {p}");
        let lower = (2.0 / p.max(1e-9)).ceil() as u64;
        let q = next_prime(n_vars.max(lower).max(17));
        let k = ((p * q as f64).round() as u64).clamp(1, q - 1);
        AffineSpace { n_vars, q, k }
    }

    /// The field size.
    #[must_use]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The threshold k (bias = k/q).
    #[must_use]
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Number of sample points, q².
    #[must_use]
    pub fn len(&self) -> u64 {
        self.q * self.q
    }

    /// `true` if the space is empty (never: q ≥ 17).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of indexed variables.
    #[must_use]
    pub fn n_vars(&self) -> u64 {
        self.n_vars
    }

    /// Marginal probability `Pr[X_v = 1]`.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.k as f64 / self.q as f64
    }

    /// Evaluates variable `v` under sample point `mu`.
    #[must_use]
    pub fn eval(&self, mu: u64, v: u64) -> bool {
        debug_assert!(mu < self.len() && v < self.n_vars);
        // Enumerate with `a` varying fastest: a = 0 (the degenerate
        // all-or-nothing assignments) appears only once per q points, so
        // fixed-order scans (Algorithm 2′) hit diverse sets immediately.
        let (a, b) = (mu % self.q, mu / self.q);
        let h = (crate::primes::mod_mul(a, v % self.q, self.q) + b) % self.q;
        h < self.k
    }

    /// The set bits of sample point `mu` (the selected set A).
    #[must_use]
    pub fn selected(&self, mu: u64) -> Vec<u64> {
        (0..self.n_vars).filter(|&v| self.eval(mu, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively verify exact pairwise independence: for all pairs
    /// (v, v'), the joint distribution of (X_v, X_v') over the whole space
    /// factorizes.
    fn assert_pairwise_independent(space: &AffineSpace) {
        let n = space.n_vars();
        let m = space.len();
        let ones: Vec<u64> =
            (0..n).map(|v| (0..m).filter(|&mu| space.eval(mu, v)).count() as u64).collect();
        for v in 0..n {
            // exact marginal
            let expect = (space.bias() * m as f64).round() as u64;
            assert_eq!(ones[v as usize], expect, "marginal of X_{v}");
        }
        for v in 0..n {
            for w in (v + 1)..n {
                let both = (0..m).filter(|&mu| space.eval(mu, v) && space.eval(mu, w)).count();
                let expected = ones[v as usize] as u128 * ones[w as usize] as u128;
                assert_eq!(
                    both as u128 * m as u128,
                    expected,
                    "pairwise independence of (X_{v}, X_{w})"
                );
            }
        }
    }

    #[test]
    fn affine_exact_pairwise_independence() {
        // small spaces checked exhaustively
        for (n, p) in [(5u64, 0.25), (8, 0.1), (12, 0.5), (3, 0.07)] {
            let s = AffineSpace::new(n, p);
            assert!(s.n_vars() <= s.q());
            assert_pairwise_independent(&s);
        }
    }

    #[test]
    fn affine_bias_close() {
        let s = AffineSpace::new(50, 0.125);
        assert!((s.bias() - 0.125).abs() <= 1.0 / s.q() as f64);
    }

    #[test]
    fn selected_matches_eval() {
        let s = AffineSpace::new(10, 0.3);
        for mu in [0u64, 1, 7, s.len() - 1] {
            let sel = s.selected(mu);
            for v in 0..10 {
                assert_eq!(sel.contains(&v), s.eval(mu, v));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Exact marginals of the affine space for arbitrary parameters:
        /// every variable is 1 on exactly k·q of the q² points.
        #[test]
        fn affine_exact_marginals(n in 1u64..40, p in 0.01f64..0.9) {
            let s = AffineSpace::new(n, p);
            let v = n - 1;
            let ones = (0..s.len()).filter(|&mu| s.eval(mu, v)).count() as u64;
            prop_assert_eq!(ones, s.k() * s.q());
        }

        /// Exact pairwise independence for random variable pairs (checked
        /// on the full space; q is small for small n).
        #[test]
        fn affine_pairwise_product_rule(n in 2u64..12, p in 0.05f64..0.5, a in 0u64..12, b in 0u64..12) {
            let (a, b) = (a % n, b % n);
            prop_assume!(a != b);
            let s = AffineSpace::new(n, p);
            let both = (0..s.len()).filter(|&mu| s.eval(mu, a) && s.eval(mu, b)).count() as u128;
            prop_assert_eq!(both * (s.len() as u128), (s.k() * s.q()) as u128 * (s.k() * s.q()) as u128);
        }
    }
}
