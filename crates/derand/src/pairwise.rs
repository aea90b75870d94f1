//! Pairwise-independent sample spaces.
//!
//! Two constructions back the paper's derandomization (§3.2, Appendix A.3):
//!
//! 1. [`Gf2Space`] — Luby's linear-size space: pick l with 2n < 2^l ≤ 4n,
//!    associate with index i the l-bit vector of 2i+1 (last bit forced to
//!    1, exactly the paper's encoding), and for a sample point z ∈ {0,1}^l
//!    set `X_i(z) = ⊕_k (i_k · z_k)`. The X_i are uniform on {0,1} and
//!    pairwise independent. This is the construction the paper cites; it
//!    produces *unbiased* (p = 1/2) bits.
//!
//! 2. [`AffineSpace`] — the classical biased construction over GF(q):
//!    sample points are pairs (a, b) ∈ GF(q)², and
//!    `X_v = [ (a·v + b) mod q < k ]` with k = round(p·q). The X_v are
//!    pairwise independent with bias k/q (within 1/q of the requested p).
//!    Algorithm 2 samples with bias p = δ/(1+ε)^j < 1/2, which the GF(2)
//!    space cannot express; the paper leaves the biased linear-size space
//!    unspecified, so we use this classical q²-point space and enumerate it
//!    lazily in blocks. Lemma 3.8's good-point argument needs only pairwise
//!    independence and the bias, which this space provides, and the lazy
//!    scan pays only for the blocks it examines before a good point.

use crate::primes::next_prime;

/// Common interface of the two sample spaces: an indexed family of 0/1
/// assignments `X^{(µ)} : {0..n_vars} -> {0,1}` that is pairwise
/// independent when µ is uniform.
pub trait SampleSpace {
    /// Number of sample points.
    fn len(&self) -> u64;
    /// `true` if the space is empty (never the case in practice).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Number of indexed variables.
    fn n_vars(&self) -> u64;
    /// Marginal probability `Pr[X_v = 1]`.
    fn bias(&self) -> f64;
    /// Evaluates variable `v` under sample point `mu`.
    fn eval(&self, mu: u64, v: u64) -> bool;
    /// The set bits of sample point `mu` (the selected set A).
    fn selected(&self, mu: u64) -> Vec<u64> {
        (0..self.n_vars()).filter(|&v| self.eval(mu, v)).collect()
    }
}

/// Luby's GF(2) space (Appendix A.3): size 2^l with 2n < 2^l ≤ 4n.
#[derive(Clone, Debug)]
pub struct Gf2Space {
    n_vars: u64,
    l: u32,
}

impl Gf2Space {
    /// Builds the space for `n_vars` variables.
    #[must_use]
    pub fn new(n_vars: u64) -> Self {
        assert!(n_vars >= 1);
        // smallest l with 2^l > 2n  (then 2^l <= 4n automatically)
        let l = 64 - (2 * n_vars).leading_zeros();
        Gf2Space { n_vars, l }
    }

    /// The string length l (for inspection in tests).
    #[must_use]
    pub fn l(&self) -> u32 {
        self.l
    }
}

impl SampleSpace for Gf2Space {
    fn len(&self) -> u64 {
        1u64 << self.l
    }
    fn n_vars(&self) -> u64 {
        self.n_vars
    }
    fn bias(&self) -> f64 {
        0.5
    }
    fn eval(&self, mu: u64, v: u64) -> bool {
        debug_assert!(mu < self.len() && v < self.n_vars);
        // index vector: binary encoding of v with last bit forced to 1
        let iv = (v << 1) | 1;
        ((iv & mu).count_ones() & 1) == 1
    }
}

/// Classical affine pairwise-independent space over GF(q) with bias ≈ p.
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
}

impl SampleSpace for AffineSpace {
    fn len(&self) -> u64 {
        self.q * self.q
    }
    fn n_vars(&self) -> u64 {
        self.n_vars
    }
    fn bias(&self) -> f64 {
        self.k as f64 / self.q as f64
    }
    fn eval(&self, mu: u64, v: u64) -> bool {
        debug_assert!(mu < self.len() && v < self.n_vars);
        // Enumerate with `a` varying fastest: a = 0 (the degenerate
        // all-or-nothing assignments) appears only once per q points, so
        // fixed-order scans (Algorithm 2′) hit diverse sets immediately.
        let (a, b) = (mu % self.q, mu / self.q);
        let h = (crate::primes::mod_mul(a, v % self.q, self.q) + b) % self.q;
        h < self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively verify exact pairwise independence: for all pairs
    /// (v, v'), the joint distribution of (X_v, X_v') over the whole space
    /// factorizes.
    fn assert_pairwise_independent(space: &impl SampleSpace) {
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
    fn gf2_space_size_in_range() {
        for n in [1u64, 2, 3, 5, 8, 17, 100] {
            let s = Gf2Space::new(n);
            assert!(s.len() > 2 * n, "n={n}: {} <= 2n", s.len());
            assert!(s.len() <= 4 * n.max(1), "n={n}: {} > 4n", s.len());
        }
    }

    #[test]
    fn gf2_exact_pairwise_independence() {
        for n in [2u64, 5, 9, 16] {
            assert_pairwise_independent(&Gf2Space::new(n));
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

    #[test]
    fn gf2_expected_set_size_near_half() {
        let s = Gf2Space::new(20);
        let total: u64 = (0..s.len()).map(|mu| s.selected(mu).len() as u64).sum();
        let avg = total as f64 / s.len() as f64;
        assert!((avg - 10.0).abs() < 0.51, "avg = {avg}");
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

        /// GF(2) space: XOR-linearity makes each variable exactly balanced.
        #[test]
        fn gf2_balanced(n in 1u64..200, v in 0u64..200) {
            let v = v % n;
            let s = Gf2Space::new(n);
            let ones = (0..s.len()).filter(|&mu| s.eval(mu, v)).count() as u64;
            prop_assert_eq!(ones * 2, s.len());
        }
    }
}
