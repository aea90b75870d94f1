//! Hypergraph set cover: greedy baseline and the Berger–Rompel–Shor (BRS)
//! stage/phase/selection algorithm that the paper's blocker-set algorithm
//! distributes (§3, citing \[4\]).
//!
//! This sequential implementation exists for three reasons: it is a
//! substrate the paper depends on ("we adapt the efficient NC algorithm in
//! Berger et al."); it is an executable specification of the distributed
//! Algorithm 2/2′ in `congest_apsp`; and it lets the sample-space machinery
//! be exercised in isolation. The workspace's `tests/sampled_set_blocker.rs`
//! runs Algorithm 2′ and [`brs_cover`] with [`Selection::Derandomized`] on
//! the same hypergraph of h-hop paths and asserts the same picks in the
//! same order and the same step, pick and sample-point counts. Algorithm 2′
//! scans at most 8 blocks of n sample points per step and falls back to a
//! single node when none is good, while this scan covers the whole space,
//! so the two can part only there.

use crate::pairwise::AffineSpace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A hypergraph: `edges[e]` lists the vertices of hyperedge `e` (deduped).
#[derive(Clone, Debug)]
pub struct Hypergraph {
    /// Number of vertices.
    pub n: usize,
    /// Hyperedges as vertex lists.
    pub edges: Vec<Vec<u32>>,
}

impl Hypergraph {
    /// Builds a hypergraph, deduplicating vertices inside each edge.
    #[must_use]
    pub fn new(n: usize, mut edges: Vec<Vec<u32>>) -> Self {
        for e in &mut edges {
            e.sort_unstable();
            e.dedup();
            assert!(e.iter().all(|&v| (v as usize) < n), "vertex out of range");
            assert!(!e.is_empty(), "empty hyperedge cannot be covered");
        }
        Hypergraph { n, edges }
    }

    /// Maximum edge cardinality.
    #[must_use]
    pub fn max_edge_size(&self) -> usize {
        self.edges.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// `true` iff `cover` hits every edge of `hg`.
#[must_use]
pub fn verify_cover(hg: &Hypergraph, cover: &[u32]) -> bool {
    let mut in_cover = vec![false; hg.n];
    for &v in cover {
        in_cover[v as usize] = true;
    }
    hg.edges.iter().all(|e| e.iter().any(|&v| in_cover[v as usize]))
}

/// Classic greedy set cover (ln-approximation); the paper's size analysis
/// (Lemma 3.10) is relative to this.
#[must_use]
pub fn greedy_cover(hg: &Hypergraph) -> Vec<u32> {
    let mut alive: Vec<bool> = vec![true; hg.edges.len()];
    let mut alive_count = hg.edges.len();
    let mut score = vec![0u64; hg.n];
    for e in &hg.edges {
        for &v in e {
            score[v as usize] += 1;
        }
    }
    let mut cover = Vec::new();
    while alive_count > 0 {
        let best = (0..hg.n).max_by_key(|&v| (score[v], std::cmp::Reverse(v))).unwrap() as u32;
        assert!(score[best as usize] > 0, "uncoverable edge remains");
        cover.push(best);
        for (ei, e) in hg.edges.iter().enumerate() {
            if alive[ei] && e.binary_search(&best).is_ok() {
                alive[ei] = false;
                alive_count -= 1;
                for &v in e {
                    score[v as usize] -= 1;
                }
            }
        }
    }
    cover
}

/// The blocker-set constants ε, δ (paper §3: ε, δ ≤ 1/12), read by
/// [`brs_cover`] and by the distributed Algorithm 2/2′ in `congest_apsp`.
#[derive(Copy, Clone, Debug)]
pub struct BlockerParams {
    /// Stage/phase granularity constant ε.
    pub eps: f64,
    /// Selection probability constant δ.
    pub delta: f64,
}

impl Default for BlockerParams {
    fn default() -> Self {
        BlockerParams { eps: 1.0 / 12.0, delta: 1.0 / 12.0 }
    }
}

impl BlockerParams {
    /// Small-instance preset: with the paper's δ = 1/12, the Step 9
    /// single-node threshold `δ³/(1+ε)·|Pij|` is below 1 unless
    /// |Pij| > ~1700, so at simulable sizes every selection resolves via
    /// the singleton branch and the pairwise-independent sampling path
    /// never runs. This preset raises δ (voiding the constant-factor
    /// guarantees of Lemmas 3.8–3.10 but not correctness) so experiments
    /// can exercise and measure the good-set machinery.
    #[must_use]
    pub fn exercise_sampling() -> Self {
        BlockerParams { eps: 1.0 / 12.0, delta: 1.0 / 6.0 }
    }

    /// Whether Algorithm 2 accepts these constants: 0 < ε ≤ 0.3,
    /// 0 < δ ≤ 0.3 and 1 − 3δ − ε > 0 (a NaN fails every test). The
    /// paper's guarantees need ε, δ ≤ 1/12; up to 0.3 is accepted for
    /// small-instance experiments, since coverage still progresses while
    /// 1 − 3δ − ε stays positive.
    #[must_use]
    pub fn in_range(&self) -> bool {
        let BlockerParams { eps, delta } = *self;
        eps > 0.0 && eps <= 0.3 && delta > 0.0 && delta <= 0.3 && 1.0 - 3.0 * delta - eps > 0.0
    }
}

/// How selection steps pick a candidate set: Algorithm 2 or Algorithm 2′.
/// [`brs_cover`] and the distributed blocker construction in
/// `congest_apsp` both read it.
#[derive(Copy, Clone, Debug, Default)]
pub enum Selection {
    /// Algorithm 2: draw pairwise-independent sample points at random and
    /// retry until a good set appears (expected ≤ 8 tries, Lemma 3.8).
    Randomized {
        /// RNG seed (the leader's, in the distributed version).
        seed: u64,
    },
    /// Algorithm 2′/7, the paper's deterministic result: scan the affine
    /// sample space in a fixed order and take the first good point.
    #[default]
    Derandomized,
}

/// Counters exposing the quantities bounded by Lemmas 3.8–3.10.
#[derive(Clone, Debug, Default)]
pub struct BrsStats {
    /// Total selection steps (iterations of the Steps 6–16 while loop).
    pub selection_steps: u64,
    /// Steps resolved by the high-coverage single node (Step 10).
    pub singleton_picks: u64,
    /// Steps resolved by a good set A (Steps 12–14).
    pub set_picks: u64,
    /// Sample points examined across all selection steps.
    pub sample_points_examined: u64,
    /// Times no good point was found and the algorithm fell back to the
    /// highest-score node (never observed in practice).
    pub fallbacks: u64,
    /// Sizes |A| of each accepted good set.
    pub good_set_sizes: Vec<usize>,
}

struct BrsState<'h> {
    hg: &'h Hypergraph,
    alive: Vec<bool>,
    alive_count: usize,
    score: Vec<u64>,
    cover: Vec<u32>,
    stats: BrsStats,
}

impl<'h> BrsState<'h> {
    fn new(hg: &'h Hypergraph) -> Self {
        let mut score = vec![0u64; hg.n];
        for e in &hg.edges {
            for &v in e {
                score[v as usize] += 1;
            }
        }
        BrsState {
            hg,
            alive: vec![true; hg.edges.len()],
            alive_count: hg.edges.len(),
            score,
            cover: Vec::new(),
            stats: BrsStats::default(),
        }
    }

    fn add_to_cover(&mut self, nodes: &[u32]) {
        let mut in_set = vec![false; self.hg.n];
        for &v in nodes {
            if !in_set[v as usize] {
                in_set[v as usize] = true;
                self.cover.push(v);
            }
        }
        for (ei, e) in self.hg.edges.iter().enumerate() {
            if self.alive[ei] && e.iter().any(|&v| in_set[v as usize]) {
                self.alive[ei] = false;
                self.alive_count -= 1;
                for &v in e {
                    self.score[v as usize] -= 1;
                }
            }
        }
    }

    /// Edges of Pi (alive, ≥1 vertex in Vi) and how many Vi-vertices each has.
    fn pi_with_counts(&self, in_vi: &[bool]) -> Vec<(usize, usize)> {
        self.hg
            .edges
            .iter()
            .enumerate()
            .filter(|&(ei, _)| self.alive[ei])
            .filter_map(|(ei, e)| {
                let c = e.iter().filter(|&&v| in_vi[v as usize]).count();
                (c > 0).then_some((ei, c))
            })
            .collect()
    }
}

/// Covers covered-count of `set` over the given edge list.
fn coverage(hg: &Hypergraph, edges: &[usize], in_set: &[bool]) -> usize {
    edges.iter().filter(|&&ei| hg.edges[ei].iter().any(|&v| in_set[v as usize])).count()
}

/// The BRS set cover (sequential executable specification of the paper's
/// Algorithm 2 / 2′). Returns the cover and the stats counters.
///
/// # Panics
/// Panics if `params` is out of range ([`BlockerParams::in_range`]) or
/// some edge is empty (uncoverable).
#[must_use]
pub fn brs_cover(
    hg: &Hypergraph,
    params: BlockerParams,
    selection: Selection,
) -> (Vec<u32>, BrsStats) {
    assert!(params.in_range(), "blocker constants out of range: {params:?}");
    let mut st = BrsState::new(hg);
    let one_eps = 1.0 + params.eps;
    let mut rng = match selection {
        Selection::Randomized { seed } => Some(ChaCha8Rng::seed_from_u64(seed)),
        Selection::Derandomized => None,
    };

    let max_score0 = st.score.iter().copied().max().unwrap_or(0);
    if max_score0 == 0 {
        return (st.cover, st.stats);
    }
    let i_start = (max_score0 as f64).log(one_eps).ceil() as i64 + 1;
    let h_max = hg.max_edge_size().max(1);
    let j_start = ((h_max as f64).log(one_eps).ceil() as i64).max(1);

    for i in (1..=i_start).rev() {
        // Invariant: every score < (1+eps)^i.
        let vi_threshold = one_eps.powi(i as i32 - 1);
        for j in (1..=j_start).rev() {
            loop {
                // Recompute Vi and Pi (Steps 3-4 / Step 16).
                let mut in_vi = vec![false; hg.n];
                for (v, flag) in in_vi.iter_mut().enumerate() {
                    if st.score[v] as f64 >= vi_threshold {
                        *flag = true;
                    }
                }
                let pi = st.pi_with_counts(&in_vi);
                if pi.is_empty() {
                    break;
                }
                let pij_threshold = one_eps.powi(j as i32 - 1);
                let pij: Vec<usize> = pi
                    .iter()
                    .filter(|&&(_, c)| c as f64 >= pij_threshold)
                    .map(|&(ei, _)| ei)
                    .collect();
                if pij.is_empty() {
                    break;
                }
                st.stats.selection_steps += 1;

                // scoreij over Pij.
                let mut scoreij = vec![0u64; hg.n];
                for &ei in &pij {
                    for &v in &hg.edges[ei] {
                        if in_vi[v as usize] {
                            scoreij[v as usize] += 1;
                        }
                    }
                }
                let single_threshold = params.delta.powi(3) / one_eps * pij.len() as f64;
                let best = (0..hg.n)
                    .filter(|&v| in_vi[v])
                    .max_by_key(|&v| (scoreij[v], std::cmp::Reverse(v)));
                if let Some(c) = best {
                    if scoreij[c] as f64 > single_threshold {
                        st.stats.singleton_picks += 1;
                        st.add_to_cover(&[c as u32]);
                        continue;
                    }
                }

                // Selection of a good set A over Vi with bias δ/(1+ε)^j.
                let vi_list: Vec<u32> = (0..hg.n as u32).filter(|&v| in_vi[v as usize]).collect();
                let p = params.delta / one_eps.powi(j as i32);
                let space = AffineSpace::new(vi_list.len() as u64, p);
                let pi_edges: Vec<usize> = pi.iter().map(|&(ei, _)| ei).collect();
                #[allow(clippy::type_complexity)]
                let is_good = |sel: &[u64]| -> bool {
                    if sel.is_empty() {
                        return false;
                    }
                    let mut in_set = vec![false; hg.n];
                    for &idx in sel {
                        in_set[vi_list[idx as usize] as usize] = true;
                    }
                    let cov_pi = coverage(hg, &pi_edges, &in_set);
                    let cov_pij = coverage(hg, &pij, &in_set);
                    let need_pi = sel.len() as f64
                        * one_eps.powi(i as i32)
                        * (1.0 - 3.0 * params.delta - params.eps);
                    let need_pij = params.delta / 2.0 * pij.len() as f64;
                    cov_pi as f64 >= need_pi && cov_pij as f64 >= need_pij
                };

                let mut chosen: Option<Vec<u64>> = None;
                match &mut rng {
                    Some(rng) => {
                        // Algorithm 2: retry random sample points.
                        for _ in 0..256 {
                            let mu = rng.gen_range(0..space.len());
                            st.stats.sample_points_examined += 1;
                            let sel = space.selected(mu);
                            if is_good(&sel) {
                                chosen = Some(sel);
                                break;
                            }
                        }
                    }
                    None => {
                        // Algorithm 2′: deterministic scan of the space.
                        for mu in 0..space.len() {
                            st.stats.sample_points_examined += 1;
                            let sel = space.selected(mu);
                            if is_good(&sel) {
                                chosen = Some(sel);
                                break;
                            }
                        }
                    }
                }

                match chosen {
                    Some(sel) => {
                        st.stats.set_picks += 1;
                        st.stats.good_set_sizes.push(sel.len());
                        let nodes: Vec<u32> =
                            sel.iter().map(|&idx| vi_list[idx as usize]).collect();
                        st.add_to_cover(&nodes);
                    }
                    None => {
                        // No good point (possible only on tiny instances
                        // where the non-asymptotic constants bind): fall
                        // back to the greedy pick to preserve progress.
                        st.stats.fallbacks += 1;
                        let c = best.expect("Vi nonempty when Pij nonempty") as u32;
                        st.add_to_cover(&[c]);
                    }
                }
            }
        }
        if st.alive_count == 0 {
            break;
        }
    }
    debug_assert_eq!(st.alive_count, 0, "BRS must cover everything");
    (st.cover, st.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_hypergraph(n: usize, m: usize, max_size: usize, seed: u64) -> Hypergraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges = (0..m)
            .map(|_| {
                let size = rng.gen_range(1..=max_size);
                (0..size).map(|_| rng.gen_range(0..n) as u32).collect()
            })
            .collect();
        Hypergraph::new(n, edges)
    }

    #[test]
    fn greedy_covers() {
        let hg = random_hypergraph(30, 60, 5, 1);
        let cover = greedy_cover(&hg);
        assert!(verify_cover(&hg, &cover));
    }

    #[test]
    fn greedy_is_minimal_on_disjoint_edges() {
        let hg = Hypergraph::new(6, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        let cover = greedy_cover(&hg);
        assert_eq!(cover.len(), 3);
    }

    #[test]
    fn brs_randomized_covers() {
        for seed in 0..5 {
            let hg = random_hypergraph(40, 80, 6, seed);
            let (cover, stats) =
                brs_cover(&hg, BlockerParams::default(), Selection::Randomized { seed });
            assert!(verify_cover(&hg, &cover), "seed {seed}");
            assert!(stats.selection_steps > 0);
        }
    }

    #[test]
    fn brs_derandomized_covers_and_is_deterministic() {
        let hg = random_hypergraph(35, 70, 5, 9);
        let (c1, s1) = brs_cover(&hg, BlockerParams::default(), Selection::Derandomized);
        let (c2, _) = brs_cover(&hg, BlockerParams::default(), Selection::Derandomized);
        assert!(verify_cover(&hg, &c1));
        assert_eq!(c1, c2, "derandomized run must be deterministic");
        assert_eq!(s1.fallbacks + s1.set_picks + s1.singleton_picks, s1.selection_steps);
    }

    #[test]
    fn brs_size_comparable_to_greedy() {
        // Lemma 3.10: BRS cover ≤ 1/(1-3δ-ε) · greedy ≈ 1.5x, plus the
        // O(log³) singleton picks; allow a loose 4x on small instances.
        let mut total_brs = 0usize;
        let mut total_greedy = 0usize;
        for seed in 0..8 {
            let hg = random_hypergraph(50, 120, 6, 100 + seed);
            let g = greedy_cover(&hg);
            let (b, _) = brs_cover(&hg, BlockerParams::default(), Selection::Derandomized);
            total_brs += b.len();
            total_greedy += g.len();
        }
        assert!(total_brs <= 4 * total_greedy, "BRS {total_brs} vs greedy {total_greedy}");
    }

    #[test]
    fn brs_selection_steps_polylog() {
        let hg = random_hypergraph(60, 200, 8, 77);
        let (_, stats) = brs_cover(&hg, BlockerParams::default(), Selection::Derandomized);
        // Lemma 3.9: O(log^3 n / (δ³ε²)); for n=60 this constant-heavy bound
        // is astronomically loose — just check the count is sane.
        assert!(stats.selection_steps < 2000, "steps = {}", stats.selection_steps);
    }

    #[test]
    fn single_vertex_edges() {
        let hg = Hypergraph::new(4, vec![vec![1], vec![3]]);
        let (cover, _) = brs_cover(&hg, BlockerParams::default(), Selection::Derandomized);
        let mut c = cover.clone();
        c.sort_unstable();
        assert_eq!(c, vec![1, 3]);
    }

    #[test]
    fn verify_cover_rejects_bad() {
        let hg = Hypergraph::new(4, vec![vec![0, 1], vec![2, 3]]);
        assert!(!verify_cover(&hg, &[0]));
        assert!(verify_cover(&hg, &[0, 2]));
    }

    #[test]
    #[should_panic(expected = "empty hyperedge")]
    fn empty_edge_rejected() {
        let _ = Hypergraph::new(3, vec![vec![]]);
    }
}

#[cfg(test)]
mod sampling_path_tests {
    use super::*;

    /// Many same-size edges over many vertices with flat scores: the
    /// singleton threshold `δ³/(1+ε)·|Pij|` exceeds every scoreij, forcing
    /// the pairwise-independent set-selection path.
    fn flat_instance(groups: usize, size: usize) -> Hypergraph {
        let n = groups * size;
        let edges =
            (0..groups).map(|g| ((g * size) as u32..(g * size + size) as u32).collect()).collect();
        Hypergraph::new(n, edges)
    }

    #[test]
    fn set_selection_path_exercised_derandomized() {
        let hg = flat_instance(400, 3);
        let (cover, stats) =
            brs_cover(&hg, BlockerParams::exercise_sampling(), Selection::Derandomized);
        assert!(verify_cover(&hg, &cover));
        assert!(stats.set_picks > 0, "sampling path not exercised: {stats:?}");
        assert_eq!(stats.fallbacks, 0, "no fallback expected: {stats:?}");
    }

    #[test]
    fn set_selection_path_exercised_randomized() {
        let hg = flat_instance(400, 3);
        let (cover, stats) =
            brs_cover(&hg, BlockerParams::exercise_sampling(), Selection::Randomized { seed: 5 });
        assert!(verify_cover(&hg, &cover));
        assert!(stats.set_picks > 0, "sampling path not exercised: {stats:?}");
    }

    #[test]
    fn randomized_good_set_rate_at_least_eighth() {
        // Lemma 3.8 empirically: among random sample points in a selection
        // step, a decent fraction are good. We measure indirectly: the
        // average number of points examined per accepted set should be
        // well under 8x retries... allow a loose bound.
        let hg = flat_instance(400, 3);
        let (_, stats) =
            brs_cover(&hg, BlockerParams::exercise_sampling(), Selection::Randomized { seed: 11 });
        if stats.set_picks > 0 {
            let avg = stats.sample_points_examined as f64 / stats.set_picks as f64;
            assert!(avg <= 64.0, "avg sample points per good set = {avg}");
        }
    }
}
