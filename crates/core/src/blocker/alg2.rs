//! Algorithm 2 (randomized) and Algorithm 2′ (derandomized) blocker-set
//! construction — the paper's first main contribution (§3).
//!
//! Structure: stages i (score bands, Steps 2–16), phases j (Vi-count
//! bands, Steps 5–16), and selection steps (Steps 6–16). A selection step
//! either takes one high-coverage node (Steps 9–10) or a pairwise-
//! independently sampled set A (Steps 12–14), validated against the
//! good-set criterion (Definition 3.1). Helper algorithms:
//!
//! * score / score_ij — per-tree convergecasts (\[2\]'s Algorithm 3 and the
//!   Step 8 machinery): [`crate::trees::subtree_sums`]. Both run on the one
//!   [`crate::trees::TreeState`] of the run, so after the first score only
//!   counts that can still change are sent: score_ij marks a subset of the
//!   alive paths, and the alive paths only shrink;
//! * Vi (Steps 3–4) — each stage opens with a max-flood of the scores
//!   ([`crate::trees::flood_scores`], O(D) rounds), whose maximum names the
//!   highest stage with a nonempty Vi, and a flood of Vi's member ids
//!   (O(|Vi| + D) rounds). After each commit only the members whose score
//!   fell below the stage's threshold flood their ids; the picks left Vi
//!   too, and every node already knows them. Every node derives Vi from
//!   these floods alone, and so does the driver, from node 0's log;
//! * Step 9's maximum score_ij — one max-flood over Vi's members;
//! * Compute-Pi / Compute-Pij (Algorithms 3–4) — realized by the
//!   ancestor-collection of Algorithm 7 Step 1 plus node-local checks
//!   against Vi's member ids (same information, same O(|S|·h) cost);
//! * Compute-|Pij| (Algorithm 5) — one (j, count) pair per node: the
//!   largest j of its paths and how many of them reach it, combined up the
//!   leader's BFS tree (Algorithms 11/12) by keeping the larger j and
//!   summing the counts at equal j. That is exact because Pi,j ⊇ Pi,j+1,
//!   and the leader publishes the one pair it ends with, so a selection
//!   step pays O(height) each way, not O(height + jmax). The sampled-set
//!   checks aggregate their coverage totals the same way and keep them at
//!   the leader, which publishes only its verdict: Algorithm 2's good-set
//!   test, or Algorithm 2′'s good point of a scanned block, if any;
//! * Remove-Subtrees (Algorithm 6) — [`crate::trees::remove_subtrees`].
//!
//! One deliberate deviation from the paper's text: the biased
//! pairwise-independent space is the classical affine GF(q)² space scanned
//! lazily in blocks of n points (the paper's linear-size biased space is
//! unspecified).

use super::PathCtx;
use crate::csssp::SsspCollection;
use crate::trees::{flood_scores, remove_subtrees, subtree_sums};
use congest_derand::{AffineSpace, BlockerParams, Selection};
use congest_graph::{NodeId, Weight};
use congest_sim::primitives::{
    all_to_all_broadcast, broadcast_stream, convergecast_budget, convergecast_sum, BfsTree,
};
use congest_sim::{BitSet, PhaseReport, Recorder, RunUntil, SimConfig, SimError, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Counters for the quantities bounded by Lemmas 3.8–3.11.
#[derive(Clone, Debug, Default)]
pub struct Alg2Stats {
    /// Selection steps executed (Lemma 3.9 bounds these by O(log³n)).
    pub selection_steps: u64,
    /// Steps resolved by the Step 9/10 high-coverage singleton.
    pub singleton_picks: u64,
    /// Steps resolved by a good sampled set (Steps 12–14).
    pub set_picks: u64,
    /// Sample points examined by the leader.
    pub sample_points_examined: u64,
    /// Blocks aggregated by the derandomized scan.
    pub blocks_scanned: u64,
    /// Selection steps that fell back to the greedy singleton because no
    /// good point was found within the scan budget.
    pub fallbacks: u64,
    /// |A| of each accepted good set.
    pub good_set_sizes: Vec<usize>,
}

struct Driver<'a, W: Weight> {
    topo: &'a Topology,
    sim: SimConfig,
    coll: &'a SsspCollection<W>,
    ctx: PathCtx<'a, W>,
    /// The leader's BFS tree (Algorithm 7 Step 2), rooted at node 0.
    bfs: &'a BfsTree,
    params: BlockerParams,
    /// Each node's own score from the last convergecast: node-local, read
    /// only to decide what that node floods.
    scores: Vec<u64>,
    q: Vec<NodeId>,
    stats: Alg2Stats,
    rng: Option<ChaCha8Rng>,
}

/// Vi and the alive paths it scores: fixed from one commit to the next, so
/// built once per iteration of the stage loop.
struct ViView {
    /// `mask[v]`: v is in Vi.
    mask: Vec<bool>,
    /// Vi's members, ascending.
    list: Vec<NodeId>,
    /// Alive paths with their number of Vi vertices: `(leaf, tree, n_vi)`.
    paths: Vec<(NodeId, usize, u32)>,
}

impl<'a, W: Weight> Driver<'a, W> {
    /// Per-tree convergecast of alive-path counts (every node learns its
    /// own score).
    fn rescore(&mut self, rec: &mut Recorder, label: &str) -> Result<(), SimError> {
        let coll = self.coll;
        let (scores, report) =
            subtree_sums(self.topo, self.sim, coll, &mut self.ctx.trees, |v, si| {
                coll.is_full_leaf(v, si)
            })?;
        rec.record(format!("{label}: score convergecast"), report);
        self.scores = scores;
        Ok(())
    }

    /// The maximum score, which every node learns from one max-flood.
    fn max_score(&self, rec: &mut Recorder) -> Result<u64, SimError> {
        let (best, report) = flood_scores(self.topo, self.sim, |v| self.scores[v])?;
        rec.record("alg2: stage entry: score flood (max)", report);
        Ok(best.map_or(0, |(score, _)| score))
    }

    /// Floods the ids of the nodes for which `member` holds, one word
    /// each, and returns the ids node 0 learned, ascending.
    fn flood_ids(
        &self,
        member: impl Fn(NodeId) -> bool,
    ) -> Result<(Vec<NodeId>, PhaseReport), SimError> {
        let initial = (0..self.coll.n() as NodeId)
            .map(|v| if member(v) { vec![v] } else { Vec::new() })
            .collect();
        let (logs, report) =
            all_to_all_broadcast(self.topo, self.sim, initial, 1, |&v| v as usize)?;
        // Item-index order is the order of the initial items: by node.
        Ok((logs.log(0).copied().collect(), report))
    }

    /// Vi (ascending) with the alive paths and their number of Vi vertices.
    fn vi_view(&self, list: &[NodeId]) -> ViView {
        let mut mask = vec![false; self.coll.n()];
        for &v in list {
            mask[v as usize] = true;
        }
        let list = list.to_vec();
        let paths = self
            .ctx
            .alive_paths()
            .into_iter()
            .map(|(v, si)| {
                let nvi = self.ctx.path_vertices(v, si).filter(|&u| mask[u as usize]).count();
                (v, si, nvi as u32)
            })
            .collect();
        ViView { mask, list, paths }
    }

    /// Combines per-node vectors at the leader under `combine` (Algorithms
    /// 11–12). The leader draws `verdict` from the totals and broadcasts it
    /// as one item (Lemma A.1); the totals stay at the leader.
    fn leader_verdict<T: Copy + 'static, V: Clone + 'static>(
        &self,
        vals: Vec<Vec<T>>,
        combine: fn(T, T) -> T,
        verdict: impl FnOnce(&[T]) -> V,
        rec: &mut Recorder,
        label: &str,
    ) -> Result<V, SimError> {
        let k = vals.first().map(Vec::len).unwrap_or(0);
        let until = RunUntil::Quiesce { max: convergecast_budget(self.bfs, k) };
        let (totals, rep) = convergecast_sum(self.topo, self.sim, self.bfs, vals, combine, until)?;
        rec.record(format!("{label}: aggregate"), rep);
        let v = verdict(&totals);
        let (_, rep) = broadcast_stream(self.topo, self.sim, self.bfs, vec![v.clone()])?;
        rec.record(format!("{label}: publish"), rep);
        Ok(v)
    }

    /// The largest j in 1..=jmax whose Pij is nonempty under the current
    /// Vi, with |Pij|, or (0, 0) when Pi is empty (Algorithm 5).
    fn pij_size(
        &self,
        vi: &ViView,
        jmax: usize,
        rec: &mut Recorder,
    ) -> Result<(u32, u64), SimError> {
        let one_eps = 1.0 + self.params.eps;
        let mut vals = vec![vec![(0, 0)]; self.coll.n()];
        for &(v, _, nvi) in &vi.paths {
            let top = (1..=jmax).rev().find(|&j| f64::from(nvi) >= one_eps.powi(j as i32 - 1));
            if let Some(j) = top {
                let own = &mut vals[v as usize][0];
                *own = larger_j(*own, (j as u32, 1));
            }
        }
        self.leader_verdict(vals, larger_j, |totals| totals[0], rec, "alg2: |Pij| sizes")
    }

    /// score_ij at every node, and Vi's maximum score_ij with its node,
    /// which every node learns (the higher score, the smaller id on ties).
    fn scoreij(
        &mut self,
        vi: &ViView,
        thr_j: f64,
        rec: &mut Recorder,
    ) -> Result<(u64, NodeId), SimError> {
        // The leaves of Pij's paths, tree-major like the parent plane.
        let n = self.coll.n();
        let mut pij = BitSet::new();
        for &(v, si, nvi) in &vi.paths {
            if f64::from(nvi) >= thr_j {
                pij.insert(si * n + v as usize);
            }
        }
        let (scoreij, report) =
            subtree_sums(self.topo, self.sim, self.coll, &mut self.ctx.trees, |v, si| {
                pij.get(si * n + v as usize)
            })?;
        rec.record("alg2: scoreij convergecast", report);
        // Step 9: the maximum over Vi's members, by one max-flood.
        let (best, report) =
            flood_scores(self.topo, self.sim, |v| if vi.mask[v] { scoreij[v] } else { 0 })?;
        rec.record("alg2: scoreij broadcast", report);
        // Each of Pij's paths holds a Vi vertex, so some score_ij is
        // positive; only a faulty flood leaves the maximum unknown.
        Ok(best.unwrap_or((0, vi.list[0])))
    }

    /// Whether candidate set A is good at stage i (Definition 3.1):
    /// leaf-local coverage counts over Pi and Pij, summed at the leader,
    /// which publishes the verdict.
    fn covers_enough(
        &self,
        a: &[NodeId],
        vi: &ViView,
        i: i32,
        thr_j: f64,
        pij_size: u64,
        rec: &mut Recorder,
    ) -> Result<bool, SimError> {
        let n = self.coll.n();
        let mut in_a = vec![false; n];
        for &v in a {
            in_a[v as usize] = true;
        }
        let mut vals = vec![vec![0u64; 2]; n];
        for &(v, si, nvi) in &vi.paths {
            if nvi == 0 {
                continue; // not in Pi
            }
            let covered = self.ctx.path_vertices(v, si).any(|u| in_a[u as usize]);
            if covered {
                vals[v as usize][0] += 1;
                if f64::from(nvi) >= thr_j {
                    vals[v as usize][1] += 1;
                }
            }
        }
        let good = |t: &[u64]| self.is_good(a.len(), t[0], t[1], i, pij_size);
        self.leader_verdict(vals, |x, y| x + y, good, rec, "alg2: coverage check")
    }

    fn is_good(&self, a_len: usize, cov_pi: u64, cov_pij: u64, i: i32, pij: u64) -> bool {
        if a_len == 0 {
            return false;
        }
        let one_eps = 1.0 + self.params.eps;
        let need_pi =
            a_len as f64 * one_eps.powi(i) * (1.0 - 3.0 * self.params.delta - self.params.eps);
        let need_pij = self.params.delta / 2.0 * pij as f64;
        cov_pi as f64 >= need_pi && cov_pij as f64 >= need_pij
    }

    /// Adds `nodes` (a subset of Vi, whose positive scores keep it out of
    /// Q) to Q, removes the covered subtrees (Algorithm 6) and rescores
    /// (Steps 15–16). The members that the new scores put below `thr_i`
    /// flood their ids; the picks left Vi too, and every node knows them.
    /// Returns Vi without both.
    fn commit(
        &mut self,
        nodes: &[NodeId],
        vi: &ViView,
        thr_i: f64,
        rec: &mut Recorder,
        label: &str,
    ) -> Result<Vec<NodeId>, SimError> {
        self.q.extend_from_slice(nodes);
        // Every tree where a pick is a non-root member.
        let mut roots = Vec::new();
        for &c in nodes {
            for si in 0..self.coll.sources.len() {
                if self.coll.parent(c, si).is_some() {
                    roots.push((c, si));
                }
            }
        }
        let report = remove_subtrees(self.topo, self.sim, self.coll, &mut self.ctx.trees, &roots)?;
        rec.record(format!("{label}: cleanup"), report);
        self.rescore(rec, label)?;
        let mut stays = vi.mask.clone();
        for &v in nodes {
            stays[v as usize] = false;
        }
        let (left, report) =
            self.flood_ids(|v| stays[v as usize] && (self.scores[v as usize] as f64) < thr_i)?;
        rec.record(format!("{label}: score flood"), report);
        for &v in &left {
            stays[v as usize] = false;
        }
        Ok(vi.list.iter().copied().filter(|&v| stays[v as usize]).collect())
    }

    /// One selection step at stage i, phase j. Returns the chosen nodes,
    /// a subset of Vi, with the label of their commit.
    fn selection_step(
        &mut self,
        i: i32,
        j: i32,
        vi: &ViView,
        pij_size: u64,
        rec: &mut Recorder,
    ) -> Result<(Vec<NodeId>, &'static str), SimError> {
        let one_eps = 1.0 + self.params.eps;
        let thr_j = one_eps.powi(j - 1);
        self.stats.selection_steps += 1;
        let (best_score, best) = self.scoreij(vi, thr_j, rec)?;

        // Step 9: high-coverage singleton.
        let single_threshold = self.params.delta.powi(3) / one_eps * pij_size as f64;
        if best_score as f64 > single_threshold {
            self.stats.singleton_picks += 1;
            return Ok((vec![best], "alg2: singleton pick"));
        }

        // Steps 11-14: sampled good set with bias δ/(1+ε)^j.
        let p = self.params.delta / one_eps.powi(j);
        let space = AffineSpace::new(vi.list.len() as u64, p);
        let chosen: Option<Vec<NodeId>> = match &mut self.rng {
            Some(_) => {
                // Algorithm 2: leader draws sample points; each try costs a
                // point broadcast (O(D)), an A-id flood (Step 13, O(n)) and
                // a coverage aggregation (O(D)).
                let mut found = None;
                for _ in 0..64 {
                    let mu = self.rng.as_mut().unwrap().gen_range(0..space.len());
                    self.stats.sample_points_examined += 1;
                    let (_, rep) = broadcast_stream(self.topo, self.sim, self.bfs, vec![mu])?;
                    rec.record("alg2: sample point broadcast", rep);
                    let a: Vec<NodeId> =
                        space.selected(mu).into_iter().map(|idx| vi.list[idx as usize]).collect();
                    // Step 13: members of A announce themselves.
                    let (_, rep) = self.flood_ids(|v| a.contains(&v))?;
                    rec.record("alg2: A-id broadcast", rep);
                    if self.covers_enough(&a, vi, i, thr_j, pij_size, rec)? {
                        found = Some(a);
                        break;
                    }
                }
                found
            }
            None => {
                // Algorithm 2′/7: scan the space in blocks of n points;
                // each block is one pipelined ν-aggregation (Algs 11/12),
                // after which the leader publishes the block's first good
                // point, if any (Alg 7 Step 5).
                let n = self.coll.n();
                let block = n as u64;
                let max_blocks = 8u64.min(space.len().div_ceil(block));
                let mut found = None;
                for b in 0..max_blocks {
                    self.stats.blocks_scanned += 1;
                    let lo = b * block;
                    let hi = (lo + block).min(space.len());
                    let width = (hi - lo) as usize;
                    // σ vectors: per leaf, per µ: paths covered in Pi/Pij.
                    let mut vals = vec![vec![0u64; 2 * width]; n];
                    for &(v, si, nvi) in &vi.paths {
                        if nvi == 0 {
                            continue;
                        }
                        // map vertices to Vi indices once per path
                        let vi_idx: Vec<u64> = self
                            .ctx
                            .path_vertices(v, si)
                            .filter(|&u| vi.mask[u as usize])
                            .map(|u| vi.list.binary_search(&u).expect("in Vi") as u64)
                            .collect();
                        for (k, mu) in (lo..hi).enumerate() {
                            let covered = vi_idx.iter().any(|&idx| space.eval(mu, idx));
                            if covered {
                                vals[v as usize][2 * k] += 1;
                                if f64::from(nvi) >= thr_j {
                                    vals[v as usize][2 * k + 1] += 1;
                                }
                            }
                        }
                    }
                    let mut examined = 0;
                    let good_point = |totals: &[u64]| {
                        (lo..hi).zip(totals.chunks_exact(2)).find_map(|(mu, t)| {
                            examined += 1;
                            let a_len = space.selected(mu).len();
                            self.is_good(a_len, t[0], t[1], i, pij_size).then_some(mu)
                        })
                    };
                    let label = "alg2: block ν-aggregation";
                    let good = self.leader_verdict(vals, |x, y| x + y, good_point, rec, label)?;
                    self.stats.sample_points_examined += examined;
                    if let Some(mu) = good {
                        let a = space.selected(mu).into_iter().map(|idx| vi.list[idx as usize]);
                        found = Some(a.collect());
                        break;
                    }
                }
                found
            }
        };

        match chosen {
            Some(a) => {
                self.stats.set_picks += 1;
                self.stats.good_set_sizes.push(a.len());
                Ok((a, "alg2: good set pick"))
            }
            None => {
                // Guaranteed-progress fallback: on tiny instances the
                // paper's constants can leave no good point within the
                // scan budget. Never observed with paper parameters.
                self.stats.fallbacks += 1;
                Ok((vec![best], "alg2: fallback pick"))
            }
        }
    }
}

/// Compute-|Pij|'s combine of two (j, |Pij|) pairs: the larger j with its
/// count, or the summed counts at equal j. Exact because Pi,j ⊇ Pi,j+1: a
/// path counted at a smaller j is outside the larger j's Pij.
fn larger_j(a: (u32, u64), b: (u32, u64)) -> (u32, u64) {
    if a.0 == b.0 {
        (a.0, a.1 + b.1)
    } else {
        a.max(b)
    }
}

/// Runs Algorithm 2 (randomized) or Algorithm 2′ (derandomized) on the
/// collection. `bfs` is the leader's BFS tree of `topo` (Algorithm 7
/// Step 2, rooted at node 0): the caller builds it, once per run in Ar20,
/// whose Step 6 reuses it. Returns the blocker set in insertion order,
/// deduplicated, and the lemma counters; round accounting lands in `rec`.
///
/// # Errors
/// Propagates engine errors.
pub fn alg2_blocker<W: Weight>(
    topo: &Topology,
    sim: SimConfig,
    coll: &SsspCollection<W>,
    bfs: &BfsTree,
    params: BlockerParams,
    selection: Selection,
    rec: &mut Recorder,
) -> Result<(Vec<NodeId>, Alg2Stats), SimError> {
    assert!(params.in_range(), "blocker constants out of range: {params:?}");

    let (ctx, report) = PathCtx::build(topo, sim, coll)?;
    rec.record("alg2: ancestors (Alg 7 Step 1)", report);

    let n = coll.n();
    let mut driver = Driver {
        topo,
        sim,
        coll,
        ctx,
        bfs,
        params,
        scores: vec![0; n],
        q: Vec::new(),
        stats: Alg2Stats::default(),
        rng: match selection {
            Selection::Randomized { seed } => Some(ChaCha8Rng::seed_from_u64(seed)),
            Selection::Derandomized => None,
        },
    };
    driver.rescore(rec, "alg2: initial")?;

    let one_eps = 1.0 + params.eps;
    let mut max_score = driver.max_score(rec)?;
    if max_score == 0 {
        return Ok((driver.q, driver.stats));
    }
    let i_start = ((max_score as f64).ln() / one_eps.ln()).ceil() as i32 + 1;
    let jmax = (((coll.h.max(1)) as f64).ln() / one_eps.ln()).ceil().max(1.0) as usize;

    for i in (1..=i_start).rev() {
        let vi_threshold = one_eps.powi(i - 1);
        if (max_score as f64) < vi_threshold {
            continue; // Vi is empty: the maximum names a lower stage
        }
        // Steps 3-4: Vi's members announce themselves; Pi/Pij membership
        // is leaf-local.
        let (mut list, report) =
            driver.flood_ids(|v| driver.scores[v as usize] as f64 >= vi_threshold)?;
        rec.record("alg2: stage entry: score flood (Vi ids)", report);
        while !list.is_empty() {
            let vi = driver.vi_view(&list);
            // Work at the largest j whose Pij is nonempty (the paper's
            // descending phase order reaches exactly this j next).
            let (j, pij_size) = driver.pij_size(&vi, jmax, rec)?;
            if j == 0 {
                break; // Pi empty for this stage
            }
            let (picks, label) = driver.selection_step(i, j as i32, &vi, pij_size, rec)?;
            list = driver.commit(&picks, &vi, vi_threshold, rec, label)?;
        }
        // The next stage to enter; stage 1's Vi held every positive score.
        if i > 1 {
            max_score = driver.max_score(rec)?;
        }
    }
    // A faulty flood can end the stages early; the Step-2 sentinel
    // rejects such a run.
    debug_assert!(
        sim.fault.is_some() || driver.ctx.alive_count() == 0,
        "all paths must be covered"
    );
    Ok((driver.q, driver.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocker::is_valid_blocker;
    use crate::blocker::tests::build_collection;
    use congest_sim::fault::FaultSpec;
    use congest_sim::primitives::build_bfs_tree;

    /// The leader's BFS tree, built fault-free.
    fn leader_tree(topo: &Topology) -> BfsTree {
        build_bfs_tree(topo, SimConfig::default(), 0).unwrap().0
    }

    #[test]
    fn derandomized_valid_and_deterministic() {
        let (_, topo, coll) = build_collection(18, 40, 3, 4);
        let mut rec1 = Recorder::new();
        let (r1, s1) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            &leader_tree(&topo),
            BlockerParams::default(),
            Selection::Derandomized,
            &mut rec1,
        )
        .unwrap();
        assert!(is_valid_blocker(&coll, &r1));
        let mut rec2 = Recorder::new();
        let (r2, _) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            &leader_tree(&topo),
            BlockerParams::default(),
            Selection::Derandomized,
            &mut rec2,
        )
        .unwrap();
        assert_eq!(r1, r2, "derandomized run must be deterministic");
        assert_eq!(rec1.total_rounds(), rec2.total_rounds());
        assert_eq!(s1.singleton_picks + s1.set_picks + s1.fallbacks, s1.selection_steps);
    }

    #[test]
    fn randomized_valid_across_seeds() {
        let (_, topo, coll) = build_collection(16, 36, 2, 8);
        for seed in 0..3 {
            let mut rec = Recorder::new();
            let (r, _) = alg2_blocker(
                &topo,
                SimConfig::default(),
                &coll,
                &leader_tree(&topo),
                BlockerParams::default(),
                Selection::Randomized { seed },
                &mut rec,
            )
            .unwrap();
            assert!(is_valid_blocker(&coll, &r), "seed {seed}");
        }
    }

    #[test]
    fn size_comparable_to_greedy() {
        let (_, topo, coll) = build_collection(20, 44, 3, 12);
        let mut rec = Recorder::new();
        let (res, _) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            &leader_tree(&topo),
            BlockerParams::default(),
            Selection::Derandomized,
            &mut rec,
        )
        .unwrap();
        let mut grec = Recorder::new();
        let gres =
            crate::blocker::greedy_blocker(&topo, SimConfig::default(), &coll, &mut grec).unwrap();
        assert!(res.len() <= 4 * gres.len().max(1), "alg2 {} vs greedy {}", res.len(), gres.len());
    }

    /// Every ancestor message travels parent to child, so a drop in that
    /// phase leaves short paths below it. Algorithm 2′ must still return,
    /// with the faults counted, for the Step-2 sentinel to judge its Q.
    #[test]
    fn lost_ancestor_ids_leave_the_run_to_the_sentinel() {
        let (_, topo, coll) = build_collection(18, 40, 3, 4);
        for seed in [1, 5, 6, 9] {
            let sim = SimConfig { fault: Some(FaultSpec::seeded(seed).drops(5_000)) };
            let mut rec = Recorder::new();
            let res = alg2_blocker(
                &topo,
                sim,
                &coll,
                &leader_tree(&topo),
                BlockerParams::default(),
                Selection::Derandomized,
                &mut rec,
            );
            let ancestors = &rec.phases()[0];
            assert_eq!(ancestors.name, "alg2: ancestors (Alg 7 Step 1)");
            assert!(ancestors.faults.dropped > 0, "seed {seed}: no id was lost");
            if let Ok((q, _)) = res {
                assert!(q.iter().all(|&v| (v as usize) < coll.n()), "seed {seed}: {q:?}");
            }
        }
    }

    /// Compute-|Pij|'s pair convergecast against the jmax-vector one it
    /// replaces, on random per-node paths: the pair is the largest j with a
    /// nonzero sum and that sum, sent in n − 1 messages within height + 2
    /// rounds.
    #[test]
    fn the_pij_pair_equals_the_jmax_vector_convergecast() {
        use congest_graph::generators::{gnm_connected, WeightDist};
        let (jmax, sim) = (25, SimConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for (n, extra, seed) in [(30, 40, 1), (64, 128, 2), (40, 0, 3)] {
            let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
            let topo = Topology::from_graph(&g);
            let tree = leader_tree(&topo);
            for round in 0..12u32 {
                // Each node's paths by their largest j (0: in no Pij), up
                // to a cap that grows with the round: early rounds leave
                // most of the jmax-vector zero, late ones reach jmax.
                let cap = (round + 1) * jmax / 12;
                let tops: Vec<Vec<u32>> = (0..n)
                    .map(|_| (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..=cap)).collect())
                    .collect();
                let vectors: Vec<Vec<u64>> = tops
                    .iter()
                    .map(|t| (1..=jmax).map(|j| t.iter().filter(|&&tj| tj >= j).count() as u64))
                    .map(Iterator::collect)
                    .collect();
                let pairs: Vec<Vec<(u32, u64)>> = tops
                    .iter()
                    .map(|t| {
                        vec![t.iter().filter(|&&j| j > 0).fold((0, 0), |p, &j| larger_j(p, (j, 1)))]
                    })
                    .collect();
                let until = |k| RunUntil::Quiesce { max: convergecast_budget(&tree, k) };
                let (sums, _) = convergecast_sum(
                    &topo,
                    sim,
                    &tree,
                    vectors,
                    |a, b| a + b,
                    until(jmax as usize),
                )
                .unwrap();
                let (pair, rep) =
                    convergecast_sum(&topo, sim, &tree, pairs, larger_j, until(1)).unwrap();
                let want = (1..=jmax)
                    .rev()
                    .find(|&j| sums[j as usize - 1] > 0)
                    .map_or((0, 0), |j| (j, sums[j as usize - 1]));
                assert_eq!(pair, [want], "n = {n}, round {round}");
                assert_eq!(rep.messages, n as u64 - 1, "n = {n}, round {round}");
                assert!(rep.rounds <= tree.height() + 2, "n = {n}: {} rounds", rep.rounds);
            }
        }
    }

    #[test]
    fn empty_collection_yields_empty_q() {
        let (_, topo, coll) = build_collection(10, 40, 8, 3);
        let mut rec = Recorder::new();
        let (res, stats) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            &leader_tree(&topo),
            BlockerParams::default(),
            Selection::Derandomized,
            &mut rec,
        )
        .unwrap();
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        if ctx.alive_count() == 0 {
            assert!(res.is_empty());
            assert_eq!(stats.selection_steps, 0);
        }
    }
}
