//! Experiment implementations T1–T5 / F2–F4, one function per id;
//! [`run`] dispatches by id, and [`ExperimentOutput::persist`] writes each
//! result's CSV to `results/<id>.csv`.
//!
//! A tabular experiment states its columns once and pushes each row's
//! cells once, and its `Table` writes them both padded for stdout and
//! comma-separated for the CSV, so the two renderings cannot drift.

use crate::stats::fit_exponent;
use crate::workloads::{hop_deep, sparse_random};
use congest_apsp::bf::run_bf;
use congest_apsp::blocker::{alg2_blocker, greedy_blocker, is_valid_blocker, PathCtx};
use congest_apsp::csssp::{build_csssp, SsspCollection};
use congest_apsp::pipeline::{
    propagate_to_blockers, propagate_trivial_broadcast, RoutedTable, Step6Stats,
};
use congest_apsp::{Algorithm, ApspConfig, BlockerParams, Selection, Solver, SolverBuilder};
use congest_graph::generators::{Family, WeightDist};
use congest_graph::seq::{apsp_dijkstra, dijkstra, Direction};
use congest_graph::{DistMatrix, Graph, NodeId};
use congest_sim::primitives::{build_bfs_tree, BfsTree};
use congest_sim::{Recorder, SimConfig, Topology};
use std::fmt::{Display, Write as _};
use std::fs;

/// Output of one experiment: a rendered text table plus CSV lines.
pub struct ExperimentOutput {
    /// Experiment id ("t1", "f3", ...).
    pub id: &'static str,
    /// Human-readable table (printed to stdout).
    pub table: String,
    /// Machine-readable rows (written to `results/<id>.csv`).
    pub csv: String,
}

impl ExperimentOutput {
    /// Writes the CSV to `results/<id>.csv` under the working directory.
    ///
    /// # Errors
    /// Names the path that could not be written, with the I/O error.
    pub fn persist(&self) -> Result<(), String> {
        let path = format!("results/{}.csv", self.id);
        fs::create_dir_all("results")
            .and_then(|()| fs::write(&path, &self.csv))
            .map_err(|e| format!("{path}: {e}"))
    }
}

/// One column of a [`Table`].
struct Col {
    /// Header on stdout. An empty header keeps the column off stdout; `|`
    /// is a stdout-only separator that takes no cell.
    head: &'static str,
    /// Name in the CSV header; `None` keeps the column off the CSV.
    csv: Option<&'static str>,
    /// Width on stdout: right-aligned, or left-aligned when negative.
    width: i8,
}

impl Col {
    fn pad(&self, cell: &str) -> String {
        let w = usize::from(self.width.unsigned_abs());
        if self.width < 0 {
            format!("{cell:<w$}")
        } else {
            format!("{cell:>w$}")
        }
    }
}

/// A column on both renderings.
const fn col(head: &'static str, csv: &'static str, width: i8) -> Col {
    Col { head, csv: Some(csv), width }
}

/// A `|` between column groups on stdout.
const BAR: Col = Col { head: "|", csv: None, width: 1 };

/// One experiment's stdout text and CSV, both written from the same cells.
struct Table {
    cols: &'static [Col],
    text: String,
    csv: String,
}

impl Table {
    /// Starts a table: `title` and a header line on stdout, a header row in the CSV.
    fn new(title: &str, cols: &'static [Col]) -> Table {
        let heads: Vec<String> =
            cols.iter().filter(|c| !c.head.is_empty()).map(|c| c.pad(c.head)).collect();
        let names: Vec<&str> = cols.iter().filter_map(|c| c.csv).collect();
        Table { cols, text: format!("{title}\n{}\n", heads.join(" ")), csv: names.join(",") + "\n" }
    }

    /// Appends one row: a cell per column, `|` separators excluded.
    fn row(&mut self, cells: &[&dyn Display]) {
        let mut cells = cells.iter();
        let (mut text, mut csv) = (Vec::new(), Vec::new());
        for c in self.cols {
            let cell = match c.head {
                "|" => "|".to_string(),
                _ => cells.next().expect("a cell per column").to_string(),
            };
            if !c.head.is_empty() {
                text.push(c.pad(&cell));
            }
            if c.csv.is_some() {
                csv.push(cell);
            }
        }
        assert!(cells.next().is_none(), "more cells than columns");
        self.text += &(text.join(" ") + "\n");
        self.csv += &(csv.join(",") + "\n");
    }

    fn finish(self, id: &'static str) -> ExperimentOutput {
        ExperimentOutput { id, table: self.text, csv: self.csv }
    }
}

/// Runs `solver`, asserts that its distances equal Dijkstra's `oracle`,
/// and returns its rounds and |Q|.
fn solved(oracle: &DistMatrix<u64>, solver: SolverBuilder<'_, u64>) -> (u64, usize) {
    let solver = solver.build();
    let out = solver.run().unwrap();
    assert_eq!(out.dist, *oracle, "{:?}", solver.algorithm());
    (out.recorder.total_rounds(), out.meta.q.len())
}

/// The h-hop CSSSP of every source of `g`, out-direction, fault-free.
fn all_sources_csssp(g: &Graph<u64>, h: usize) -> (Topology, SsspCollection<u64>) {
    let topo = Topology::from_graph(g);
    let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let coll = build_csssp(
        g,
        &topo,
        &sources,
        h,
        Direction::Out,
        SimConfig::default(),
        &mut Recorder::new(),
        &mut congest_apsp::Recovery::disabled(),
        "csssp",
    )
    .unwrap();
    (topo, coll)
}

/// The leader's BFS tree of `topo`, its build recorded in `rec`: a caller
/// that runs Algorithm 2/2′ or Step 6 alone pays for the tree that Ar20
/// builds once in Step 2.
fn leader_tree(topo: &Topology, rec: &mut Recorder) -> BfsTree {
    let (tree, rep) = build_bfs_tree(topo, SimConfig::default(), 0).unwrap();
    rec.record("alg2: leader BFS tree", rep);
    tree
}

/// Builds a blocker set for `coll`, greedy's for `None` and Algorithm
/// 2/2′'s for `Some(selection)`, asserts that it covers every full path,
/// and returns |Q| and its rounds.
fn blocker(
    topo: &Topology,
    coll: &SsspCollection<u64>,
    selection: Option<Selection>,
) -> (usize, u64) {
    let (mut rec, sim) = (Recorder::new(), SimConfig::default());
    let q = match selection {
        Some(sel) => {
            let tree = leader_tree(topo, &mut rec);
            let params = BlockerParams::default();
            alg2_blocker(topo, sim, coll, &tree, params, sel, &mut rec).map(|(q, _)| q)
        }
        None => greedy_blocker(topo, sim, coll, &mut rec),
    }
    .unwrap();
    assert!(is_valid_blocker(coll, &q), "{selection:?}");
    (q.len(), rec.total_rounds())
}

/// Runs Step 6 on the input an exact Step 5 leaves (δ(x, c) at every x
/// for each blocker c in `q`, from Dijkstra), and asserts that every
/// blocker receives its exact in-distances. Returns that input, the stats
/// and the rounds.
fn step6(g: &Graph<u64>, q: &[NodeId]) -> (RoutedTable<u64>, Step6Stats, u64) {
    let exact = apsp_dijkstra(g);
    let dvals = RoutedTable::new(DistMatrix::from_rows(
        (0..g.n()).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
    ));
    let (topo, cfg, sim, mut rec) =
        (Topology::from_graph(g), ApspConfig::default(), SimConfig::default(), Recorder::new());
    let tree = leader_tree(&topo, &mut rec);
    let (out, stats) =
        propagate_to_blockers(g, &topo, &cfg, sim, q, &dvals, &tree, &mut rec).unwrap();
    for (qi, &c) in q.iter().enumerate() {
        assert_eq!(&out.dist[qi], &dijkstra(g, c, Direction::In)[..], "delivery to {c}");
    }
    (dvals, stats, rec.total_rounds())
}

/// n values for the scaling sweeps; kept modest so `experiments all`
/// finishes in minutes. Pass `--big` for the extended sweep.
#[must_use]
pub fn t1_sizes(big: bool) -> Vec<usize> {
    if big {
        vec![24, 40, 56, 80, 104, 128, 160]
    } else {
        vec![24, 40, 56, 80, 104]
    }
}

/// Least-squares exponent of each series of `rounds` against n.
fn exponents<const K: usize>(rounds: &[(usize, [u64; K])]) -> [f64; K] {
    std::array::from_fn(|i| {
        fit_exponent(&rounds.iter().map(|(n, r)| (*n as f64, r[i] as f64)).collect::<Vec<_>>())
    })
}

/// T1 — the empiricized Table 1: measured rounds per algorithm vs n.
#[must_use]
pub fn t1(big: bool) -> ExperimentOutput {
    const COLS: &[Col] = &[
        col("n", "n", 5),
        col("this-paper", "paper_det", 12),
        col("paper-rand", "paper_rand", 12),
        col("AR18 n^1.5", "ar18", 12),
        col("naive", "naive", 12),
        col("|Q|paper", "q_paper", 9),
        col("|Q|ar18", "q_ar18", 9),
    ];
    let mut t =
        Table::new("T1 (Table 1 empiricized): measured rounds, G(n, m=3n) weighted digraphs", COLS);
    let mut rows: Vec<(usize, [u64; 4])> = Vec::new();
    for n in t1_sizes(big) {
        let g = sparse_random(n, 1000 + n as u64);
        let oracle = apsp_dijkstra(&g);
        let (paper, q_paper) = solved(&oracle, Solver::builder(&g));
        let (rand, _) = solved(
            &oracle,
            Solver::builder(&g).selection(Selection::Randomized { seed: 0xC0FFEE }),
        );
        let (ar18, q_ar18) = solved(&oracle, Solver::builder(&g).algorithm(Algorithm::Ar18));
        let (naive, _) = solved(&oracle, Solver::builder(&g).algorithm(Algorithm::Naive));
        t.row(&[&n, &paper, &rand, &ar18, &naive, &q_paper, &q_ar18]);
        rows.push((n, [paper, rand, ar18, naive]));
    }
    let [e_paper, e_rand, e_ar, e_naive] = exponents(&rows);
    let _ = writeln!(t.text, "\nfitted exponents (bounds: 4/3 ≈ 1.33 | 4/3 | 3/2 | 2):");
    let _ = writeln!(
        t.text,
        "  this-paper {e_paper:.2} | paper-rand {e_rand:.2} | AR18 {e_ar:.2} | naive {e_naive:.2}"
    );
    let mut order = [("this-paper", e_paper), ("AR18", e_ar), ("naive", e_naive)];
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    let order = order.map(|(name, _)| name).join(" < ");
    let _ = writeln!(
        t.text,
        "  (Õ hides polylog factors which inflate small-n fits; fitted order {order}, where the bounds give this-paper < AR18 < naive)"
    );
    // projected crossover paper vs AR18 from the fitted power laws
    if e_ar > e_paper {
        let (n, r) = rows.last().unwrap();
        let c_paper = r[0] as f64 / (*n as f64).powf(e_paper);
        let c_ar = r[2] as f64 / (*n as f64).powf(e_ar);
        let cross = (c_paper / c_ar).powf(1.0 / (e_ar - e_paper));
        let _ = writeln!(
            t.text,
            "  projected paper-vs-AR18 crossover at n ≈ {cross:.0} (beyond simulable range, as the paper's polylog constants predict)"
        );
    }
    t.finish("t1")
}

/// T1-deep — the same comparison on hop-deep workloads (brooms), where
/// full-length h-hop paths exist and the blocker machinery carries real
/// load; this is the regime the paper's worst-case bounds describe.
#[must_use]
pub fn t1_deep(big: bool) -> ExperimentOutput {
    const COLS: &[Col] = &[
        col("n", "n", 5),
        col("this-paper", "paper_det", 12),
        col("AR18 n^1.5", "ar18", 12),
        col("naive", "naive", 12),
        col("|Q|paper", "q_paper", 9),
        col("|Q|ar18", "q_ar18", 9),
    ];
    let mut t = Table::new(
        "T1-deep: measured rounds on hop-deep brooms (full-length paths force real blocker sets)",
        COLS,
    );
    let mut rows: Vec<(usize, [u64; 3])> = Vec::new();
    for n in t1_sizes(big) {
        let g = hop_deep(n, 2000 + n as u64);
        let oracle = apsp_dijkstra(&g);
        let (paper, q_paper) = solved(&oracle, Solver::builder(&g));
        let (ar18, q_ar18) = solved(&oracle, Solver::builder(&g).algorithm(Algorithm::Ar18));
        let (naive, _) = solved(&oracle, Solver::builder(&g).algorithm(Algorithm::Naive));
        t.row(&[&n, &paper, &ar18, &naive, &q_paper, &q_ar18]);
        rows.push((n, [paper, ar18, naive]));
    }
    let [e_paper, e_ar, e_naive] = exponents(&rows);
    let _ = writeln!(
        t.text,
        "\nfitted exponents: this-paper {e_paper:.2} (Õ(n^4/3)) | AR18 {e_ar:.2} (Õ(n^3/2)) | naive {e_naive:.2} (O(n^2))"
    );
    t.finish("t1deep")
}

/// T2 — blocker constructions: size and rounds, greedy \[2\] vs Algorithm 2
/// vs Algorithm 2′, on a hop-deep workload, h sweep.
#[must_use]
pub fn t2(n: usize) -> ExperimentOutput {
    const COLS: &[Col] = &[
        col("h", "h", 3),
        col("paths", "paths", 7),
        BAR,
        col("greedy|Q|", "greedy_q", 8),
        col("rounds", "greedy_rounds", 9),
        BAR,
        col("rand|Q|", "rand_q", 8),
        col("rounds", "rand_rounds", 9),
        BAR,
        col("det|Q|", "det_q", 8),
        col("rounds", "det_rounds", 9),
        BAR,
        col("O(n ln p/h)", "bound", 9),
    ];
    let mut t = Table::new(
        &format!(
            "T2: blocker set constructions on broom(n={n}) — Lemma 3.10/3.11 vs the [2] baseline"
        ),
        COLS,
    );
    let g = hop_deep(n, 5);
    for h in [2usize, 3, 4, 6, 8] {
        let (topo, coll) = all_sources_csssp(&g, h);
        let paths = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap().0.alive_count();
        let (greedy_q, greedy_rounds) = blocker(&topo, &coll, None);
        let (rand_q, rand_rounds) = blocker(&topo, &coll, Some(Selection::Randomized { seed: 7 }));
        let (det_q, det_rounds) = blocker(&topo, &coll, Some(Selection::Derandomized));
        let bound = (n as f64) * (paths.max(2) as f64).ln() / h as f64;
        // Lemma 3.10: Algorithm 2/2′ pick O((n/h)·ln p) nodes. Every
        // instance here clears the bound with constant 1 at least 3×, so
        // this pins the lemma's shape, not a constant.
        for (sel, q) in [("Algorithm 2", rand_q), ("Algorithm 2′", det_q)] {
            assert!(q as f64 <= bound, "h = {h}: {sel} |Q| = {q} above (n/h)·ln p = {bound:.1}");
        }
        t.row(&[
            &h,
            &paths,
            &greedy_q,
            &greedy_rounds,
            &rand_q,
            &rand_rounds,
            &det_q,
            &det_rounds,
            &format!("{bound:.1}"),
        ]);
    }
    t.finish("t2")
}

/// F2 — the n·|Q| term: blocker rounds vs n at fixed h, greedy vs Alg 2′.
#[must_use]
pub fn f2() -> ExperimentOutput {
    const COLS: &[Col] = &[
        col("n", "n", 5),
        col("|Q|", "q", 5),
        col("greedy", "greedy_rounds", 13),
        col("Alg2'", "det_rounds", 13),
        col("greedy/|Q|", "greedy_per_q", 12),
        col("Alg2'/|Q|", "det_per_q", 12),
    ];
    let mut t = Table::new(
        "F2: rounds vs n at h=3 on brooms — rounds per blocker node grow with n for greedy and Alg 2' alike; Alg 2' pays more per node",
        COLS,
    );
    for n in [24usize, 40, 56, 80, 104] {
        let (topo, coll) = all_sources_csssp(&hop_deep(n, 5), 3);
        let (q, greedy) = blocker(&topo, &coll, None);
        let (det_q, det) = blocker(&topo, &coll, Some(Selection::Derandomized));
        let per_q = |rounds: u64, q: usize| rounds / q.max(1) as u64;
        t.row(&[&n, &q, &greedy, &det, &per_q(greedy, q), &per_q(det, det_q)]);
    }
    t.finish("f2")
}

/// T3 — Step 6: pipelined Algorithms 8+9 vs trivial broadcast, plus the
/// Lemma A.15/A.16 congestion and |B| bounds.
#[must_use]
pub fn t3() -> ExperimentOutput {
    const COLS: &[Col] = &[
        // stdout pads the workload and n apart; the CSV joins them with '-'
        Col { head: "workload/n", csv: None, width: 10 },
        Col { head: "", csv: Some("workload_n"), width: 0 },
        col("|Q|", "q", 4),
        col("pipelined", "pipe_rounds", 11),
        col("trivial", "trivial_rounds", 13),
        col("cong-pre", "cong_before", 11),
        col("cong-post", "cong_after", 10),
        col("n√|Q|", "threshold", 10),
        col("|B|", "b", 4),
        col("√|Q|", "sqrt_q", 7),
        col("|Q'|", "q_prime", 5),
    ];
    let mut t = Table::new(
        "T3: reversed q-sink propagation (Step 6), |Q| = n/5 blockers, exact inputs",
        COLS,
    );
    for (wname, n) in
        [("rand", 24usize), ("rand", 56), ("rand", 104), ("deep", 24), ("deep", 56), ("deep", 104)]
    {
        let seed = 400 + n as u64;
        let g = if wname == "rand" { sparse_random(n, seed) } else { hop_deep(n, seed) };
        let q: Vec<NodeId> = (0..n as NodeId).step_by(5).collect();
        let (dvals, stats, rounds) = step6(&g, &q);
        let (topo, mut trec) = (Topology::from_graph(&g), Recorder::new());
        let _ = propagate_trivial_broadcast(&topo, SimConfig::default(), &q, &dvals, &mut trec)
            .unwrap();
        let threshold = (n as f64 * (q.len() as f64).sqrt()).ceil() as u64;
        let sq = (q.len() as f64).sqrt();
        assert!(stats.congestion_after <= threshold);
        assert!(stats.b_size as f64 <= sq + 1.0);
        t.row(&[
            &format!("{wname:>5}{n:>5}"),
            &format!("{wname}-{n}"),
            &q.len(),
            &rounds,
            &trec.total_rounds(),
            &stats.congestion_before,
            &stats.congestion_after,
            &threshold,
            &stats.b_size,
            &format!("{sq:.1}"),
            &stats.q_prime_size,
        ]);
    }
    t.finish("t3")
}

/// F3 — Lemma 4.6/4.8 progress measure: the max per-node count of active
/// blocker queues over the round-robin push, sampled at powers of two.
#[must_use]
pub fn f3() -> ExperimentOutput {
    let n = 104;
    let g = sparse_random(n, 17);
    let q: Vec<NodeId> = (0..n as NodeId).step_by(4).collect();
    let (_, stats, _) = step6(&g, &q);
    let mut table = String::new();
    let mut csv = String::from("round,max_active_queues\n");
    let _ = writeln!(
        table,
        "F3: Lemma 4.8 progress measure, n={n}, |Q|={} (round -> max #outstanding blocker queues at any node)",
        q.len()
    );
    for (round, active) in &stats.progress {
        let _ = writeln!(table, "  round {round:>7}: {active}");
        let _ = writeln!(csv, "{round},{active}");
    }
    let _ = writeln!(
        table,
        "round-robin finished in {} rounds with {} message-hops",
        stats.round_robin_rounds, stats.round_robin_messages
    );
    ExperimentOutput { id: "f3", table, csv }
}

/// T4 — Lemma 3.8: the good-set rate of pairwise-independent sampling, and
/// the derandomized scan length.
#[must_use]
pub fn t4() -> ExperimentOutput {
    use congest_derand::{brs_cover, Hypergraph};
    const COLS: &[Col] = &[
        col("groups", "groups", 7),
        col("mode", "mode", 6),
        BAR,
        col("steps", "steps", 9),
        col("set-picks", "set_picks", 9),
        col("pts-examined", "points_examined", 13),
        col("pts/set", "points_per_set", 9),
        BAR,
        col("fallbacks", "fallbacks", 9),
    ];
    let mut t = Table::new(
        "T4: good-set sampling (Lemma 3.8: ≥ 1/8 of sample points are good ⇒ few draws per accepted set)",
        COLS,
    );
    for groups in [200usize, 400, 800] {
        // Flat instance: many size-3 disjoint edges force the sampling path
        // (every vertex has score 1, so no singleton dominates).
        let edges: Vec<Vec<u32>> =
            (0..groups).map(|g| ((g * 3) as u32..(g * 3 + 3) as u32).collect()).collect();
        let hg = Hypergraph::new(groups * 3, edges);
        for (mode, sel) in
            [("rand", Selection::Randomized { seed: 3 }), ("det", Selection::Derandomized)]
        {
            let (cover, stats) = brs_cover(&hg, BlockerParams::exercise_sampling(), sel);
            assert!(congest_derand::verify_cover(&hg, &cover));
            let pts_per_set = if stats.set_picks > 0 {
                stats.sample_points_examined as f64 / stats.set_picks as f64
            } else {
                f64::NAN
            };
            t.row(&[
                &groups,
                &mode,
                &stats.selection_steps,
                &stats.set_picks,
                &stats.sample_points_examined,
                &format!("{pts_per_set:.1}"),
                &stats.fallbacks,
            ]);
        }
    }
    let _ = writeln!(
        t.text,
        "\n(randomized: pts/set ≈ expected retries ≤ 8 per Lemma 3.8; derandomized: scan depth into the affine space)"
    );
    t.finish("t4")
}

/// T5 — Theorem 1.1 correctness sweep: exactness across all families,
/// orientations and weight regimes.
#[must_use]
pub fn t5() -> ExperimentOutput {
    const COLS: &[Col] = &[
        col("family", "family", -11),
        col("directed", "directed", 8),
        col("weights", "weights", 13),
        col("n", "n", 4),
        col("|Q|", "q", 4),
        col("rounds", "rounds", 9),
    ];
    let mut t = Table::new("T5: exactness sweep (Theorem 1.1), paper configuration", COLS);
    let weight_regimes: [(&str, WeightDist); 3] = [
        ("unit", WeightDist::Unit),
        ("uniform", WeightDist::Uniform(0, 100)),
        ("zero-infl", WeightDist::ZeroInflated { p_zero: 0.3, hi: 50 }),
    ];
    for fam in Family::ALL {
        for directed in [true, false] {
            for (wname, dist) in weight_regimes {
                let g = fam.build(16, directed, dist, 123);
                let out = Solver::builder(&g).run().unwrap();
                let (name, rounds) = (fam.name(), out.recorder.total_rounds());
                assert_eq!(out.dist, apsp_dijkstra(&g), "T5: {name} directed={directed} {wname}");
                t.row(&[&name, &directed, &wname, &g.n(), &out.meta.q.len(), &rounds]);
            }
        }
    }
    let _ = writeln!(t.text, "\nall {} configurations exact ✓", Family::ALL.len() * 6);
    t.finish("t5")
}

/// F4 — ablation: CSSSP 2h-truncation vs plain h-hop trees (consistency
/// violations).
#[must_use]
pub fn f4() -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from("ablation,config,value\n");
    let _ = writeln!(table, "F4: CSSSP 2h+truncate vs plain h-hop BF trees (consistency checker)");
    let mut plain_fail = 0;
    let mut csssp_fail = 0;
    let trials = 20;
    for seed in 0..trials {
        let g = sparse_random(24, 9000 + seed);
        // the real construction
        let (topo, coll) = all_sources_csssp(&g, 3);
        if coll.check_consistency(&g).is_err() {
            csssp_fail += 1;
        }
        // the strawman: h-hop BF, no 2h horizon, no truncation (run_bf
        // at h rounds, where build_csssp runs 2h and truncates)
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let sim = SimConfig::default();
        let plain = SsspCollection::from_trees(g.n(), &sources, 3, Direction::Out, |s| {
            run_bf(&g, &topo, s, Direction::Out, 3, None, None, sim).map(|(res, _)| res)
        })
        .unwrap();
        if plain.check_consistency(&g).is_err() {
            plain_fail += 1;
        }
    }
    let _ = writeln!(
        table,
        "  plain h-hop BF trees : {plain_fail}/{trials} random instances violate the CSSSP definition"
    );
    let _ = writeln!(table, "  2h + truncate (paper): {csssp_fail}/{trials} violations");
    let _ = writeln!(csv, "csssp,plain,{plain_fail}");
    let _ = writeln!(csv, "csssp,paper,{csssp_fail}");
    assert_eq!(csssp_fail, 0, "the paper construction must always pass");
    ExperimentOutput { id: "f4", table, csv }
}

/// Every id [`run`] accepts. `all` runs each of the others.
pub const IDS: [&str; 10] = ["t1", "t1deep", "t2", "f2", "t3", "f3", "t4", "t5", "f4", "all"];

/// Runs one experiment by id.
///
/// # Panics
/// Panics on an id not in [`IDS`], and when an experiment finds an
/// inexact result.
#[must_use]
pub fn run(id: &str, big: bool) -> Vec<ExperimentOutput> {
    match id {
        "t1" => vec![t1(big)],
        "t1deep" => vec![t1_deep(big)],
        "t2" => vec![t2(64)],
        "f2" => vec![f2()],
        "t3" => vec![t3()],
        "f3" => vec![f3()],
        "t4" => vec![t4()],
        "t5" => vec![t5()],
        "f4" => vec![f4()],
        "all" => IDS.into_iter().filter(|&id| id != "all").flat_map(|id| run(id, big)).collect(),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_renders_padded_on_stdout_and_bare_in_the_csv() {
        const COLS: &[Col] = &[
            col("name", "name", -6),
            col("n", "n", 3),
            BAR,
            Col { head: "key", csv: None, width: 4 },
            Col { head: "", csv: Some("key"), width: 0 },
            col("ratio", "ratio", 6),
        ];
        let mut t = Table::new("title", COLS);
        t.row(&[&"ab", &7, &"a 1", &"a-1", &format!("{:.1}", 1.0 / 3.0)]);
        let out = t.finish("x");
        assert_eq!(out.table, "title\nname     n |  key  ratio\nab       7 |  a 1    0.3\n");
        assert_eq!(out.csv, "name,n,key,ratio\nab,7,a-1,0.3\n");
    }
}
