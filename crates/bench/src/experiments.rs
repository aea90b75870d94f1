//! Experiment implementations T1–T5 / F2–F4, one function per id;
//! [`run`] dispatches by id, and [`ExperimentOutput::persist`] writes each
//! result's CSV to `results/<id>.csv`.

use crate::stats::fit_exponent;
use crate::workloads::{hop_deep, sparse_random};
use congest_apsp::blocker::{alg2_blocker, greedy_blocker, is_valid_blocker, PathCtx, Selection};
use congest_apsp::config::BlockerParams;
use congest_apsp::csssp::{build_csssp, SsspCollection};
use congest_apsp::pipeline::{
    propagate_to_blockers, propagate_to_blockers_with, propagate_trivial_broadcast, PushDiscipline,
    RoutedTable,
};
use congest_apsp::{Algorithm, ApspConfig, BlockerMethod, Charging, Solver};
use congest_graph::generators::{Family, WeightDist};
use congest_graph::seq::{apsp_dijkstra, dijkstra, Direction};
use congest_graph::{DistMatrix, NodeId};
use congest_sim::{Recorder, SimConfig, Topology};
use std::fmt::Write as _;
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

/// T1 — the empiricized Table 1: measured rounds per algorithm vs n.
#[must_use]
pub fn t1(big: bool, charging: Charging) -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from("n,paper_det,paper_rand,ar18,naive,q_paper,q_ar18\n");
    let _ = writeln!(
        table,
        "T1 (Table 1 empiricized): measured rounds, {charging:?} charging, G(n, m=3n) weighted digraphs"
    );
    let _ = writeln!(
        table,
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "n", "this-paper", "paper-rand", "AR18 n^1.5", "naive", "|Q|paper", "|Q|ar18"
    );
    let mut rows: Vec<(usize, u64, u64, u64, u64)> = Vec::new();
    for n in t1_sizes(big) {
        let g = sparse_random(n, 1000 + n as u64);
        let cfg = ApspConfig { charging, ..Default::default() };
        let oracle = apsp_dijkstra(&g);
        let paper = Solver::builder(&g).config(cfg).run().unwrap();
        assert_eq!(paper.dist, oracle);
        let rand = Solver::builder(&g)
            .config(cfg)
            .blocker_method(BlockerMethod::Randomized)
            .run()
            .unwrap();
        assert_eq!(rand.dist, oracle);
        let ar18 = Solver::builder(&g).config(cfg).algorithm(Algorithm::Ar18).run().unwrap();
        assert_eq!(ar18.dist, oracle);
        let naive = Solver::builder(&g).config(cfg).algorithm(Algorithm::Naive).run().unwrap();
        assert_eq!(naive.dist, oracle);
        let row = (
            n,
            paper.recorder.total_rounds(),
            rand.recorder.total_rounds(),
            ar18.recorder.total_rounds(),
            naive.recorder.total_rounds(),
        );
        let _ = writeln!(
            table,
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            paper.meta.q.len(),
            ar18.meta.q.len()
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{}",
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            paper.meta.q.len(),
            ar18.meta.q.len()
        );
        rows.push(row);
    }
    type Row5 = (usize, u64, u64, u64, u64);
    let fit = |f: &dyn Fn(&Row5) -> u64| {
        fit_exponent(&rows.iter().map(|r| (r.0 as f64, f(r) as f64)).collect::<Vec<_>>())
    };
    let (e_paper, e_rand, e_ar, e_naive) =
        (fit(&|r| r.1), fit(&|r| r.2), fit(&|r| r.3), fit(&|r| r.4));
    let _ = writeln!(table, "\nfitted exponents (bounds: 4/3 ≈ 1.33 | 4/3 | 3/2 | 2):");
    let _ = writeln!(
        table,
        "  this-paper {e_paper:.2} | paper-rand {e_rand:.2} | AR18 {e_ar:.2} | naive {e_naive:.2}"
    );
    let mut order = [("this-paper", e_paper), ("AR18", e_ar), ("naive", e_naive)];
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    let order = order.map(|(name, _)| name).join(" < ");
    let _ = writeln!(
        table,
        "  (Õ hides polylog factors which inflate small-n fits; fitted order {order}, where the bounds give this-paper < AR18 < naive)"
    );
    // projected crossover paper vs AR18 from the fitted power laws
    if e_ar > e_paper {
        let last = rows.last().unwrap();
        let c_paper = last.1 as f64 / (last.0 as f64).powf(e_paper);
        let c_ar = last.3 as f64 / (last.0 as f64).powf(e_ar);
        let cross = (c_paper / c_ar).powf(1.0 / (e_ar - e_paper));
        let _ = writeln!(
            table,
            "  projected paper-vs-AR18 crossover at n ≈ {cross:.0} (beyond simulable range, as the paper's polylog constants predict)"
        );
    }
    let id = match charging {
        Charging::Quiesce => "t1",
        Charging::WorstCase => "t1wc",
    };
    ExperimentOutput { id, table, csv }
}

/// T1-deep — the same comparison on hop-deep workloads (brooms), where
/// full-length h-hop paths exist and the blocker machinery carries real
/// load; this is the regime the paper's worst-case bounds describe.
#[must_use]
pub fn t1_deep(big: bool) -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from("n,paper_det,ar18,naive,q_paper,q_ar18\n");
    let _ = writeln!(
        table,
        "T1-deep: measured rounds on hop-deep brooms (full-length paths force real blocker sets)"
    );
    let _ = writeln!(
        table,
        "{:>5} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "n", "this-paper", "AR18 n^1.5", "naive", "|Q|paper", "|Q|ar18"
    );
    let mut rows: Vec<(usize, u64, u64, u64)> = Vec::new();
    for n in t1_sizes(big) {
        let g = hop_deep(n, 2000 + n as u64);
        let oracle = apsp_dijkstra(&g);
        let paper = Solver::builder(&g).run().unwrap();
        assert_eq!(paper.dist, oracle);
        let ar18 = Solver::builder(&g).algorithm(Algorithm::Ar18).run().unwrap();
        assert_eq!(ar18.dist, oracle);
        let naive = Solver::builder(&g).algorithm(Algorithm::Naive).run().unwrap();
        assert_eq!(naive.dist, oracle);
        let row = (
            n,
            paper.recorder.total_rounds(),
            ar18.recorder.total_rounds(),
            naive.recorder.total_rounds(),
        );
        let _ = writeln!(
            table,
            "{:>5} {:>12} {:>12} {:>12} {:>9} {:>9}",
            row.0,
            row.1,
            row.2,
            row.3,
            paper.meta.q.len(),
            ar18.meta.q.len()
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            row.0,
            row.1,
            row.2,
            row.3,
            paper.meta.q.len(),
            ar18.meta.q.len()
        );
        rows.push(row);
    }
    type Row4 = (usize, u64, u64, u64);
    let fit = |f: &dyn Fn(&Row4) -> u64| {
        fit_exponent(&rows.iter().map(|r| (r.0 as f64, f(r) as f64)).collect::<Vec<_>>())
    };
    let _ = writeln!(
        table,
        "\nfitted exponents: this-paper {:.2} (Õ(n^4/3)) | AR18 {:.2} (Õ(n^3/2)) | naive {:.2} (O(n^2))",
        fit(&|r| r.1),
        fit(&|r| r.2),
        fit(&|r| r.3)
    );
    ExperimentOutput { id: "t1deep", table, csv }
}

/// T2 — blocker constructions: size and rounds, greedy \[2\] vs Algorithm 2
/// vs Algorithm 2′, on a hop-deep workload, h sweep.
#[must_use]
pub fn t2(n: usize) -> ExperimentOutput {
    let mut table = String::new();
    let mut csv =
        String::from("h,paths,greedy_q,greedy_rounds,rand_q,rand_rounds,det_q,det_rounds,bound\n");
    let _ = writeln!(
        table,
        "T2: blocker set constructions on broom(n={n}) — Lemma 3.10/3.11 vs the [2] baseline"
    );
    let _ = writeln!(
        table,
        "{:>3} {:>7} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9} | {:>9}",
        "h", "paths", "greedy|Q|", "rounds", "rand|Q|", "rounds", "det|Q|", "rounds", "O(n ln p/h)"
    );
    let g = hop_deep(n, 5);
    let topo = Topology::from_graph(&g);
    let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
    for h in [2usize, 3, 4, 6, 8] {
        let mut rec = Recorder::new();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            h,
            Direction::Out,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut congest_apsp::Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        let (ctx, _) = PathCtx::build(&topo, SimConfig::default(), &coll).unwrap();
        let paths = ctx.alive_count();

        let mut grec = Recorder::new();
        let gres = greedy_blocker(&topo, SimConfig::default(), &coll, &mut grec).unwrap();
        assert!(is_valid_blocker(&coll, &gres));

        let mut rrec = Recorder::new();
        let (rres, _) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            BlockerParams::default(),
            Selection::Randomized { seed: 7 },
            &mut rrec,
        )
        .unwrap();
        assert!(is_valid_blocker(&coll, &rres));

        let mut drec = Recorder::new();
        let (dres, _) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            BlockerParams::default(),
            Selection::Derandomized,
            &mut drec,
        )
        .unwrap();
        assert!(is_valid_blocker(&coll, &dres));

        let bound = (n as f64) * (paths.max(2) as f64).ln() / h as f64;
        // Lemma 3.10: Algorithm 2/2′ pick O((n/h)·ln p) nodes. Every
        // instance here clears the bound with constant 1 at least 3×, so
        // this pins the lemma's shape, not a constant.
        for (sel, q) in [("Algorithm 2", rres.len()), ("Algorithm 2′", dres.len())] {
            assert!(q as f64 <= bound, "h = {h}: {sel} |Q| = {q} above (n/h)·ln p = {bound:.1}");
        }
        let _ = writeln!(
            table,
            "{:>3} {:>7} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9} | {:>9.1}",
            h,
            paths,
            gres.len(),
            grec.total_rounds(),
            rres.len(),
            rrec.total_rounds(),
            dres.len(),
            drec.total_rounds(),
            bound
        );
        let _ = writeln!(
            csv,
            "{h},{paths},{},{},{},{},{},{},{bound:.1}",
            gres.len(),
            grec.total_rounds(),
            rres.len(),
            rrec.total_rounds(),
            dres.len(),
            drec.total_rounds()
        );
    }
    ExperimentOutput { id: "t2", table, csv }
}

/// F2 — the n·|Q| term: blocker rounds vs n at fixed h, greedy vs Alg 2′.
#[must_use]
pub fn f2() -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from("n,q,greedy_rounds,det_rounds,greedy_per_q,det_per_q\n");
    let _ = writeln!(
        table,
        "F2: rounds vs n at h=3 on brooms — greedy pays O(n) per blocker node, Alg 2' does not"
    );
    let _ = writeln!(
        table,
        "{:>5} {:>5} {:>13} {:>13} {:>12} {:>12}",
        "n", "|Q|", "greedy", "Alg2'", "greedy/|Q|", "Alg2'/|Q|"
    );
    for n in [24usize, 40, 56, 80, 104] {
        let g = hop_deep(n, 5);
        let topo = Topology::from_graph(&g);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let mut rec = Recorder::new();
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            3,
            Direction::Out,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut congest_apsp::Recovery::disabled(),
            "csssp",
        )
        .unwrap();
        let mut grec = Recorder::new();
        let gres = greedy_blocker(&topo, SimConfig::default(), &coll, &mut grec).unwrap();
        let mut drec = Recorder::new();
        let (dres, _) = alg2_blocker(
            &topo,
            SimConfig::default(),
            &coll,
            BlockerParams::default(),
            Selection::Derandomized,
            &mut drec,
        )
        .unwrap();
        let q = gres.len().max(1) as u64;
        let dq = dres.len().max(1) as u64;
        let _ = writeln!(
            table,
            "{:>5} {:>5} {:>13} {:>13} {:>12} {:>12}",
            n,
            gres.len(),
            grec.total_rounds(),
            drec.total_rounds(),
            grec.total_rounds() / q,
            drec.total_rounds() / dq
        );
        let _ = writeln!(
            csv,
            "{n},{},{},{},{},{}",
            gres.len(),
            grec.total_rounds(),
            drec.total_rounds(),
            grec.total_rounds() / q,
            drec.total_rounds() / dq
        );
    }
    ExperimentOutput { id: "f2", table, csv }
}

/// T3 — Step 6: pipelined Algorithms 8+9 vs trivial broadcast, plus the
/// Lemma A.15/A.16 congestion and |B| bounds.
#[must_use]
pub fn t3() -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from(
        "workload_n,q,pipe_rounds,trivial_rounds,cong_before,cong_after,threshold,b,sqrt_q,q_prime\n",
    );
    let _ = writeln!(
        table,
        "T3: reversed q-sink propagation (Step 6), |Q| = n/5 blockers, exact inputs"
    );
    let _ = writeln!(
        table,
        "{:>10} {:>4} {:>11} {:>13} {:>11} {:>10} {:>10} {:>4} {:>7} {:>5}",
        "workload/n",
        "|Q|",
        "pipelined",
        "trivial",
        "cong-pre",
        "cong-post",
        "n√|Q|",
        "|B|",
        "√|Q|",
        "|Q'|"
    );
    for (wname, n) in
        [("rand", 24usize), ("rand", 56), ("rand", 104), ("deep", 24), ("deep", 56), ("deep", 104)]
    {
        let g = if wname == "rand" {
            sparse_random(n, 400 + n as u64)
        } else {
            hop_deep(n, 400 + n as u64)
        };
        let topo = Topology::from_graph(&g);
        let cfg = ApspConfig::default();
        let q: Vec<NodeId> = (0..n as NodeId).step_by(5).collect();
        let exact = apsp_dijkstra(&g);
        let dvals = RoutedTable::new(DistMatrix::from_rows(
            (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
        ));
        let mut rec = Recorder::new();
        let (out, stats) =
            propagate_to_blockers(&g, &topo, &cfg, BlockerParams::default(), &q, &dvals, &mut rec)
                .unwrap();
        for (qi, &c) in q.iter().enumerate() {
            assert_eq!(&out.dist[qi], &dijkstra(&g, c, Direction::In)[..], "delivery to {c}");
        }
        let mut trec = Recorder::new();
        let _ = propagate_trivial_broadcast(&topo, SimConfig::default(), &q, &dvals, &mut trec)
            .unwrap();
        let threshold = (n as f64 * (q.len() as f64).sqrt()).ceil() as u64;
        let sq = (q.len() as f64).sqrt();
        assert!(stats.congestion_after <= threshold);
        assert!(stats.b_size as f64 <= sq + 1.0);
        let _ = writeln!(
            table,
            "{wname:>5}{:>5} {:>4} {:>11} {:>13} {:>11} {:>10} {:>10} {:>4} {:>7.1} {:>5}",
            n,
            q.len(),
            rec.total_rounds(),
            trec.total_rounds(),
            stats.congestion_before,
            stats.congestion_after,
            threshold,
            stats.b_size,
            sq,
            stats.q_prime_size
        );
        let _ = writeln!(
            csv,
            "{wname}-{n},{},{},{},{},{},{threshold},{},{sq:.1},{}",
            q.len(),
            rec.total_rounds(),
            trec.total_rounds(),
            stats.congestion_before,
            stats.congestion_after,
            stats.b_size,
            stats.q_prime_size
        );
    }
    ExperimentOutput { id: "t3", table, csv }
}

/// F3 — Lemma 4.6/4.8 progress measure: the max per-node count of active
/// blocker queues over the round-robin push, sampled at powers of two.
#[must_use]
pub fn f3() -> ExperimentOutput {
    let n = 104;
    let g = sparse_random(n, 17);
    let topo = Topology::from_graph(&g);
    let cfg = ApspConfig::default();
    let q: Vec<NodeId> = (0..n as NodeId).step_by(4).collect();
    let exact = apsp_dijkstra(&g);
    let dvals = RoutedTable::new(DistMatrix::from_rows(
        (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
    ));
    let mut rec = Recorder::new();
    let (_, stats) =
        propagate_to_blockers(&g, &topo, &cfg, BlockerParams::default(), &q, &dvals, &mut rec)
            .unwrap();
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
    use congest_derand::{brs_cover, BrsParams, Hypergraph};
    let mut table = String::new();
    let mut csv = String::from("groups,steps,set_picks,points_examined,points_per_set,fallbacks\n");
    let _ = writeln!(
        table,
        "T4: good-set sampling (Lemma 3.8: ≥ 1/8 of sample points are good ⇒ few draws per accepted set)"
    );
    let _ = writeln!(
        table,
        "{:>7} {:>6} | {:>9} {:>9} {:>13} {:>9} | {:>9}",
        "groups", "mode", "steps", "set-picks", "pts-examined", "pts/set", "fallbacks"
    );
    for groups in [200usize, 400, 800] {
        // Flat instance: many size-3 disjoint edges force the sampling path
        // (every vertex has score 1, so no singleton dominates).
        let edges: Vec<Vec<u32>> =
            (0..groups).map(|g| ((g * 3) as u32..(g * 3 + 3) as u32).collect()).collect();
        let hg = Hypergraph::new(groups * 3, edges);
        for (mode, sel) in [
            ("rand", congest_derand::Selection::Randomized { seed: 3 }),
            ("det", congest_derand::Selection::Derandomized),
        ] {
            let (cover, stats) = brs_cover(&hg, BrsParams::exercise_sampling(), sel);
            assert!(congest_derand::verify_cover(&hg, &cover));
            let pts_per_set = if stats.set_picks > 0 {
                stats.sample_points_examined as f64 / stats.set_picks as f64
            } else {
                f64::NAN
            };
            let _ = writeln!(
                table,
                "{:>7} {:>6} | {:>9} {:>9} {:>13} {:>9.1} | {:>9}",
                groups,
                mode,
                stats.selection_steps,
                stats.set_picks,
                stats.sample_points_examined,
                pts_per_set,
                stats.fallbacks
            );
            let _ = writeln!(
                csv,
                "{groups},{},{},{},{pts_per_set:.2},{}",
                stats.selection_steps,
                stats.set_picks,
                stats.sample_points_examined,
                stats.fallbacks
            );
        }
    }
    let _ = writeln!(
        table,
        "\n(randomized: pts/set ≈ expected retries ≤ 8 per Lemma 3.8; derandomized: scan depth into the affine space)"
    );
    ExperimentOutput { id: "t4", table, csv }
}

/// T5 — Theorem 1.1 correctness sweep: exactness across all families,
/// orientations and weight regimes.
#[must_use]
pub fn t5() -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from("family,directed,weights,n,q,rounds,exact\n");
    let _ = writeln!(table, "T5: exactness sweep (Theorem 1.1), paper configuration");
    let _ = writeln!(
        table,
        "{:<11} {:>8} {:>13} {:>4} {:>4} {:>9} {:>6}",
        "family", "directed", "weights", "n", "|Q|", "rounds", "exact"
    );
    let weight_regimes: [(&str, WeightDist); 3] = [
        ("unit", WeightDist::Unit),
        ("uniform", WeightDist::Uniform(0, 100)),
        ("zero-infl", WeightDist::ZeroInflated { p_zero: 0.3, hi: 50 }),
    ];
    let mut all_ok = true;
    for fam in Family::ALL {
        for directed in [true, false] {
            for (wname, dist) in weight_regimes {
                let g = fam.build(16, directed, dist, 123);
                let out = Solver::builder(&g).run().unwrap();
                let ok = out.dist == apsp_dijkstra(&g);
                all_ok &= ok;
                let _ = writeln!(
                    table,
                    "{:<11} {:>8} {:>13} {:>4} {:>4} {:>9} {:>6}",
                    fam.name(),
                    directed,
                    wname,
                    g.n(),
                    out.meta.q.len(),
                    out.recorder.total_rounds(),
                    if ok { "yes" } else { "NO" }
                );
                let _ = writeln!(
                    csv,
                    "{},{},{},{},{},{},{}",
                    fam.name(),
                    directed,
                    wname,
                    g.n(),
                    out.meta.q.len(),
                    out.recorder.total_rounds(),
                    ok
                );
            }
        }
    }
    assert!(all_ok, "T5 found an inexact configuration");
    let _ = writeln!(table, "\nall {} configurations exact ✓", Family::ALL.len() * 6);
    ExperimentOutput { id: "t5", table, csv }
}

/// F4 — ablations: (a) Step-9 queue discipline; (b) CSSSP 2h-truncation vs
/// plain h-hop trees (consistency violations).
#[must_use]
pub fn f4() -> ExperimentOutput {
    let mut table = String::new();
    let mut csv = String::from("ablation,config,value\n");
    // (a) queue discipline
    let n = 80;
    let g = sparse_random(n, 9);
    let topo = Topology::from_graph(&g);
    let cfg = ApspConfig::default();
    let q: Vec<NodeId> = (0..n as NodeId).step_by(4).collect();
    let exact = apsp_dijkstra(&g);
    let dvals = RoutedTable::new(DistMatrix::from_rows(
        (0..n).map(|x| q.iter().map(|&c| exact[x][c as usize]).collect()).collect(),
    ));
    let _ = writeln!(table, "F4a: Step-9 queue discipline ablation (n={n}, |Q|={})", q.len());
    for (name, d) in [
        ("round-robin (paper)", PushDiscipline::RoundRobin),
        ("fixed-priority", PushDiscipline::FixedPriority),
        ("longest-first", PushDiscipline::LongestFirst),
    ] {
        let mut rec = Recorder::new();
        let (out, stats) = propagate_to_blockers_with(
            &g,
            &topo,
            &cfg,
            BlockerParams::default(),
            &q,
            &dvals,
            d,
            &mut rec,
        )
        .unwrap();
        for (qi, &c) in q.iter().enumerate() {
            assert_eq!(&out.dist[qi], &dijkstra(&g, c, Direction::In)[..]);
        }
        let _ = writeln!(
            table,
            "  {:<22} push rounds = {:>6}, total step-6 rounds = {:>6}",
            name,
            stats.round_robin_rounds,
            rec.total_rounds()
        );
        let _ = writeln!(csv, "discipline,{name},{}", stats.round_robin_rounds);
    }
    // (b) CSSSP construction ablation
    let _ =
        writeln!(table, "\nF4b: CSSSP 2h+truncate vs plain h-hop BF trees (consistency checker)");
    let mut plain_fail = 0;
    let mut csssp_fail = 0;
    let trials = 20;
    for seed in 0..trials {
        let g = sparse_random(24, 9000 + seed);
        let topo = Topology::from_graph(&g);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let mut rec = Recorder::new();
        // the real construction
        let coll = build_csssp(
            &g,
            &topo,
            &sources,
            3,
            Direction::Out,
            SimConfig::default(),
            Charging::Quiesce,
            &mut rec,
            &mut congest_apsp::Recovery::disabled(),
            "c",
        )
        .unwrap();
        if coll.check_consistency(&g).is_err() {
            csssp_fail += 1;
        }
        // the strawman: h-hop BF, no 2h horizon, no truncation (run_bf
        // at h rounds, where build_csssp runs 2h and truncates)
        let plain = SsspCollection::from_trees(g.n(), &sources, 3, Direction::Out, |s| {
            congest_apsp::bf::run_bf(
                &g,
                &topo,
                s,
                Direction::Out,
                3,
                None,
                false,
                SimConfig::default(),
                Charging::Quiesce,
            )
            .map(|(res, _)| res)
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
pub const IDS: [&str; 11] =
    ["t1", "t1wc", "t1deep", "t2", "f2", "t3", "f3", "t4", "t5", "f4", "all"];

/// Runs one experiment by id.
///
/// # Panics
/// Panics on an id not in [`IDS`], and when an experiment finds an
/// inexact result.
#[must_use]
pub fn run(id: &str, big: bool) -> Vec<ExperimentOutput> {
    match id {
        "t1" => vec![t1(big, Charging::Quiesce)],
        "t1wc" => vec![t1(false, Charging::WorstCase)],
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
