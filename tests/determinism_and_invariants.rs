//! Cross-crate invariants: determinism of the deterministic algorithms,
//! pinned per-step communication counts and picks, the host time of the
//! local Step 5, blocker validity through the public API, congestion
//! bounds, and randomized-variant stability across seeds.

use congest_apsp::{Algorithm, ApspOutcome, Selection, Solver};
use congest_bench::workloads::{hop_deep, sparse_random};
use congest_graph::generators::{Family, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{Graph, NodeId};
use std::collections::BTreeMap;

#[test]
fn deterministic_runs_are_bit_identical() {
    let g = Family::SparseRandom.build(16, true, WeightDist::Uniform(0, 9), 77);
    let solver = Solver::builder(&g).build();
    let a = solver.run().unwrap();
    let b = solver.run().unwrap();
    assert_eq!(a.dist, b.dist);
    assert_eq!(a.meta.q, b.meta.q);
    assert_eq!(a.recorder.total_rounds(), b.recorder.total_rounds());
    assert_eq!(a.recorder.total_messages(), b.recorder.total_messages());
    // phase-by-phase identity
    let pa: Vec<_> = a.recorder.phases().iter().map(|p| (p.name.clone(), p.rounds)).collect();
    let pb: Vec<_> = b.recorder.phases().iter().map(|p| (p.name.clone(), p.rounds)).collect();
    assert_eq!(pa, pb);
}

/// The pipeline step of a recorded phase label (Ar18 labels carry an
/// `ar18/` prefix; the bottleneck pruning runs inside Step 6).
fn step_of(label: &str) -> &str {
    let l = label.strip_prefix("ar18/").unwrap_or(label);
    if l.starts_with("bottleneck: ") {
        return "step6";
    }
    assert!(l.starts_with("step"), "unclassified phase {label:?}");
    &l[..5]
}

/// Per-step `[rounds, messages, payload words]` of one solve.
fn step_counts(out: &ApspOutcome<u64>) -> Vec<(String, [u64; 3])> {
    let mut steps: BTreeMap<String, [u64; 3]> = BTreeMap::new();
    for p in out.recorder.phases() {
        let s = steps.entry(step_of(&p.name).to_string()).or_default();
        s[0] += p.rounds;
        s[1] += p.messages;
        s[2] += p.payload_words;
    }
    steps.into_iter().collect()
}

/// What one solve picked, beside what it sent: Q in pick order; Ar20's
/// Algorithm 2′ counters (see [`alg2_counters`]); and Ar20's Step-6
/// counters (see [`step6_counters`]).
type Picks = (&'static [NodeId], Option<([u64; 6], &'static [usize])>, Option<[u64; 6]>);

/// `[selection steps, singleton picks, set picks, sample points examined,
/// blocks scanned, fallbacks]` and the good-set sizes.
fn alg2_counters(out: &ApspOutcome<u64>) -> Option<([u64; 6], Vec<usize>)> {
    out.meta.blocker_stats.as_ref().map(|s| {
        let counters = [
            s.selection_steps,
            s.singleton_picks,
            s.set_picks,
            s.sample_points_examined,
            s.blocks_scanned,
            s.fallbacks,
        ];
        (counters, s.good_set_sizes.clone())
    })
}

/// `[|Q′|, |B|, congestion before, congestion after, round-robin rounds,
/// round-robin messages]`.
fn step6_counters(out: &ApspOutcome<u64>) -> Option<[u64; 6]> {
    out.meta.step6.as_ref().map(|s| {
        [
            s.q_prime_size as u64,
            s.b_size as u64,
            s.congestion_before,
            s.congestion_after,
            s.round_robin_rounds,
            s.round_robin_messages,
        ]
    })
}

/// Golden per-step counts and picks for Ar20 and Ar18 on a hop-deep graph
/// and a sparse one (blockers fire on both, for both algorithms). Every
/// protocol is deterministic, so the counts move only when a protocol
/// changes what it sends; a simulator-side refactor must leave them
/// exactly as they are. The picks hold what the solve decided, so a
/// protocol that sends less but knows the same keeps them.
#[test]
fn per_step_counts_are_pinned() {
    type Golden = &'static [(&'static str, [u64; 3])];
    let cases: [(&str, Graph<u64>, Algorithm, Golden, Picks); 4] = [
        (
            "hop_deep(64, 1)",
            hop_deep(64, 1),
            Algorithm::Ar20,
            &[
                ("step1", [896, 6496, 15222]),
                ("step2", [2198, 17597, 27371]),
                ("step3", [45, 184, 368]),
                ("step4", [33, 1575, 4725]),
                ("step5", [0, 0, 0]),
                ("step6", [1541, 23506, 65335]),
                ("step7", [320, 8830, 26490]),
            ],
            (
                &[30, 7, 14, 21, 25, 3, 10, 17, 26],
                Some(([9, 9, 0, 0, 0, 0], &[])),
                Some([2, 0, 166, 166, 178, 3082]),
            ),
        ),
        (
            "hop_deep(64, 1)",
            hop_deep(64, 1),
            Algorithm::Ar18,
            &[
                ("step1", [1664, 9080, 21594]),
                ("step2", [419, 6541, 9400]),
                ("step3", [640, 1260, 3150]),
                ("step4", [316, 20160, 80640]),
                ("step5", [0, 0, 0]),
            ],
            (&[26, 8, 16, 18, 0], None, None),
        ),
        (
            "sparse_random(64, 1)",
            sparse_random(64, 1),
            Algorithm::Ar20,
            &[
                ("step1", [896, 29376, 80130]),
                ("step2", [1777, 64888, 95977]),
                ("step3", [100, 3927, 7854]),
                ("step4", [395, 24633, 73899]),
                ("step5", [0, 0, 0]),
                ("step6", [1446, 21958, 49794]),
                ("step7", [320, 16519, 49557]),
            ],
            (
                &[58, 25, 57, 51, 55, 36, 46, 31, 8, 29, 18, 6, 40, 2, 49, 54, 47, 33, 24, 15],
                Some(([20, 20, 0, 0, 0, 0], &[])),
                Some([0, 0, 287, 287, 288, 4745]),
            ),
        ),
        (
            "sparse_random(64, 1)",
            sparse_random(64, 1),
            Algorithm::Ar18,
            &[
                ("step1", [1664, 32466, 85443]),
                ("step2", [232, 7758, 10172]),
                ("step3", [384, 2335, 5852]),
                ("step4", [190, 36495, 145980]),
                ("step5", [0, 0, 0]),
            ],
            (&[25, 31, 23], None, None),
        ),
    ];
    for (name, g, alg, golden, (q, alg2, step6)) in cases {
        let out = Solver::builder(&g).algorithm(alg).run().unwrap();
        let want: Vec<(String, [u64; 3])> =
            golden.iter().map(|&(s, c)| (s.to_string(), c)).collect();
        assert_eq!(step_counts(&out), want, "{name} {alg:?}");
        assert_eq!(out.meta.q, q, "{name} {alg:?} Q");
        let alg2 = alg2.map(|(c, sizes)| (c, sizes.to_vec()));
        assert_eq!(alg2_counters(&out), alg2, "{name} {alg:?} Alg2Stats");
        assert_eq!(step6_counters(&out), step6, "{name} {alg:?} Step6Stats");
    }
}

/// Step 5 sends nothing, but its host work is a recorded phase's time,
/// so it is not left unattributed.
#[test]
fn step5_phases_carry_host_time() {
    let g = hop_deep(64, 1);
    for (alg, label) in [
        (Algorithm::Ar20, "step5: local closure over Q"),
        (Algorithm::Ar18, "ar18/step5: local combine"),
    ] {
        let out = Solver::builder(&g).algorithm(alg).run().unwrap();
        assert!(!out.meta.q.is_empty(), "{alg:?}: blockers fire on hop_deep(64, 1)");
        let step5: Vec<_> = out.recorder.phases().iter().filter(|p| p.name == label).collect();
        let [p] = step5[..] else { panic!("{alg:?}: one {label:?} phase, got {}", step5.len()) };
        assert!(p.wall_ns > 0, "{alg:?}: {label:?} records its host time");
    }
}

#[test]
fn tracked_successor_planes_are_byte_identical_across_runs() {
    let g = Family::SparseRandom.build(16, true, WeightDist::Uniform(0, 9), 42);
    let solver = Solver::builder(&g).build();
    let a = solver.run().unwrap();
    let b = solver.run().unwrap();
    let pa = a.dist.successors().expect("every outcome carries a plane");
    let pb = b.dist.successors().expect("every outcome carries a plane");
    assert_eq!(pa, pb, "two runs must produce byte-identical successor planes");
    assert_eq!(a.dist.as_slice(), b.dist.as_slice());
    // Payload accounting is deterministic too.
    assert_eq!(a.recorder.total_payload_words(), b.recorder.total_payload_words());
    assert_eq!(a.recorder.max_msg_words(), b.recorder.max_msg_words());
}

#[test]
fn randomized_variant_same_answer_any_seed() {
    let g = Family::Broom.build(14, true, WeightDist::Uniform(1, 9), 5);
    let oracle = apsp_dijkstra(&g);
    let mut rounds = Vec::new();
    for seed in [1u64, 99, 12345] {
        let out = Solver::builder(&g).selection(Selection::Randomized { seed }).run().unwrap();
        assert_eq!(out.dist, oracle, "seed {seed}");
        rounds.push(out.recorder.total_rounds());
    }
    // rounds may differ across seeds, but only within sane bounds
    let (lo, hi) = (rounds.iter().min().unwrap(), rounds.iter().max().unwrap());
    assert!(hi / lo.max(&1) < 10, "seed variance too large: {rounds:?}");
}

#[test]
fn blocker_set_reported_in_meta_is_valid() {
    // Rebuild the CSSSP through the public API and check Q against it.
    use congest_apsp::blocker::is_valid_blocker;
    use congest_apsp::csssp::build_csssp;
    use congest_graph::seq::Direction;
    use congest_sim::{Recorder, SimConfig, Topology};

    let g = Family::Broom.build(18, true, WeightDist::Uniform(1, 5), 9);
    let out = Solver::builder(&g).run().unwrap();
    let topo = Topology::from_graph(&g);
    let mut rec = Recorder::new();
    let sources: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let coll = build_csssp(
        &g,
        &topo,
        &sources,
        out.meta.h,
        Direction::Out,
        SimConfig::default(),
        &mut rec,
        &mut congest_apsp::Recovery::disabled(),
        "csssp",
    )
    .unwrap();
    assert!(is_valid_blocker(&coll, &out.meta.q));
}

#[test]
fn step6_congestion_bound_holds() {
    let g = Family::SparseRandom.build(20, true, WeightDist::Uniform(0, 9), 21);
    let out = Solver::builder(&g).run().unwrap();
    if let Some(s6) = &out.meta.step6 {
        let q = out.meta.q.len();
        if q > 0 {
            let threshold = (g.n() as f64 * (q as f64).sqrt()).ceil() as u64;
            assert!(
                s6.congestion_after <= threshold,
                "Lemma A.15 violated: {} > {threshold}",
                s6.congestion_after
            );
        }
    }
}
