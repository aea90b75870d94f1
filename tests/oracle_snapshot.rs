//! Snapshot integration tests on the v2 bytes `to_bytes` and `save`
//! write: byte-exact round trips through memory and disk, and graceful
//! `Err` (never a panic) on malformed input — version and weight-type
//! mismatches, bit flips, and trailing garbage. Truncation at every
//! prefix length is `oracle_snapshot_v2::v2_truncation_is_graceful_at_every_length`.

use congest_graph::generators::{gnm_connected, Family, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::F64;
use congest_oracle::{Oracle, SnapshotError, MAGIC, VERSION_V2};

fn sample(n: usize, seed: u64) -> Oracle<u64> {
    let g = gnm_connected(n, 2 * n, true, WeightDist::Uniform(0, 30), seed);
    Oracle::from_dist(&g, apsp_dijkstra(&g))
}

#[test]
fn round_trip_is_bit_identical_across_families() {
    for fam in [Family::Path, Family::Star, Family::Layered] {
        let g = fam.build(17, true, WeightDist::Uniform(1, 9), 4);
        let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
        let bytes = oracle.to_bytes();
        let restored = Oracle::<u64>::from_bytes(&bytes).unwrap();
        assert_eq!(oracle, restored, "family {}", fam.name());
        assert_eq!(bytes, restored.to_bytes(), "re-serialization must be byte-identical");
    }
}

#[test]
fn disk_round_trip_and_queries_survive() {
    let oracle = sample(20, 11);
    let path = std::env::temp_dir().join("oracle_snapshot_it.bin");
    oracle.save(&path).unwrap();
    let restored = Oracle::<u64>::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(oracle, restored);
    for u in 0..20u32 {
        for v in 0..20u32 {
            assert_eq!(oracle.path(u, v), restored.path(u, v));
        }
    }
}

#[test]
fn version_mismatch_is_a_graceful_err() {
    // Version 2 is a real format now, so "unknown" starts past it.
    let mut bytes = sample(6, 3).to_bytes();
    let future = (VERSION_V2 + 97).to_le_bytes();
    bytes[8] = future[0];
    bytes[9] = future[1];
    match Oracle::<u64>::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found }) => assert_eq!(found, VERSION_V2 + 97),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // The legacy v1 format is refused by its header alone.
    let mut bytes = sample(6, 3).to_bytes();
    bytes[8] = 1;
    bytes[9] = 0;
    assert!(matches!(
        Oracle::<u64>::from_bytes(&bytes),
        Err(SnapshotError::UnsupportedVersion { found: 1 })
    ));
}

#[test]
fn weight_type_confusion_is_rejected() {
    let bytes = sample(6, 4).to_bytes();
    assert!(matches!(
        Oracle::<F64>::from_bytes(&bytes),
        Err(SnapshotError::WeightTypeMismatch { .. })
    ));
}

#[test]
fn every_single_bit_flip_in_a_small_snapshot_is_detected() {
    let good = sample(4, 5).to_bytes();
    for byte in 0..good.len() {
        let mut bad = good.clone();
        bad[byte] ^= 1;
        assert!(Oracle::<u64>::from_bytes(&bad).is_err(), "flipping byte {byte} went undetected");
    }
}

#[test]
fn magic_and_trailing_garbage_rejected() {
    let mut bytes = sample(5, 6).to_bytes();
    bytes[0] = b'X';
    assert!(matches!(Oracle::<u64>::from_bytes(&bytes), Err(SnapshotError::BadMagic)));

    // v2 finds its footer at the end of the file, so appended bytes land
    // in the footer and break its checksum.
    let mut bytes = sample(5, 6).to_bytes();
    bytes.extend_from_slice(b"junk");
    assert!(matches!(Oracle::<u64>::from_bytes(&bytes), Err(SnapshotError::ChecksumMismatch)));

    assert_eq!(MAGIC.len(), 8);
}

#[test]
fn errors_render_useful_messages() {
    let err = Oracle::<u64>::from_bytes(&[]).unwrap_err();
    assert!(err.to_string().contains("truncated"));
    let mut bytes = sample(4, 7).to_bytes();
    bytes[8] = 0xFF;
    let err = Oracle::<u64>::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("version"));
}

// ---------------------------------------------------------------------------
// Fuzz: arbitrary byte-range mutations. The loader's contract is that NO
// input makes `from_bytes` panic, and no accepted input serves different
// answers than the snapshot that was saved — a mutation either trips a
// typed `SnapshotError` (usually the checksum) or was semantically a no-op.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fuzzed_byte_ranges_never_panic_or_corrupt(
        seed in 0u64..6,
        start in 0usize..100_000,
        len in 1usize..64,
        xor in proptest::collection::vec(0u8..=255u8, 64),
        resize in 0usize..3,
        delta in 1usize..32,
    ) {
        let oracle = sample(10, seed);
        let clean = oracle.to_bytes();
        let mut bytes = clean.clone();
        let start = start % bytes.len();
        for (i, &mask) in xor.iter().enumerate().take(len) {
            let Some(b) = bytes.get_mut(start + i) else { break };
            *b ^= mask;
        }
        match resize {
            1 => bytes.truncate(bytes.len().saturating_sub(delta)),
            2 => bytes.extend(xor.iter().cycle().take(delta)),
            _ => {}
        }
        match Oracle::<u64>::from_bytes(&bytes) {
            // Any typed error is a pass — a panic would fail the test.
            // (The untouched snapshot must still load.)
            Err(_) => prop_assert_ne!(bytes, clean),
            Ok(restored) => {
                // Only a semantically no-op mutation may be accepted, and
                // it must serve bit-identical distances and valid walks.
                for u in 0..10u32 {
                    for v in 0..10u32 {
                        prop_assert_eq!(restored.distance(u, v), oracle.distance(u, v));
                        prop_assert!(restored.try_path(u, v).is_ok());
                    }
                }
            }
        }
    }
}
