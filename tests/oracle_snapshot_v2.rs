//! v2 blocked-snapshot integration tests: bit-identical answers across
//! the in-memory oracle and the eager and paged v2 readers, for every
//! block size and for the file `Oracle::save` writes; per-block corruption
//! that is typed and names the damaged block; graceful truncation at
//! every length; hostile-index rejection; and eviction-under-load
//! correctness with a resident budget a fraction of the file size; and
//! blocks whose checksum holds but whose payload does not decode. Every
//! damaged image is also written to disk, where `Oracle::load` (which
//! streams the file) must fail exactly as `Oracle::from_bytes` does.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{Edge, Graph, NodeId, F64};
use congest_oracle::{
    Cores, Oracle, PagedConfig, PagedOracle, PortableWeight, QueryError, SnapshotError, V2Config,
};

fn sample(n: usize, seed: u64) -> (Graph<u64>, Oracle<u64>) {
    let g = gnm_connected(n, 2 * n, true, WeightDist::Uniform(0, 30), seed);
    let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
    (g, oracle)
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("v2_it_{}_{name}", std::process::id()))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Minimal independent reading of the v2 tail: (index_offset, entries),
/// each entry `(offset, len, fnv)`.
fn read_index(bytes: &[u8]) -> (usize, Vec<(u64, u64, u64)>) {
    let foot = bytes.len() - 32;
    let ioff = u64_at(bytes, foot) as usize;
    let ilen = u64_at(bytes, foot + 8) as usize;
    let entries = bytes[ioff..ioff + ilen]
        .chunks_exact(24)
        .map(|e| (u64_at(e, 0), u64_at(e, 8), u64_at(e, 16)))
        .collect();
    (ioff, entries)
}

/// Rewrites entry `i` of the index and re-seals the index + footer
/// checksums, so only the *semantic* damage is visible to the loader.
fn patch_entry(bytes: &mut [u8], i: usize, entry: (u64, u64, u64)) {
    let foot = bytes.len() - 32;
    let ioff = u64_at(bytes, foot) as usize;
    let ilen = u64_at(bytes, foot + 8) as usize;
    let at = ioff + i * 24;
    bytes[at..at + 8].copy_from_slice(&entry.0.to_le_bytes());
    bytes[at + 8..at + 16].copy_from_slice(&entry.1.to_le_bytes());
    bytes[at + 16..at + 24].copy_from_slice(&entry.2.to_le_bytes());
    let ifnv = fnv1a(&bytes[ioff..ioff + ilen]);
    bytes[foot + 16..foot + 24].copy_from_slice(&ifnv.to_le_bytes());
    let ffnv = fnv1a(&bytes[foot..foot + 24]);
    bytes[foot + 24..foot + 32].copy_from_slice(&ffnv.to_le_bytes());
}

/// Overwrites bytes `at..` of index entry `i`'s block with `cell` and
/// re-seals it: the block's new checksum goes into the index, and
/// `patch_entry` re-seals the index and footer.
fn rewrite_and_reseal(bytes: &mut [u8], i: usize, at: usize, cell: &[u8]) {
    let (_, entries) = read_index(bytes);
    let (off, len, _) = entries[i];
    let start = off as usize + at;
    bytes[start..start + cell.len()].copy_from_slice(cell);
    let fnv = fnv1a(&bytes[off as usize..(off + len) as usize]);
    patch_entry(bytes, i, (off, len, fnv));
}

/// Both eager loaders of `bytes` (also written to `path`) must fail with
/// `BlockCorrupt { block, what }`.
fn assert_eager_block_corrupt<W: PortableWeight + std::fmt::Debug>(
    bytes: &[u8],
    path: &std::path::Path,
    block: u32,
    what: &str,
) {
    std::fs::write(path, bytes).unwrap();
    for (reader, got) in [
        ("from_bytes", Oracle::<W>::from_bytes(bytes).err()),
        ("load", Oracle::<W>::load(path).err()),
    ] {
        match got {
            Some(SnapshotError::BlockCorrupt { block: b, what: w }) => {
                assert_eq!((b, w), (block, what), "{reader}");
            }
            other => {
                panic!("{reader}: expected BlockCorrupt {{ {block}, {what:?} }}, got {other:?}")
            }
        }
    }
}

/// `Oracle::load` of `path`, which holds `bytes`, must fail with the same
/// error as `Oracle::from_bytes(bytes)`.
fn assert_load_fails_like_from_bytes(path: &std::path::Path, bytes: &[u8]) {
    let from_bytes = Oracle::<u64>::from_bytes(bytes).expect_err("damaged image loaded");
    let load = Oracle::<u64>::load(path).expect_err("damaged file loaded");
    assert_eq!(format!("{load:?}"), format!("{from_bytes:?}"));
}

fn write_v2(oracle: &Oracle<u64>, cfg: &V2Config<u64>, name: &str) -> std::path::PathBuf {
    let path = temp(name);
    oracle.save_v2(&path, cfg).unwrap();
    path
}

/// Compares a paged handle against the eager oracle over every pair and
/// op. Walks must be *identical* (both derive successors with the same
/// deterministic reverse BFS), not merely both-shortest.
fn assert_backends_agree(eager: &Oracle<u64>, paged: &PagedOracle<u64>) {
    let n = eager.n();
    assert_eq!(paged.n(), n);
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            assert_eq!(paged.distance(u, v).unwrap(), eager.distance(u, v), "dist ({u},{v})");
            assert_eq!(paged.try_path(u, v).unwrap(), eager.try_path(u, v).unwrap(), "({u},{v})");
        }
        assert_eq!(paged.k_nearest(u, 5).unwrap(), eager.k_nearest(u, 5), "k_nearest({u})");
    }
}

#[test]
fn v1_and_v2_agree_bit_for_bit_across_block_sizes() {
    let (g, oracle) = sample(23, 9);
    // The in-memory oracle is the baseline; `Oracle::save` writes v2 with
    // the default config, so its file must page like any other.
    let path = temp("roundtrip_save");
    oracle.save(&path).unwrap();
    assert_eq!(Oracle::<u64>::load(&path).unwrap(), oracle, "eager load of Oracle::save");
    let paged = PagedOracle::<u64>::open(&path, PagedConfig::default()).unwrap();
    assert_backends_agree(&oracle, &paged);
    std::fs::remove_file(&path).ok();
    for block_rows in [1u32, 3, 8, 23, 64] {
        // With the successor plane on disk.
        let cfg = V2Config { block_rows, ..V2Config::default() };
        let path = write_v2(&oracle, &cfg, &format!("roundtrip_{block_rows}"));
        let v2 = Oracle::<u64>::load(&path).unwrap();
        assert_eq!(v2, oracle, "eager v2 load, block_rows={block_rows}");
        let paged = PagedOracle::<u64>::open(&path, PagedConfig::default()).unwrap();
        assert_backends_agree(&oracle, &paged);
        std::fs::remove_file(&path).ok();

        // Plane dropped on disk, graph embedded: successors re-derived.
        let cfg = V2Config { block_rows, drop_successors: true, graph: Some(&g) };
        let path = write_v2(&oracle, &cfg, &format!("roundtrip_ns_{block_rows}"));
        let v2 = Oracle::<u64>::load(&path).unwrap();
        assert_eq!(v2, oracle, "derived v2 load, block_rows={block_rows}");
        let paged = PagedOracle::<u64>::open(&path, PagedConfig::default()).unwrap();
        assert!(!paged.has_successor_plane());
        assert_backends_agree(&oracle, &paged);
        assert!(paged.stats().derivations > 0, "plane-less paged serving must derive");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn eviction_under_budget_keeps_answers_exact() {
    let (_, oracle) = sample(64, 4);
    let cfg = V2Config { block_rows: 3, ..V2Config::default() };
    let path = write_v2(&oracle, &cfg, "evict");
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    // Budget ≈ a quarter of the file: far too small to hold both planes,
    // so steady-state serving must continuously evict and re-validate.
    let paged =
        PagedOracle::<u64>::open(&path, PagedConfig { resident_bytes: file_len / 4 }).unwrap();
    assert_backends_agree(&oracle, &paged);
    let stats = paged.stats();
    assert!(stats.evictions > 0, "a quarter-file budget must evict: {stats:?}");
    assert!(stats.misses > stats.evictions, "every eviction was once a miss");
    assert!(
        paged.resident_bytes() <= file_len / 4,
        "resident {} exceeds budget {}",
        paged.resident_bytes(),
        file_len / 4
    );
    // Re-walk everything after heavy eviction churn: still exact.
    assert_backends_agree(&oracle, &paged);
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_paged_readers_under_tiny_budget_agree_with_eager() {
    let (_, oracle) = sample(48, 12);
    let cfg = V2Config { block_rows: 4, ..V2Config::default() };
    let path = write_v2(&oracle, &cfg, "concurrent");
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let paged =
        PagedOracle::<u64>::open(&path, PagedConfig { resident_bytes: file_len / 6 }).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let paged = &paged;
            let oracle = &oracle;
            scope.spawn(move || {
                let mut state = u64::from(t) + 1;
                for _ in 0..1500 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = (state % 48) as NodeId;
                    let v = ((state >> 32) % 48) as NodeId;
                    assert_eq!(paged.distance(u, v).unwrap(), oracle.distance(u, v));
                    assert_eq!(paged.try_path(u, v).unwrap(), oracle.try_path(u, v).unwrap());
                }
            });
        }
    });
    assert!(paged.stats().evictions > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn per_block_bit_flip_is_typed_and_names_the_block() {
    let (_, oracle) = sample(20, 7);
    let cfg = V2Config { block_rows: 4, ..V2Config::default() }; // 5 dist + 5 succ blocks
    let path = write_v2(&oracle, &cfg, "bitflip");
    let clean = std::fs::read(&path).unwrap();
    let (_, entries) = read_index(&clean);
    assert_eq!(entries.len(), 10);
    for (b, &(off, len, _)) in entries.iter().enumerate() {
        let mut bad = clean.clone();
        bad[off as usize + len as usize / 2] ^= 0x10;
        // Eager load: typed SnapshotError naming block b.
        match Oracle::<u64>::from_bytes(&bad) {
            Err(SnapshotError::BlockCorrupt { block, what }) => {
                assert_eq!(block as usize, b, "eager load names the damaged block");
                assert_eq!(what, "checksum mismatch");
            }
            other => panic!("block {b}: expected BlockCorrupt, got {other:?}"),
        }
        // Paged open succeeds (the index is intact); only queries that
        // touch block b fail, and the error names it. Blocks live in
        // row-partition order, so block b covers rows [4b, 4b+4).
        std::fs::write(&path, &bad).unwrap();
        assert_load_fails_like_from_bytes(&path, &bad);
        let paged = PagedOracle::<u64>::open(&path, PagedConfig::default()).unwrap();
        let row_in_block = (b % 5 * 4) as NodeId;
        let (hit, miss) = if b < 5 {
            // dist block: row queries touch it, other rows don't.
            (
                paged.distance(row_in_block, 0).map(|_| ()),
                paged.distance((row_in_block + 4) % 20, 0).map(|_| ()),
            )
        } else {
            // succ block: paths *toward* its targets touch it.
            let v = row_in_block;
            let other = (v + 4) % 20;
            (
                paged.try_path((v + 1) % 20, v).map(|_| ()),
                paged.try_path((other + 1) % 20, other).map(|_| ()),
            )
        };
        assert_eq!(
            hit.unwrap_err(),
            QueryError::BlockUnavailable { block: b as u32 },
            "query touching block {b}"
        );
        assert!(miss.is_ok(), "block {b}: undamaged blocks must keep serving");
    }
    // Blocks 1 and 3 of the first four-block group both damaged: the
    // first in file order is named.
    let mut bad = clean.clone();
    for &(off, len, _) in [entries[1], entries[3]].iter() {
        bad[off as usize + len as usize / 2] ^= 0x10;
    }
    assert_eager_block_corrupt::<u64>(&bad, &path, 1, "checksum mismatch");
    std::fs::write(&path, &clean).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn decode_errors_behind_a_valid_checksum_name_the_block() {
    // n = 20 in 4-row blocks: dist blocks are index entries 0-4, successor
    // blocks entries 5-9.
    let cfg = V2Config { block_rows: 4, ..V2Config::default() };
    let path = temp("decode_error");

    // Successor block 2 (entry 7) covers targets 8-11; toward target 9
    // (its row 1), node 3 now names node 20, which does not exist.
    let (_, oracle) = sample(20, 7);
    let clean = oracle.to_bytes_v2(&cfg).unwrap();
    let mut bad = clean.clone();
    rewrite_and_reseal(&mut bad, 7, (20 + 3) * 4, &20u32.to_le_bytes());
    assert_eager_block_corrupt::<u64>(&bad, &path, 7, "successor id out of range");
    let paged = PagedOracle::<u64>::open(&path, PagedConfig::default()).unwrap();
    assert_eq!(paged.try_path(3, 9), Err(QueryError::BlockUnavailable { block: 7 }));
    assert!(paged.try_path(3, 0).is_ok(), "other successor blocks keep serving");
    drop(paged);
    // A checksum mismatch in a later block of the same group does not
    // hide the decode error ...
    let (_, entries) = read_index(&bad);
    let mut worse = bad.clone();
    worse[entries[8].0 as usize] ^= 1;
    assert_eager_block_corrupt::<u64>(&worse, &path, 7, "successor id out of range");
    // ... and in the block itself it comes first.
    let (off, _, _) = read_index(&clean).1[7];
    let mut unsealed = clean.clone();
    unsealed[off as usize + (20 + 3) * 4..][..4].copy_from_slice(&20u32.to_le_bytes());
    assert_eager_block_corrupt::<u64>(&unsealed, &path, 7, "checksum mismatch");

    // A NaN weight in dist block 3 (entry 3, rows 12-15) of an F64
    // snapshot, at row 13, column 5.
    let g = gnm_connected(20, 40, true, WeightDist::Uniform(0, 30), 7)
        .map_weights(|w| F64::new(w as f64 / 4.0));
    let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
    let mut bad = oracle.to_bytes_v2(&V2Config { block_rows: 4, ..V2Config::default() }).unwrap();
    rewrite_and_reseal(&mut bad, 3, (20 + 5) * 8, &f64::NAN.to_bits().to_le_bytes());
    assert_eager_block_corrupt::<F64>(&bad, &path, 3, "invalid weight encoding");
    let paged = PagedOracle::<F64>::open(&path, PagedConfig::default()).unwrap();
    assert_eq!(paged.distance(13, 5), Err(QueryError::BlockUnavailable { block: 3 }));
    assert!(paged.distance(0, 5).is_ok(), "other dist blocks keep serving");
    drop(paged);
    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_truncation_is_graceful_at_every_length() {
    let (_, oracle) = sample(6, 2);
    let bytes = oracle.to_bytes_v2(&V2Config { block_rows: 2, ..V2Config::default() }).unwrap();
    let path = temp("truncated");
    for cut in 0..bytes.len() {
        assert!(Oracle::<u64>::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must not load");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(Oracle::<u64>::load(&path).is_err(), "file cut at {cut} must not load");
    }
    assert_eq!(Oracle::<u64>::from_bytes(&bytes).unwrap(), oracle);
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(Oracle::<u64>::load(&path).unwrap(), oracle);
    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_index_is_rejected_not_trusted() {
    let (_, oracle) = sample(12, 5);
    let path = write_v2(&oracle, &V2Config { block_rows: 4, ..V2Config::default() }, "hostile");
    let clean = std::fs::read(&path).unwrap();
    let (_, entries) = read_index(&clean);

    // Entry pointing outside its lane: overlapping its neighbor.
    let mut bad = clean.clone();
    patch_entry(&mut bad, 1, entries[0]);
    assert!(Oracle::<u64>::from_bytes(&bad).is_err(), "overlapping entries accepted");

    // Entry with an absurd length (would be a huge allocation if trusted).
    let mut bad = clean.clone();
    patch_entry(&mut bad, 0, (entries[0].0, u64::MAX / 2, entries[0].2));
    assert!(Oracle::<u64>::from_bytes(&bad).is_err(), "absurd length accepted");

    // Entry shifted out of the payload span.
    let mut bad = clean.clone();
    patch_entry(&mut bad, 0, (clean.len() as u64, entries[0].1, entries[0].2));
    assert!(Oracle::<u64>::from_bytes(&bad).is_err(), "out-of-range offset accepted");

    // Every variant must also be rejected from a file, by the lazy
    // opener and the streaming loader: exactly the codepaths an
    // attacker-controlled file would reach.
    for patch in [
        entries[0],
        (entries[0].0, u64::MAX / 2, entries[0].2),
        (clean.len() as u64, entries[0].1, entries[0].2),
    ] {
        let mut bad = clean.clone();
        patch_entry(&mut bad, 1, patch);
        std::fs::write(&path, &bad).unwrap();
        assert!(PagedOracle::<u64>::open(&path, PagedConfig::default()).is_err());
        assert_load_fails_like_from_bytes(&path, &bad);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn derivation_inconsistency_is_an_error_not_a_panic() {
    // A v2 snapshot whose embedded graph cannot explain its distances:
    // eager load must fail typed; it must never panic.
    let (_, oracle) = sample(8, 3);
    let wrong = Graph::from_edges(
        8,
        true,
        // A lone self-loop-free edge: almost everything is unreachable
        // in this graph, contradicting the finite distance matrix.
        vec![Edge { from: 0, to: 1, weight: 1u64 }],
    );
    let cfg = V2Config { block_rows: 2, drop_successors: true, graph: Some(&wrong) };
    let bytes = oracle.to_bytes_v2(&cfg).unwrap();
    assert!(Oracle::<u64>::from_bytes(&bytes).is_err());
}

#[test]
fn caller_thread_load_matches_the_forked_load() {
    // From n = 512 on, `Oracle::load` splits the plane checks and the
    // derivation over the cores. Holding them to the calling thread, as a
    // server's hot swap does, must change neither the oracle nor the error.
    let (g, oracle) = sample(512, 5);
    let derived = V2Config { drop_successors: true, graph: Some(&g), ..V2Config::default() };
    for (name, cfg) in [("cores_plane", V2Config::default()), ("cores_derived", derived)] {
        let path = write_v2(&oracle, &cfg, name);
        assert_eq!(Oracle::<u64>::load(&path).unwrap(), oracle, "{name}");
        assert_eq!(Oracle::<u64>::load_on(&path, Cores::Caller).unwrap(), oracle, "{name}");
        std::fs::remove_file(&path).ok();
    }
    // 64-row blocks: entries 0-7 are dist blocks, 8-15 successor blocks.
    // Target 70 (row 6 of successor block 1) gets a successor toward
    // itself, behind a valid checksum.
    let mut bad = oracle.to_bytes();
    rewrite_and_reseal(&mut bad, 9, (6 * 512 + 70) * 4, &1u32.to_le_bytes());
    let path = temp("cores_mismatch");
    std::fs::write(&path, &bad).unwrap();
    for got in [Oracle::<u64>::load(&path), Oracle::<u64>::load_on(&path, Cores::Caller)] {
        let err = got.err();
        let mismatch = matches!(err, Some(SnapshotError::Corrupt("successor/distance mismatch")));
        assert!(mismatch, "{err:?}");
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Fuzz: the v2 loader must never panic on mutated input, and anything it
// accepts must serve the original answers.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fuzzed_v2_byte_ranges_never_panic_or_corrupt(
        seed in 0u64..4,
        block_rows in 1u32..9,
        start in 0usize..100_000,
        len in 1usize..48,
        xor in proptest::collection::vec(0u8..=255u8, 48),
    ) {
        let (_, oracle) = sample(9, seed);
        let clean = oracle.to_bytes_v2(&V2Config { block_rows, ..V2Config::default() }).unwrap();
        let mut bytes = clean.clone();
        let start = start % bytes.len();
        for (i, &mask) in xor.iter().enumerate().take(len) {
            let Some(b) = bytes.get_mut(start + i) else { break };
            *b ^= mask;
        }
        match Oracle::<u64>::from_bytes(&bytes) {
            Err(_) => prop_assert_ne!(bytes, clean),
            Ok(restored) => {
                for u in 0..9u32 {
                    for v in 0..9u32 {
                        prop_assert_eq!(restored.distance(u, v), oracle.distance(u, v));
                    }
                }
            }
        }
    }
}
