//! `congest-serve make-snapshot` writes only the blocked v2 format, every
//! file it writes pages bit-identically to its eager load, it still
//! converts legacy v1 files, and the binary rejects flags it does not
//! know instead of falling back to a default.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::NodeId;
use congest_oracle::{
    Oracle, PagedConfig, PagedOracle, PortableWeight, MAGIC, NO_SUCC, VERSION, VERSION_V2,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_congest-serve");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

/// A fresh directory private to this test process and test.
fn scratch(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("congest-serve-snapshot-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// A legacy v1 image of `o`, encoded from its public queries rather than
/// by the library: header, row-major distances, target-major successors,
/// then the FNV-1a 64 of every preceding byte.
fn v1_image(o: &Oracle<u64>) -> Vec<u8> {
    let n = o.n() as NodeId;
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(<u64 as PortableWeight>::TAG);
    buf.push(0); // flags, reserved
    buf.extend_from_slice(&u64::from(n).to_le_bytes());
    for u in 0..n {
        for v in 0..n {
            buf.extend_from_slice(&o.distance(u, v).to_le_bytes());
        }
    }
    for v in 0..n {
        for u in 0..n {
            buf.extend_from_slice(&o.successor(u, v).unwrap_or(NO_SUCC).to_le_bytes());
        }
    }
    let sum = buf.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// `path` must be a v2 file that a paged reader, under a budget of a
/// quarter of the file, serves exactly like `eager`.
fn assert_v2_pages_like(path: &Path, eager: &Oracle<u64>) {
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes[8..10], VERSION_V2.to_le_bytes(), "{} is not v2", path.display());
    let cfg = PagedConfig { resident_bytes: bytes.len() / 4 };
    let paged = PagedOracle::<u64>::open(path, cfg).unwrap();
    let n = eager.n() as NodeId;
    assert_eq!(paged.n(), eager.n());
    for u in 0..n {
        for v in 0..n {
            assert_eq!(paged.distance(u, v).unwrap(), eager.distance(u, v), "dist ({u},{v})");
            assert_eq!(paged.try_path(u, v).unwrap(), eager.try_path(u, v).unwrap(), "({u},{v})");
        }
        assert_eq!(paged.k_nearest(u, 4).unwrap(), eager.k_nearest(u, 4), "k_nearest({u})");
    }
}

#[test]
fn make_snapshot_converts_a_v1_image_for_paged_serving() {
    let dir = scratch("convert");
    let g = gnm_connected(20, 60, true, WeightDist::Uniform(1, 30), 5);
    let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
    let old = dir.join("old.snap");
    std::fs::write(&old, v1_image(&oracle)).unwrap();
    assert_eq!(Oracle::<u64>::load(&old).unwrap(), oracle, "the v1 reader must still load it");

    let new = dir.join("new.snap");
    let out =
        run(&["make-snapshot", path_str(&new), "--from", path_str(&old), "--block-rows", "4"]);
    assert!(out.status.success(), "conversion failed: {out:?}");
    assert_eq!(Oracle::<u64>::load(&new).unwrap(), oracle);
    assert_v2_pages_like(&new, &oracle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_make_snapshot_output_is_v2_and_pages_like_its_eager_load() {
    let dir = scratch("outputs");
    let size = ["--nodes", "16", "--edges", "40"];
    let variants: [&[&str]; 3] = [&[], &["--block-rows", "3"], &["--no-successors"]];
    for (i, extra) in variants.into_iter().enumerate() {
        let snap = dir.join(format!("{i}.snap"));
        let mut args = vec!["make-snapshot", path_str(&snap)];
        args.extend(size);
        args.extend(extra);
        let out = run(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert_v2_pages_like(&snap, &Oracle::<u64>::load(&snap).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_and_unparsable_numbers_exit_2_with_usage() {
    let dir = scratch("flags");
    let snap = dir.join("s.snap");
    let snap = path_str(&snap);
    let cases: [&[&str]; 7] = [
        &["make-snapshot", snap, "--format", "v1"],
        &["make-snapshot", snap, "--nodes", "1e3"],
        &["make-snapshot", snap, "--block-rows"],
        &["serve", snap, "--resident-mb", "-1"],
        &["serve", snap, "--paged", "--bogus"],
        &["probe", "127.0.0.1:1", "--requests", "many"],
        &["health", "127.0.0.1:1", "--batch", "4"],
    ];
    for args in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: congest-serve"), "{args:?}: {stderr}");
    }
    assert!(!Path::new(snap).exists(), "a rejected command line must write nothing");
    std::fs::remove_dir_all(&dir).ok();
}
