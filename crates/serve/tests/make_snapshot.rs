//! `congest-serve make-snapshot` writes only the blocked v2 format, every
//! file it writes pages bit-identically to its eager load, it refuses
//! legacy v1 files, and the binary rejects flags it does not know instead
//! of falling back to a default.

use congest_graph::NodeId;
use congest_oracle::{Oracle, PagedConfig, PagedOracle, PortableWeight, MAGIC, VERSION_V2};
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
fn make_snapshot_refuses_a_v1_image() {
    let dir = scratch("refuse_v1");
    // A legacy v1 image of a 4-node oracle: magic, version 1, weight tag,
    // flags, n, then the n²·12-byte arenas and an 8-byte trailer checksum.
    let mut v1 = MAGIC.to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&[<u64 as PortableWeight>::TAG, 0]);
    v1.extend_from_slice(&4u64.to_le_bytes());
    v1.resize(20 + 4 * 4 * 12 + 8, 0);
    let old = dir.join("old.snap");
    std::fs::write(&old, v1).unwrap();

    let new = dir.join("new.snap");
    let out =
        run(&["make-snapshot", path_str(&new), "--from", path_str(&old), "--block-rows", "4"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unsupported snapshot version 1"), "{stderr}");
    assert!(!new.exists(), "a refused conversion must write nothing");
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
