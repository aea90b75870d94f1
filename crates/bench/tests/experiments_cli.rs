//! The `experiments` binary checks every argument before it runs anything:
//! an unknown id or flag prints the usage and the valid ids to stderr,
//! exits 2 and leaves no `results/` behind. A CSV it cannot write prints
//! its path to stderr and exits 1.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// Runs the binary on `args` in a fresh working directory and checks the
/// rejection contract. A valid id leads every case, so an argument check
/// that ran after the experiments would leave `results/` behind.
fn assert_rejected(test: &str, args: &[&str]) {
    let dir =
        std::env::temp_dir().join(format!("congest-experiments-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(BIN).args(args).current_dir(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(stderr.contains("t1 t1deep t2 f2 t3 f3 t4 t5 f4 all"), "{args:?}: {stderr}");
    assert!(!dir.join("results").exists(), "{args:?}: an experiment ran before the check");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_id_exits_2_before_any_experiment_runs() {
    assert_rejected("id", &["t4", "t6"]);
}

#[test]
fn unknown_flag_exits_2_before_any_experiment_runs() {
    assert_rejected("flag", &["t4", "--bigg"]);
}

#[test]
fn unwritable_csv_exits_1_and_names_its_path() {
    let dir =
        std::env::temp_dir().join(format!("congest-experiments-{}-unwritable", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the results directory would go.
    std::fs::write(dir.join("results"), "").unwrap();
    let out = Command::new(BIN).arg("t4").current_dir(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("results/t4.csv"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("CSV copies written"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// T4's table keys each row by (groups, mode); so does its CSV.
#[test]
fn t4_csv_keys_each_row_by_groups_and_mode() {
    let dir = std::env::temp_dir().join(format!("congest-experiments-{}-t4", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(BIN).arg("t4").current_dir(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let csv = std::fs::read_to_string(dir.join("results/t4.csv")).unwrap();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let column = |name| header.iter().position(|&h| h == name);
    let (groups, mode) = (column("groups").unwrap(), column("mode").expect("a mode column"));
    let keys: Vec<(&str, &str)> = lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .map(|cells| (cells[groups], cells[mode]))
        .collect();
    let want: Vec<(&str, &str)> =
        ["200", "400", "800"].into_iter().flat_map(|g| [(g, "rand"), (g, "det")]).collect();
    assert_eq!(keys, want, "{csv}");
    std::fs::remove_dir_all(&dir).ok();
}
