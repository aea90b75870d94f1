//! `congest-serve serve` drains and exits 0 on a SIGTERM sent the moment
//! it prints its address: the signal handlers must be in place before the
//! address line, or the default action kills the process mid-start.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

unsafe extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

#[test]
fn sigterm_right_after_the_address_line_drains_cleanly() {
    let bin = env!("CARGO_BIN_EXE_congest-serve");
    let dir = std::env::temp_dir().join(format!("congest-serve-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("s.snap");
    let snap = snap.to_str().unwrap();
    let made = Command::new(bin)
        .args(["make-snapshot", snap, "--nodes", "16", "--edges", "32"])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(made.success(), "make-snapshot failed: {made:?}");

    let mut server = Command::new(bin)
        .args(["serve", snap, "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let first = lines.next();
    // SAFETY: `kill` only sends a signal; the pid is our own child, which
    // has not been reaped yet, so it cannot name another process.
    let sent = unsafe { kill(server.id() as i32, SIGTERM) };
    let rest: Vec<String> = lines.map(Result::unwrap).collect();
    let status = server.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let first = first.expect("server printed nothing").unwrap();
    assert!(first.starts_with("serving "), "unexpected first line {first:?}");
    assert_eq!(sent, 0, "kill failed");
    assert!(status.success(), "server exited with {status:?}; output after the address: {rest:?}");
    assert!(rest.iter().any(|l| l == "clean shutdown"), "no clean shutdown in {rest:?}");
}
