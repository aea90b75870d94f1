//! Experiment runner: prints the tables of the requested experiments
//! (default `all`) and writes their CSV copies to `results/`.
//!
//! ```text
//! cargo run -p congest_bench --release --bin experiments -- all
//! cargo run -p congest_bench --release --bin experiments -- t1 --big
//! ```
//!
//! Every argument is checked before any experiment runs: an unknown id or
//! flag prints the usage and the valid ids to stderr and exits 2. A CSV
//! that cannot be written prints its path to stderr and exits 1.

use congest_bench::experiments::{run, IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| *a != "--big" && !IDS.contains(&a.as_str())) {
        eprintln!("experiments: unknown argument {bad}");
        eprintln!("usage: experiments [ID...] [--big]\nids: {}", IDS.join(" "));
        std::process::exit(2);
    }
    let big = args.iter().any(|a| a == "--big");
    let ids: Vec<&str> = args.iter().map(String::as_str).filter(|&a| a != "--big").collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };
    for id in ids {
        for out in run(id, big) {
            println!("================================================================");
            println!("{}", out.table);
            if let Err(e) = out.persist() {
                eprintln!("experiments: cannot write {e}");
                std::process::exit(1);
            }
        }
    }
    println!("CSV copies written to results/");
}
