//! Experiment runner: prints the tables of the requested experiments
//! (default `all`) and writes their CSV copies to `results/`.
//!
//! ```text
//! cargo run -p congest-bench --release --bin experiments -- all
//! cargo run -p congest-bench --release --bin experiments -- t1 --big
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let big = args.iter().any(|a| a == "--big");
    let ids: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };
    for id in ids {
        for out in congest_bench::experiments::run(id, big) {
            println!("================================================================");
            println!("{}", out.table);
        }
    }
    println!("CSV copies written to results/");
}
