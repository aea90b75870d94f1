//! The eager loader's memory contract: `Oracle::load` streams the file
//! block by block, so while it runs the live heap grows by at most the
//! arenas (n²·12 bytes) plus two of the largest block, never by the whole
//! file image on top of the arenas. A counting global allocator measures
//! it; this is the only test in its binary, so nothing else allocates
//! while it runs.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_oracle::{Oracle, V2Config};

mod counting_alloc;

#[test]
fn eager_load_peaks_at_the_arenas_plus_one_block() {
    let n = 512;
    let g = gnm_connected(n, 4 * n, true, WeightDist::Uniform(1, 100), 7);
    let oracle = Oracle::from_dist(&g, apsp_dijkstra(&g));
    drop(g);
    let path = std::env::temp_dir().join(format!("oracle_load_memory_{}.snap", std::process::id()));
    oracle.save(&path).unwrap();

    let arenas = n * n * 12;
    // `Oracle::save` writes default-sized blocks; a dist block (8 bytes a
    // cell) is the largest.
    let largest_block = V2Config::<u64>::default().block_rows as usize * n * 8;
    let (loaded, peak) = counting_alloc::peak_above_start(|| Oracle::<u64>::load(&path));
    std::fs::remove_file(&path).ok();

    let loaded = loaded.unwrap();
    assert!(
        peak <= arenas + 2 * largest_block,
        "load peaked {peak} bytes above its start ({:.3}x the {arenas}-byte arenas)",
        peak as f64 / arenas as f64
    );
    assert_eq!(loaded, oracle);
}
