//! The snapshot I/O memory contract. `Oracle::load` streams the file in
//! stripes, so while it runs the live heap grows by at most the arenas
//! (n²·12 bytes) plus two of the largest block, never by the whole file
//! image on top of the arenas. `Oracle::save` streams too: its live heap
//! grows by at most two of the largest block, never by a block per
//! checksum lane or by the n²·12-byte image. A counting global allocator
//! measures both; this is the only test in its binary, so nothing else
//! allocates while it runs.

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

    let arenas = n * n * 12;
    // `Oracle::save` writes default-sized blocks; a dist block (8 bytes a
    // cell) is the largest.
    let largest_block = V2Config::<u64>::default().block_rows as usize * n * 8;
    let (saved, save_peak) = counting_alloc::peak_above_start(|| oracle.save(&path));
    saved.unwrap();
    let (loaded, peak) = counting_alloc::peak_above_start(|| Oracle::<u64>::load(&path));
    std::fs::remove_file(&path).ok();

    println!(
        "save: peak {save_peak} B above start, bound {} B (2 x the {largest_block}-B largest block)",
        2 * largest_block
    );
    println!(
        "load: peak {peak} B above start, bound {} B (the {arenas}-B arenas + 2 x the largest block)",
        arenas + 2 * largest_block
    );
    assert!(
        save_peak <= 2 * largest_block,
        "save peaked {save_peak} bytes above its start ({:.2}x the {largest_block}-byte largest block)",
        save_peak as f64 / largest_block as f64
    );
    let loaded = loaded.unwrap();
    assert!(
        peak <= arenas + 2 * largest_block,
        "load peaked {peak} bytes above its start ({:.3}x the {arenas}-byte arenas)",
        peak as f64 / arenas as f64
    );
    assert_eq!(loaded, oracle);
}
