//! The eager loader's memory contract: `Oracle::load` streams the file
//! block by block, so while it runs the live heap grows by at most the
//! arenas (n²·12 bytes) plus two of the largest block, never by the whole
//! file image on top of the arenas. A counting global allocator measures
//! it; this is the only test in its binary, so nothing else allocates
//! while it runs.

use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_oracle::{Oracle, V2Config};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Forwards to the system allocator, tracking live heap bytes and their
/// peak. `GlobalAlloc`'s default `alloc_zeroed` and `realloc` go through
/// `alloc` and `dealloc`, so a growing buffer counts its old and new
/// blocks as both live while the data moves.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`, so
// `System`'s guarantees carry over; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

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
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let loaded = Oracle::<u64>::load(&path);
    let peak = PEAK.load(SeqCst) - base;
    std::fs::remove_file(&path).ok();

    let loaded = loaded.unwrap();
    assert!(
        peak <= arenas + 2 * largest_block,
        "load peaked {peak} bytes above its start ({:.3}x the {arenas}-byte arenas)",
        peak as f64 / arenas as f64
    );
    assert_eq!(loaded, oracle);
}
