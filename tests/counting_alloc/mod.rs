//! A counting global allocator for the heap-peak tests. A test binary that
//! declares `mod counting_alloc;` routes every allocation through it; each
//! such test is the only test in its binary, so nothing else allocates
//! while it measures.

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

/// Live heap bytes now.
pub fn live() -> usize {
    LIVE.load(SeqCst)
}

/// Runs `f` and returns its result with the live heap's peak above its
/// start, in bytes.
pub fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.store(base, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - base)
}
