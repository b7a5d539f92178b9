//! A counting global allocator for the benchmark binary: the per-event
//! allocation count explains `peak_rss_mb` and repeats exactly.
//!
//! The counter is thread-local (a plain `Cell`, no atomic traffic), so it
//! counts the measuring thread only — which is where every single-threaded
//! pass runs — and costs one non-atomic increment per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and no destructor: reading it never
    // allocates, so the allocator cannot recurse into itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct CountingAlloc;

fn bump() {
    // During thread teardown the slot may already be gone; those
    // allocations are not part of any measured pass.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only extra work is a thread-local counter bump that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` came from `System` via the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) made by the calling thread so far;
/// always 0 when [`CountingAlloc`] is not the global allocator.
pub fn count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
