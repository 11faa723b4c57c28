//! Feature-gated (`count-allocs`) allocation counting, for benches and
//! tests that check the tape-free inference path really performs zero
//! heap allocations in steady state.
//!
//! A binary opts in by installing the counter as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: lsched_nn::alloc_count::CountingAllocator =
//!     lsched_nn::alloc_count::CountingAllocator;
//! ```
//!
//! and then brackets the region of interest with
//! [`allocations_during`]. The counter is process-global and lock-free
//! (one relaxed atomic increment per allocation).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation and
/// reallocation (frees are not counted; steady-state code that neither
/// allocates nor reallocates reads as zero).
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// relaxed atomic counter bump, which cannot violate allocator invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations observed so far (0 if the counting allocator is not
/// installed as the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` and returns `(allocations, result)` — the number of heap
/// allocations performed while `f` ran.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}
