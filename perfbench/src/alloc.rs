//! Counting global allocator.
//!
//! Counting is off by default so the timed passes pay one relaxed load per
//! allocation and no shared-counter traffic between the caller and the
//! shard workers. It is switched on only around single-threaded passes
//! (state size, allocations per update), where every counted event belongs
//! to the engine under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: no other data is published through these, so relaxed
// ordering suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: forwarded verbatim; `ptr` came from this allocator (i.e. `System`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters while counting is on.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Allocations (including reallocations).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: i64,
}

impl Counts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
        }
    }
}

/// Current counters.
pub fn counts() -> Counts {
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live: LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Run `f` with counting switched on. Only blocks allocated inside `f`
/// should be freed inside it, or `live` goes negative.
pub fn counting<R>(f: impl FnOnce() -> R) -> R {
    ENABLED.store(true, Ordering::Relaxed);
    let r = f();
    ENABLED.store(false, Ordering::Relaxed);
    r
}
