//! The counting global allocator shared by the allocation tests and the
//! hot-path bench.
//!
//! [`CountingAlloc`] forwards to the system allocator and counts every
//! allocation (a reallocation counts too: a growing `Vec` is still an
//! allocation for our purposes) two ways:
//!
//! * **per thread** ([`thread_allocs`]): what the calling thread allocated.
//!   Tests that run in parallel use this, so one test never sees another's
//!   heap traffic.
//! * **process-wide** ([`process_allocs`]): allocations and bytes of every
//!   thread. The bench uses this, because sharded engines allocate on
//!   scoped threads.
//!
//! Install it in a test or bench binary with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocations per thread and per
/// process.
pub struct CountingAlloc;

// Statistics only: no other data is published through these, so relaxed
// ordering suffices.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made on this thread. Const-initialized with no
    /// destructor, so the allocator can touch it at any point.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    PROCESS_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with` fails only while the thread's TLS is being torn down.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// `(allocations, bytes requested)` so far, over every thread of the
/// process.
pub fn process_allocs() -> (u64, u64) {
    (
        PROCESS_ALLOCS.load(Ordering::Relaxed),
        PROCESS_BYTES.load(Ordering::Relaxed),
    )
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator (i.e.
        // `System`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
