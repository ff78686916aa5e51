//! `Obs::emit` of the per-launch events allocates nothing: launch begin
//! and end are one ring write each, with no trace instant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obs::{Event, Obs};

/// Counts allocations on top of the system allocator, per thread.
struct Counting;

thread_local! {
    /// Allocations made on this thread. Only the thread that calls
    /// `Obs::emit` is read, so the test harness's other threads cannot
    /// add to its count. `const`-initialized and without a destructor, so
    /// the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract, which is
    // exactly what `System.alloc` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; it is not the
        // emitting thread.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with the
    // same `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn launch_events_emit_without_allocating() {
    for obs in [Obs::new(), Obs::disabled()] {
        let before = allocations();
        for launch in 0..10_000u64 {
            obs.emit(Event::LaunchBegin {
                request: 1,
                launch,
                grid: 8,
            });
            obs.emit(Event::LaunchEnd {
                request: 1,
                launch,
                failed: false,
            });
        }
        let allocated = allocations() - before;
        assert_eq!(allocated, 0, "enabled: {}", obs.is_enabled());
        assert_eq!(obs.event_count(), 0, "no trace instant for launch events");
    }
}
