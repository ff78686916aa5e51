//! `Obs::emit` of the per-launch events allocates nothing: launch begin
//! and end are one ring write each, with no trace instant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use obs::{Event, Obs};

/// Counts allocations on top of the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract, which is
    // exactly what `System.alloc` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        let before = ALLOCATIONS.load(Ordering::Relaxed);
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
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(allocations, 0, "enabled: {}", obs.is_enabled());
        assert_eq!(obs.event_count(), 0, "no trace instant for launch events");
    }
}
