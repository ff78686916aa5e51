//! A warm launch allocates nothing: the pool's job slot, the per-worker
//! counter slots and the launch context are owned by the device and reused,
//! and a conformance tracker finds a known cell by its borrowed label (an
//! unlabeled launch's fallback label is built once per mode and grid
//! bucket), so the only allocations a launch can cause are its kernel's
//! own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use gpu_exec::{BlockCtx, Device, DeviceOptions, GlobalBuffer, LaunchContext};
use hmm_model::MachineConfig;
use obs::{Conformance, ConformanceConfig, Registry};

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

const W: usize = 4;

/// Each block reads and rewrites its own warp of `buf`, so every launch
/// records counters on whichever thread runs the block.
fn touch(buf: &GlobalBuffer<u64>) -> impl Fn(&mut BlockCtx<'_>) + Sync + '_ {
    move |ctx| {
        let g = ctx.view(buf);
        let base = ctx.block_id() * W;
        let mut v = [0u64; W];
        g.read_contig(base, &mut v, ctx.rec());
        for x in &mut v {
            *x += 1;
        }
        g.write_contig(base, &v, ctx.rec());
    }
}

/// Allocations made by `launches` launches of `grid` blocks after a
/// warm-up of the same launches: the fewest of three rounds, since the
/// counter sees the whole process (a per-launch allocation shows in every
/// round, a test harness's stray one in at most one).
fn allocations(dev: &Device, grid: usize, persistent: bool, launches: usize) -> u64 {
    let buf = GlobalBuffer::filled(0u64, 64 * W);
    let kernel = touch(&buf);
    let launch = || match persistent {
        true => dev.launch_persistent(grid, &kernel),
        false => dev.launch(grid, &kernel),
    };
    for _ in 0..100 {
        launch();
    }
    let round = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..launches {
            launch();
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    (0..3).map(|_| round()).min().expect("three rounds")
}

#[test]
fn warm_launches_allocate_nothing() {
    for (workers, context, tracked) in modes() {
        let mut opts = DeviceOptions::new(MachineConfig::with_width(W)).workers(workers);
        if tracked {
            // As a serving device attaches it: with registry metrics.
            let cfg = ConformanceConfig::for_machine(W as u64, 40);
            opts = opts.conformance(Conformance::with_registry(cfg, &Registry::new(), "t_"));
        }
        let dev = Device::new(opts);
        if context {
            dev.set_launch_context(Some(LaunchContext {
                batch: 7,
                requests: vec![11, 12, 13],
                cell: Some("1R1W/64".to_string()),
            }));
        }
        let label = format!("workers {workers}, context {context}, tracked {tracked}");
        // A worker thread's start allocates: a resident grid whose
        // blocks wait for each other has every worker running first.
        let resident = dev.resident_capacity();
        let arrived = AtomicUsize::new(0);
        dev.launch_persistent(resident, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < resident {
                std::hint::spin_loop();
            }
        });
        for grid in [1, 8, 64] {
            let n = allocations(&dev, grid, false, 1_000);
            assert_eq!(n, 0, "{label}: 1000 launches of grid {grid}");
        }
        let n = allocations(&dev, resident, true, 1_000);
        assert_eq!(n, 0, "{label}: 1000 persistent launches of grid {resident}");
        assert!(dev.stats().coalesced_ops() > 0, "{label}: stats are on");
        let samples = dev.conformance().map(Conformance::sample_count);
        let want = tracked.then_some(dev.launches());
        assert_eq!(samples, want, "{label}: the tracker saw every launch");
    }
}

/// Every `(workers, labeled context, conformance tracker)` combination.
fn modes() -> impl Iterator<Item = (usize, bool, bool)> {
    [0, 1].into_iter().flat_map(|workers| {
        [false, true].into_iter().flat_map(move |context| {
            [false, true]
                .into_iter()
                .map(move |tracked| (workers, context, tracked))
        })
    })
}
