//! A persistent worker pool executing scoped block jobs.
//!
//! The worker pool is created once per [`crate::Device`] and reused by every
//! launch, so a wavefront algorithm issuing hundreds of small kernels does
//! not pay thread spawn cost per kernel. A job is a borrowed closure plus
//! an atomic range of unclaimed blocks; the launching thread claims block
//! indices from its front and the workers from its back until the grid is
//! exhausted. Panics inside kernels are caught, the launch is drained, and
//! the first panic is re-raised on the launching thread — so race-detector
//! panics in tests surface cleanly instead of deadlocking the pool.
//!
//! A launch costs its blocks (DESIGN.md §22): the launcher opens a launch
//! to the workers only when a block is left for them and the launch's
//! remaining work outweighs a wake, returns as soon as every block is done
//! (a worker that came too late to claim one is not waited for), and
//! allocates nothing. A worker that just ran blocks waits up to a wake's
//! worth of time for the next open launch before it parks.

use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A launch wakes parked workers once the work it projects for its
/// unclaimed blocks (their count times the launcher's mean block time, in
/// the previous launch and then in this one) reaches this: a parked
/// worker takes tens of microseconds to arrive, so a launch of cheaper
/// blocks finishes sooner alone. It also bounds the two spins that stand
/// in for a wake or a sleep: a worker's wait for the next launch after
/// running blocks, and the launcher's wait for the workers' last blocks.
const WAKE_WORTH: Duration = Duration::from_micros(20);

/// A launch kernel, called as `kernel(block, worker)`: `worker` is 0 on the
/// launching thread and `1..=extra_workers` on the pool's threads, so a
/// caller can keep one accumulator per worker.
pub(crate) type Kernel<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// Type-erased pointer to the current launch's closure.
#[derive(Clone, Copy)]
struct KernelPtr(*const Kernel<'static>);

/// The claim word: blocks `front..back` are unclaimed, `front` in the low
/// and `back` in the high 32 bits.
fn pack(front: usize, back: usize) -> u64 {
    (back as u64) << 32 | front as u64
}

fn unpack(word: u64) -> (usize, usize) {
    ((word & u64::from(u32::MAX)) as usize, (word >> 32) as usize)
}

#[derive(Default)]
struct State {
    /// Launches published so far; a worker parks only after it has looked
    /// at every launch up to this one.
    seq: u64,
    /// Workers waiting on `work_cv` that no launch has woken yet.
    parked: usize,
    /// Wake-ups issued that no waiting worker has taken yet: `parked +
    /// woken` workers are inside the wait loop.
    woken: usize,
    /// The launcher waits on `done_cv` for the workers' last blocks.
    launcher_waiting: bool,
    shutdown: bool,
}

impl State {
    /// Count up to `n` parked workers out for a wake-up; returns how many.
    fn count_out(&mut self, n: usize) -> usize {
        let wake = self.parked.min(n);
        self.parked -= wake;
        self.woken += wake;
        wake
    }
}

struct Shared {
    /// The current job's unclaimed blocks ([`pack`]). The launcher claims
    /// from the front and the workers from the back; at `front == back`
    /// nothing can be claimed.
    claims: AtomicU64,
    /// Blocks of the current job not yet finished.
    unfinished: AtomicUsize,
    /// The `seq` of the newest launch open to workers (eager when
    /// published, or since found worth a wake): the lock-free copy of
    /// `seq` that an awake worker watches for a launch to join.
    open: AtomicU64,
    /// The current job's kernel (see [`Shared::claim`]).
    job: UnsafeCell<Option<KernelPtr>>,
    panic: Mutex<Option<String>>,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

// SAFETY: every field but `job` is an atomic or a lock. The launcher
// writes `job` only while no block can be claimed, and every read follows
// a successful claim (`Shared::claim` states the argument); the kernel it
// points to is `Sync`, so any thread may call it through `&`.
unsafe impl Sync for Shared {}
// SAFETY: as for `Sync`; the raw kernel pointer is only dereferenced under
// the claim protocol, whichever thread holds or drops the `Arc`.
unsafe impl Send for Shared {}

impl Shared {
    /// Claim one block of the current job: its kernel and block index, or
    /// `None` when every block has been claimed. The launcher (`worker`
    /// 0) takes the lowest unclaimed block and a pool worker the highest,
    /// so from one wavefront stage to the next each thread keeps its end
    /// of the grid, and the fringes it reads were mostly written on its
    /// own core.
    fn claim(&self, worker: usize) -> Option<(KernelPtr, usize)> {
        let mut word = self.claims.load(Ordering::Relaxed);
        let block = loop {
            let (front, back) = unpack(word);
            if front >= back {
                return None;
            }
            let (next, block) = if worker == 0 {
                (pack(front + 1, back), front)
            } else {
                (pack(front, back - 1), back - 1)
            };
            match self.claims.compare_exchange_weak(
                word,
                next,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break block,
                Err(now) => word = now,
            }
        };
        // SAFETY: the claim moved the word from `front < back` to one block
        // fewer, so it read a value that the publishing
        // `claims.store(pack(0, grid), Release)` in `Pool::run` heads
        // (other claims only continue its release sequence); that store
        // follows the write of `job`, so this read sees the job whose
        // block it claimed, whatever launch the caller last looked at. The
        // claimed block is not finished yet, so `unfinished > 0` and that
        // launch's `run` has not returned; the next `run` writes `job`
        // only after it has, i.e. after this read.
        let kernel = unsafe { *self.job.get() }.expect("a claimed block has a job");
        Some((kernel, block))
    }

    /// Blocks of the current job not yet claimed.
    fn unclaimed(&self) -> usize {
        let (front, back) = unpack(self.claims.load(Ordering::Relaxed));
        back - front
    }

    /// Run one claimed block. `worker` is 0 on the launching thread.
    fn run_block(&self, kernel: KernelPtr, block: usize, worker: usize) {
        // SAFETY: the block was claimed and is not finished, so the
        // launcher is still inside `Pool::run` and the closure its pointer
        // was erased from is alive (see `claim`). Past the `unfinished`
        // decrement below, this thread touches only the pool's own
        // `Shared` until its next successful claim.
        let kernel = unsafe { &*kernel.0 };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| kernel(block, worker)));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "kernel panicked".to_string());
            self.panic.lock().get_or_insert(msg);
        }
        let last = self.unfinished.fetch_sub(1, Ordering::Release) == 1;
        if last && worker != 0 && self.state.lock().launcher_waiting {
            self.done_cv.notify_one();
        }
    }

    /// Wake up to `n` parked workers; no wake call when none is parked.
    fn wake(&self, n: usize) {
        let wake = self.state.lock().count_out(n);
        self.notify(wake);
    }

    fn notify(&self, wake: usize) {
        for _ in 0..wake {
            self.work_cv.notify_one();
        }
    }
}

/// The persistent pool.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// The launcher's mean block time in the last launch it ran blocks
    /// of, in nanoseconds: the first estimate of the next launch's.
    block_ns: AtomicU64,
}

impl Pool {
    /// Spawn `extra_workers` background workers (the launching thread always
    /// participates too, so `extra_workers = 0` is a valid sequential pool).
    pub(crate) fn new(extra_workers: usize) -> Self {
        let shared = Arc::new(Shared {
            claims: AtomicU64::new(pack(0, 0)),
            unfinished: AtomicUsize::new(0),
            open: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            panic: Mutex::new(None),
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..=extra_workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpu-exec-worker-{}", worker - 1))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawning a pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            block_ns: AtomicU64::new(0),
        }
    }

    /// Number of background workers.
    pub(crate) fn extra_workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `kernel(block, worker)` for every `block` in `0..grid`, blocking
    /// until all blocks completed. Re-raises the first kernel panic, if any.
    ///
    /// A `resident` grid needs every block running at once (a persistent
    /// kernel's blocks wait on each other), so it is open to the workers
    /// and wakes `grid − 1` parked workers up front; any other launch is
    /// opened to them only once its remaining work is worth a wake
    /// ([`WAKE_WORTH`]), judged first by the previous launch's blocks and
    /// then by its own.
    pub(crate) fn run(&self, grid: usize, kernel: &Kernel<'_>, resident: bool) {
        if grid == 0 {
            return;
        }
        assert!(
            grid <= u32::MAX as usize,
            "a grid has at most 2³² − 1 blocks"
        );
        let s = &*self.shared;
        // Reserve the job: `unfinished` is 0 exactly when no launch is in
        // flight, so this also rejects a second concurrent launcher.
        assert!(
            s.unfinished
                .compare_exchange(0, grid, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok(),
            "a device supports one launch at a time per pool"
        );
        // SAFETY: erase the borrow's lifetime. The pointer is dereferenced
        // only by a thread holding an unfinished block of this job (see
        // `Shared::claim`), and this function returns only once
        // `unfinished` is back to 0, so no call outlives the borrow.
        let kernel: &'static Kernel<'static> = unsafe { std::mem::transmute(kernel) };
        // SAFETY: no block is left to claim (the previous job was fully
        // claimed before it finished), so no thread can claim a block and
        // read `job` until the store below publishes this one; every read
        // of the previous job happened before its block's `unfinished`
        // decrement, which the previous `run` acquired before returning.
        unsafe { *s.job.get() = Some(KernelPtr(kernel)) };
        s.claims.store(pack(0, grid), Ordering::Release);

        // The launcher takes a block itself, so at most `grid − 1` parked
        // workers are worth waking. An awake worker joins only a launch
        // open to it, without a wake call.
        let expected = u128::from(self.block_ns.load(Ordering::Relaxed)) * (grid as u128 - 1);
        let eager = resident || expected >= WAKE_WORTH.as_nanos();
        let (seq, wake) = {
            let mut st = s.state.lock();
            st.seq += 1;
            if eager {
                s.open.store(st.seq, Ordering::Release);
            }
            (st.seq, st.count_out(if eager { grid - 1 } else { 0 }))
        };
        s.notify(wake);

        let started = Instant::now();
        let (mut ran, mut opened) = (0u128, eager);
        while let Some((kernel, block)) = s.claim(0) {
            s.run_block(kernel, block, 0);
            ran += 1;
            let left = s.unclaimed();
            if !opened && left > 0 {
                let projected = started.elapsed().as_nanos() * left as u128;
                if projected >= WAKE_WORTH.as_nanos() * ran {
                    opened = true;
                    s.open.store(seq, Ordering::Release);
                    s.wake(left);
                }
            }
        }
        if let Some(mean) = started.elapsed().as_nanos().checked_div(ran) {
            let mean = mean.try_into().unwrap_or(u64::MAX);
            self.block_ns.store(mean, Ordering::Relaxed);
        }

        // Return once every block is done; a worker that joined the job
        // but claimed nothing is not waited for. A worker's last block is
        // waited out in a spin as long as a wake before sleeping on it.
        let until = Instant::now() + WAKE_WORTH;
        while s.unfinished.load(Ordering::Acquire) != 0 && Instant::now() < until {
            std::hint::spin_loop();
        }
        if s.unfinished.load(Ordering::Acquire) != 0 {
            let mut st = s.state.lock();
            st.launcher_waiting = true;
            while s.unfinished.load(Ordering::Acquire) != 0 {
                s.done_cv.wait(&mut st);
            }
            st.launcher_waiting = false;
        }

        let panic_msg = s.panic.lock().take();
        if let Some(msg) = panic_msg {
            panic!("kernel panicked during launch: {msg}");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    // The newest launch this worker has looked at.
    let mut seen = 0u64;
    let mut ran = false;
    loop {
        if ran {
            // Stay for the next open launch as long as a wake would take to
            // bring this worker back; spinning longer would cost more than
            // the wake it saves.
            let until = Instant::now() + WAKE_WORTH;
            while shared.open.load(Ordering::Acquire) <= seen && Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        let open = shared.open.load(Ordering::Acquire);
        if open > seen {
            seen = open;
        } else {
            let mut st = shared.state.lock();
            // Look again under the lock: a launch opened since the look
            // above counted out only parked workers, so not this one.
            if shared.open.load(Ordering::Acquire) <= seen {
                // Pass over the launches published since, none of them open,
                // and park until a launch counts this worker out for a
                // wake-up (possibly one it already passed over, once that
                // launch finds its blocks costly) or opens a new one.
                seen = st.seq;
                st.parked += 1;
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.woken > 0 {
                        st.woken -= 1;
                        break;
                    }
                    if shared.open.load(Ordering::Acquire) > seen {
                        st.parked -= 1;
                        break;
                    }
                    shared.work_cv.wait(&mut st);
                }
            }
            if st.shutdown {
                return;
            }
            seen = st.seq;
        }
        ran = false;
        while let Some((kernel, block)) = shared.claim(worker) {
            shared.run_block(kernel, block, worker);
            ran = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Spin until `done` holds; a schedule that never satisfies it fails
    /// the test instead of hanging it.
    fn spin_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::hint::spin_loop();
        }
    }

    /// The body of a resident two-block grid: each block waits for the
    /// other to start, so one of them runs on a pool worker.
    fn both_started(started: &AtomicUsize) {
        started.fetch_add(1, Ordering::SeqCst);
        spin_until("both blocks to start", || {
            started.load(Ordering::SeqCst) == 2
        });
    }

    /// Busy for about `micros`: a block that costs more than a wake.
    fn busy(micros: u64) {
        let until = Instant::now() + Duration::from_micros(micros);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn executes_every_block_once() {
        let pool = Pool::new(3);
        let grid = 1000;
        for resident in [false, true] {
            let hits: Vec<AtomicUsize> = (0..grid).map(|_| AtomicUsize::new(0)).collect();
            pool.run(
                grid,
                &|b, _| {
                    hits[b].fetch_add(1, Ordering::Relaxed);
                },
                resident,
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn sequential_pool_works() {
        let pool = Pool::new(0);
        assert_eq!(pool.extra_workers(), 0);
        let sum = AtomicUsize::new(0);
        let body = |b, worker| {
            assert_eq!(worker, 0, "only the launcher runs blocks");
            sum.fetch_add(b, Ordering::Relaxed);
        };
        pool.run(100, &body, false);
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn reusable_across_many_launches() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            let body = |_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            };
            pool.run(7, &body, false);
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 7);
    }

    #[test]
    fn zero_grid_is_noop() {
        let pool = Pool::new(1);
        pool.run(0, &|_, _| panic!("must not run"), false);
    }

    #[test]
    #[should_panic(expected = "boom block")]
    fn kernel_panic_is_propagated() {
        let pool = Pool::new(2);
        let body = |b, _| {
            if b == 13 {
                panic!("boom block {b}");
            }
        };
        pool.run(50, &body, false);
    }

    #[test]
    fn pool_survives_a_panicked_launch() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let body = |b, _| {
                if b == 3 {
                    panic!("transient");
                }
            };
            pool.run(10, &body, false);
        }));
        assert!(r.is_err());
        // The pool must still be usable.
        let count = AtomicUsize::new(0);
        let body = |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        pool.run(10, &body, false);
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn launcher_returns_only_after_the_workers_slow_block() {
        let pool = Pool::new(1);
        for _ in 0..3 {
            let started = AtomicUsize::new(0);
            let written = AtomicUsize::new(0);
            let finished = AtomicBool::new(false);
            let body = |b, worker| {
                both_started(&started);
                if worker != 0 {
                    std::thread::sleep(Duration::from_millis(30));
                    written.store(b + 1, Ordering::Relaxed);
                    finished.store(true, Ordering::Relaxed);
                }
            };
            pool.run(2, &body, true);
            // Relaxed loads: only the pool's completion edge orders them.
            assert!(finished.load(Ordering::Relaxed), "run returned early");
            assert!(matches!(written.load(Ordering::Relaxed), 1 | 2));
        }
    }

    #[test]
    fn a_long_parked_worker_adopts_the_next_job() {
        let pool = Pool::new(1);
        pool.run(1, &|_, _| {}, false);
        // The worker has long since parked on the condvar.
        std::thread::sleep(Duration::from_millis(100));
        let started = AtomicUsize::new(0);
        let on_worker = AtomicUsize::new(0);
        let body = |_, worker| {
            both_started(&started);
            on_worker.fetch_add(usize::from(worker != 0), Ordering::Relaxed);
        };
        pool.run(2, &body, true);
        assert_eq!(on_worker.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn costly_blocks_wake_a_parked_worker_and_cheap_ones_do_not() {
        let pool = Pool::new(1);
        pool.run(1, &|_, _| {}, false);
        std::thread::sleep(Duration::from_millis(100));
        let on_worker = AtomicUsize::new(0);
        let count = |_, worker| {
            on_worker.fetch_add(usize::from(worker != 0), Ordering::Relaxed);
        };
        // Blocks far cheaper than a wake: the launcher runs them alone (a
        // preempted launcher may still wake the worker now and then).
        for _ in 0..1000 {
            pool.run(8, &count, false);
        }
        assert!(
            on_worker.load(Ordering::Relaxed) < 800,
            "cheap blocks woke the worker"
        );
        // Blocks of 5 ms: after the first, the launch wakes the worker, which
        // claims a block while the launcher is busy with the next one.
        let mut adopted = false;
        for _ in 0..20 {
            on_worker.store(0, Ordering::Relaxed);
            let slow = |b, worker| {
                std::thread::sleep(Duration::from_millis(5));
                count(b, worker);
            };
            pool.run(4, &slow, false);
            adopted = on_worker.load(Ordering::Relaxed) > 0;
            if adopted {
                break;
            }
        }
        assert!(adopted, "a parked worker never joined a costly launch");
    }

    #[test]
    fn a_wake_up_is_taken_even_without_a_new_job() {
        // A launch may count a parked worker out for a wake-up after that
        // worker has already looked at the launch (it took the last block
        // between the launcher's look at `unclaimed` and its wake call).
        // The worker must take the wake-up all the same; left pending, the
        // count says no worker is parked, and the next resident grid
        // wakes nobody and starves.
        let pool = Pool::new(1);
        let s = &*pool.shared;
        for _ in 0..3 {
            spin_until("the worker to park", || {
                let st = s.state.lock();
                st.parked == 1 && st.woken == 0
            });
            s.wake(1);
            spin_until("the worker to take its wake-up", || {
                s.state.lock().woken == 0
            });
        }
        let started = AtomicUsize::new(0);
        pool.run(2, &|_, _| both_started(&started), true);
    }

    #[test]
    fn a_late_worker_panic_is_reraised_and_the_pool_survives() {
        let pool = Pool::new(1);
        let started = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let body = |_, worker| {
                both_started(&started);
                if worker != 0 {
                    // The launcher has finished its own block by now.
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("late worker block");
                }
            };
            pool.run(2, &body, true);
        }));
        let msg = r.expect_err("the worker's panic is re-raised");
        let msg = msg.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("late worker block"), "{msg}");
        let count = AtomicUsize::new(0);
        let body = |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        pool.run(16, &body, false);
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn drop_right_after_a_launch_joins_promptly() {
        for resident in [false, true] {
            for _ in 0..10 {
                let pool = Pool::new(3);
                pool.run(4, &|_, _| busy(50), resident);
                let t = Instant::now();
                drop(pool);
                assert!(t.elapsed() < Duration::from_secs(2), "{:?}", t.elapsed());
            }
        }
    }

    #[test]
    fn alternating_grids_run_each_kernel_once_per_block() {
        // A worker woken for a 64-block launch often arrives after it has
        // finished; it must not run that launch's kernel during the next
        // one. Every kernel checks that its own launch is the current one,
        // and counts its blocks.
        let pool = Pool::new(3);
        let launches = 400;
        let current = AtomicUsize::new(usize::MAX);
        let hits: Vec<AtomicUsize> = (0..launches * 64).map(|_| AtomicUsize::new(0)).collect();
        let stray = AtomicUsize::new(0);
        let on_worker = AtomicUsize::new(0);
        for k in 0..launches {
            let grid = if k % 2 == 0 { 1 } else { 64 };
            current.store(k, Ordering::SeqCst);
            let body = |b: usize, worker| {
                if current.load(Ordering::SeqCst) != k {
                    stray.fetch_add(1, Ordering::SeqCst);
                }
                busy(1);
                on_worker.fetch_add(usize::from(worker != 0), Ordering::Relaxed);
                hits[k * 64 + b].fetch_add(1, Ordering::Relaxed);
            };
            pool.run(grid, &body, false);
            current.store(usize::MAX, Ordering::SeqCst);
        }
        assert_eq!(
            stray.load(Ordering::SeqCst),
            0,
            "a kernel ran outside its launch"
        );
        for k in 0..launches {
            let grid = if k % 2 == 0 { 1 } else { 64 };
            for b in 0..64 {
                let want = usize::from(b < grid);
                assert_eq!(
                    hits[k * 64 + b].load(Ordering::Relaxed),
                    want,
                    "launch {k} block {b}"
                );
            }
        }
        assert!(
            on_worker.load(Ordering::Relaxed) > 0,
            "the workers never joined"
        );
    }

    /// Run costly launches of `grid` blocks until the worker has run one
    /// of their blocks.
    fn until_the_worker_runs_a_block(pool: &Pool, grid: usize) {
        for _ in 0..100 {
            let on_worker = AtomicUsize::new(0);
            pool.run(
                grid,
                &|_, worker| {
                    busy(200);
                    on_worker.fetch_add(usize::from(worker != 0), Ordering::Relaxed);
                },
                false,
            );
            if on_worker.load(Ordering::Relaxed) > 0 {
                return;
            }
        }
        panic!("the worker never joined a costly launch");
    }

    #[test]
    fn the_launcher_takes_a_prefix_and_the_worker_a_suffix() {
        let pool = Pool::new(1);
        let owner: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let on_worker = AtomicUsize::new(0);
        for k in 0..1000 {
            let grid = 1 + k % 64;
            for h in &hits[..grid] {
                h.store(0, Ordering::Relaxed);
            }
            let body = |b: usize, worker| {
                busy(20);
                owner[b].store(worker, Ordering::Relaxed);
                hits[b].fetch_add(1, Ordering::Relaxed);
                on_worker.fetch_add(usize::from(worker != 0), Ordering::Relaxed);
            };
            pool.run(grid, &body, false);
            let owners: Vec<usize> = owner[..grid]
                .iter()
                .map(|o| o.load(Ordering::Relaxed))
                .collect();
            assert!(
                hits[..grid].iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "launch {k}: a block did not run exactly once"
            );
            assert!(
                owners.windows(2).all(|p| p[0] <= p[1]),
                "launch {k}: blocks by thread {owners:?}"
            );
        }
        assert!(
            on_worker.load(Ordering::Relaxed) > 0,
            "the worker never joined"
        );
    }

    #[test]
    fn a_worker_that_ran_blocks_parks_again_soon() {
        let pool = Pool::new(1);
        let s = &*pool.shared;
        for _ in 0..5 {
            until_the_worker_runs_a_block(&pool, 4);
            let deadline = Instant::now() + Duration::from_millis(100);
            while s.state.lock().parked != 1 {
                assert!(
                    Instant::now() < deadline,
                    "the worker did not park within 100 ms of its last block"
                );
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn a_hot_worker_does_not_join_cheap_launches() {
        let pool = Pool::new(1);
        until_the_worker_runs_a_block(&pool, 4);
        let on_worker = AtomicUsize::new(0);
        let count = |_, worker| {
            on_worker.fetch_add(usize::from(worker != 0), Ordering::Relaxed);
        };
        for _ in 0..1000 {
            pool.run(8, &count, false);
        }
        assert!(
            on_worker.load(Ordering::Relaxed) < 800,
            "cheap blocks ran on the hot worker"
        );
    }

    #[test]
    fn a_resident_grid_starts_with_the_worker_hot_or_parked() {
        let pool = Pool::new(1);
        let s = &*pool.shared;
        for _ in 0..5 {
            until_the_worker_runs_a_block(&pool, 4);
            let started = AtomicUsize::new(0);
            pool.run(2, &|_, _| both_started(&started), true);
            spin_until("the worker to park", || s.state.lock().parked == 1);
            let started = AtomicUsize::new(0);
            pool.run(2, &|_, _| both_started(&started), true);
        }
    }
}
