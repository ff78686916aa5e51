//! A persistent worker pool executing scoped block jobs.
//!
//! The worker pool is created once per [`crate::Device`] and reused by every
//! launch, so a wavefront algorithm issuing hundreds of small kernels does
//! not pay thread spawn cost per kernel. A job is a borrowed closure plus an
//! atomic block counter; workers (and the launching thread itself) steal
//! block indices until the grid is exhausted. Panics inside kernels are
//! caught, the launch is drained, and the first panic is re-raised on the
//! launching thread — so race-detector panics in tests surface cleanly
//! instead of deadlocking the pool.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// Type-erased pointer to the launch closure. The launcher keeps the closure
/// alive (and waits for all workers to leave the job) for the pointer's whole
/// useful lifetime.
#[derive(Clone, Copy)]
struct KernelPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` and outlives the job (enforced by
// `Pool::run` draining the job before returning).
unsafe impl Send for KernelPtr {}
unsafe impl Sync for KernelPtr {}

struct Job {
    kernel: KernelPtr,
    grid: usize,
    next: Arc<AtomicUsize>,
    done: Arc<AtomicUsize>,
    panic: Arc<Mutex<Option<String>>>,
    seq: u64,
}

impl Job {
    /// Steal blocks until the grid is exhausted. Returns when no block is
    /// left to claim.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.grid {
                return;
            }
            // SAFETY: the launcher keeps the closure alive until the job is
            // fully drained (`state.in_flight == 0`), which happens after
            // every worker returns from this call.
            let kernel = unsafe { &*self.kernel.0 };
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| kernel(i)));
            if let Err(e) = result {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "kernel panicked".to_string());
                self.panic.lock().get_or_insert(msg);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }

    fn clone_handle(&self) -> Job {
        Job {
            kernel: self.kernel,
            grid: self.grid,
            next: Arc::clone(&self.next),
            done: Arc::clone(&self.done),
            panic: Arc::clone(&self.panic),
            seq: self.seq,
        }
    }
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    shutdown: bool,
    in_flight: usize,
    seq: u64,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// The persistent pool.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `extra_workers` background workers (the launching thread always
    /// participates too, so `extra_workers = 0` is a valid sequential pool).
    pub(crate) fn new(extra_workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..extra_workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpu-exec-worker-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of background workers.
    pub(crate) fn extra_workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `kernel(block)` for every `block` in `0..grid`, blocking until
    /// all blocks completed. Re-raises the first kernel panic, if any.
    pub(crate) fn run(&self, grid: usize, kernel: &(dyn Fn(usize) + Sync)) {
        if grid == 0 {
            return;
        }
        let job = {
            let mut st = self.shared.state.lock();
            assert!(
                st.job.is_none(),
                "a device supports one launch at a time per pool"
            );
            st.seq += 1;
            // SAFETY: erase the borrow's lifetime; `run` drains the job
            // (waits for in_flight == 0) before returning, so no worker
            // dereferences the pointer after the borrow ends.
            let kernel: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(kernel) };
            let job = Job {
                kernel: KernelPtr(kernel as *const _),
                grid,
                next: Arc::new(AtomicUsize::new(0)),
                done: Arc::new(AtomicUsize::new(0)),
                panic: Arc::new(Mutex::new(None)),
                seq: st.seq,
            };
            let handle = job.clone_handle();
            st.job = Some(job);
            handle
        };
        self.shared.work_cv.notify_all();

        // The launcher thread participates in the launch.
        job.work();

        // Wait until every block completed and no worker still holds the job.
        let mut st = self.shared.state.lock();
        while job.done.load(Ordering::Acquire) < grid || st.in_flight > 0 {
            self.shared.done_cv.wait(&mut st);
        }
        st.job = None;
        drop(st);

        let panic_msg = job.panic.lock().take();
        if let Some(msg) = panic_msg {
            panic!("kernel panicked during launch: {msg}");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                let adopt = match &st.job {
                    Some(j) if j.seq > last_seq => Some(j.clone_handle()),
                    _ => None,
                };
                match adopt {
                    Some(j) => {
                        last_seq = j.seq;
                        st.in_flight += 1;
                        break j;
                    }
                    None => shared.work_cv.wait(&mut st),
                }
            }
        };
        job.work();
        let mut st = shared.state.lock();
        st.in_flight -= 1;
        drop(st);
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_every_block_once() {
        let pool = Pool::new(3);
        let grid = 1000;
        let hits: Vec<AtomicUsize> = (0..grid).map(|_| AtomicUsize::new(0)).collect();
        pool.run(grid, &|b| {
            hits[b].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sequential_pool_works() {
        let pool = Pool::new(0);
        assert_eq!(pool.extra_workers(), 0);
        let sum = AtomicUsize::new(0);
        pool.run(100, &|b| {
            sum.fetch_add(b, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn reusable_across_many_launches() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(7, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 7);
    }

    #[test]
    fn zero_grid_is_noop() {
        let pool = Pool::new(1);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "boom block")]
    fn kernel_panic_is_propagated() {
        let pool = Pool::new(2);
        pool.run(50, &|b| {
            if b == 13 {
                panic!("boom block {b}");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_launch() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(10, &|b| {
                if b == 3 {
                    panic!("transient");
                }
            });
        }));
        assert!(r.is_err());
        // The pool must still be usable.
        let count = AtomicUsize::new(0);
        pool.run(10, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }
}
