//! The discrete-event machine: `d` DMM pipelines + one UMM pipeline.
//!
//! Each block of a launch plays the role of one warp context (the kernels of
//! `sat-core` are warp-synchronous within a block, so a block's transactions
//! form one dependent chain). Blocks are assigned to DMMs round-robin, as
//! CUDA assigns resident blocks to streaming multiprocessors. A transaction
//! occupying `s` pipeline stages that enters its pipeline at time `t`:
//!
//! * blocks the pipeline entrance during `[t, t + s)`;
//! * completes at `t + s − 1 + latency` (shared latency 1, global `L`);
//! * its issuer may not issue again before completion — the paper's
//!   *"a thread cannot send a new memory access request until the previous
//!   memory access request is completed"*.
//!
//! The simulator therefore reproduces, from first principles, both regimes
//! the paper's cost analysis interpolates between: with many resident blocks
//! the pipelines stay full and a window costs `≈ stages + L`; with few (a
//! narrow wavefront stage) each transaction pays the full latency — exactly
//! why 4R1W loses and why the hybrid trims the wavefront's corners.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gpu_exec::{LaunchTrace, RunTrace};
use hmm_model::{MachineConfig, MemSpace};

/// Timing of one simulated kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchTiming {
    /// Time units from launch start until the last transaction completes.
    pub time: u64,
    /// Total UMM pipeline stages issued.
    pub global_stages: u64,
    /// Total DMM pipeline stages issued (across all DMMs).
    pub shared_stages: u64,
    /// Blocks in the launch.
    pub blocks: usize,
}

/// Simulation result for a whole program (sequence of launches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Per-launch timings, in launch order.
    pub per_launch: Vec<LaunchTiming>,
    /// End-to-end simulated time: the sum of launch times plus the fixed
    /// per-launch overhead (`MachineConfig::barrier_overhead`, modelling the
    /// kernel relaunch cost; the memory latency itself is already inside
    /// each launch's critical path).
    pub total_time: u64,
}

impl SimReport {
    /// Sum of per-launch times without the relaunch overhead.
    pub fn busy_time(&self) -> u64 {
        self.per_launch.iter().map(|l| l.time).sum()
    }

    /// Lay the launches out on the simulated clock: window `i` starts when
    /// window `i − 1` ends plus the barrier/relaunch overhead. Analyzers and
    /// reports use this to show *where* in a run each barrier-delimited
    /// window sits and what it spent its time on.
    pub fn windows(&self, barrier_overhead: u64) -> Vec<WindowTimeline> {
        let mut start = 0u64;
        self.per_launch
            .iter()
            .enumerate()
            .map(|(index, l)| {
                let w = WindowTimeline {
                    index,
                    start,
                    end: start + l.time,
                    global_stages: l.global_stages,
                    shared_stages: l.shared_stages,
                    blocks: l.blocks,
                };
                start = w.end + barrier_overhead;
                w
            })
            .collect()
    }
}

obs::json::record! {
    /// One barrier-delimited window of a simulated program, placed on the clock.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WindowTimeline {
        /// Launch index (window number) within the program.
        pub index: usize,
        /// Simulated time at which the window's first transaction may issue.
        pub start: u64,
        /// Simulated time at which the window's last transaction completes
        /// (the barrier overhead is charged *after* this, before the next
        /// window's `start`).
        pub end: u64,
        /// UMM pipeline stages issued inside this window.
        pub global_stages: u64,
        /// DMM pipeline stages issued inside this window (all DMMs).
        pub shared_stages: u64,
        /// Blocks resident in the window.
        pub blocks: usize,
    }
}

/// The asynchronous HMM discrete-event simulator.
#[derive(Debug, Clone, Copy)]
pub struct AsyncHmm {
    cfg: MachineConfig,
}

impl AsyncHmm {
    /// A simulator with the given machine parameters.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.latency >= 1, "global latency is at least 1");
        AsyncHmm { cfg }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Replay a recorded execution.
    pub fn simulate(&self, trace: &RunTrace) -> SimReport {
        let per_launch: Vec<LaunchTiming> = trace
            .launches
            .iter()
            .map(|l| self.simulate_launch(l))
            .collect();
        let total_time = per_launch
            .iter()
            .map(|l| l.time + self.cfg.barrier_overhead)
            .sum();
        SimReport {
            per_launch,
            total_time,
        }
    }

    /// Replay one launch; returns its critical-path time.
    pub fn simulate_launch(&self, launch: &LaunchTrace) -> LaunchTiming {
        let d = self.cfg.num_dmms.max(1);
        let mut dmm_free = vec![0u64; d];
        let mut umm_free = 0u64;
        let mut global_stages = 0u64;
        let mut shared_stages = 0u64;
        // (ready_at, block index, next op index); min-heap.
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = launch
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(b, _)| Reverse((0u64, b, 0usize)))
            .collect();
        let mut makespan = 0u64;
        while let Some(Reverse((ready, b, k))) = heap.pop() {
            let op = launch.blocks[b][k];
            let stages = op.stages as u64;
            let completion = if stages == 0 {
                ready
            } else {
                let (free, latency) = match op.space {
                    MemSpace::Shared => (&mut dmm_free[b % d], 1),
                    MemSpace::Global => (&mut umm_free, self.cfg.latency),
                };
                match op.space {
                    MemSpace::Shared => shared_stages += stages,
                    MemSpace::Global => global_stages += stages,
                }
                let start = ready.max(*free);
                *free = start + stages;
                start + stages - 1 + latency
            };
            makespan = makespan.max(completion);
            if k + 1 < launch.blocks[b].len() {
                heap.push(Reverse((completion, b, k + 1)));
            }
        }
        LaunchTiming {
            time: makespan,
            global_stages,
            shared_stages,
            blocks: launch.blocks.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::TraceOp;
    use hmm_model::AccessKind;

    fn g(ops: u32, stages: u32) -> TraceOp {
        TraceOp {
            space: MemSpace::Global,
            kind: AccessKind::Read,
            ops,
            stages,
        }
    }

    fn sh(ops: u32, stages: u32) -> TraceOp {
        TraceOp {
            space: MemSpace::Shared,
            kind: AccessKind::Write,
            ops,
            stages,
        }
    }

    fn cfg(l: u64, d: usize) -> MachineConfig {
        MachineConfig::with_width(4).latency(l).num_dmms(d)
    }

    #[test]
    fn empty_trace() {
        let sim = AsyncHmm::new(cfg(10, 2));
        let r = sim.simulate(&RunTrace::default());
        assert_eq!(r.total_time, 0);
        assert!(r.per_launch.is_empty());
    }

    #[test]
    fn fig4_umm_example() {
        // Two warps on the UMM occupying 3 and 2 stages: L + 5 − 1.
        let launch = LaunchTrace::from_blocks(vec![vec![g(4, 3)], vec![g(4, 2)]]);
        for l in [1u64, 5, 100] {
            let sim = AsyncHmm::new(cfg(l, 1));
            let t = sim.simulate_launch(&launch);
            assert_eq!(t.time, l + 5 - 1, "L={l}");
            assert_eq!(t.global_stages, 5);
        }
    }

    #[test]
    fn fig4_dmm_example() {
        // The same two warps on one DMM (stage counts 2 and 1, latency 1):
        // 3 stages → 1 + 3 − 1 = 3 time units.
        let launch = LaunchTrace::from_blocks(vec![vec![sh(4, 2)], vec![sh(4, 1)]]);
        let sim = AsyncHmm::new(cfg(100, 1));
        let t = sim.simulate_launch(&launch);
        assert_eq!(t.time, 3);
        assert_eq!(t.shared_stages, 3);
    }

    #[test]
    fn latency_hiding_with_many_blocks() {
        // 64 blocks, each 10 dependent coalesced accesses, L = 16:
        // the pipeline stays saturated → ≈ stages + L − 1.
        let l = 16u64;
        let launch = LaunchTrace::from_blocks((0..64).map(|_| vec![g(4, 1); 10]).collect());
        let sim = AsyncHmm::new(cfg(l, 1));
        let t = sim.simulate_launch(&launch);
        assert_eq!(t.time, 640 + l - 1);
    }

    #[test]
    fn latency_exposed_with_single_block() {
        // One block, 10 dependent accesses: every access pays L.
        let l = 16u64;
        let launch = LaunchTrace::from_blocks(vec![vec![g(4, 1); 10]]);
        let sim = AsyncHmm::new(cfg(l, 1));
        let t = sim.simulate_launch(&launch);
        assert_eq!(t.time, 10 * l);
    }

    #[test]
    fn shared_work_overlaps_across_dmms() {
        // Two blocks with heavy shared work: on one DMM they serialise, on
        // two DMMs they overlap.
        let launch = LaunchTrace::from_blocks(vec![vec![sh(4, 8); 4], vec![sh(4, 8); 4]]);
        let one = AsyncHmm::new(cfg(100, 1)).simulate_launch(&launch);
        let two = AsyncHmm::new(cfg(100, 2)).simulate_launch(&launch);
        assert!(two.time < one.time);
        assert_eq!(two.time, 4 * 8); // each DMM runs its own chain back-to-back
        assert_eq!(one.time, 2 * 4 * 8);
    }

    #[test]
    fn global_pipeline_is_shared_across_dmms() {
        // Global traffic does not scale with d: one UMM.
        let launch = LaunchTrace::from_blocks((0..8).map(|_| vec![g(4, 4)]).collect());
        let a = AsyncHmm::new(cfg(4, 1)).simulate_launch(&launch);
        let b = AsyncHmm::new(cfg(4, 8)).simulate_launch(&launch);
        assert_eq!(a.time, b.time);
        assert_eq!(a.time, 8 * 4 + 4 - 1);
    }

    #[test]
    fn total_time_adds_barrier_overhead_per_launch() {
        let launch = LaunchTrace::from_blocks(vec![vec![g(4, 1)]]);
        let trace = RunTrace {
            launches: vec![launch.clone(), launch],
        };
        let cfg = MachineConfig::with_width(4)
            .latency(10)
            .barrier_overhead(500);
        let sim = AsyncHmm::new(cfg);
        let r = sim.simulate(&trace);
        assert_eq!(r.per_launch.len(), 2);
        assert_eq!(r.busy_time(), 2 * 10);
        assert_eq!(r.total_time, 2 * (10 + 500));
    }

    #[test]
    fn windows_tile_the_simulated_clock() {
        let launch = LaunchTrace::from_blocks(vec![vec![g(4, 1)], vec![sh(4, 2)]]);
        let trace = RunTrace {
            launches: vec![launch.clone(), launch],
        };
        let sim = AsyncHmm::new(cfg(10, 1).barrier_overhead(500));
        let r = sim.simulate(&trace);
        let ws = r.windows(500);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].start, 0);
        assert_eq!(ws[0].end, r.per_launch[0].time);
        assert_eq!(ws[1].start, ws[0].end + 500);
        assert_eq!(ws[1].end - ws[1].start, r.per_launch[1].time);
        assert_eq!(ws[1].end + 500, r.total_time);
        assert_eq!(ws[0].global_stages, 1);
        assert_eq!(ws[0].shared_stages, 2);
        assert_eq!(ws[0].blocks, 2);
    }

    #[test]
    fn zero_stage_ops_cost_nothing() {
        let launch = LaunchTrace::from_blocks(vec![vec![g(0, 0), g(4, 1)]]);
        let sim = AsyncHmm::new(cfg(7, 1));
        assert_eq!(sim.simulate_launch(&launch).time, 7);
    }
}
