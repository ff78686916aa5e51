//! # hmm-lint — a trace-based analyzer for asynchronous-HMM kernels
//!
//! `gpu-exec` can record every warp memory transaction a kernel issues —
//! its shape (`TraceOp`: space, kind, ops, stages) and, with the address
//! channel, the concrete words it touched (`AddrPattern`). This crate walks
//! those recordings and reports, compiler-style, where a kernel breaks the
//! machine model's rules or misses its performance budget:
//!
//! * **bank-conflict** — a shared (DMM) transaction occupies more pipeline
//!   stages than the conflict-free minimum `⌈ops/w⌉`. The paper's diagonal
//!   tile arrangement (Lemma 1) exists precisely to make every row *and*
//!   column access conflict-free; this rule catches regressions to
//!   row-major layouts.
//! * **uncoalesced** — the fraction of global (UMM) transactions spanning
//!   more than one `w`-word address group exceeds the kernel's budget.
//!   Budgets come from Table I's stride columns: 2R2W deliberately leaves
//!   its row-wise half stride, 1R1W must be essentially 100 % coalesced.
//! * **barrier-race** — two blocks of one launch touch the same global
//!   word with at least one write. On the asynchronous HMM, blocks of a
//!   launch run in arbitrary order, so inter-block communication is only
//!   legal across a barrier (a new launch).
//! * **shared-reset** — a block warp-reads a shared tile it never
//!   warp-writes in its launch window. Barriers reset shared memory, so
//!   such reads observe only zeroes.
//! * **cost-divergence** — the measured `C`/`S`/`B` counters drift beyond
//!   tolerance from the Table I closed forms for the algorithm, i.e. the
//!   implementation no longer matches its own cost analysis.
//! * **write-after-loss** — a launch the fault injector marked lost still
//!   shows global writes in its trace. Recovery (retry, CPU degradation)
//!   assumes a lost launch left global memory untouched; any recorded
//!   write breaks that no-write-after-loss contract.
//! * **schedule-race** — two blocks of one launch make conflicting accesses
//!   to the same global word with no happens-before path between them
//!   (program order + barrier edges + release→acquire handoff edges): a
//!   data race under *some* legal HMM schedule, even if the recorded run
//!   got lucky. Properly acquired [`gpu_exec::HandoffFlags`] handoffs are
//!   exempt — mark the contract with [`KernelContract::with_handoffs`].
//! * **handoff-before-ready** — a read of a flagged handoff slot's data
//!   region that is not ordered after the corresponding flag write; the
//!   consumer may observe the region before the producer published it.
//!
//! Entry points: [`analyze`] for a bare report, [`analyze_run`] to also
//! replay the trace on the [`hmm_sim::AsyncHmm`] and attach the barrier
//! window timeline. The `fixtures` module holds deliberately-broken
//! kernels (and their fixes) that pin analyzer↔replay agreement. The
//! `satlint` binary (in the `bench` crate) runs the whole paper suite
//! through this analyzer.

#![warn(missing_docs)]

mod analyze;
mod contract;
pub mod fixtures;
mod races;
mod report;

pub use analyze::{analyze, MAX_PER_RULE};
pub use contract::KernelContract;
pub use report::{ConflictSite, Diagnostic, LintReport, Rule, Severity, SCHEMA_VERSION};

use gpu_exec::RunTrace;
use hmm_model::cost::CostCounters;
use hmm_model::MachineConfig;
use hmm_sim::{AsyncHmm, WindowTimeline};

obs::json::record! {
    /// A lint report plus the simulated timeline of the same run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunAnalysis {
        /// The analyzer's findings.
        pub report: LintReport,
        /// Per-launch barrier windows on the simulated machine — where in
        /// simulated time each diagnostic's `launch` index lives.
        pub windows: Vec<WindowTimeline>,
        /// End-to-end simulated time of the run.
        pub simulated_time: u64,
    }
}

/// Analyze a recorded run and replay it on the machine simulator, so each
/// launch-localised finding can be placed on the simulated clock.
pub fn analyze_run(
    trace: &RunTrace,
    counters: &CostCounters,
    cfg: &MachineConfig,
    contract: &KernelContract,
) -> RunAnalysis {
    let report = analyze(trace, counters, cfg, contract);
    let sim = AsyncHmm::new(*cfg).simulate(trace);
    RunAnalysis {
        report,
        windows: sim.windows(cfg.barrier_overhead),
        simulated_time: sim.total_time,
    }
}
