//! # gpu-exec — a CUDA-like virtual GPU runtime on OS threads
//!
//! This crate executes *kernels* over *grids of blocks* with the semantics of
//! the **asynchronous Hierarchical Memory Machine** (Kasagi, Nakano, Ito —
//! ICPP 2014):
//!
//! * a [`Device`] owns a pool of worker threads (its "streaming
//!   multiprocessors") and dispatches the blocks of each launch to them
//!   **asynchronously** — in arbitrary order and interleaving, optionally
//!   shuffled to stress-test order independence;
//! * a kernel launch is the unit of **barrier synchronisation**: `launch`
//!   returns only when every block has finished, and nothing carries over in
//!   shared memory — each block gets a fresh, zeroed [`SharedTile`], exactly
//!   the paper's *"all DMMs are reset [at a barrier]; data stored in shared
//!   memory are lost"*;
//! * global memory lives in [`GlobalBuffer`]s. Blocks of one launch must
//!   write disjoint words and must not read words written by other blocks of
//!   the same launch (inter-block communication requires a barrier, i.e. a
//!   new launch). An optional per-word **race detector** enforces this
//!   contract at runtime for tests;
//! * every global and shared memory access goes through warp-shaped accessors
//!   that record the paper's statistics — coalesced vs. stride operation
//!   counts, exact UMM pipeline stages, shared-memory bank-conflict stages
//!   and barrier steps — into [`hmm_model::CostCounters`], so an execution
//!   yields both a result *and* its global memory access cost.
//!
//! The crate contains the only `unsafe` code in the workspace (the shared
//! global-memory cell and the scoped-job worker pool); everything above it is
//! safe Rust.
//!
//! ## Example
//!
//! ```
//! use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
//! use hmm_model::MachineConfig;
//!
//! let cfg = MachineConfig::with_width(4);
//! let dev = Device::new(DeviceOptions::new(cfg));
//! let buf = GlobalBuffer::from_vec(vec![1.0f64; 64]);
//! // One block per 16-element chunk; each block doubles its chunk.
//! dev.launch(4, |ctx| {
//!     let g = ctx.view(&buf);
//!     let base = ctx.block_id() * 16;
//!     let mut vals = [0.0f64; 16];
//!     g.read_contig(base, &mut vals, ctx.rec());
//!     for v in &mut vals {
//!         *v *= 2.0;
//!     }
//!     g.write_contig(base, &vals, ctx.rec());
//! });
//! assert!(buf.into_vec().iter().all(|&v| v == 2.0));
//! ```

#![warn(missing_docs)]

mod buffer;
mod device;
mod fault;
mod handoff;
mod pool;
mod recorder;
pub mod replay;
mod shared;
mod trace;

pub use buffer::{GlobalBuffer, GlobalView};
pub use device::{BlockCtx, BlockOrder, Device, DeviceOptions, LaunchContext};
pub use fault::{FaultEvent, FaultPlan, LossWindow};
pub use handoff::HandoffFlags;
pub use recorder::TxnRecorder;
pub use replay::{replay_schedules, ReplayReport, ScheduleRun};
pub use shared::{RowPass, SharedTile, TileLayout};
pub use trace::{AddrPattern, BlockTrace, LaunchTrace, RunTrace, TraceOp};
