//! # hmm-model — memory machine models for GPU-like computation
//!
//! This crate implements the theoretical machine models of Nakano et al. that
//! capture the essence of CUDA-enabled GPUs, as used in
//! *"Parallel Algorithms for the Summed Area Table on the Asynchronous
//! Hierarchical Memory Machine, with GPU implementations"* (Kasagi, Nakano,
//! Ito — ICPP 2014):
//!
//! * the **Discrete Memory Machine (DMM)** — models *shared memory*: a single
//!   address space interleaved over `w` memory banks; a warp access is split
//!   into pipeline stages such that no two requests in a stage hit the same
//!   bank ([`warp::WarpAccess::dmm_stages`]);
//! * the **Unified Memory Machine (UMM)** — models *global memory*: addresses
//!   are partitioned into `w`-word *address groups*; a warp access occupies one
//!   pipeline stage per distinct group it touches
//!   ([`warp::WarpAccess::umm_stages`]);
//! * the **Hierarchical Memory Machine (HMM)** — `d` DMMs (one per streaming
//!   multiprocessor) plus one UMM, with shared-memory latency 1 and global
//!   latency `L`;
//! * the **asynchronous HMM** — the HMM with asynchronous block execution and
//!   global barrier synchronisation that *resets every shared memory*
//!   (mirroring CUDA kernel boundaries).
//!
//! The crate provides:
//!
//! * address/bank/group arithmetic ([`address`]),
//! * warp access classification and stage counting ([`warp`]),
//! * pipeline timing for access schedules on the DMM and the UMM ([`pipeline`]),
//! * the *diagonal arrangement* of a `w × w` matrix that makes both row-wise
//!   and column-wise warp access conflict-free (Lemma 1 of the paper;
//!   [`diagonal`]),
//! * the *global memory access cost* `C/w + S + Λ(B + 1)` ([`cost()`], its
//!   one definition) and the closed forms of the paper's Table I for every
//!   SAT algorithm ([`mod@cost`]).
//!
//! Higher layers build on this crate: `hmm-sim` executes whole programs on the
//! model with exact pipeline semantics, and `gpu-exec` runs CUDA-like kernels
//! on OS threads while accounting memory transactions with the classifiers
//! defined here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod config;
pub mod cost;
pub mod diagonal;
pub mod pipeline;
pub mod warp;

pub use address::{bank_of, group_of, strided_groups, Addr};
pub use config::MachineConfig;
pub use cost::{cost, CostCounters, ExactCounts, GlobalCost};
pub use diagonal::DiagonalLayout;
pub use warp::{min_stages, AccessKind, MemSpace, WarpAccess};
