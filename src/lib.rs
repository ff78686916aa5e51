//! # sat-hmm — reproduction of "Parallel Algorithms for the Summed Area
//! # Table on the Asynchronous Hierarchical Memory Machine" (ICPP 2014)
//!
//! Umbrella crate re-exporting the workspace members:
//!
//! * [`hmm_model`] — the DMM/UMM/HMM machine models, diagonal arrangement
//!   and the global memory access cost model (Table I closed forms);
//! * [`gpu_exec`] — a CUDA-like virtual GPU on OS threads with
//!   asynchronous-HMM semantics and transaction accounting;
//! * [`hmm_sim`] — discrete-event replay of recorded executions on
//!   `d` DMM pipelines + one UMM pipeline;
//! * [`sat_core`] — the six SAT algorithms (2R2W, 4R4W, 4R1W, 2R1W, 1R1W,
//!   (1+r²)R1W), CPU baselines, block transpose and rectangle queries;
//! * [`sat_image`] — image-processing applications (box filter, variance
//!   shadow maps, adaptive threshold, PGM I/O).
//!
//! See the workspace `README.md` for a tour and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

pub use gpu_exec;
pub use hmm_model;
pub use hmm_sim;
pub use sat_core;
pub use sat_image;
