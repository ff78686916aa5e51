//! Parallel SAT algorithms for the asynchronous HMM, as `gpu-exec` kernels.

pub mod common;
pub mod four_r1w;
pub mod four_r4w;
pub mod hybrid;
pub mod kogge_stone;
pub mod one_r1w;
pub mod region;
pub mod two_r1w;
pub mod two_r2w;

pub use common::Grid;
pub use four_r1w::sat_4r1w;
pub use four_r4w::sat_4r4w;
pub use hybrid::{sat_hybrid, triangle_diagonals};
pub use kogge_stone::sat_kogge_stone;
pub use one_r1w::{
    one_r1w_persistent, one_r1w_stage, sat_1r1w, sat_1r1w_batch, sat_1r1w_mirror,
    sat_1r1w_persistent,
};
pub use region::{sat_2r1w_region, Region};
pub use two_r1w::sat_2r1w;
pub use two_r2w::{column_prefix_kernel, row_prefix_kernel, sat_2r2w};

use gpu_exec::{Device, GlobalBuffer};
use hmm_model::cost::SatAlgorithm;

use crate::element::SatElement;

/// Run one of the paper's six algorithms on the padded `rows × cols`
/// input `a`, leaving its SAT in `a`.
///
/// Every algorithm but 4R4W computes `S` over `A` without a second
/// matrix-sized buffer. 2R2W and 4R1W are in place by construction. 1R1W,
/// 2R1W and the hybrid get `a` as both input and output: each block reads
/// its own input words before it writes them, and every other word it reads
/// is either an `S` word finished by an earlier launch or one of 2R1W's
/// fringe buffers (DESIGN.md §20). 4R4W stages its transposes through a
/// zeroed scratch buffer that lives only for this call. `r` is the
/// hybrid's ratio; the other algorithms ignore it.
pub fn sat<T: SatElement>(
    dev: &Device,
    alg: SatAlgorithm,
    r: f64,
    a: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    match alg {
        SatAlgorithm::TwoR2W => sat_2r2w(dev, a, rows, cols),
        SatAlgorithm::FourR1W => sat_4r1w(dev, a, rows, cols),
        SatAlgorithm::FourR4W => sat_4r4w(
            dev,
            a,
            &GlobalBuffer::filled(T::ZERO, rows * cols),
            rows,
            cols,
        ),
        SatAlgorithm::TwoR1W => sat_2r1w(dev, a, a, rows, cols),
        SatAlgorithm::OneR1W => sat_1r1w(dev, a, a, rows, cols),
        SatAlgorithm::HybridR1W => sat_hybrid(dev, a, a, rows, cols, r),
    }
}
