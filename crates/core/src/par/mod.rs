//! Parallel SAT algorithms for the asynchronous HMM, as `gpu-exec` kernels.

pub mod band;
pub mod common;
pub mod four_r1w;
pub mod four_r4w;
pub mod hybrid;
pub mod kogge_stone;
pub mod one_r1w;
pub mod region;
pub mod two_r1w;
pub mod two_r2w;

pub use band::{
    band_colsum, band_wavefront, band_wavefront_stage, margin_exchange, sat_1r1w_banded, Band,
    BandPlan,
};
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

use gpu_exec::{BufferPool, Device, GlobalBuffer};
use hmm_model::cost::SatAlgorithm;

use crate::element::SatElement;

/// Run one of the paper's six algorithms on the padded `rows × cols`
/// input `a` and return the buffer that holds its SAT.
///
/// The drivers differ only in which buffers they touch: 2R2W and 4R1W work
/// in place on `a`; 4R4W also needs a scratch buffer and leaves `S` in `a`;
/// 2R1W, 1R1W and the hybrid write `S` into a second buffer. That second
/// buffer is checked out of `pool` zeroed, and whichever buffer does not
/// hold `S` goes back to `pool`. `r` is the hybrid's ratio; the other
/// algorithms ignore it.
pub fn sat<T: SatElement>(
    dev: &Device,
    pool: &BufferPool<T>,
    alg: SatAlgorithm,
    r: f64,
    a: GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) -> GlobalBuffer<T> {
    let second = || pool.checkout_zeroed(rows * cols);
    let (s, spare) = match alg {
        SatAlgorithm::TwoR2W => {
            sat_2r2w(dev, &a, rows, cols);
            return a;
        }
        SatAlgorithm::FourR1W => {
            sat_4r1w(dev, &a, rows, cols);
            return a;
        }
        SatAlgorithm::FourR4W => {
            let tmp = second();
            sat_4r4w(dev, &a, &tmp, rows, cols);
            (a, tmp)
        }
        SatAlgorithm::TwoR1W => {
            let s = second();
            sat_2r1w(dev, &a, &s, rows, cols);
            (s, a)
        }
        SatAlgorithm::OneR1W => {
            let s = second();
            sat_1r1w(dev, &a, &s, rows, cols);
            (s, a)
        }
        SatAlgorithm::HybridR1W => {
            let s = second();
            sat_hybrid(dev, &a, &s, rows, cols, r);
            (s, a)
        }
    };
    pool.recycle(spare, true);
    s
}
