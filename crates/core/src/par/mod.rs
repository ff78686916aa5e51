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
