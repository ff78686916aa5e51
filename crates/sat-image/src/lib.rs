//! # sat-image — image processing on summed area tables
//!
//! The paper motivates the SAT by its computer-vision applications (Crow
//! 1984; Lauritzen, *GPU Gems 3*): once the SAT of an image exists, any
//! box sum is four lookups. This crate implements the classic consumers on
//! top of `sat-core`'s device-accelerated SAT computation:
//!
//! * [`boxfilter`] — box / mean filtering with clamped borders;
//! * [`variance`] — local variance and **variance shadow maps** (the GPU
//!   Gems 3 application cited by the paper), including the Chebyshev upper
//!   bound used for soft shadows;
//! * [`threshold`] — Bradley–Roth adaptive thresholding;
//! * [`pgm`] — dependency-free PGM image I/O (P2/P5, 8/16-bit) so real
//!   grayscale images round-trip through the pipelines;
//! * [`synth`] — synthetic image generators used by tests and examples.
//!
//! All consumers take a [`sat_core::SumTable`]; build it with any of the
//! paper's algorithms via [`sat_core::compute_sat`].

#![warn(missing_docs)]

pub mod boxfilter;
pub mod pgm;
pub mod synth;
pub mod threshold;
pub mod variance;

pub use boxfilter::{box_filter, mean_filter};
pub use threshold::adaptive_threshold;
pub use variance::{local_variance, VarianceShadowMap};
