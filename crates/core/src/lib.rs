//! # sat-core — summed area tables on the asynchronous Hierarchical Memory Machine
//!
//! A Rust reproduction of *"Parallel Algorithms for the Summed Area Table on
//! the Asynchronous Hierarchical Memory Machine, with GPU implementations"*
//! (Kasagi, Nakano, Ito — ICPP 2014).
//!
//! The **summed area table** (SAT, Crow 1984) of a matrix `A` is the matrix
//! `S` with `S(i,j) = Σ A(u,v)` over `u ≤ i, v ≤ j`; once built, any
//! rectangle sum of `A` costs four lookups ([`SumTable`]). This crate
//! implements every SAT algorithm the paper analyses, as kernels for the
//! [`gpu_exec`] virtual GPU (a faithful executor of the paper's
//! *asynchronous HMM* machine model):
//!
//! | algorithm | global traffic per element | barriers | module |
//! |---|---|---|---|
//! | [`par::sat_2r2w`] | 2R + 2W, half stride | 1 | [`par::two_r2w`] |
//! | [`par::sat_4r4w`] | 4R + 4W, coalesced | 3 | [`par::four_r4w`] |
//! | [`par::sat_4r1w`] | 4R + 1W, stride | 2n−2 | [`par::four_r1w`] |
//! | [`par::sat_2r1w`] | 2R + 1W, coalesced | 2k+2 (Lemma 4); 3k+2 issued | [`par::two_r1w`] |
//! | [`par::sat_1r1w`] | **1R + 1W**, coalesced (optimal) | 2n/w−2 | [`par::one_r1w`] |
//! | [`par::sat_hybrid`] | (1+r²)R + 1W | mixed | [`par::hybrid`] |
//!
//! plus the sequential CPU baselines ([`seq`]), the coalesced block
//! transpose via the diagonal arrangement ([`transpose`]), rectangle-sum
//! queries ([`rect`]), and the worked-example fixtures of the paper's
//! Figure 3 ([`fixtures`]).
//!
//! ## Quick start
//!
//! ```
//! use gpu_exec::{Device, DeviceOptions};
//! use hmm_model::{cost::SatAlgorithm, MachineConfig};
//! use sat_core::{compute_sat, Matrix, Rect, SumTable};
//!
//! let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)));
//! // Any shape works; inputs are zero-padded to block multiples internally.
//! let image = Matrix::from_fn(30, 22, |i, j| (i + j) as i64);
//! let sat = compute_sat(&dev, SatAlgorithm::OneR1W, &image);
//! let table = SumTable::from_sat(sat);
//! assert_eq!(
//!     table.sum(Rect::new(0, 0, 29, 21)),
//!     (0..30).flat_map(|i| (0..22).map(move |j| (i + j) as i64)).sum::<i64>(),
//! );
//! ```

#![warn(missing_docs)]

pub mod element;
pub mod fixtures;
pub mod matrix;
pub mod par;
pub mod rect;
pub mod scan;
pub mod seq;
pub mod transpose;

pub use element::SatElement;
pub use matrix::Matrix;
pub use rect::{Rect, SumTable};

use gpu_exec::{Device, GlobalBuffer};
use hmm_model::cost::SatAlgorithm;

/// Compute the SAT of an arbitrary-shaped matrix with the chosen algorithm.
///
/// The input is zero-padded so each side is a multiple of the device width
/// (the paper's algorithms assume that shape; padding does not disturb the
/// SAT of the original region) into one device buffer, whose SAT is
/// computed in place and then cropped back into the returned matrix.
/// [`SatAlgorithm::HybridR1W`] uses the cost model's optimal ratio for the
/// padded size; use [`compute_sat_hybrid`] to pick `r` yourself.
pub fn compute_sat<T: SatElement>(
    dev: &Device,
    algorithm: SatAlgorithm,
    a: &Matrix<T>,
) -> Matrix<T> {
    let r = match algorithm {
        SatAlgorithm::HybridR1W => {
            let (rows, cols) = padded_dims(dev, a);
            hmm_model::cost::GlobalCost::new(*dev.config()).optimal_r(rows.max(cols))
        }
        _ => 0.0,
    };
    compute_sat_inner(dev, algorithm, a, r)
}

/// [`compute_sat`] with an explicit hybrid ratio `r ∈ [0, 1]`.
pub fn compute_sat_hybrid<T: SatElement>(dev: &Device, a: &Matrix<T>, r: f64) -> Matrix<T> {
    compute_sat_inner(dev, SatAlgorithm::HybridR1W, a, r)
}

/// Compute the SATs of a batch of same-shaped matrices with the block
/// wavefront fused across the batch ([`par::sat_1r1w_batch`]).
///
/// Every matrix must have the same dimensions. Like [`compute_sat`], each
/// input is zero-padded so each side is a multiple of the device width,
/// into its own buffer, whose SAT is computed in place and cropped back.
/// The whole batch costs `m_r + m_c − 1` kernel launches (`m_r × m_c`
/// blocks of the padded shape) — the same as a *single*
/// [`SatAlgorithm::OneR1W`] run — instead of `B × (m_r + m_c − 1)`, which
/// is what makes it the building block for batched serving
/// (`sat-service`). Per-element arithmetic is identical to the unbatched
/// 1R1W kernel, so each result is bit-equal to
/// `compute_sat(dev, SatAlgorithm::OneR1W, a)`. Nothing outlives the call,
/// so a second call on the same images never sees a failed call's partial
/// writes.
///
/// # Panics
/// Panics if the matrices do not all share one shape.
pub fn compute_sat_batch<T: SatElement>(dev: &Device, images: &[Matrix<T>]) -> Vec<Matrix<T>> {
    let Some(first) = images.first() else {
        return Vec::new();
    };
    assert!(
        images
            .iter()
            .all(|a| a.rows() == first.rows() && a.cols() == first.cols()),
        "compute_sat_batch requires same-shaped matrices"
    );
    in_padded(dev, images, |bufs, rows, cols| {
        let bufs: Vec<&GlobalBuffer<T>> = bufs.iter().collect();
        par::sat_1r1w_batch(dev, &bufs, &bufs, rows, cols);
    })
}

fn padded_dims<T: SatElement>(dev: &Device, a: &Matrix<T>) -> (usize, usize) {
    let w = dev.width();
    (
        a.rows().max(1).next_multiple_of(w),
        a.cols().max(1).next_multiple_of(w),
    )
}

fn compute_sat_inner<T: SatElement>(
    dev: &Device,
    algorithm: SatAlgorithm,
    a: &Matrix<T>,
    r: f64,
) -> Matrix<T> {
    let mut sats = in_padded(dev, std::slice::from_ref(a), |bufs, rows, cols| {
        par::sat(dev, algorithm, r, &bufs[0], rows, cols);
    });
    sats.pop().expect("one image in, one SAT out")
}

/// The marshal around every SAT this crate computes: pad each of the
/// same-shaped `images` into a fresh `Vec`, wrap it as a [`GlobalBuffer`],
/// let `solve` compute `S` over the padded buffers in place, and compact
/// each buffer into its result, which keeps the buffer's allocation. Only
/// 4R4W's transpose scratch is a second matrix-sized buffer; nothing
/// outlives the call. Empty images are returned as they are, with no launch.
fn in_padded<T: SatElement>(
    dev: &Device,
    images: &[Matrix<T>],
    solve: impl FnOnce(&[GlobalBuffer<T>], usize, usize),
) -> Vec<Matrix<T>> {
    let (rows, cols) = (images[0].rows(), images[0].cols());
    if rows == 0 || cols == 0 {
        return images.to_vec();
    }
    let (prows, pcols) = padded_dims(dev, &images[0]);
    let bufs: Vec<GlobalBuffer<T>> = images
        .iter()
        .map(|a| GlobalBuffer::from_vec(a.zero_padded_to(prows, pcols).into_vec()))
        .collect();
    solve(&bufs, prows, pcols);
    bufs.into_iter()
        .map(|b| Matrix::crop_in_place(b.into_vec(), pcols, rows, cols))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::DeviceOptions;
    use hmm_model::MachineConfig;

    use crate::seq::sat_reference;

    fn dev(w: usize) -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2))
    }

    /// Each paper driver called by hand on a hand-padded buffer: the
    /// reference for every dispatch arm's buffer roles and the hybrid's `r`.
    fn direct_sat<T: SatElement>(dev: &Device, alg: SatAlgorithm, a: &Matrix<T>) -> Matrix<T> {
        let w = dev.width();
        let (rows, cols) = (a.rows().next_multiple_of(w), a.cols().next_multiple_of(w));
        let buf = GlobalBuffer::from_vec(a.zero_padded_to(rows, cols).into_vec());
        let s = GlobalBuffer::filled(T::ZERO, rows * cols);
        let r = hmm_model::cost::GlobalCost::new(*dev.config()).optimal_r(rows.max(cols));
        let out = match alg {
            SatAlgorithm::TwoR2W => {
                par::sat_2r2w(dev, &buf, rows, cols);
                buf
            }
            SatAlgorithm::FourR4W => {
                par::sat_4r4w(dev, &buf, &s, rows, cols);
                buf
            }
            SatAlgorithm::FourR1W => {
                par::sat_4r1w(dev, &buf, rows, cols);
                buf
            }
            SatAlgorithm::TwoR1W => {
                par::sat_2r1w(dev, &buf, &s, rows, cols);
                s
            }
            SatAlgorithm::OneR1W => {
                par::sat_1r1w(dev, &buf, &s, rows, cols);
                s
            }
            SatAlgorithm::HybridR1W => {
                par::sat_hybrid(dev, &buf, &s, rows, cols, r);
                s
            }
        };
        Matrix::from_vec(rows, cols, out.into_vec()).cropped(a.rows(), a.cols())
    }

    /// `compute_sat` equals the reference, and both its output and its
    /// device counters equal a direct driver call.
    fn check_dispatch<T: SatElement>(dev: &Device, a: &Matrix<T>) {
        let want = sat_reference(a);
        for alg in SatAlgorithm::ALL {
            let (rows, cols) = (a.rows(), a.cols());
            dev.reset_stats();
            let got = compute_sat(dev, alg, a);
            let via_dispatch = dev.stats();
            assert_eq!(got, want, "{alg:?} {rows}x{cols}");
            if rows == 0 || cols == 0 {
                assert_eq!(dev.launches(), 0, "{alg:?} {rows}x{cols}: no launch");
                continue;
            }
            dev.reset_stats();
            assert_eq!(direct_sat(dev, alg, a), want, "{alg:?} {rows}x{cols}");
            assert_eq!(dev.stats(), via_dispatch, "{alg:?} {rows}x{cols} stats");
        }
    }

    #[test]
    fn all_algorithms_agree_on_padded_shapes() {
        let dev = dev(4);
        for (rows, cols) in [
            (1, 1),
            (5, 3),
            (9, 9),
            (17, 20),
            (32, 32),
            (1, 9),
            (9, 1),
            (0, 5),
            (5, 0),
        ] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 3 + j * 7) % 13) as i64 - 6);
            check_dispatch(&dev, &a);
        }
        // Integer-valued floats sum exactly in any association order.
        let a = Matrix::from_fn(13, 22, |i, j| ((i * 31 + j * 7) % 97) as f64 - 40.0);
        check_dispatch(&dev, &a);
    }

    #[test]
    fn hybrid_with_explicit_ratio() {
        let dev = dev(4);
        let a = Matrix::from_fn(20, 20, |i, j| (i * j) as i64 % 9);
        let want = sat_reference(&a);
        for r in [0.0, 0.4, 1.0] {
            assert_eq!(compute_sat_hybrid(&dev, &a, r), want, "r={r}");
        }
    }

    #[test]
    fn batch_matches_single_image_results() {
        let dev = dev(4);
        for (rows, cols) in [(1usize, 1usize), (7, 5), (16, 16), (13, 22)] {
            let imgs: Vec<Matrix<i64>> = (0..6)
                .map(|k| Matrix::from_fn(rows, cols, |i, j| ((i * 5 + j * 11 + k) % 17) as i64 - 8))
                .collect();
            let sats = compute_sat_batch(&dev, &imgs);
            assert_eq!(sats.len(), imgs.len());
            for (a, s) in imgs.iter().zip(&sats) {
                assert_eq!(s, &sat_reference(a), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn batch_launch_count_is_batch_independent() {
        let dev = dev(4);
        let n = 16usize;
        let m = n / 4;
        for batch in [1usize, 8] {
            let imgs: Vec<Matrix<i64>> = (0..batch)
                .map(|_| Matrix::from_fn(n, n, |i, j| (i + j) as i64))
                .collect();
            dev.reset_stats();
            compute_sat_batch(&dev, &imgs);
            assert_eq!(dev.launches() as usize, 2 * m - 1, "batch={batch}");
        }
    }

    #[test]
    fn batch_transactions_are_width_times_exact_closed_form() {
        // The fused kernel widens each diagonal launch B× without changing
        // per-matrix arithmetic, so the global transaction counts of a
        // batched run on block-aligned squares are exactly B× the paper's
        // Table-I closed forms. sat-service's resilience layer relies on
        // this equality to detect silently skipped blocks.
        let w = 4usize;
        let dev = dev(w);
        let exact = hmm_model::cost::GlobalCost::new(*dev.config())
            .exact_counts(SatAlgorithm::OneR1W, 16, 16)
            .unwrap();
        for batch in [1usize, 3, 5] {
            let imgs: Vec<Matrix<i64>> = (0..batch)
                .map(|k| Matrix::from_fn(16, 16, |i, j| (i * 2 + j + k) as i64))
                .collect();
            dev.reset_stats();
            compute_sat_batch(&dev, &imgs);
            let s = dev.stats();
            let b = batch as u64;
            assert_eq!(s.coalesced_reads, b * exact.coalesced_reads, "B={batch}");
            assert_eq!(s.coalesced_writes, b * exact.coalesced_writes, "B={batch}");
            assert_eq!(s.stride_reads, b * exact.stride_reads, "B={batch}");
            assert_eq!(s.stride_writes, b * exact.stride_writes, "B={batch}");
        }
    }

    #[test]
    fn batch_marshal_is_bit_equal_and_keeps_no_padding() {
        // Ragged, 1×n and n×1 shapes; each result is its own padded buffer
        // compacted in place, so its capacity must not keep the padding.
        for w in [1usize, 2, 4, 32] {
            let dev = dev(w);
            for (rows, cols) in [(13usize, 22usize), (1, 37), (37, 1)] {
                let imgs: Vec<Matrix<f64>> = (0..3)
                    .map(|k| {
                        Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7 + k) % 97) as f64 * 0.1)
                    })
                    .collect();
                for (a, s) in imgs.iter().zip(compute_sat_batch(&dev, &imgs)) {
                    let single = compute_sat(&dev, SatAlgorithm::OneR1W, a);
                    let bits = |m: &Matrix<f64>| -> Vec<u64> {
                        m.as_slice().iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(&s), bits(&single), "w={w} {rows}x{cols}");
                    let data = s.into_vec();
                    assert!(
                        data.capacity() < 2 * rows * cols,
                        "w={w} {rows}x{cols}: capacity {} kept the padding",
                        data.capacity()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_retried_after_lost_launches_is_exact() {
        // 16×16 at w = 4 is 7 launches a call. The first call loses
        // launches 2–4, after launches 0 and 1 wrote their blocks; the
        // second call runs clean and must be exact.
        let faulty = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(2)
                .fault_plan(
                    gpu_exec::FaultPlan::new(3)
                        .loss(gpu_exec::LossWindow::Launches { start: 2, count: 3 }),
                ),
        );
        let imgs: Vec<Matrix<f64>> = (0..3)
            .map(|k| Matrix::from_fn(16, 16, |i, j| ((i * 5 + j * 3 + k) % 11) as f64 + 1.0))
            .collect();
        let failed = compute_sat_batch(&faulty, &imgs);
        assert_eq!(
            faulty.fault_epoch(),
            3,
            "the first call lost three launches"
        );
        assert!(imgs
            .iter()
            .zip(&failed)
            .all(|(a, s)| s != &sat_reference(a)));
        for (a, s) in imgs.iter().zip(compute_sat_batch(&faulty, &imgs)) {
            assert_eq!(s, sat_reference(a));
        }
        assert_eq!(faulty.fault_epoch(), 3, "the retry ran clean");
    }

    #[test]
    fn empty_batch_and_empty_matrices() {
        let dev = dev(4);
        assert!(compute_sat_batch::<i64>(&dev, &[]).is_empty());
        let empty: Vec<Matrix<i64>> = vec![Matrix::zeros(0, 0); 2];
        let sats = compute_sat_batch(&dev, &empty);
        assert_eq!(sats.len(), 2);
        assert_eq!(sats[0].rows(), 0);
    }

    #[test]
    #[should_panic(expected = "same-shaped")]
    fn batch_rejects_mixed_shapes() {
        let dev = dev(4);
        let a: Matrix<i64> = Matrix::zeros(4, 4);
        let b: Matrix<i64> = Matrix::zeros(4, 5);
        compute_sat_batch(&dev, &[a, b]);
    }

    #[test]
    fn empty_matrix_passthrough() {
        let dev = dev(4);
        let a: Matrix<i64> = Matrix::zeros(0, 0);
        let got = compute_sat(&dev, SatAlgorithm::OneR1W, &a);
        assert_eq!(got.rows(), 0);
    }

    #[test]
    fn doc_example() {
        let dev = dev(4);
        let image = Matrix::from_fn(30, 22, |i, j| (i + j) as i64);
        let sat = compute_sat(&dev, SatAlgorithm::OneR1W, &image);
        let table = SumTable::from_sat(sat);
        let total: i64 = (0..30)
            .flat_map(|i| (0..22).map(move |j| (i + j) as i64))
            .sum();
        assert_eq!(table.sum(Rect::new(0, 0, 29, 21)), total);
    }

    #[test]
    fn floats_agree_within_tolerance() {
        let dev = dev(4);
        let a = Matrix::from_fn(16, 16, |i, j| ((i * 7 + j) % 5) as f64 * 0.25);
        let want = sat_reference(&a);
        for alg in SatAlgorithm::ALL {
            let got = compute_sat(&dev, alg, &a);
            assert!(got.max_abs_diff(&want) < 1e-9, "{alg:?}");
        }
    }
}
