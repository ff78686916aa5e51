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

use gpu_exec::{BufferPool, Device, GlobalBuffer};
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
/// Every matrix must have the same dimensions. Like [`compute_sat`], inputs
/// are zero-padded to square-block multiples of the device width and the
/// results cropped back. The whole batch costs `2m − 1` kernel launches
/// (`m = padded_rows / w` blocks per side) — the same as a *single*
/// [`SatAlgorithm::OneR1W`] run — instead of `B × (2m − 1)`, which is what
/// makes it the building block for batched serving (`sat-service`).
/// Per-element arithmetic is identical to the unbatched 1R1W kernel, so
/// each result is bit-equal to `compute_sat(dev, SatAlgorithm::OneR1W, a)`.
///
/// # Panics
/// Panics if the matrices do not all share one shape.
pub fn compute_sat_batch<T: SatElement>(dev: &Device, images: &[Matrix<T>]) -> Vec<Matrix<T>> {
    compute_sat_batch_with(dev, &BufferPool::new(), images)
}

/// [`compute_sat_batch`] drawing its device buffers from a recycling
/// [`BufferPool`] instead of allocating per call — the steady-state path of
/// a serving layer.
///
/// Fault hygiene is per *buffer*, not per batch: every write made under a
/// failed launch sets the buffer's poison flag, and [`BufferPool::recycle`]
/// scrubs poisoned buffers before they re-enter the free list. A buffer
/// that merely lived through a fault-epoch bump without being written by
/// the failing launch — the input images here, or any buffer held across a
/// lost launch that never ran a block — recycles clean, so a retry can
/// never observe partial writes yet untouched buffers aren't re-zeroed for
/// nothing.
///
/// # Panics
/// Panics if the matrices do not all share one shape.
pub fn compute_sat_batch_with<T: SatElement>(
    dev: &Device,
    pool: &BufferPool<T>,
    images: &[Matrix<T>],
) -> Vec<Matrix<T>> {
    marshal(dev, pool, images, |ins, rows, cols| {
        let outs: Vec<GlobalBuffer<T>> = ins
            .iter()
            .map(|_| pool.checkout_zeroed(rows * cols))
            .collect();
        par::sat_1r1w_batch(
            dev,
            &ins.iter().collect::<Vec<_>>(),
            &outs.iter().collect::<Vec<_>>(),
            rows,
            cols,
        );
        for buf in ins {
            pool.recycle(buf, true);
        }
        outs
    })
}

fn padded_dims<T: SatElement>(dev: &Device, a: &Matrix<T>) -> (usize, usize) {
    let w = dev.width();
    (
        a.rows().max(1).next_multiple_of(w),
        a.cols().max(1).next_multiple_of(w),
    )
}

/// One image through [`par::sat`] in one padded buffer: pad `a` into it,
/// compute `S` over it in place, and compact its rows into the returned
/// matrix, which keeps the buffer's allocation. Only 4R4W's transpose
/// scratch is a second matrix-sized buffer; nothing outlives the call.
fn compute_sat_inner<T: SatElement>(
    dev: &Device,
    algorithm: SatAlgorithm,
    a: &Matrix<T>,
    r: f64,
) -> Matrix<T> {
    if a.rows() == 0 || a.cols() == 0 {
        return a.clone();
    }
    let (rows, cols) = padded_dims(dev, a);
    let buf = GlobalBuffer::from_vec(a.zero_padded_to(rows, cols).into_vec());
    par::sat(dev, algorithm, r, &buf, rows, cols);
    Matrix::crop_in_place(buf.into_vec(), cols, a.rows(), a.cols())
}

/// The pooled pad-in/crop-out around a batched SAT: pad each image
/// straight into a pooled buffer, let `solve` turn the padded inputs into
/// one result buffer each, then crop each result straight out of its buffer
/// and recycle it. `solve` owns the inputs and recycles the ones it does
/// not return.
///
/// `checkout_uninit` hands back stale words from earlier calls, so the pad
/// region is zeroed explicitly rather than assumed.
fn marshal<T: SatElement>(
    dev: &Device,
    pool: &BufferPool<T>,
    images: &[Matrix<T>],
    solve: impl FnOnce(Vec<GlobalBuffer<T>>, usize, usize) -> Vec<GlobalBuffer<T>>,
) -> Vec<Matrix<T>> {
    let Some(first) = images.first() else {
        return Vec::new();
    };
    let (rows, cols) = (first.rows(), first.cols());
    assert!(
        images.iter().all(|a| a.rows() == rows && a.cols() == cols),
        "compute_sat_batch requires same-shaped matrices"
    );
    if rows == 0 || cols == 0 {
        return images.to_vec();
    }
    let (prows, pcols) = padded_dims(dev, first);
    let ins = images
        .iter()
        .map(|a| {
            let mut buf = pool.checkout_uninit(prows * pcols);
            a.pad_into(buf.as_mut_slice(), pcols);
            buf
        })
        .collect();
    let mut outs = solve(ins, prows, pcols);
    let sats = outs
        .iter_mut()
        .map(|s| Matrix::crop_of(s.as_slice(), pcols, rows, cols))
        .collect();
    for buf in outs {
        // `clean` from the caller's view — the per-buffer poison flag
        // forces a scrub for exactly the buffers a failed launch wrote.
        pool.recycle(buf, true);
    }
    sats
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
    fn batch_is_bit_equal_to_unbatched_floats() {
        let dev = dev(4);
        let imgs: Vec<Matrix<f64>> = (0..4)
            .map(|k| Matrix::from_fn(9, 14, |i, j| ((i * 31 + j * 7 + k) % 97) as f64 * 0.1))
            .collect();
        let sats = compute_sat_batch(&dev, &imgs);
        for (a, s) in imgs.iter().zip(&sats) {
            let single = compute_sat(&dev, SatAlgorithm::OneR1W, a);
            assert_eq!(s.as_slice(), single.as_slice(), "bit-equal to 1R1W");
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
    fn pooled_batch_matches_and_reuses_buffers() {
        let dev = dev(4);
        let pool: BufferPool<f64> = BufferPool::new();
        let imgs: Vec<Matrix<f64>> = (0..3)
            .map(|k| Matrix::from_fn(9, 14, |i, j| ((i * 31 + j * 7 + k) % 97) as f64 * 0.1))
            .collect();
        let plain = compute_sat_batch(&dev, &imgs);
        for round in 0..3 {
            let pooled = compute_sat_batch_with(&dev, &pool, &imgs);
            for (a, b) in plain.iter().zip(&pooled) {
                assert_eq!(a.as_slice(), b.as_slice(), "round {round}");
            }
        }
        let (allocated, reused, scrubbed) = pool.stats();
        assert_eq!(
            allocated, 6,
            "only the first round allocates (3 in + 3 out)"
        );
        assert_eq!(scrubbed, 0, "no faults, no scrubs");
        assert_eq!(reused, 12, "rounds 2 and 3 reuse round 1's buffers");

        // 16×24 fills every word of its buffers; 13×22 pads to the same
        // 16×24, so its inputs land in recycled buffers whose pad region
        // still holds the previous SATs unless the marshal zeroes it.
        let pool: BufferPool<f64> = BufferPool::new();
        let mut imgs = Vec::new();
        for (rows, cols) in [(16, 24), (13, 22)] {
            imgs = (0..3)
                .map(|k| Matrix::from_fn(rows, cols, |i, j| ((i * 5 + j * 3 + k) % 11) as f64))
                .collect();
            for (a, s) in imgs.iter().zip(compute_sat_batch_with(&dev, &pool, &imgs)) {
                assert_eq!(s, sat_reference(a), "{rows}x{cols}");
            }
        }
        assert_eq!(pool.stats().0, 6, "13x22 reuses the 16x24 buffers");
        // A SAT cell depends only on cells above and to its left, so the
        // cropped outputs cannot see the pad region. The batch only reads
        // its inputs, though: each recycled input buffer must still hold
        // its image zero-padded, pad region included.
        let shelved: Vec<Vec<f64>> = (0..6)
            .map(|_| pool.checkout_uninit(16 * 24).as_slice().to_vec())
            .collect();
        for a in &imgs {
            let padded = a.zero_padded_to(16, 24);
            assert!(
                shelved.iter().any(|b| b.as_slice() == padded.as_slice()),
                "an input buffer kept stale words in its pad region"
            );
        }
    }

    #[test]
    fn pooled_batch_stays_clean_across_lost_launches() {
        // A fault plan that loses every launch: no block ever runs, so no
        // buffer is written by a failed launch — nothing is poisoned and
        // nothing needs scrubbing, even though the fault epoch moved. (The
        // old per-batch epoch compare would have scrubbed both buffers.)
        let faulty = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .fault_plan(
                    gpu_exec::FaultPlan::new(3).loss(gpu_exec::LossWindow::Launches {
                        start: 0,
                        count: u64::MAX,
                    }),
                ),
        );
        let pool: BufferPool<f64> = BufferPool::new();
        let imgs = vec![Matrix::from_fn(8, 8, |i, j| (i + j) as f64)];
        let _ = compute_sat_batch_with(&faulty, &pool, &imgs);
        assert!(faulty.fault_epoch() > 0, "launches were lost");
        let (_, _, scrubbed) = pool.stats();
        assert_eq!(scrubbed, 0, "lost launches wrote nothing — no scrub");
    }

    #[test]
    fn pooled_batch_scrubs_only_buffers_a_failed_launch_wrote() {
        // Aborted launches skip about half their blocks; the surviving
        // blocks still write the *output* buffer, poisoning it. The input
        // buffers are only read, so they recycle clean.
        let faulty = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .fault_plan(gpu_exec::FaultPlan::new(3).launch_abort_p(1.0)),
        );
        let pool: BufferPool<f64> = BufferPool::new();
        let imgs = vec![Matrix::from_fn(8, 8, |i, j| (i + j) as f64)];
        let _ = compute_sat_batch_with(&faulty, &pool, &imgs);
        assert!(faulty.fault_epoch() > 0, "launches were aborted");
        let (_, _, scrubbed) = pool.stats();
        assert_eq!(
            scrubbed, 1,
            "exactly the poisoned output buffer is scrubbed"
        );
        // The next checkout must never observe the aborted attempt's
        // partial writes.
        let mut back = pool.checkout_uninit(8 * 8);
        assert!(back.as_slice().iter().all(|&x| x == 0.0));
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
