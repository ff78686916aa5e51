//! `par::sat` leaves the SAT in its input buffer. 2R2W and 4R1W are in
//! place by construction, 1R1W, 2R1W and the hybrid get the input as their
//! output too, and 4R4W stages its transposes through a scratch buffer.
//! Each algorithm runs on race-checked buffers, under shuffled and
//! adversarial two-worker schedules, over every width and block shape of
//! the grid below. Integer-valued input must give `sat_reference` bit for
//! bit. Fractional `f64` input must give the same bits and the same device
//! counters as the driver called directly with a separate output buffer.

use gpu_exec::{BlockOrder, Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::{CostCounters, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_core::element::SatElement;
use sat_core::par;
use sat_core::seq::sat_reference;
use sat_core::{compute_sat, Matrix};

const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 32];

/// Block shapes `(block rows, block columns)`: the matrix is
/// `br·w × bc·w`.
const BLOCKS: [(usize, usize); 6] = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4)];

/// A 2R1W cell `(w, br, bc)` with more block rows than `w`, beyond the
/// widths where `BLOCKS` already has them, so its recursion on `Q` runs
/// under an aliased top level at w = 8 too.
const RECURSIVE: (usize, usize, usize) = (8, 9, 2);

/// The hybrid's ratio: both staircase triangles and the middle wavefront
/// are non-empty on the larger shapes.
const R: f64 = 0.5;

fn cells() -> impl Iterator<Item = (SatAlgorithm, usize, usize, usize)> {
    let grid = SatAlgorithm::ALL.into_iter().flat_map(|alg| {
        WIDTHS
            .into_iter()
            // 2R1W's recursion cannot shrink the problem at w = 1.
            .filter(move |&w| !(alg == SatAlgorithm::TwoR1W && w == 1))
            .flat_map(move |w| BLOCKS.into_iter().map(move |(br, bc)| (alg, w, br, bc)))
    });
    let (w, br, bc) = RECURSIVE;
    grid.chain(std::iter::once((SatAlgorithm::TwoR1W, w, br, bc)))
}

fn device(w: usize, order: BlockOrder) -> Device {
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(w))
            .workers(2)
            .order(order),
    )
}

fn integral(rows: usize, cols: usize) -> Matrix<i64> {
    Matrix::from_fn(rows, cols, |i, j| {
        (i as i64 * 37 + j as i64 * 11 + 5) % 23 - 11
    })
}

fn fractional(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 131 + j * 71) % 97) as f64 / 7.0 - 6.5
    })
}

/// `par::sat` on a race-checked copy of `a`; the SAT it left in the input
/// buffer, and the device's counters.
fn in_place<T: SatElement>(
    dev: &Device,
    alg: SatAlgorithm,
    a: &Matrix<T>,
) -> (Vec<T>, CostCounters) {
    let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
    dev.reset_stats();
    par::sat(dev, alg, R, &buf, a.rows(), a.cols());
    (buf.into_vec(), dev.stats())
}

/// The driver of `alg` called directly, with the output (or 4R4W's
/// scratch) in a second race-checked buffer.
fn two_buffers(dev: &Device, alg: SatAlgorithm, a: &Matrix<f64>) -> (Vec<f64>, CostCounters) {
    let (rows, cols) = (a.rows(), a.cols());
    let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
    let second = GlobalBuffer::from_vec_checked(vec![0.0; rows * cols]);
    dev.reset_stats();
    let out = match alg {
        SatAlgorithm::TwoR2W => {
            par::sat_2r2w(dev, &buf, rows, cols);
            buf
        }
        SatAlgorithm::FourR4W => {
            par::sat_4r4w(dev, &buf, &second, rows, cols);
            buf
        }
        SatAlgorithm::FourR1W => {
            par::sat_4r1w(dev, &buf, rows, cols);
            buf
        }
        SatAlgorithm::TwoR1W => {
            par::sat_2r1w(dev, &buf, &second, rows, cols);
            second
        }
        SatAlgorithm::OneR1W => {
            par::sat_1r1w(dev, &buf, &second, rows, cols);
            second
        }
        SatAlgorithm::HybridR1W => {
            par::sat_hybrid(dev, &buf, &second, rows, cols, R);
            second
        }
    };
    (out.into_vec(), dev.stats())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_algorithm_computes_s_over_its_input() {
    for (alg, w, br, bc) in cells() {
        let (rows, cols) = (br * w, bc * w);
        let seed = (w * 31 + br * 7 + bc) as u64;
        for order in [BlockOrder::Shuffled(seed), BlockOrder::Adversarial(seed)] {
            let cell = format!("{alg:?} w={w} {br}x{bc} {order:?}");
            let dev = device(w, order);
            let a = integral(rows, cols);
            assert_eq!(
                in_place(&dev, alg, &a).0,
                sat_reference(&a).into_vec(),
                "i64 {cell}"
            );
            let af = fractional(rows, cols);
            let (got, stats) = in_place(&dev, alg, &af);
            let (want, want_stats) = two_buffers(&dev, alg, &af);
            assert_eq!(bits(&got), bits(&want), "f64 bits {cell}");
            assert_eq!(stats, want_stats, "f64 stats {cell}");
        }
    }
}

#[test]
fn compute_sat_returns_the_cropped_buffer_without_its_padding() {
    // Both shapes pad to 32 × 128 or 128 × 32 words at w = 32.
    let dev = device(32, BlockOrder::Forward);
    for (rows, cols) in [(1, 100), (100, 1)] {
        let a = integral(rows, cols);
        for alg in SatAlgorithm::ALL {
            let sat = compute_sat(&dev, alg, &a);
            assert_eq!(sat, sat_reference(&a), "{alg:?} {rows}x{cols}");
            let data = sat.into_vec();
            assert!(
                data.capacity() < 2 * rows * cols,
                "{alg:?} {rows}x{cols}: capacity {} kept the padding",
                data.capacity()
            );
        }
    }
}
