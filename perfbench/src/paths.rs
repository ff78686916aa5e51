//! The SAT execution paths the workloads exercise, each reached only
//! through public calls of `sat-core` and `gpu-exec`, plus the pieces the
//! ledger times separately: the `par::*` driver on pre-built buffers and
//! the padding, allocation and cropping around it.

use gpu_exec::{Device, GlobalBuffer};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use sat_core::{compute_sat, par, Matrix};

/// One way of computing a SAT: a paper algorithm through `compute_sat`, or
/// the persistent-block 1R1W driver, which `compute_sat` does not expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Alg(SatAlgorithm),
    Persistent,
}

impl Path {
    /// The paper's comparison: the six algorithms of Table I, then the
    /// persistent-block 1R1W.
    pub const MIX: [Path; 7] = [
        Path::Alg(SatAlgorithm::TwoR2W),
        Path::Alg(SatAlgorithm::FourR4W),
        Path::Alg(SatAlgorithm::FourR1W),
        Path::Alg(SatAlgorithm::TwoR1W),
        Path::Alg(SatAlgorithm::OneR1W),
        Path::Alg(SatAlgorithm::HybridR1W),
        Path::Persistent,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Path::Alg(SatAlgorithm::TwoR2W) => "2r2w",
            Path::Alg(SatAlgorithm::FourR4W) => "4r4w",
            Path::Alg(SatAlgorithm::FourR1W) => "4r1w",
            Path::Alg(SatAlgorithm::TwoR1W) => "2r1w",
            Path::Alg(SatAlgorithm::OneR1W) => "1r1w",
            Path::Alg(SatAlgorithm::HybridR1W) => "hybrid",
            Path::Persistent => "1r1w-persist",
        }
    }

    /// The whole call a user makes: `compute_sat`, or for the persistent
    /// path the same padding and cropping around `par::sat_1r1w_persistent`.
    pub fn run(self, dev: &Device, a: &Matrix<f64>) -> Matrix<f64> {
        match self {
            Path::Alg(alg) => compute_sat(dev, alg, a),
            Path::Persistent => {
                let (rows, cols) = padded_dims(dev, a);
                let buf = GlobalBuffer::from_vec(a.zero_padded_to(rows, cols).into_vec());
                let s = GlobalBuffer::filled(0.0, rows * cols);
                par::sat_1r1w_persistent(dev, &buf, &s, rows, cols);
                Matrix::from_vec(rows, cols, s.into_vec()).cropped(a.rows(), a.cols())
            }
        }
    }
}

/// The padded shape `compute_sat` works on: each side rounded up to a
/// multiple of the device width.
pub fn padded_dims(dev: &Device, a: &Matrix<f64>) -> (usize, usize) {
    let w = dev.width();
    (
        a.rows().max(1).next_multiple_of(w),
        a.cols().max(1).next_multiple_of(w),
    )
}

/// Device buffers for one driver call, built before the timer starts:
/// the padded input and, for out-of-place paths, a zeroed second buffer
/// (the output, or 4R4W's scratch).
pub struct Prepared {
    input: GlobalBuffer<f64>,
    second: Option<GlobalBuffer<f64>>,
    rows: usize,
    cols: usize,
}

pub fn prepare(dev: &Device, path: Path, a: &Matrix<f64>) -> Prepared {
    let (rows, cols) = padded_dims(dev, a);
    let in_place = matches!(
        path,
        Path::Alg(SatAlgorithm::TwoR2W) | Path::Alg(SatAlgorithm::FourR1W)
    );
    Prepared {
        input: GlobalBuffer::from_vec(a.zero_padded_to(rows, cols).into_vec()),
        second: (!in_place).then(|| GlobalBuffer::filled(0.0, rows * cols)),
        rows,
        cols,
    }
}

/// The `par::*` driver alone, on buffers from [`prepare`].
pub fn driver(dev: &Device, path: Path, p: &Prepared) {
    let (a, rows, cols) = (&p.input, p.rows, p.cols);
    let second = || {
        p.second
            .as_ref()
            .expect("out-of-place path has a second buffer")
    };
    match path {
        Path::Alg(SatAlgorithm::TwoR2W) => par::sat_2r2w(dev, a, rows, cols),
        Path::Alg(SatAlgorithm::FourR4W) => par::sat_4r4w(dev, a, second(), rows, cols),
        Path::Alg(SatAlgorithm::FourR1W) => par::sat_4r1w(dev, a, rows, cols),
        Path::Alg(SatAlgorithm::TwoR1W) => par::sat_2r1w(dev, a, second(), rows, cols),
        Path::Alg(SatAlgorithm::OneR1W) => par::sat_1r1w(dev, a, second(), rows, cols),
        Path::Alg(SatAlgorithm::HybridR1W) => {
            // `compute_sat` picks the cost model's optimal ratio for the
            // padded size; the driver call must do the same work.
            let r = GlobalCost::new(*dev.config()).optimal_r(rows.max(cols));
            par::sat_hybrid(dev, a, second(), rows, cols, r)
        }
        Path::Persistent => par::sat_1r1w_persistent(dev, a, second(), rows, cols),
    }
}

/// Everything `compute_sat` does around the driver — pad, allocate, read
/// the result back, crop, free — replayed without the driver.
pub fn marshal(dev: &Device, path: Path, a: &Matrix<f64>) -> Matrix<f64> {
    let (rows, cols) = padded_dims(dev, a);
    let buf = GlobalBuffer::from_vec(a.zero_padded_to(rows, cols).into_vec());
    let out = match path {
        Path::Alg(SatAlgorithm::TwoR2W) | Path::Alg(SatAlgorithm::FourR1W) => buf.into_vec(),
        Path::Alg(SatAlgorithm::FourR4W) => {
            let tmp = GlobalBuffer::<f64>::filled(0.0, rows * cols);
            drop(tmp);
            buf.into_vec()
        }
        _ => {
            let s = GlobalBuffer::<f64>::filled(0.0, rows * cols);
            drop(buf);
            s.into_vec()
        }
    };
    Matrix::from_vec(rows, cols, out).cropped(a.rows(), a.cols())
}
