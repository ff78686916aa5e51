//! A device that only counts adds a tile step's warps in one update per
//! counter; a tracing device records them one by one. The two must agree:
//! on every driver — the six algorithms, persistent 1R1W, a fused batch of
//! three and the mirror — at every width, `dev.stats()` on a stats-only
//! device equals `dev.stats()` on a tracing device, with and without the
//! address channel, and the outputs agree bit for bit.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::{CostCounters, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_core::par;
use sat_core::Matrix;

const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 32];

/// Unpadded shapes: ragged on both sides, a single row and a single column.
const SHAPES: [(usize, usize); 4] = [(5, 7), (1, 13), (13, 1), (17, 9)];

/// The drivers the test covers.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Paper(SatAlgorithm),
    Persistent,
    Batch3,
    Mirror,
}

const DRIVERS: [Driver; 9] = [
    Driver::Paper(SatAlgorithm::TwoR2W),
    Driver::Paper(SatAlgorithm::FourR4W),
    Driver::Paper(SatAlgorithm::FourR1W),
    Driver::Paper(SatAlgorithm::TwoR1W),
    Driver::Paper(SatAlgorithm::OneR1W),
    Driver::Paper(SatAlgorithm::HybridR1W),
    Driver::Persistent,
    Driver::Batch3,
    Driver::Mirror,
];

/// The recording modes: stats only, trace without and with addresses.
const MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

fn device(w: usize, (trace, addrs): (bool, bool)) -> Device {
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(w))
            .workers(0)
            .record_trace(trace)
            .record_addrs(addrs),
    )
}

/// A fractional input on the shape padded to multiples of `w`, zeros in
/// the padding (as `compute_sat` pads); image `k` of a batch is shifted.
fn input(w: usize, rows: usize, cols: usize, k: usize) -> Matrix<f64> {
    let (pr, pc) = (rows.next_multiple_of(w), cols.next_multiple_of(w));
    Matrix::from_fn(pr, pc, |i, j| {
        if i < rows && j < cols {
            ((i * 131 + j * 71 + k * 17) % 97) as f64 / 7.0 - 6.5
        } else {
            0.0
        }
    })
}

/// Run `driver` on `dev` and return its counters and its outputs' bits.
fn run(
    driver: Driver,
    dev: &Device,
    w: usize,
    rows: usize,
    cols: usize,
) -> (CostCounters, Vec<u64>) {
    let images = match driver {
        Driver::Batch3 => 3,
        _ => 1,
    };
    let mats: Vec<Matrix<f64>> = (0..images).map(|k| input(w, rows, cols, k)).collect();
    let (pr, pc) = (mats[0].rows(), mats[0].cols());
    let bufs: Vec<GlobalBuffer<f64>> = mats
        .iter()
        .map(|m| GlobalBuffer::from_vec(m.as_slice().to_vec()))
        .collect();
    let a = &bufs[0];
    match driver {
        Driver::Paper(alg) => par::sat(dev, alg, 0.5, a, pr, pc),
        Driver::Persistent => par::sat_1r1w_persistent(dev, a, a, pr, pc),
        Driver::Mirror => par::sat_1r1w_mirror(dev, a, a, pr, pc),
        Driver::Batch3 => {
            let refs: Vec<&GlobalBuffer<f64>> = bufs.iter().collect();
            par::sat_1r1w_batch(dev, &refs, &refs, pr, pc);
        }
    }
    let bits = bufs
        .into_iter()
        .flat_map(GlobalBuffer::into_vec)
        .map(f64::to_bits)
        .collect();
    (dev.stats(), bits)
}

#[test]
fn stats_only_and_tracing_devices_count_alike() {
    for driver in DRIVERS {
        for w in WIDTHS {
            // 2R1W's recursion needs w ≥ 2.
            if matches!(driver, Driver::Paper(SatAlgorithm::TwoR1W)) && w == 1 {
                continue;
            }
            for (rows, cols) in SHAPES {
                let at = format!("{driver:?} w={w} {rows}x{cols}");
                let [counted, traced, addressed] =
                    MODES.map(|mode| run(driver, &device(w, mode), w, rows, cols));
                assert_eq!(traced, counted, "{at}: trace without addresses");
                assert_eq!(addressed, counted, "{at}: trace with addresses");
            }
        }
    }
}
