//! Pin of the 4R1W kernel: on every width and block shape of the grid below,
//! `dev.stats()`, a digest of every launch's op sequence and a digest of a
//! fractional `f64` output must equal the golden values recorded from the
//! gather-based kernel this strided one replaced, and the output must equal
//! `sat_reference` bit for bit — also on a race-checked buffer under a
//! shuffled two-worker schedule.

use gpu_exec::replay::fingerprint_bits;
use gpu_exec::{BlockOrder, Device, DeviceOptions, GlobalBuffer, RunTrace};
use hmm_model::cost::CostCounters;
use hmm_model::{AccessKind, MachineConfig, MemSpace};
use sat_core::element::SatElement;
use sat_core::par::sat_4r1w;
use sat_core::seq::sat_reference;
use sat_core::Matrix;

const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 32];

/// Block shapes `(block rows, block columns)`: the matrix is
/// `br·w × bc·w`.
const BLOCKS: [(usize, usize); 6] = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4)];

/// What one grid cell pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// `coalesced_reads, coalesced_writes, stride_reads, stride_writes,
    /// global_stages, barrier_steps`; every other counter is zero.
    global: [u64; 6],
    /// Digest of the per-launch op-sequence digests, in launch order.
    ops: u64,
    /// Digest of the output bits for the fractional `f64` input.
    out: u64,
}

/// Golden values, one row per `(w, br, bc)` in grid order.
#[rustfmt::skip]
const GOLDEN: [(usize, usize, usize, Pin); 36] = [
    (1, 1, 1, Pin { global: [1, 1, 0, 0, 2, 0], ops: 0x7613b42da48e5971, out: 0xa87d743227db20ff }),
    (1, 1, 5, Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x540b927bd90d9629, out: 0x06bf71880ecf8eb1 }),
    (1, 5, 1, Pin { global: [9, 5, 0, 0, 14, 4], ops: 0x540b927bd90d9629, out: 0x4d07e66a613c6c03 }),
    (1, 2, 3, Pin { global: [15, 6, 0, 0, 21, 3], ops: 0x1e108b8642a120fa, out: 0x2a4a961c8192088f }),
    (1, 3, 2, Pin { global: [15, 6, 0, 0, 21, 3], ops: 0x2c10f62b4c0332f3, out: 0x897e5335d149db39 }),
    (1, 4, 4, Pin { global: [49, 16, 0, 0, 65, 6], ops: 0xf22c5626fd4af94f, out: 0xfd4d2c140069cb40 }),
    (2, 1, 1, Pin { global: [7, 2, 2, 2, 13, 2], ops: 0x6a6ed76f1d0ca910, out: 0xb4dc97bdca152325 }),
    (2, 1, 5, Pin { global: [23, 2, 34, 18, 77, 10], ops: 0xd21fa9c65c9230b0, out: 0xfd6a14475aceaffe }),
    (2, 5, 1, Pin { global: [23, 2, 34, 18, 77, 10], ops: 0xa5b8522ff46d2f90, out: 0xec950e48b67ad284 }),
    (2, 2, 3, Pin { global: [23, 4, 54, 20, 101, 8], ops: 0x40520f9a89377cdd, out: 0xfc6e9e0199c74d15 }),
    (2, 3, 2, Pin { global: [23, 4, 54, 20, 101, 8], ops: 0x197bc7d77f98652d, out: 0xc80db228f7f1374c }),
    (2, 4, 4, Pin { global: [43, 8, 182, 56, 289, 14], ops: 0x6cb560e0a25dcc07, out: 0xd68405ce5926a9dc }),
    (3, 1, 1, Pin { global: [8, 2, 17, 7, 34, 4], ops: 0x3ca5ef6931bc90c6, out: 0x7541e2ebac11cc3f }),
    (3, 1, 5, Pin { global: [8, 2, 137, 43, 190, 16], ops: 0x8043f8d852937ece, out: 0x38b6d7d71eab5411 }),
    (3, 5, 1, Pin { global: [8, 2, 137, 43, 190, 16], ops: 0x19e3df3bd2cc0886, out: 0xe11bb9c2e41f8d78 }),
    (3, 2, 3, Pin { global: [16, 4, 171, 50, 241, 13], ops: 0x07757387c1ae5086, out: 0xa8431f8f65433400 }),
    (3, 3, 2, Pin { global: [16, 4, 171, 50, 241, 13], ops: 0x3c7cb929b5fc8733, out: 0x7065c9f7f1c0a53d }),
    (3, 4, 4, Pin { global: [32, 8, 497, 136, 673, 22], ops: 0x83fcfaa5743584e3, out: 0x556ca78a31c8c071 }),
    (4, 1, 1, Pin { global: [8, 2, 41, 14, 65, 6], ops: 0x8c7fcf13e2cc1571, out: 0xfd4d2c140069cb40 }),
    (4, 1, 5, Pin { global: [8, 2, 265, 78, 353, 22], ops: 0x35d61ca2b3d088d1, out: 0x29ab53c8fa9eb6a3 }),
    (4, 5, 1, Pin { global: [8, 2, 265, 78, 353, 22], ops: 0xb8ad1f8ee5e425d1, out: 0x7cf49ade04d28a60 }),
    (4, 2, 3, Pin { global: [16, 4, 329, 92, 441, 18], ops: 0x750479419251eb10, out: 0x3ce755eb178ca89a }),
    (4, 3, 2, Pin { global: [16, 4, 329, 92, 441, 18], ops: 0x46caf843bd819f58, out: 0xb568aa6a7d418f65 }),
    (4, 4, 4, Pin { global: [32, 8, 929, 248, 1217, 30], ops: 0x75bf1d20136fd775, out: 0xe0fb10c89ccb756c }),
    (8, 1, 1, Pin { global: [8, 2, 217, 62, 289, 14], ops: 0xf67afa253f744961, out: 0xd68405ce5926a9dc }),
    (8, 1, 5, Pin { global: [8, 2, 1177, 318, 1505, 46], ops: 0x42ab183a66295161, out: 0xdd29f4a2712e1094 }),
    (8, 5, 1, Pin { global: [8, 2, 1177, 318, 1505, 46], ops: 0x0d584491181e7261, out: 0x7d9fee730eb75c87 }),
    (8, 2, 3, Pin { global: [16, 4, 1441, 380, 1841, 38], ops: 0x2038715e2fb6665e, out: 0x107dc91c8f37d9b6 }),
    (8, 3, 2, Pin { global: [16, 4, 1441, 380, 1841, 38], ops: 0xab88a7428840e0be, out: 0xdc1ff9858075034a }),
    (8, 4, 4, Pin { global: [32, 8, 3937, 1016, 4993, 62], ops: 0x40d9c736c10b469e, out: 0xe96456c7e13f3470 }),
    (32, 1, 1, Pin { global: [8, 2, 3961, 1022, 4993, 62], ops: 0x407c5cae985cf74b, out: 0xe96456c7e13f3470 }),
    (32, 1, 5, Pin { global: [8, 2, 20089, 5118, 25217, 190], ops: 0x41b207b21d5b1f4b, out: 0x51344691f3fc3c76 }),
    (32, 5, 1, Pin { global: [8, 2, 20089, 5118, 25217, 190], ops: 0x634acaeaec9b014b, out: 0x07d67b5792ad7314 }),
    (32, 2, 3, Pin { global: [16, 4, 24241, 6140, 30401, 158], ops: 0xd11f49f53dca4d9d, out: 0xe70b3d8ea079c08e }),
    (32, 3, 2, Pin { global: [16, 4, 24241, 6140, 30401, 158], ops: 0x6c055b20a0cc965d, out: 0xd6104e4a3c64c65b }),
    (32, 4, 4, Pin { global: [32, 8, 64993, 16376, 81409, 254], ops: 0xe1698d90b804f38d, out: 0xab2a017f3f636ebe }),
];

fn device(w: usize, trace: bool) -> Device {
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(w))
            .workers(0)
            .record_trace(trace),
    )
}

/// Integer-valued input, exact in `f64`, so every summation order agrees.
fn integral(rows: usize, cols: usize) -> Matrix<i64> {
    Matrix::from_fn(rows, cols, |i, j| {
        (i as i64 * 37 + j as i64 * 11 + 5) % 23 - 11
    })
}

/// Fractional input: its output bits depend on the per-lane order
/// `+up, +left, −diag`.
fn fractional(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 131 + j * 71) % 97) as f64 / 7.0 - 6.5
    })
}

fn to_f64(a: &Matrix<i64>) -> Matrix<f64> {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) as f64)
}

/// FNV digest of each launch's `(space, kind, ops, stages)` sequence
/// (block boundaries included), folded in launch order.
fn op_digest(trace: &RunTrace) -> u64 {
    fingerprint_bits(trace.launches.iter().map(|launch| {
        fingerprint_bits(launch.blocks.iter().flat_map(|block| {
            std::iter::once(block.len() as u64).chain(block.iter().map(|op| {
                let space = matches!(op.space, MemSpace::Shared) as u64;
                let kind = matches!(op.kind, AccessKind::Write) as u64;
                space | kind << 1 | (op.ops as u64) << 2 | (op.stages as u64) << 34
            }))
        }))
    }))
}

/// 4R1W of `a` on `dev`; `checked` attaches the per-word race detector.
fn run<T: SatElement>(dev: &Device, a: &Matrix<T>, checked: bool) -> Vec<T> {
    let data = a.as_slice().to_vec();
    let buf = if checked {
        GlobalBuffer::from_vec_checked(data)
    } else {
        GlobalBuffer::from_vec(data)
    };
    sat_4r1w(dev, &buf, a.rows(), a.cols());
    buf.into_vec()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The global counters of `s`, after checking every other counter is zero.
fn globals(s: CostCounters) -> [u64; 6] {
    let global = [
        s.coalesced_reads,
        s.coalesced_writes,
        s.stride_reads,
        s.stride_writes,
        s.global_stages,
        s.barrier_steps,
    ];
    let only_global = CostCounters {
        coalesced_reads: global[0],
        coalesced_writes: global[1],
        stride_reads: global[2],
        stride_writes: global[3],
        global_stages: global[4],
        barrier_steps: global[5],
        ..CostCounters::new()
    };
    assert_eq!(only_global, s, "4R1W touches global memory only");
    global
}

fn measure(w: usize, br: usize, bc: usize) -> Pin {
    let dev = device(w, true);
    let out = run(&dev, &fractional(br * w, bc * w), false);
    Pin {
        global: globals(dev.stats()),
        ops: op_digest(&dev.take_trace()),
        out: fingerprint_bits(bits(&out)),
    }
}

#[test]
fn golden_grid_is_the_full_grid() {
    let cells: Vec<_> = GOLDEN.iter().map(|(w, br, bc, _)| (*w, *br, *bc)).collect();
    let want: Vec<_> = WIDTHS
        .iter()
        .flat_map(|&w| BLOCKS.iter().map(move |&(br, bc)| (w, br, bc)))
        .collect();
    assert_eq!(cells, want);
}

#[test]
fn counters_op_traces_and_float_order_match_golden() {
    for (w, br, bc, want) in &GOLDEN {
        assert_eq!(measure(*w, *br, *bc), *want, "w={w} blocks {br}x{bc}");
    }
}

#[test]
fn output_equals_reference_for_f64_and_i64() {
    for (w, br, bc, _) in &GOLDEN {
        let a = integral(br * w, bc * w);
        let af = to_f64(&a);
        let dev = device(*w, false);
        assert_eq!(
            run(&dev, &a, false),
            sat_reference(&a).into_vec(),
            "i64 w={w} {br}x{bc}"
        );
        let want = bits(sat_reference(&af).as_slice());
        assert_eq!(bits(&run(&dev, &af, false)), want, "f64 w={w} {br}x{bc}");
    }
}

#[test]
fn race_checked_shuffled_two_workers_match_reference_and_counters() {
    for (w, br, bc, pin) in &GOLDEN {
        let a = integral(br * w, bc * w);
        let af = to_f64(&a);
        let dev = || {
            let seed = (w * 31 + br * 7 + bc) as u64;
            Device::new(
                DeviceOptions::new(MachineConfig::with_width(*w))
                    .workers(2)
                    .order(BlockOrder::Shuffled(seed)),
            )
        };
        let d = dev();
        assert_eq!(
            run(&d, &a, true),
            sat_reference(&a).into_vec(),
            "i64 w={w} {br}x{bc}"
        );
        assert_eq!(globals(d.stats()), pin.global, "i64 w={w} {br}x{bc}");
        let d = dev();
        let want = bits(sat_reference(&af).as_slice());
        assert_eq!(bits(&run(&d, &af, true)), want, "f64 w={w} {br}x{bc}");
        assert_eq!(globals(d.stats()), pin.global, "f64 w={w} {br}x{bc}");
    }
}
