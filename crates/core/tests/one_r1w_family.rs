//! Parity of the 1R1W family: the staged, batched, mirror and persistent
//! drivers must agree with each other, with the closed-form counts, and
//! with `sat_reference` bit for bit, on padded shapes including a single
//! block, 1×n and n×1.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer, RunTrace};
use hmm_model::cost::{ExactCounts, GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_core::par;
use sat_core::seq::sat_reference;
use sat_core::Matrix;

const WIDTHS: [usize; 2] = [4, 8];

/// The unpadded shapes; `w × w` stands for one block at either width.
fn shapes(w: usize) -> [(usize, usize); 6] {
    [(w, w), (48, 80), (8, 24), (1, 64), (64, 1), (64, 64)]
}

fn padded(w: usize, rows: usize, cols: usize) -> (usize, usize) {
    (rows.next_multiple_of(w), cols.next_multiple_of(w))
}

fn device(w: usize, trace: bool) -> Device {
    Device::new(
        DeviceOptions::new(MachineConfig::with_width(w))
            .workers(0)
            .record_trace(trace),
    )
}

/// An `i64` input on the padded shape: the real `rows × cols` image in the
/// top-left corner, zeros in the padding (as `compute_sat` pads).
fn input(w: usize, rows: usize, cols: usize, salt: i64) -> Matrix<i64> {
    let (pr, pc) = padded(w, rows, cols);
    Matrix::from_fn(pr, pc, |i, j| {
        if i < rows && j < cols {
            (i as i64 * 31 + j as i64 * 7 + salt * 13) % 29 - 14
        } else {
            0
        }
    })
}

fn buffer(a: &Matrix<i64>) -> GlobalBuffer<i64> {
    GlobalBuffer::from_vec(a.as_slice().to_vec())
}

fn blocks_of(trace: RunTrace) -> Vec<Vec<gpu_exec::BlockTrace>> {
    trace.launches.into_iter().map(|l| l.blocks).collect()
}

#[test]
fn staged_equals_a_batch_of_one_launch_by_launch() {
    for w in WIDTHS {
        for (rows, cols) in shapes(w) {
            let a = input(w, rows, cols, 0);
            let (pr, pc) = (a.rows(), a.cols());
            let want = sat_reference(&a);

            let staged = device(w, true);
            let (ab, sb) = (buffer(&a), GlobalBuffer::filled(0i64, pr * pc));
            par::sat_1r1w(&staged, &ab, &sb, pr, pc);
            assert_eq!(sb.into_vec(), want.as_slice(), "staged w={w} {rows}x{cols}");

            let batched = device(w, true);
            let (ab, sb) = (buffer(&a), GlobalBuffer::filled(0i64, pr * pc));
            par::sat_1r1w_batch(&batched, &[&ab], &[&sb], pr, pc);
            assert_eq!(sb.into_vec(), want.as_slice(), "batch w={w} {rows}x{cols}");

            assert_eq!(staged.stats(), batched.stats(), "w={w} {rows}x{cols}");
            let (ts, tb) = (
                blocks_of(staged.take_trace()),
                blocks_of(batched.take_trace()),
            );
            assert_eq!(ts.len(), tb.len(), "launch count w={w} {rows}x{cols}");
            for (d, (ls, lb)) in ts.iter().zip(&tb).enumerate() {
                assert_eq!(ls.len(), lb.len(), "blocks in launch {d}");
                for (b, (bs, bb)) in ls.iter().zip(lb).enumerate() {
                    assert_eq!(bs, bb, "w={w} {rows}x{cols} launch {d} block {b}");
                }
            }
        }
    }
}

#[test]
fn mirror_matches_its_closed_form() {
    for w in WIDTHS {
        for (rows, cols) in shapes(w) {
            let a = input(w, rows, cols, 1);
            let (pr, pc) = (a.rows(), a.cols());
            let dev = device(w, false);
            let (ab, sb) = (buffer(&a), GlobalBuffer::filled(0i64, pr * pc));
            par::sat_1r1w_mirror(&dev, &ab, &sb, pr, pc);
            assert_eq!(
                sb.into_vec(),
                sat_reference(&a).as_slice(),
                "mirror w={w} {rows}x{cols}"
            );

            // Every block reads its tile, its top fringe (but block-row 0),
            // its left fringe from the mirror (but block-column 0) and its
            // corner (but either edge); it writes its tile and mirrors its
            // right column. No stride access; one launch per anti-diagonal.
            let (n, mr, mc, w) = ((pr * pc) as u64, (pr / w) as u64, (pc / w) as u64, w as u64);
            let exact = ExactCounts {
                coalesced_reads: n + (mr - 1) * mc * w + mr * (mc - 1) * w + (mr - 1) * (mc - 1),
                coalesced_writes: n + mr * mc * w,
                stride_reads: 0,
                stride_writes: 0,
                barrier_steps: mr + mc - 2,
            };
            let st = dev.stats();
            assert!(
                exact.matches(&st),
                "w={w} {rows}x{cols}: measured {st:?} vs closed form {exact:?}"
            );
        }
    }
}

#[test]
fn batch_of_three_matches_the_fused_closed_form() {
    for w in WIDTHS {
        let model = GlobalCost::new(MachineConfig::with_width(w));
        for (rows, cols) in shapes(w) {
            let imgs: Vec<Matrix<i64>> = (0..3).map(|k| input(w, rows, cols, k)).collect();
            let (pr, pc) = (imgs[0].rows(), imgs[0].cols());
            let dev = device(w, false);
            let ins: Vec<GlobalBuffer<i64>> = imgs.iter().map(buffer).collect();
            let outs: Vec<GlobalBuffer<i64>> = (0..3)
                .map(|_| GlobalBuffer::filled(0i64, pr * pc))
                .collect();
            par::sat_1r1w_batch(
                &dev,
                &ins.iter().collect::<Vec<_>>(),
                &outs.iter().collect::<Vec<_>>(),
                pr,
                pc,
            );
            let exact = model
                .exact_counts(SatAlgorithm::OneR1W, pr, pc)
                .expect("padded sides are multiples of w")
                .fused(3);
            let st = dev.stats();
            assert!(
                exact.matches(&st),
                "w={w} {rows}x{cols}: measured {st:?} vs fused closed form {exact:?}"
            );
            for (img, out) in imgs.iter().zip(outs) {
                assert_eq!(out.into_vec(), sat_reference(img).into_vec());
            }
        }
    }
}

#[test]
fn persistent_matches_its_closed_form_on_squares() {
    for w in WIDTHS {
        let model = GlobalCost::new(MachineConfig::with_width(w));
        for (rows, cols) in shapes(w).into_iter().filter(|(r, c)| r == c) {
            let a = input(w, rows, cols, 2);
            let n = a.rows();
            let dev = device(w, false);
            let (ab, sb) = (buffer(&a), GlobalBuffer::filled(0i64, n * n));
            par::sat_1r1w_persistent(&dev, &ab, &sb, n, n);
            assert_eq!(sb.into_vec(), sat_reference(&a).into_vec(), "w={w} n={n}");
            let exact = model
                .persistent_1r1w_exact_counts(n)
                .expect("n is a multiple of w");
            let st = dev.stats();
            assert!(
                exact.matches(&st),
                "w={w} n={n}: measured {st:?} vs closed form {exact:?}"
            );
            assert_eq!(dev.launches(), 1, "w={w} n={n}");
        }
    }
}
