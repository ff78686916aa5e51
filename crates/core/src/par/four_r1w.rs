//! The **4R1W** SAT algorithm (§VI): element-wise anti-diagonal wavefront.
//!
//! Formula (1) of the paper,
//!
//! ```text
//! s(i,j) = a(i,j) + s(i−1,j) + s(i,j−1) − s(i−1,j−1),
//! ```
//!
//! evaluated stage by stage along anti-diagonals (Figure 10): stage `d`
//! computes every `s(i, d−i)` from values finished in stages `d−1` and
//! `d−2`. Per element: 4 reads + 1 write — but every access runs along an
//! anti-diagonal (pitch `n − 1`), so **all operations are stride**, and the
//! wavefront needs `2n − 1` barrier-separated launches. Lemma 5 prices this
//! at `5n² + 2nL`: the worst algorithm on the GPU despite doing the least
//! writing — the paper's cautionary tale, and the direct inspiration for the
//! *block-wise* wavefront of 1R1W.

use std::ops::Range;

use gpu_exec::{Device, GlobalBuffer};

use crate::element::SatElement;
use crate::par::common::Grid;

/// **4R1W**: the SAT of the `rows × cols` matrix in `buf`, in place, by
/// `rows + cols − 1` anti-diagonal launches.
pub fn sat_4r1w<T: SatElement>(dev: &Device, buf: &GlobalBuffer<T>, rows: usize, cols: usize) {
    let grid = Grid::new(rows, cols, dev.width());
    let w = grid.w;
    // Walking an anti-diagonal one row down and one column left moves
    // `cols − 1` words forward: every warp access is a progression.
    let step = cols - 1;
    for d in 0..(rows + cols - 1) {
        // Elements (i, d−i) with both coordinates in range.
        let lo = d.saturating_sub(cols - 1);
        let hi = d.min(rows - 1);
        let launches = (hi - lo + 1).div_ceil(w);
        dev.launch(launches, |ctx| {
            let g = ctx.view(buf);
            let start = lo + ctx.block_id() * w;
            let lanes = w.min(hi + 1 - start);
            // Lane t handles element (start + t, d − start − t), at word
            // `base + t·step`. Its operands s(i−1, j), s(i, j−1) and
            // s(i−1, j−1) sit `cols`, 1 and `cols + 1` words back, on the
            // same progression. Only lane 0 can lie in row 0 (when
            // `start == 0`), and lanes `t ≥ d − start` lie in column 0, so
            // the operands cover the lane ranges [off, lanes), [0, nl) and
            // [off, nl).
            let base = grid.addr(start, d - start);
            let off = usize::from(start == 0);
            let nl = lanes.min(d - start);
            let mut s = vec![T::ZERO; lanes];
            let mut operand = vec![T::ZERO; lanes];
            g.read_strided(base, step, &mut s, ctx.rec());
            // Fold one operand into its lanes: read it `back` words behind
            // the lanes' own words, then combine lane by lane.
            let mut fold = |r: Range<usize>, back: usize, f: fn(T, T) -> T| {
                if r.is_empty() {
                    return;
                }
                let vals = &mut operand[r.clone()];
                g.read_strided(base + r.start * step - back, step, vals, ctx.rec());
                for (x, &v) in s[r].iter_mut().zip(vals.iter()) {
                    *x = f(*x, v);
                }
            };
            // Formula (1), per lane in this order: +up, +left, −diag.
            fold(off..lanes, cols, T::add);
            fold(0..nl, 1, T::add);
            fold(off..nl, cols + 1, T::sub);
            g.write_strided(base, step, &s, ctx.rec());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{Device, DeviceOptions};
    use hmm_model::MachineConfig;

    use crate::fixtures::{fig3_input, fig3_sat, FIG_BLOCK_WIDTH};
    use crate::matrix::Matrix;
    use crate::seq::sat_reference;

    fn dev(w: usize) -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2))
    }

    #[test]
    fn fig3_full_sat() {
        let dev = dev(FIG_BLOCK_WIDTH);
        let buf = GlobalBuffer::from_vec(fig3_input().into_vec());
        sat_4r1w(&dev, &buf, 9, 9);
        assert_eq!(buf.into_vec(), fig3_sat().into_vec());
    }

    #[test]
    fn fig10_stage_wavefront_prefix_is_correct_midway() {
        // Figure 10 illustrates stage 7 of the wavefront on the 9 × 9
        // example: after stages 0..=6 every element with i + j ≤ 6 holds its
        // final SAT value while later anti-diagonals still hold input data.
        // (Computed with the sequential recurrence, which the device kernel
        // is verified against in the other tests of this module.)
        let n = 9;
        let mut v = fig3_input().into_vec();
        for d in 0..=6usize {
            let lo = d.saturating_sub(n - 1);
            let hi = d.min(n - 1);
            for i in lo..=hi {
                let j = d - i;
                let mut x = v[i * n + j];
                if i >= 1 {
                    x = x.add(v[(i - 1) * n + j]);
                }
                if j >= 1 {
                    x = x.add(v[i * n + j - 1]);
                }
                if i >= 1 && j >= 1 {
                    x = x.sub(v[(i - 1) * n + j - 1]);
                }
                v[i * n + j] = x;
            }
        }
        let sat = fig3_sat();
        let input = fig3_input();
        for i in 0..n {
            for j in 0..n {
                if i + j <= 6 {
                    assert_eq!(v[i * n + j], sat.get(i, j), "finished ({i},{j})");
                } else {
                    assert_eq!(v[i * n + j], input.get(i, j), "untouched ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn matches_reference() {
        for (w, rows, cols) in [(4, 8, 8), (8, 16, 16), (3, 12, 12), (4, 8, 16), (4, 16, 8)] {
            let dev = dev(w);
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) % 19) as i64 - 9);
            let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
            sat_4r1w(&dev, &buf, rows, cols);
            assert_eq!(
                buf.into_vec(),
                sat_reference(&a).into_vec(),
                "w={w} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn all_interior_accesses_are_stride_and_barriers_are_2n_minus_2() {
        let (w, n) = (8usize, 32usize);
        let dev = dev(w);
        let buf = GlobalBuffer::filled(1i64, n * n);
        dev.reset_stats();
        sat_4r1w(&dev, &buf, n, n);
        let s = dev.stats();
        assert_eq!(s.barrier_steps, (2 * n - 2) as u64);
        let n2 = (n * n) as u64;
        // 1 own-read + 1 write per element is exact; neighbour reads are
        // skipped on the two boundary edges.
        let reads = s.coalesced_reads + s.stride_reads;
        let writes = s.coalesced_writes + s.stride_writes;
        assert_eq!(writes, n2);
        // own n² + up (n² − n) + left (n² − n) + diagonal (n − 1)².
        assert_eq!(reads, 4 * n2 - 4 * (n as u64) + 1);
        // Stride dominates: coalesced ops only appear in degenerate 1-lane
        // warps at diagonal tips.
        assert!(s.stride_reads > 3 * n2);
    }
}
