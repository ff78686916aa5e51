//! The log-step (Kogge–Stone) SAT — the paper's reference \[13\] baseline.
//!
//! Before the block algorithms, Nakano's *"Optimal parallel algorithms for
//! computing the sum, the prefix-sums, and the summed area table on the
//! memory machine models"* computed the SAT by **repeated pairwise
//! addition**: `⌈log₂ n⌉` rounds of `a[i][j] += a[i − 2^k][j]` for the
//! column-wise prefix sums and the same along rows. On the UMM this is
//! latency-optimal — every round is one wide coalesced kernel — but it
//! performs `Θ(n² log n)` operations instead of `Θ(n²)`; the ICPP 2014
//! paper's §I dismisses it as *"repeats pairwise addition and has a large
//! constant factor in the computing time and it is not practically
//! efficient"*. This module implements it so the claim is measurable: at
//! `n = 1024` it moves ~`4·log₂(1024) = 40` operations per element against
//! 2R1W's ~3.2 (see the `ablation`/`algorithm_tour` outputs).
//!
//! Row rounds are kept coalesced via the 4R4W trick (transpose, column
//! rounds, transpose back); `2·⌈log₂ n⌉ + 2` launches in total. Each round
//! must be double-buffered (`a[i] += a[i − 2^k]` reads values the same
//! round overwrites), which is where the extra writes come from.

use gpu_exec::{Device, GlobalBuffer};

use crate::element::SatElement;
use crate::par::common::Grid;
use crate::transpose::transpose;

/// One Kogge–Stone column round: `dst[i][j] = src[i][j] + src[i − d][j]`
/// (`src` untouched — the rounds ping-pong between two buffers).
fn column_round<T: SatElement>(
    dev: &Device,
    src: &GlobalBuffer<T>,
    dst: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    d: usize,
) {
    let grid = Grid::new(rows, cols, dev.width());
    let w = grid.w;
    dev.launch(grid.mc, |ctx| {
        let gs = ctx.view(src);
        let gd = ctx.view(dst);
        let c0 = ctx.block_id() * w;
        let mut cur = vec![T::ZERO; w];
        let mut up = vec![T::ZERO; w];
        for i in 0..rows {
            gs.read_contig(grid.addr(i, c0), &mut cur, &mut ctx.rec);
            if i >= d {
                gs.read_contig(grid.addr(i - d, c0), &mut up, &mut ctx.rec);
                for t in 0..w {
                    cur[t] = cur[t].add(up[t]);
                }
            }
            gd.write_contig(grid.addr(i, c0), &cur, &mut ctx.rec);
        }
    });
}

/// All `⌈log₂ rows⌉` column rounds, ping-ponging `a` ↔ `tmp`; the result is
/// left in `a` (an extra copy round runs if the round count is odd).
fn column_prefix_kogge_stone<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    tmp: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    let mut d = 1usize;
    let mut in_a = true; // current values live in `a`
    while d < rows {
        let (src, dst) = if in_a { (a, tmp) } else { (tmp, a) };
        column_round(dev, src, dst, rows, cols, d);
        in_a = !in_a;
        d *= 2;
    }
    if !in_a {
        // Copy back with a d = rows no-op round (adds nothing, moves data).
        column_round(dev, tmp, a, rows, cols, rows);
    }
}

/// **Kogge–Stone SAT**: the SAT of the `rows × cols` matrix in `a`, using
/// `tmp` (same size) as the ping-pong/transpose buffer.
/// `Θ(log n)` wide coalesced launches, `Θ(n² log n)` operations.
pub fn sat_kogge_stone<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    tmp: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    assert!(
        a.len() >= rows * cols && tmp.len() >= rows * cols,
        "buffers too small"
    );
    column_prefix_kogge_stone(dev, a, tmp, rows, cols);
    transpose(dev, a, tmp, rows, cols);
    column_prefix_kogge_stone(dev, tmp, a, cols, rows);
    transpose(dev, tmp, a, cols, rows);
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
        let tmp = GlobalBuffer::filled(0i64, 81);
        sat_kogge_stone(&dev, &buf, &tmp, 9, 9);
        assert_eq!(buf.into_vec(), fig3_sat().into_vec());
    }

    #[test]
    fn matches_reference_squares_and_rects() {
        for (w, rows, cols) in [
            (4, 4, 4),
            (4, 8, 8),
            (4, 16, 16),
            (4, 64, 64), // even round count
            (4, 32, 32),
            (3, 27, 27),
            (4, 8, 32),
            (4, 32, 8),
        ] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 23) as i64 - 11);
            let dev = dev(w);
            let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let tmp = GlobalBuffer::filled(0i64, rows * cols);
            sat_kogge_stone(&dev, &buf, &tmp, rows, cols);
            assert_eq!(
                buf.into_vec(),
                sat_reference(&a).into_vec(),
                "w={w} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn traffic_grows_logarithmically() {
        // The paper's §I complaint, measured: per-element operations grow
        // with log n while 2R1W's stay flat.
        let w = 8usize;
        let mut per_elt = Vec::new();
        for n in [64usize, 256, 1024] {
            let dev = dev(w);
            let buf = GlobalBuffer::filled(1i64, n * n);
            let tmp = GlobalBuffer::filled(0i64, n * n);
            dev.reset_stats();
            sat_kogge_stone(&dev, &buf, &tmp, n, n);
            let s = dev.stats();
            per_elt.push(s.global_ops() as f64 / (n * n) as f64);
            assert_eq!(s.stride_ops(), 0, "all rounds coalesced");
        }
        assert!(per_elt[1] > per_elt[0] + 3.0, "{per_elt:?}");
        assert!(per_elt[2] > per_elt[1] + 3.0, "{per_elt:?}");
        // ~4 ops per element per round (2 passes × (2 reads + 1 write) ≈ 3,
        // plus transposes): at n = 1024 that is ≥ 35 ops/element, an order
        // of magnitude above 2R1W's ≈ 3.2.
        assert!(per_elt[2] > 30.0, "{per_elt:?}");
    }

    #[test]
    fn few_launches_many_ops() {
        let (w, n) = (8usize, 256usize);
        let dev = dev(w);
        let buf = GlobalBuffer::filled(1i64, n * n);
        let tmp = GlobalBuffer::filled(0i64, n * n);
        dev.reset_stats();
        sat_kogge_stone(&dev, &buf, &tmp, n, n);
        // 8 rounds per pass (log₂ 256) + possible copy + 2 transposes.
        assert!(dev.launches() <= 2 * 9 + 2, "{}", dev.launches());
    }
}
