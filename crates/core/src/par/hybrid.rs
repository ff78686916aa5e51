//! The hybrid **(1+r²)R1W** SAT algorithm (§VII).
//!
//! 1R1W is traffic-optimal but pays `2·(n/w) − 1` barrier-separated stages;
//! near the matrix corners those stages contain very few blocks, so the
//! per-stage latency is pure overhead. The hybrid (Figure 12) therefore
//! partitions the block grid by a ratio `r ∈ [0, 1]`:
//!
//! * **(A)** the top-left triangle of the first `⌊r·m⌋` block
//!   anti-diagonals — computed by (region) 2R1W in a constant number of
//!   launches;
//! * **(C)** the middle diagonals — computed by 1R1W wavefront stages, whose
//!   launches are now "wide" and amortise their latency;
//! * **(B)** the bottom-right triangle — (region) 2R1W again, seeded from
//!   the finished values.
//!
//! Reads per element: 2 in the triangles (`r²n²` elements), 1 in the middle
//! (`(1 − r²)n²`) — i.e. `(1 + r²)` on average; writes: 1. Theorem 7 prices
//! the whole at `(2 + r²)n²/w + (2(1 − r)n/w + O(k))·L`; minimising over `r`
//! trades triangle traffic against wavefront latency, and the optimal `r`
//! shrinks as `n` grows (Table II's last rows).
//!
//! `r = 0` degenerates to pure 1R1W; `r = 1` to 2R1W on two triangles.

use gpu_exec::{Device, GlobalBuffer};

use crate::element::SatElement;
use crate::par::common::Grid;
use crate::par::one_r1w::one_r1w_stage;
use crate::par::region::{sat_2r1w_region, Region};

/// Number of leading block anti-diagonals the ratio `r` assigns to each
/// corner triangle, for an `m × m` (or rectangular, `m = min(mr, mc)`)
/// block grid.
pub fn triangle_diagonals(m: usize, r: f64) -> usize {
    assert!((0.0..=1.0).contains(&r), "r must lie in [0, 1], got {r}");
    ((r * m as f64).round() as usize).min(m)
}

/// **(1+r²)R1W**: compute into `s` the SAT of the `rows × cols` matrix in
/// `a`, splitting the work between 2R1W corner triangles and a 1R1W middle
/// according to `r ∈ [0, 1]` (triangles span `r·min(mr, mc)` block
/// anti-diagonals).
///
/// `s` may be `a`: each part reads `a` only in blocks it has not written
/// yet, and `s` only in blocks an earlier part or stage finished.
pub fn sat_hybrid<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    r: f64,
) {
    let grid = Grid::new(rows, cols, dev.width());
    let diags = triangle_diagonals(grid.mr.min(grid.mc), r);
    if diags == 0 {
        // Pure 1R1W.
        for d in 0..grid.diagonals() {
            one_r1w_stage(dev, a, s, grid, d);
        }
        return;
    }
    // (A) top-left triangle.
    sat_2r1w_region(dev, a, s, grid, Region::UpperLeft { diags });
    // (C) middle wavefront.
    let b_start = (grid.diagonals() - diags).max(diags);
    for d in diags..b_start {
        one_r1w_stage(dev, a, s, grid, d);
    }
    // (B) bottom-right staircase.
    sat_2r1w_region(dev, a, s, grid, Region::LowerRight { start: b_start });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{BlockOrder, Device, DeviceOptions};
    use hmm_model::MachineConfig;

    use crate::fixtures::{fig3_input, fig3_sat, FIG_BLOCK_WIDTH};
    use crate::matrix::Matrix;
    use crate::seq::sat_reference;

    fn dev(w: usize) -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2))
    }

    #[test]
    fn triangle_sizing() {
        assert_eq!(triangle_diagonals(8, 0.0), 0);
        assert_eq!(triangle_diagonals(8, 1.0), 8);
        assert_eq!(triangle_diagonals(8, 0.5), 4);
        assert_eq!(triangle_diagonals(8, 0.06), 0); // rounds down
        assert_eq!(triangle_diagonals(8, 0.07), 1); // rounds up
    }

    #[test]
    #[should_panic(expected = "lie in [0, 1]")]
    fn invalid_ratio_rejected() {
        triangle_diagonals(8, 1.5);
    }

    #[test]
    fn fig3_all_ratios() {
        // m = 3 admits r ∈ {0, ⅓, ⅔, 1}.
        for r in [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0] {
            let dev = dev(FIG_BLOCK_WIDTH);
            let a = GlobalBuffer::from_vec(fig3_input().into_vec());
            let s = GlobalBuffer::filled(0i64, 81);
            sat_hybrid(&dev, &a, &s, 9, 9, r);
            assert_eq!(s.into_vec(), fig3_sat().into_vec(), "r={r}");
        }
    }

    #[test]
    fn every_admissible_ratio_matches_reference() {
        let (w, n) = (4usize, 24usize);
        let m = n / w;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 19 + j * 23) % 29) as i64 - 14);
        let want = sat_reference(&a);
        for k in 0..=m {
            let r = k as f64 / m as f64;
            let dev = dev(w);
            let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let sb = GlobalBuffer::filled(0i64, n * n);
            sat_hybrid(&dev, &ab, &sb, n, n, r);
            assert_eq!(sb.into_vec(), want.as_slice(), "r={r}");
        }
    }

    #[test]
    fn rectangles_every_ratio() {
        let w = 4usize;
        for (rows, cols) in [(8usize, 32usize), (32, 8), (12, 20)] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 3 + j * 13) % 23) as i64 - 11);
            let want = sat_reference(&a);
            let mmin = (rows / w).min(cols / w);
            for k in 0..=mmin {
                let r = k as f64 / mmin as f64;
                let dev = dev(w);
                let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
                let sb = GlobalBuffer::filled(0i64, rows * cols);
                sat_hybrid(&dev, &ab, &sb, rows, cols, r);
                assert_eq!(sb.into_vec(), want.as_slice(), "{rows}x{cols} r={r}");
            }
        }
    }

    #[test]
    fn launch_count_shrinks_with_r() {
        // The whole point: larger triangles remove wavefront stages.
        let (w, n) = (4usize, 64usize);
        let m = n / w;
        let mut launches = Vec::new();
        for r in [0.0, 0.5, 1.0] {
            let dev = dev(w);
            let a = GlobalBuffer::filled(1i64, n * n);
            let s = GlobalBuffer::filled(0i64, n * n);
            dev.reset_stats();
            sat_hybrid(&dev, &a, &s, n, n, r);
            launches.push(dev.launches());
        }
        assert_eq!(launches[0], (2 * m - 1) as u64); // pure 1R1W
        assert!(launches[1] < launches[0]);
        assert!(launches[2] < launches[1]);
    }

    #[test]
    fn reads_per_element_interpolate_with_r() {
        // (1 + r²) reads per element, up to fringe terms.
        let (w, n) = (16usize, 256usize);
        for (r, expect) in [(0.0, 1.0), (0.5, 1.25), (1.0, 2.0)] {
            let dev = dev(w);
            let a = GlobalBuffer::filled(1i64, n * n);
            let s = GlobalBuffer::filled(0i64, n * n);
            dev.reset_stats();
            sat_hybrid(&dev, &a, &s, n, n, r);
            let got = dev.stats().reads_per_element(n);
            assert!(
                (got - expect).abs() < 0.45,
                "r={r}: reads/elt {got} vs (1+r²) = {expect}"
            );
            let wr = dev.stats().writes_per_element(n);
            assert!((1.0..1.4).contains(&wr), "r={r}: writes/elt {wr}");
        }
    }

    #[test]
    fn shuffled_block_order_and_race_detector() {
        let (w, n) = (4usize, 32usize);
        let a = Matrix::from_fn(n, n, |i, j| ((3 * i + 5 * j) % 7) as i64);
        let want = sat_reference(&a);
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(w))
                .workers(3)
                .order(BlockOrder::Shuffled(2024)),
        );
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        sat_hybrid(&dev, &ab, &sb, n, n, 0.5);
        assert_eq!(sb.into_vec(), want.as_slice());
    }
}
