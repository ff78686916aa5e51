//! The straightforward **2R2W** SAT algorithm (§IV).
//!
//! Kernel 1 computes the column-wise prefix sums with one thread per column:
//! step `i` touches row `i`, so every warp access is **coalesced**. After one
//! barrier, kernel 2 computes the row-wise prefix sums with one thread per
//! row: step `j` touches column `j`, a **stride** access of pitch `cols`.
//! Per element: 2 reads + 2 writes; half of them stride — which is exactly
//! what makes this algorithm slow on the UMM (Lemma 2).

use gpu_exec::{Device, GlobalBuffer};

use crate::element::SatElement;
use crate::par::common::{prefix_down, Grid};

/// Column-wise prefix sums of a `rows × cols` matrix, in place: one launch,
/// a grid of `cols/w` blocks, each block owning `w` adjacent columns. All
/// accesses coalesced. Shared with 4R4W.
pub fn column_prefix_kernel<T: SatElement>(
    dev: &Device,
    buf: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    let grid = Grid::new(rows, cols, dev.width());
    let w = grid.w;
    dev.launch(grid.mc, |ctx| {
        let g = ctx.view(buf);
        let base_col = ctx.block_id() * w;
        // Row 0 is its own prefix: read it, then continue down rows 1.. .
        let mut acc = vec![T::ZERO; w];
        g.read_contig(base_col, &mut acc, ctx.rec());
        prefix_down(ctx, &g, base_col, cols, 1..rows, &mut acc);
    });
}

/// Row-wise prefix sums, in place: one launch, each block owning `w`
/// adjacent rows. Every access is a stride warp transaction of pitch `cols`.
pub fn row_prefix_kernel<T: SatElement>(
    dev: &Device,
    buf: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    let grid = Grid::new(rows, cols, dev.width());
    let w = grid.w;
    dev.launch(grid.mr, |ctx| {
        let g = ctx.view(buf);
        let base_row = ctx.block_id() * w;
        let mut acc = vec![T::ZERO; w];
        g.read_strided(grid.addr(base_row, 0), cols, &mut acc, ctx.rec());
        let mut col = vec![T::ZERO; w];
        for j in 1..cols {
            g.read_strided(grid.addr(base_row, j), cols, &mut col, ctx.rec());
            for t in 0..w {
                acc[t] = acc[t].add(col[t]);
            }
            g.write_strided(grid.addr(base_row, j), cols, &acc, ctx.rec());
        }
    });
}

/// **2R2W**: the SAT of the `rows × cols` matrix in `buf`, in place.
/// Two launches (one barrier step).
pub fn sat_2r2w<T: SatElement>(dev: &Device, buf: &GlobalBuffer<T>, rows: usize, cols: usize) {
    column_prefix_kernel(dev, buf, rows, cols);
    row_prefix_kernel(dev, buf, rows, cols);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{Device, DeviceOptions};
    use hmm_model::MachineConfig;

    use crate::fixtures::{fig3_column_prefix, fig3_input, fig3_sat, FIG_BLOCK_WIDTH};
    use crate::matrix::Matrix;
    use crate::seq::sat_reference;

    fn dev(w: usize) -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2))
    }

    #[test]
    fn fig3_column_pass_on_device() {
        let dev = dev(FIG_BLOCK_WIDTH);
        let buf = GlobalBuffer::from_vec(fig3_input().into_vec());
        column_prefix_kernel(&dev, &buf, 9, 9);
        assert_eq!(buf.into_vec(), fig3_column_prefix().into_vec());
    }

    #[test]
    fn fig3_full_sat() {
        let dev = dev(FIG_BLOCK_WIDTH);
        let buf = GlobalBuffer::from_vec(fig3_input().into_vec());
        sat_2r2w(&dev, &buf, 9, 9);
        assert_eq!(buf.into_vec(), fig3_sat().into_vec());
    }

    #[test]
    fn matches_reference_on_random_sizes() {
        for (w, rows, cols) in [
            (4, 4, 4),
            (4, 16, 16),
            (8, 32, 32),
            (3, 27, 27),
            (4, 8, 20),
            (4, 20, 8),
        ] {
            let dev = dev(w);
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 37 + j * 11) % 23) as i64 - 11);
            let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
            sat_2r2w(&dev, &buf, rows, cols);
            assert_eq!(
                buf.into_vec(),
                sat_reference(&a).into_vec(),
                "w={w} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn access_pattern_counts_match_lemma2() {
        // Lemma 2: ≈ 2n² coalesced operations (column pass) and ≈ 2n²
        // stride operations (row pass), one barrier.
        let (w, n) = (8usize, 64usize);
        let dev = dev(w);
        let a = Matrix::from_fn(n, n, |i, j| (i + j) as i64);
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        dev.reset_stats();
        sat_2r2w(&dev, &buf, n, n);
        let s = dev.stats();
        let n2 = (n * n) as u64;
        assert_eq!(s.coalesced_reads, n2);
        assert_eq!(s.coalesced_writes, n2 - n as u64); // row 0 is read, not rewritten
        assert_eq!(s.stride_reads, n2);
        assert_eq!(s.stride_writes, n2 - n as u64); // column 0 likewise
        assert_eq!(s.barrier_steps, 1);
    }
}
