//! The staircase half of the hybrid `(1+r²)R1W` (§VII): 2R1W on a
//! [`Region`] of blocks delimited by block anti-diagonals.
//!
//! The hybrid computes its top-left and bottom-right block triangles "by
//! 2R1W" (Figure 12). They run plain 2R1W's phase-1 block sums
//! (`two_r1w::block_sums`, without `Q`) and phase-3 fix-up
//! (`two_r1w::fixup`) over the region's block list, and the same
//! fringe-prefix loop ([`prefix_down`]) in phase 2. What this module adds is the boundary
//! conditions the paper leaves implicit:
//!
//! * a [`Region`] is a set of blocks delimited by block anti-diagonals; in
//!   every block row and block column its members are contiguous;
//! * for the *bottom-right* triangle the fringe prefixes cannot start from
//!   zero — they start from **base values read off the already-finished SAT
//!   region by pairwise subtraction** (the same trick 1R1W uses for its
//!   neighbour fringes);
//! * the block-corner offsets `ŝ(bi,bj) = S(bi·w−1, bj·w−1)` are obtained by
//!   a row scan of the column-fringe prefixes (`ŝ(bi,bj) = Σ_{c<bj·w}
//!   T̂(bi,c)`, telescoping the pairwise subtractions) instead of plain
//!   2R1W's SAT of `Q` — recursing on a staircase region is not meaningful.
//!   The scan writes `ŝ(bi,bj)` at `(bi−1)·mc + (bj−1)`, the word the shared
//!   fix-up reads its corner from. This adds one launch and `O(n²/w)`
//!   coalesced traffic, within the paper's dropped lower-order terms.
//!
//! Everything works on rectangular `mr × mc` block grids.

use gpu_exec::{BlockCtx, Device, GlobalBuffer};

use crate::element::SatElement;
use crate::par::common::{prefix_down, Grid};
use crate::par::two_r1w::{block_sums, fixup, FringeSums};

/// A staircase set of blocks, delimited by block anti-diagonals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The top-left triangle: blocks with `bi + bj < diags`.
    UpperLeft {
        /// Number of leading block anti-diagonals included (≥ 1).
        diags: usize,
    },
    /// The bottom-right staircase: blocks with `bi + bj ≥ start`. All blocks
    /// with smaller `bi + bj` must already hold final SAT values.
    LowerRight {
        /// First block anti-diagonal included.
        start: usize,
    },
}

impl Region {
    /// Does the region contain block `(bi, bj)` of an `mr × mc` block grid?
    pub fn contains(&self, grid: &Grid, bi: usize, bj: usize) -> bool {
        debug_assert!(bi < grid.mr && bj < grid.mc);
        match *self {
            Region::UpperLeft { diags } => bi + bj < diags,
            Region::LowerRight { start } => bi + bj >= start,
        }
    }

    /// All member blocks, row-major.
    pub fn blocks(&self, grid: &Grid) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for bi in 0..grid.mr {
            if let Some((lo, hi)) = self.row_blocks(grid, bi) {
                for bj in lo..=hi {
                    v.push((bi, bj));
                }
            }
        }
        v
    }

    /// Inclusive range of member block rows in block column `bv`.
    pub fn col_blocks(&self, grid: &Grid, bv: usize) -> Option<(usize, usize)> {
        self.span(bv, grid.mr)
    }

    /// Inclusive range of member block columns in block row `bu`.
    pub fn row_blocks(&self, grid: &Grid, bu: usize) -> Option<(usize, usize)> {
        self.span(bu, grid.mc)
    }

    /// Inclusive range of member indices `0..len` along a block row or
    /// column whose other index is `at`.
    fn span(&self, at: usize, len: usize) -> Option<(usize, usize)> {
        match *self {
            Region::UpperLeft { diags } => (at < diags).then(|| (0, (diags - at - 1).min(len - 1))),
            Region::LowerRight { start } => {
                let lo = start.saturating_sub(at);
                (lo < len).then_some((lo, len - 1))
            }
        }
    }
}

/// Region 2R1W: compute into `s` the final (global) SAT values of every
/// block of `region`, assuming all blocks above/left of the region already
/// hold final SAT values in `s` (vacuously true for [`Region::UpperLeft`]).
pub fn sat_2r1w_region<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    grid: Grid,
    region: Region,
) {
    let blocks = region.blocks(&grid);
    if blocks.is_empty() {
        return;
    }
    let fringes = FringeSums::zeroed(grid);
    let corners = GlobalBuffer::filled(T::ZERO, grid.mr * grid.mc);
    block_sums(dev, a, &fringes, None, grid, &blocks);
    phase2_fringe_prefixes(dev, s, &fringes, grid, region);
    phase2b_corner_scan(dev, s, &fringes.r, &corners, grid, region);
    fixup(dev, a, s, &fringes, (&corners, grid.mc), grid, &blocks);
}

/// Read `w` consecutive values of `g` starting at `base − 1`, treating the
/// element before index 0 of the row as zero. Used for pairwise subtraction
/// at region boundaries.
fn read_shifted_row<T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    g: &gpu_exec::GlobalView<'_, T>,
    base: usize,
    at_edge: bool,
    out: &mut [T],
) {
    if at_edge {
        let w = out.len();
        let mut tmp = vec![T::ZERO; w - 1];
        g.read_contig(base, &mut tmp, &mut ctx.rec);
        out[0] = T::ZERO;
        out[1..].copy_from_slice(&tmp);
    } else {
        g.read_contig(base - 1, out, &mut ctx.rec);
    }
}

/// Phase 2: inclusive prefix sums down each fringe matrix, seeded with base
/// values pairwise-subtracted from the finished SAT region where the region
/// does not start at the matrix edge. Bases are stored one row before the
/// first region row so the fix-up can address fringes uniformly as
/// `[bi − 1]` / `[bj − 1]`.
fn phase2_fringe_prefixes<T: SatElement>(
    dev: &Device,
    s: &GlobalBuffer<T>,
    fringes: &FringeSums<T>,
    grid: Grid,
    region: Region,
) {
    let w = grid.w;
    let col_tasks: Vec<_> = (0..grid.mc)
        .filter_map(|bv| Some((bv, region.col_blocks(&grid, bv)?)))
        .collect();
    let row_tasks: Vec<_> = (0..grid.mr)
        .filter_map(|bu| Some((bu, region.row_blocks(&grid, bu)?)))
        .collect();
    let nc = col_tasks.len();
    dev.launch(nc + row_tasks.len(), |ctx| {
        let id = ctx.block_id();
        let gs = ctx.view(s);
        let mut acc = vec![T::ZERO; w];
        if id < nc {
            // T̂ prefix for the w columns of block column bv.
            let (bv, (lo, hi)) = col_tasks[id];
            let gr = ctx.view(&fringes.r);
            let c0 = bv * w;
            if lo > 0 {
                // base[c] = S(lo·w−1, c) − S(lo·w−1, c−1): summed column
                // above, from the finished SAT.
                let row_addr = grid.addr(lo * w - 1, c0);
                let mut cur = vec![T::ZERO; w];
                gs.read_contig(row_addr, &mut cur, &mut ctx.rec);
                let mut prev = vec![T::ZERO; w];
                read_shifted_row(ctx, &gs, row_addr, c0 == 0, &mut prev);
                for t in 0..w {
                    acc[t] = cur[t].sub(prev[t]);
                }
                gr.write_contig((lo - 1) * grid.cols + c0, &acc, &mut ctx.rec);
            }
            prefix_down(ctx, &gr, c0, grid.cols, lo..hi + 1, &mut acc);
        } else {
            // Ĉ prefix for the w rows of block row bu.
            let (bu, (lo, hi)) = row_tasks[id - nc];
            let gc = ctx.view(&fringes.ct);
            let r0 = bu * w;
            if lo > 0 {
                // base[r] = S(r, lo·w−1) − S(r−1, lo·w−1), reading a column
                // of the finished SAT (stride, O(rows) ops in total).
                let col = lo * w - 1;
                let mut cur = vec![T::ZERO; w];
                gs.read_strided(grid.addr(r0, col), grid.cols, &mut cur, &mut ctx.rec);
                let mut prev = vec![T::ZERO; w];
                if r0 == 0 {
                    let mut tmp = vec![T::ZERO; w - 1];
                    gs.read_strided(grid.addr(0, col), grid.cols, &mut tmp, &mut ctx.rec);
                    prev[0] = T::ZERO;
                    prev[1..].copy_from_slice(&tmp);
                } else {
                    gs.read_strided(grid.addr(r0 - 1, col), grid.cols, &mut prev, &mut ctx.rec);
                }
                for t in 0..w {
                    acc[t] = cur[t].sub(prev[t]);
                }
                gc.write_contig((lo - 1) * grid.rows + r0, &acc, &mut ctx.rec);
            }
            prefix_down(ctx, &gc, r0, grid.rows, lo..hi + 1, &mut acc);
        }
    });
}

/// Phase 2b: block-corner offsets. For every region row `bi ≥ 1`, scan the
/// finished T̂ prefixes left to right; `ŝ(bi,bj) = S(bi·w−1, bj·w−1)` is the
/// running sum (seeded from the finished SAT where the scan does not start
/// at column 0), written at `(bi−1)·mc + (bj−1)` of `corners` for the
/// fix-up.
fn phase2b_corner_scan<T: SatElement>(
    dev: &Device,
    s: &GlobalBuffer<T>,
    rp: &GlobalBuffer<T>,
    corners: &GlobalBuffer<T>,
    grid: Grid,
    region: Region,
) {
    let w = grid.w;
    // Rows that contain at least one region block with bi ≥ 1 and bj ≥ 1.
    let tasks: Vec<(usize, usize, usize)> = (1..grid.mr)
        .filter_map(|bi| {
            let (lo, hi) = region.row_blocks(&grid, bi)?;
            let jstart = lo.max(1);
            if jstart > hi {
                return None;
            }
            Some((bi, jstart, hi))
        })
        .collect();
    dev.launch(tasks.len(), |ctx| {
        let (bi, jstart, hi) = tasks[ctx.block_id()];
        let gs = ctx.view(s);
        let gr = ctx.view(rp);
        let gq = ctx.view(corners);
        // First block column whose T̂ row bi−1 entry exists.
        let bv0 = (0..grid.mc)
            .find(|&bv| {
                region
                    .col_blocks(&grid, bv)
                    .is_some_and(|(lo, chi)| lo <= bi && bi - 1 <= chi)
            })
            .expect("a region block in this row implies a valid fringe column");
        let mut acc = if bv0 > 0 {
            // Everything left of the scan start is finished SAT.
            gs.read(grid.addr(bi * w - 1, bv0 * w - 1), &mut ctx.rec)
        } else {
            T::ZERO
        };
        let mut row = vec![T::ZERO; w];
        for bv in bv0..=hi {
            if bv >= jstart {
                gq.write((bi - 1) * grid.mc + (bv - 1), acc, &mut ctx.rec);
            }
            if bv < hi {
                gr.read_contig((bi - 1) * grid.cols + bv * w, &mut row, &mut ctx.rec);
                for &v in row.iter() {
                    acc = acc.add(v);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{Device, DeviceOptions};
    use hmm_model::MachineConfig;

    use crate::matrix::Matrix;
    use crate::par::one_r1w::one_r1w_stage;
    use crate::seq::sat_reference;

    fn dev(w: usize) -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2))
    }

    #[test]
    fn region_geometry() {
        let g = Grid::new(16, 16, 4); // 4 × 4 blocks
        let ul = Region::UpperLeft { diags: 3 };
        assert!(ul.contains(&g, 0, 0));
        assert!(ul.contains(&g, 2, 0));
        assert!(!ul.contains(&g, 2, 1));
        assert_eq!(ul.col_blocks(&g, 0), Some((0, 2)));
        assert_eq!(ul.col_blocks(&g, 2), Some((0, 0)));
        assert_eq!(ul.col_blocks(&g, 3), None);
        assert_eq!(ul.blocks(&g).len(), 6); // 3 + 2 + 1

        let lr = Region::LowerRight { start: 5 };
        assert!(lr.contains(&g, 3, 3));
        assert!(lr.contains(&g, 2, 3));
        assert!(!lr.contains(&g, 1, 3));
        assert_eq!(lr.col_blocks(&g, 3), Some((2, 3)));
        assert_eq!(lr.col_blocks(&g, 0), None); // lo = 5 > 3
        assert_eq!(lr.blocks(&g).len(), 3); // diagonals 5 and 6
                                            // The symmetric counterpart of UpperLeft{3} starts at 2m−1−3 = 4.
        assert_eq!(Region::LowerRight { start: 4 }.blocks(&g).len(), 6);
    }

    #[test]
    fn region_geometry_rect() {
        // 2 × 5 block grid.
        let g = Grid::new(8, 20, 4);
        let ul = Region::UpperLeft { diags: 4 };
        // Column 0 holds rows 0..min(3, 1) = both rows.
        assert_eq!(ul.col_blocks(&g, 0), Some((0, 1)));
        assert_eq!(ul.col_blocks(&g, 3), Some((0, 0)));
        assert_eq!(ul.col_blocks(&g, 4), None);
        assert_eq!(ul.row_blocks(&g, 0), Some((0, 3)));
        assert_eq!(ul.row_blocks(&g, 1), Some((0, 2)));
        assert_eq!(ul.blocks(&g).len(), 7);
        let lr = Region::LowerRight { start: 4 };
        assert_eq!(lr.row_blocks(&g, 0), Some((4, 4)));
        assert_eq!(lr.row_blocks(&g, 1), Some((3, 4)));
        assert_eq!(lr.blocks(&g).len(), 3);
    }

    #[test]
    fn fig12_partition_covers_matrix_exactly_once() {
        // Figure 12: triangles A and B plus the middle C tile the grid —
        // on square and rectangular grids.
        for (mr, mc) in [(2usize, 2usize), (3, 3), (5, 5), (2, 5), (5, 2), (3, 8)] {
            let g = Grid::new(mr * 4, mc * 4, 4);
            let dmax = mr + mc - 1;
            for a in 0..=mr.min(mc) {
                let ul = Region::UpperLeft { diags: a };
                let start = (dmax - a).max(a);
                let lr = Region::LowerRight { start };
                for bi in 0..mr {
                    for bj in 0..mc {
                        let in_a = a > 0 && ul.contains(&g, bi, bj);
                        let in_b = lr.contains(&g, bi, bj);
                        let in_c = (a..start).contains(&(bi + bj));
                        let count = in_a as u32 + in_b as u32 + in_c as u32;
                        assert_eq!(count, 1, "grid {mr}x{mc} a={a} block=({bi},{bj})");
                    }
                }
            }
        }
    }

    #[test]
    fn upper_left_triangle_gets_final_values() {
        let (w, n) = (4usize, 24usize);
        let grid = Grid::square(n, w);
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as i64 - 5);
        let want = sat_reference(&a);
        for diags in 1..=grid.mr {
            let dev = dev(w);
            let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let sb = GlobalBuffer::filled(0i64, n * n);
            let region = Region::UpperLeft { diags };
            sat_2r1w_region(&dev, &ab, &sb, grid, region);
            let got = sb.into_vec();
            for (bi, bj) in region.blocks(&grid) {
                for i in 0..w {
                    for j in 0..w {
                        let (r, c) = (bi * w + i, bj * w + j);
                        assert_eq!(
                            got[r * n + c],
                            want.get(r, c),
                            "diags={diags} block=({bi},{bj}) ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lower_right_region_after_wavefront_prefix() {
        // Drive the matrix to the state the hybrid would: finish all
        // diagonals < start with 1R1W stages, then run the region 2R1W on
        // the rest and compare everything with the reference.
        for (rows, cols) in [(24usize, 24usize), (8, 24), (24, 8)] {
            let w = 4usize;
            let grid = Grid::new(rows, cols, w);
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 5 + j * 11) % 17) as i64 - 8);
            let want = sat_reference(&a);
            for start in 1..grid.diagonals() {
                let dev = dev(w);
                let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
                let sb = GlobalBuffer::filled(0i64, rows * cols);
                for d in 0..start {
                    one_r1w_stage(&dev, &ab, &sb, grid, d);
                }
                sat_2r1w_region(&dev, &ab, &sb, grid, Region::LowerRight { start });
                assert_eq!(
                    sb.into_vec(),
                    want.as_slice(),
                    "{rows}x{cols} start={start}"
                );
            }
        }
    }

    #[test]
    fn empty_region_is_noop() {
        let (w, n) = (4usize, 8usize);
        let dev = dev(w);
        let grid = Grid::square(n, w);
        let ab = GlobalBuffer::filled(1i64, n * n);
        let sb = GlobalBuffer::filled(0i64, n * n);
        sat_2r1w_region(&dev, &ab, &sb, grid, Region::UpperLeft { diags: 0 });
        assert_eq!(dev.launches(), 0);
        assert!(sb.into_vec().iter().all(|&v| v == 0));
    }
}
