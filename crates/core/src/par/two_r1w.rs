//! The **2R1W** SAT algorithm (§V) — the previous state of the art
//! (Nehab, Maximo, Lima & Hoppe 2011), reformulated block-wise.
//!
//! The `rows × cols` matrix is partitioned into `w × w` blocks (`mr × mc`
//! of them). Three phases, separated by barriers:
//!
//! 1. **Block sums** — every block is read once; its per-column sums, its
//!    per-row sums and its total are written to three small matrices `R`
//!    (`mr × cols`), `Cᵗ` (`mc × rows`, stored transposed so phase 2 stays
//!    coalesced) and `Q` (`mr × mc`).
//! 2. **Fringe prefixes** — column-wise prefix sums over `R` and `Cᵗ`, and
//!    the SAT of `Q` (computed in shared memory when `Q` fits a block,
//!    *recursively by 2R1W itself* otherwise — the paper's recursion depth
//!    `k`).
//! 3. **Fix-up** (Figures 8, 9) — every block is read again; the prefix row
//!    `R[bi−1]` is added to its top row, `Cᵗ[bj−1]` to its leftmost column,
//!    and `SAT(Q)[bi−1][bj−1]` to its top-left corner; the SAT of the
//!    augmented block, computed in shared memory with the diagonal
//!    arrangement, *is* the global SAT of the block and is written out.
//!
//! Per element: 2 coalesced reads + 1 coalesced write (+ `O(1/w)` fringe
//! traffic). Lemma 4 counts `2k + 2` barriers; this driver issues
//! `3k + 2` (3, 6 and 9 launches at `k` = 0, 1 and 2): every recursion
//! level runs its own three phases, in place, on a zero-padded copy of
//! `Q`, one launch more per level than the paper's count.
//!
//! The hybrid's staircase triangles ([`crate::par::region`]) run the same
//! block-sum, fringe-prefix and fix-up kernels; only their phase 2 differs.

use gpu_exec::{BlockCtx, Device, GlobalBuffer, SharedTile};

use crate::element::SatElement;
use crate::par::common::{default_tile, load_block, prefix_down, store_block, tile_sat, Grid};

/// **2R1W**: compute into `s` the SAT of the `rows × cols` matrix in `a`.
///
/// `s` may be `a`: phase 1 only reads `a`, and each fix-up block reads its
/// own block of `a` before it writes that block of `s`; the fringes it adds
/// come from `R`, `Cᵗ` and `Q`, never from `s`. The recursion on `Q` runs
/// in place this way.
///
/// # Panics
/// Panics at `w = 1` on anything larger than `1 × 1`: the recursion on `Q`
/// (`rows/w × cols/w`) needs `w ≥ 2` to shrink the problem.
pub fn sat_2r1w<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    let grid = Grid::new(rows, cols, dev.width());
    assert!(
        a.len() >= rows * cols && s.len() >= rows * cols,
        "buffers too small"
    );
    let (w, mr, mc) = (grid.w, grid.mr, grid.mc);
    if mr == 1 && mc == 1 {
        single_block_sat(dev, a, s, grid);
        return;
    }
    let blocks: Vec<_> = (0..grid.blocks()).map(|id| grid.block_of(id)).collect();
    let fringes = FringeSums::zeroed(grid);
    let q = GlobalBuffer::filled(T::ZERO, mr * mc);
    block_sums(dev, a, &fringes, Some(&q), grid, &blocks);
    if mr <= w && mc <= w {
        prefixes_and(dev, &fringes, grid, 1, |ctx, _| tile_q_sat(ctx, &q, mr, mc));
        fixup(dev, a, s, &fringes, (&q, mc), grid, &blocks);
    } else {
        assert!(
            w >= 2,
            "2R1W's recursion needs w ≥ 2: at w = 1 the block-sum matrix Q of a \
             {rows} × {cols} input is {rows} × {cols} again"
        );
        // Recursion: zero-pad Q to multiples of w and call 2R1W on it.
        // Padding does not change SAT values inside the original region.
        let mrp = mr.next_multiple_of(w);
        let mcp = mc.next_multiple_of(w);
        let qa = GlobalBuffer::filled(T::ZERO, mrp * mcp);
        prefixes_and(dev, &fringes, grid, mr, |ctx, bi| {
            // Copy row bi of Q into the padded buffer.
            let gq = ctx.view(&q);
            let gqa = ctx.view(&qa);
            let mut row = vec![T::ZERO; mc];
            gq.read_contig(bi * mc, &mut row, &mut ctx.rec);
            gqa.write_contig(bi * mcp, &row, &mut ctx.rec);
        });
        sat_2r1w(dev, &qa, &qa, mrp, mcp);
        fixup(dev, a, s, &fringes, (&qa, mcp), grid, &blocks);
    }
}

/// SAT of a single `w × w` matrix: load → shared SAT → store. One launch.
fn single_block_sat<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    grid: Grid,
) {
    dev.launch(1, |ctx| {
        let ga = ctx.view(a);
        let gs = ctx.view(s);
        let mut tile: SharedTile<T> = default_tile(ctx);
        load_block(ctx, &ga, grid, 0, 0, &mut tile);
        tile_sat(ctx, &mut tile);
        store_block(ctx, &gs, grid, 0, 0, &tile);
    });
}

/// SAT of the `mr × mc` matrix `Q` (`mr, mc ≤ w`), in place, inside one
/// zero-padded shared tile.
fn tile_q_sat<T: SatElement>(ctx: &mut BlockCtx<'_>, q: &GlobalBuffer<T>, mr: usize, mc: usize) {
    let gq = ctx.view(q);
    let mut tile: SharedTile<T> = default_tile(ctx);
    let mut row = vec![T::ZERO; mc];
    for i in 0..mr {
        gq.read_contig(i * mc, &mut row, &mut ctx.rec);
        for (j, &v) in row.iter().enumerate() {
            tile.set(i, j, v);
        }
    }
    tile_sat(ctx, &mut tile);
    for i in 0..mr {
        for (j, v) in row.iter_mut().enumerate() {
            *v = tile.get(i, j);
        }
        gq.write_contig(i * mc, &row, &mut ctx.rec);
    }
}

/// The two fringe matrices of 2R1W: per-block column sums `R`
/// (`mr × cols`) and per-block row sums `Cᵗ` (`mc × rows`, stored
/// transposed so phase 2 stays coalesced). Phase 2 turns both into
/// prefix sums in place; row `bi − 1` of `R` and row `bj − 1` of `Cᵗ` are
/// what block `(bi, bj)`'s fix-up adds.
pub(crate) struct FringeSums<T> {
    pub r: GlobalBuffer<T>,
    pub ct: GlobalBuffer<T>,
}

impl<T: SatElement> FringeSums<T> {
    /// Zeroed fringe matrices for `grid`.
    pub fn zeroed(grid: Grid) -> Self {
        FringeSums {
            r: GlobalBuffer::filled(T::ZERO, grid.mr * grid.cols),
            ct: GlobalBuffer::filled(T::ZERO, grid.mc * grid.rows),
        }
    }
}

/// Phase 1: per block of `blocks`, write its column sums to `R[bi]`, its
/// row sums to `Cᵗ[bj]` and, when `q` is given, its total to `Q[bi][bj]`.
pub(crate) fn block_sums<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    fringes: &FringeSums<T>,
    q: Option<&GlobalBuffer<T>>,
    grid: Grid,
    blocks: &[(usize, usize)],
) {
    let w = grid.w;
    dev.launch(blocks.len(), |ctx| {
        let ga = ctx.view(a);
        let gr = ctx.view(&fringes.r);
        let gc = ctx.view(&fringes.ct);
        let (bi, bj) = blocks[ctx.block_id()];
        let (r0, c0) = grid.origin(bi, bj);
        let mut col_sums = vec![T::ZERO; w];
        let mut row_sums = vec![T::ZERO; w];
        let mut row = vec![T::ZERO; w];
        let mut total = T::ZERO;
        for (i, slot) in row_sums.iter_mut().enumerate() {
            ga.read_contig(grid.addr(r0 + i, c0), &mut row, &mut ctx.rec);
            let mut rs = T::ZERO;
            for t in 0..w {
                col_sums[t] = col_sums[t].add(row[t]);
                rs = rs.add(row[t]);
            }
            *slot = rs;
            total = total.add(rs);
        }
        gr.write_contig(bi * grid.cols + c0, &col_sums, &mut ctx.rec);
        gc.write_contig(bj * grid.rows + r0, &row_sums, &mut ctx.rec);
        if let Some(q) = q {
            ctx.view(q).write(bi * grid.mc + bj, total, &mut ctx.rec);
        }
    });
}

/// Phase 2 of plain 2R1W: one launch running the `R` prefix tasks (one per
/// block column), the `Cᵗ` prefix tasks (one per block row) and `q_tasks`
/// tasks of `q_task` for `Q`.
fn prefixes_and<T: SatElement>(
    dev: &Device,
    fringes: &FringeSums<T>,
    grid: Grid,
    q_tasks: usize,
    q_task: impl Fn(&mut BlockCtx<'_>, usize) + Sync,
) {
    let (w, mr, mc) = (grid.w, grid.mr, grid.mc);
    dev.launch(mc + mr + q_tasks, |ctx| {
        let id = ctx.block_id();
        if id >= mc + mr {
            return q_task(ctx, id - mc - mr);
        }
        let (buf, pitch, levels, chunk) = if id < mc {
            (&fringes.r, grid.cols, mr, id)
        } else {
            (&fringes.ct, grid.rows, mc, id - mc)
        };
        let g = ctx.view(buf);
        prefix_down(ctx, &g, chunk * w, pitch, 0..levels, &mut vec![T::ZERO; w]);
    });
}

/// Phase 3 (Figures 8 & 9): per block of `blocks`, add the prefix row
/// `R[bi−1]` to its top row, `Cᵗ[bj−1]` to its leftmost column and the
/// corner word `(bi−1)·pitch + (bj−1)` of `corners` (the sum of every
/// element above-left of the block) to its top-left element; the SAT of
/// the augmented block, computed in shared memory, is the global SAT of the
/// block and is written to `s`.
pub(crate) fn fixup<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    fringes: &FringeSums<T>,
    (corners, pitch): (&GlobalBuffer<T>, usize),
    grid: Grid,
    blocks: &[(usize, usize)],
) {
    let w = grid.w;
    dev.launch(blocks.len(), |ctx| {
        let ga = ctx.view(a);
        let gs = ctx.view(s);
        let gr = ctx.view(&fringes.r);
        let gc = ctx.view(&fringes.ct);
        let gq = ctx.view(corners);
        let (bi, bj) = blocks[ctx.block_id()];
        let (r0, c0) = grid.origin(bi, bj);
        let mut tile: SharedTile<T> = default_tile(ctx);
        load_block(ctx, &ga, grid, bi, bj, &mut tile);
        let mut buf = vec![T::ZERO; w];
        let mut fringe = vec![T::ZERO; w];
        if bi > 0 {
            // Sum of everything above, per column.
            gr.read_contig((bi - 1) * grid.cols + c0, &mut fringe, &mut ctx.rec);
            tile.read_row(0, &mut buf, &mut ctx.rec);
            for t in 0..w {
                buf[t] = buf[t].add(fringe[t]);
            }
            tile.write_row(0, &buf, &mut ctx.rec);
        }
        if bj > 0 {
            // Sum of everything to the left, per row.
            gc.read_contig((bj - 1) * grid.rows + r0, &mut fringe, &mut ctx.rec);
            tile.read_col(0, &mut buf, &mut ctx.rec);
            for t in 0..w {
                buf[t] = buf[t].add(fringe[t]);
            }
            tile.write_col(0, &buf, &mut ctx.rec);
        }
        if bi > 0 && bj > 0 {
            let corner = gq.read((bi - 1) * pitch + (bj - 1), &mut ctx.rec);
            tile.set(0, 0, tile.get(0, 0).add(corner));
        }
        tile_sat(ctx, &mut tile);
        store_block(ctx, &gs, grid, bi, bj, &tile);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{Device, DeviceOptions};
    use hmm_model::cost::GlobalCost;
    use hmm_model::MachineConfig;

    use crate::fixtures::{fig3_input, fig3_sat, FIG_BLOCK_WIDTH};
    use crate::matrix::Matrix;
    use crate::seq::sat_reference;

    fn dev(w: usize) -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2))
    }

    fn run(devw: usize, a: &Matrix<i64>) -> Vec<i64> {
        let dev = dev(devw);
        let (rows, cols) = (a.rows(), a.cols());
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let out = GlobalBuffer::filled(0i64, rows * cols);
        sat_2r1w(&dev, &buf, &out, rows, cols);
        out.into_vec()
    }

    #[test]
    fn fig8_9_two_r1w_phases_on_fig3() {
        // Figures 8–9 run 2R1W with w = 3 on the Figure 3 matrix; the final
        // state must be the Figure 3 SAT, including the highlighted block
        // (rows 3–5, columns 6–8) whose fix-up Figure 9 details.
        let got = run(FIG_BLOCK_WIDTH, &fig3_input());
        assert_eq!(got, fig3_sat().into_vec());
        // Figure 9's block, read back explicitly.
        let sat = fig3_sat();
        for (i, row) in [[25, 27, 28], [38, 41, 43], [48, 52, 55]]
            .iter()
            .enumerate()
        {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(sat.get(3 + i, 6 + j), v);
                assert_eq!(got[(3 + i) * 9 + 6 + j], v);
            }
        }
    }

    #[test]
    fn fig8_intermediate_fringe_matrices() {
        // Step 1 of Figure 8 (w = 3): the column-sums matrix R, row-sums
        // matrix C and block-total matrix Q of the Figure 3 input.
        let a = fig3_input();
        let grid = Grid::square(9, 3);
        let dev = dev(3);
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let fringes = FringeSums::zeroed(grid);
        let q = GlobalBuffer::filled(0i64, 9);
        let blocks: Vec<_> = (0..grid.blocks()).map(|id| grid.block_of(id)).collect();
        block_sums(&dev, &ab, &fringes, Some(&q), grid, &blocks);
        // R[bi][c] = Σ of column c within block row bi.
        let FringeSums { r, ct } = fringes;
        let r = r.into_vec();
        for bi in 0..3 {
            for c in 0..9 {
                let want: i64 = (0..3).map(|i| a.get(bi * 3 + i, c)).sum();
                assert_eq!(r[bi * 9 + c], want, "R[{bi}][{c}]");
            }
        }
        // Cᵗ[bj][r] = Σ of row r within block column bj.
        let ct = ct.into_vec();
        for bj in 0..3 {
            for row in 0..9 {
                let want: i64 = (0..3).map(|j| a.get(row, bj * 3 + j)).sum();
                assert_eq!(ct[bj * 9 + row], want, "Ct[{bj}][{row}]");
            }
        }
        // Q[bi][bj] = block total; e.g. the centre block of Figure 3 sums
        // the 3 × 3 region rows 3–5 × cols 3–5.
        let qv = q.into_vec();
        assert_eq!(qv[3 + 1], 19);
        for bi in 0..3 {
            for bj in 0..3 {
                let want: i64 = (0..3)
                    .flat_map(|i| (0..3).map(move |j| (i, j)))
                    .map(|(i, j)| a.get(bi * 3 + i, bj * 3 + j))
                    .sum();
                assert_eq!(qv[bi * 3 + bj], want, "Q[{bi}][{bj}]");
            }
        }
    }

    #[test]
    fn matches_reference_various_sizes() {
        for (w, n) in [(4, 4), (4, 8), (4, 16), (8, 64), (3, 27), (5, 35)] {
            let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as i64 - 11);
            assert_eq!(run(w, &a), sat_reference(&a).into_vec(), "w={w} n={n}");
        }
    }

    #[test]
    fn matches_reference_rectangles() {
        for (w, rows, cols) in [(4, 8, 24), (4, 24, 8), (4, 4, 32), (3, 9, 21), (4, 68, 12)] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 29) % 19) as i64 - 9);
            assert_eq!(
                run(w, &a),
                sat_reference(&a).into_vec(),
                "w={w} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn recursion_kicks_in_when_q_exceeds_one_block() {
        // w = 4, n = 68 → m = 17 > 4: Q is padded to 20 × 20 and solved by
        // a recursive 2R1W call.
        let (w, n) = (4usize, 68usize);
        let a = Matrix::from_fn(n, n, |i, j| ((i ^ j) % 7) as i64 - 3);
        assert_eq!(run(w, &a), sat_reference(&a).into_vec());
    }

    #[test]
    fn recursion_on_rectangles() {
        // Only one dimension exceeds a block: mr = 2, mc = 17 > 4.
        let (w, rows, cols) = (4usize, 8usize, 68usize);
        let a = Matrix::from_fn(rows, cols, |i, j| ((i * 3 + j) % 11) as i64 - 5);
        assert_eq!(run(w, &a), sat_reference(&a).into_vec());
    }

    #[test]
    fn barrier_steps_match_lemma4() {
        // Lemma 4 counts 2k + 2 barriers; each recursion level here costs
        // one launch more, so k = 0, 1, 2 give 3, 6, 9 launches = 3k + 2
        // barriers. n = 16, 64, 68 at w = 4: Q is 4², 16² → 4², 17² → 20²
        // → 5² → 8².
        let w = 4usize;
        let gc = GlobalCost::new(MachineConfig::with_width(w));
        for (n, k) in [(16usize, 0u64), (64, 1), (68, 2)] {
            assert_eq!(u64::from(gc.recursion_depth(n)), k, "n={n}");
            let dev = dev(w);
            let a = GlobalBuffer::filled(1i64, n * n);
            let s = GlobalBuffer::filled(0i64, n * n);
            dev.reset_stats();
            sat_2r1w(&dev, &a, &s, n, n);
            assert_eq!(dev.stats().barrier_steps, 3 * k + 2, "n={n}");
            assert_eq!(dev.launches(), 3 * k + 3, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "2R1W's recursion needs w ≥ 2")]
    fn width_one_fails_fast_instead_of_recursing_forever() {
        run(1, &Matrix::from_fn(4, 4, |i, j| (i + j) as i64));
    }

    #[test]
    fn traffic_is_2_reads_1_write_per_element_plus_fringe() {
        // Lemma 4's leading terms: 2 reads + 1 write per element plus
        // O(1/w) fringe traffic, all coalesced.
        let (w, n) = (16usize, 256usize);
        let dev = dev(w);
        let a = GlobalBuffer::filled(1i64, n * n);
        let s = GlobalBuffer::filled(0i64, n * n);
        dev.reset_stats();
        sat_2r1w(&dev, &a, &s, n, n);
        let st = dev.stats();
        let reads = st.reads_per_element(n);
        let writes = st.writes_per_element(n);
        assert!(
            (2.0..2.0 + 6.0 / w as f64).contains(&reads),
            "reads/elt = {reads}"
        );
        assert!(
            (1.0..1.0 + 6.0 / w as f64).contains(&writes),
            "writes/elt = {writes}"
        );
        // Everything is coalesced (single-word accesses count as one-group).
        assert_eq!(st.stride_ops(), 0);
    }

    #[test]
    fn single_block_input() {
        let w = 6;
        let a = Matrix::from_fn(w, w, |i, j| (i * w + j) as i64);
        assert_eq!(run(w, &a), sat_reference(&a).into_vec());
    }
}
