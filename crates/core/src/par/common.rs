//! Shared machinery of the block-structured GPU algorithms.

use std::ops::Range;

use gpu_exec::{BlockCtx, GlobalView, RowPass, SharedTile, TileLayout};

use crate::element::SatElement;

/// Geometry of a `rows × cols` matrix partitioned into `mr × mc` blocks of
/// `w × w` elements (`rows = mr·w`, `cols = mc·w`).
///
/// The paper presents its algorithms for square matrices; every block
/// algorithm in this crate is implemented for the rectangular
/// generalisation (an image is rarely square), and the square case is
/// [`Grid::square`].
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns (the row pitch of the backing buffer).
    pub cols: usize,
    /// Block side = machine width.
    pub w: usize,
    /// Blocks per column (`rows / w`).
    pub mr: usize,
    /// Blocks per row (`cols / w`).
    pub mc: usize,
}

impl Grid {
    /// Geometry for a `rows × cols` matrix and width `w`.
    ///
    /// # Panics
    /// Panics unless both sides are positive multiples of `w` — the block
    /// algorithms' shape; [`crate::compute_sat`] pads arbitrary inputs.
    pub fn new(rows: usize, cols: usize, w: usize) -> Self {
        assert!(
            rows > 0 && rows % w == 0,
            "rows = {rows} must be a positive multiple of w = {w}"
        );
        assert!(
            cols > 0 && cols % w == 0,
            "cols = {cols} must be a positive multiple of w = {w}"
        );
        Grid {
            rows,
            cols,
            w,
            mr: rows / w,
            mc: cols / w,
        }
    }

    /// Geometry for an `n × n` matrix (the paper's setting).
    pub fn square(n: usize, w: usize) -> Self {
        Self::new(n, n, w)
    }

    /// Row-major word address of element `(row, col)`.
    #[inline]
    pub fn addr(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// Total blocks.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.mr * self.mc
    }

    /// Block coordinates of a row-major block id.
    #[inline]
    pub fn block_of(&self, id: usize) -> (usize, usize) {
        (id / self.mc, id % self.mc)
    }

    /// Top-left element of block `(bi, bj)`.
    #[inline]
    pub fn origin(&self, bi: usize, bj: usize) -> (usize, usize) {
        (bi * self.w, bj * self.w)
    }

    /// Number of block anti-diagonals (`mr + mc − 1`).
    pub fn diagonals(&self) -> usize {
        self.mr + self.mc - 1
    }

    /// The block-rows `bi` of anti-diagonal `d`: block `k` of a launch
    /// over it is `(lo + k, d − lo − k)`.
    pub fn diagonal_rows(&self, d: usize) -> Range<usize> {
        d.saturating_sub(self.mc - 1)..d.min(self.mr - 1) + 1
    }

    /// The blocks `(bi, bj)` with `bi + bj = d`, in increasing `bi`.
    pub fn diagonal_blocks(&self, d: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.diagonal_rows(d).map(move |bi| (bi, d - bi))
    }
}

/// Load block `(bi, bj)` of the global matrix into a shared tile, one
/// coalesced row read and one shared row write per tile row
/// ([`SharedTile::load`]).
pub fn load_block<T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    grid: Grid,
    bi: usize,
    bj: usize,
    tile: &mut SharedTile<T>,
) {
    let (r0, c0) = grid.origin(bi, bj);
    tile.load(g, grid.addr(r0, c0), grid.cols, &mut ctx.rec);
}

/// Store a shared tile to block `(bi, bj)` of the global matrix, one
/// shared row read and one coalesced row write per tile row
/// ([`SharedTile::store`]).
pub fn store_block<T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    grid: Grid,
    bi: usize,
    bj: usize,
    tile: &SharedTile<T>,
) {
    let (r0, c0) = grid.origin(bi, bj);
    tile.store(g, grid.addr(r0, c0), grid.cols, &mut ctx.rec);
}

/// Inclusive prefix sums down one `acc.len()`-wide column chunk, continuing
/// the running sums in `acc`: for each `level`, read the words at
/// `base + level·pitch`, add them into `acc` and write `acc` back. Every
/// access is coalesced. 2R1W's fringe prefixes (plain and staircase) and
/// 2R2W's column pass are this loop.
pub fn prefix_down<T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    base: usize,
    pitch: usize,
    levels: Range<usize>,
    acc: &mut [T],
) {
    let mut row = vec![T::ZERO; acc.len()];
    for level in levels {
        let at = base + level * pitch;
        g.read_contig(at, &mut row, &mut ctx.rec);
        for (s, &v) in acc.iter_mut().zip(&row) {
            *s = s.add(v);
        }
        g.write_contig(at, acc, &mut ctx.rec);
    }
}

/// Compute the SAT of a `w × w` tile in shared memory, in place
/// ([`SharedTile::scan`]): column-wise prefix sums by `w − 1` row steps,
/// then row-wise prefix sums by `w − 1` column steps, each step recorded as
/// two reads and a write of a full warp. With [`TileLayout::Diagonal`]
/// every access is bank-conflict-free (Lemma 1); with
/// [`TileLayout::RowMajor`] each access of the second pass still records a
/// `w`-way conflict (`w` stages) — the ablation the diagonal arrangement
/// exists for.
pub fn tile_sat<T: SatElement>(ctx: &mut BlockCtx<'_>, tile: &mut SharedTile<T>) {
    tile.scan(T::add, &mut ctx.rec);
}

/// [`load_block`] then [`tile_sat`] in one pass over the tile
/// ([`SharedTile::load_scan`]), recorded as those two steps: the column
/// pass runs as each row lands, and each row's prefix when
/// [`RowPass::store_with`] reads the row out.
pub fn load_scan_block<'t, T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    grid: Grid,
    bi: usize,
    bj: usize,
    tile: &'t mut SharedTile<T>,
) -> RowPass<'t, T, impl Fn(T, T) -> T> {
    let (r0, c0) = grid.origin(bi, bj);
    tile.load_scan(g, grid.addr(r0, c0), grid.cols, T::add, &mut ctx.rec)
}

/// Allocate the tile layout the algorithms use by default (diagonal, per
/// Lemma 1). Kept in one place so ablations can switch it.
pub fn default_tile<T: SatElement>(ctx: &mut BlockCtx<'_>) -> SharedTile<T> {
    ctx.shared_tile(TileLayout::Diagonal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
    use hmm_model::MachineConfig;

    use crate::matrix::Matrix;
    use crate::seq::sat_reference;

    #[test]
    fn grid_geometry_square() {
        let g = Grid::square(12, 4);
        assert_eq!((g.mr, g.mc), (3, 3));
        assert_eq!(g.addr(2, 5), 29);
        assert_eq!(g.block_of(5), (1, 2));
        assert_eq!(g.origin(1, 2), (4, 8));
        assert_eq!(g.diagonals(), 5);
        let d2: Vec<_> = g.diagonal_blocks(2).collect();
        assert_eq!(d2, vec![(0, 2), (1, 1), (2, 0)]);
        let d4: Vec<_> = g.diagonal_blocks(4).collect();
        assert_eq!(d4, vec![(2, 2)]);
    }

    #[test]
    fn grid_geometry_rect() {
        // 8 × 20 matrix, w = 4: 2 × 5 blocks.
        let g = Grid::new(8, 20, 4);
        assert_eq!((g.mr, g.mc), (2, 5));
        assert_eq!(g.blocks(), 10);
        assert_eq!(g.addr(1, 3), 23);
        assert_eq!(g.block_of(7), (1, 2));
        assert_eq!(g.diagonals(), 6);
        let d0: Vec<_> = g.diagonal_blocks(0).collect();
        assert_eq!(d0, vec![(0, 0)]);
        let d3: Vec<_> = g.diagonal_blocks(3).collect();
        assert_eq!(d3, vec![(0, 3), (1, 2)]);
        let d5: Vec<_> = g.diagonal_blocks(5).collect();
        assert_eq!(d5, vec![(1, 4)]);
        // Tall matrix.
        let t = Grid::new(20, 8, 4);
        assert_eq!((t.mr, t.mc), (5, 2));
        let d3: Vec<_> = t.diagonal_blocks(3).collect();
        assert_eq!(d3, vec![(2, 1), (3, 0)]);
    }

    #[test]
    #[should_panic(expected = "multiple of w")]
    fn grid_rejects_non_multiple() {
        Grid::new(10, 12, 4);
    }

    #[test]
    fn tile_sat_matches_reference_both_layouts() {
        // Odd widths and w = 1 exercise the wrap lane of the diagonal's
        // in-place column pass.
        for w in [1, 2, 3, 5, 8, 32, 33] {
            let cfg = MachineConfig::with_width(w);
            let dev = Device::new(DeviceOptions::new(cfg).workers(0));
            let a = Matrix::from_fn(w, w, |i, j| (i * 3 + j * 5) as i64 % 11 - 5);
            let want = sat_reference(&a);
            for layout in [TileLayout::Diagonal, TileLayout::RowMajor] {
                let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
                let out = GlobalBuffer::filled(0i64, w * w);
                dev.launch(1, |ctx| {
                    let gin = ctx.view(&buf);
                    let gout = ctx.view(&out);
                    let grid = Grid::square(w, w);
                    let mut tile: SharedTile<i64> = ctx.shared_tile(layout);
                    load_block(ctx, &gin, grid, 0, 0, &mut tile);
                    tile_sat(ctx, &mut tile);
                    store_block(ctx, &gout, grid, 0, 0, &tile);
                });
                assert_eq!(out.into_vec(), want.as_slice(), "w = {w}, {layout:?}");
            }
        }
    }

    #[test]
    fn diagonal_layout_has_fewer_shared_stages() {
        let w = 8;
        let cfg = MachineConfig::with_width(w);
        let mut stages = Vec::new();
        for layout in [TileLayout::Diagonal, TileLayout::RowMajor] {
            let dev = Device::new(DeviceOptions::new(cfg).workers(0));
            let buf = GlobalBuffer::filled(1i64, w * w);
            dev.launch(1, |ctx| {
                let g = ctx.view(&buf);
                let grid = Grid::square(w, w);
                let mut tile: SharedTile<i64> = ctx.shared_tile(layout);
                load_block(ctx, &g, grid, 0, 0, &mut tile);
                tile_sat(ctx, &mut tile);
            });
            stages.push(dev.stats().shared_stages);
        }
        // Row-major pays w stages per column operation in the second pass.
        assert!(
            stages[1] > stages[0] * 2,
            "diagonal {} vs row-major {}",
            stages[0],
            stages[1]
        );
    }
}
