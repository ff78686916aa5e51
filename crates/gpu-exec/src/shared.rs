//! Per-block shared memory tiles.
//!
//! Each block of a launch may allocate `w × w` tiles of *shared memory*
//! (the DMM of its streaming multiprocessor). Tiles are zero-initialised at
//! allocation and dropped when the block finishes — they cannot outlive a
//! launch, which *is* the asynchronous HMM's reset-at-barrier semantics.
//!
//! A tile carries its bank [`TileLayout`], which sets what its warps cost:
//!
//! * [`TileLayout::RowMajor`] — element `(i, j)` in bank `j`; a column
//!   access is a `w`-way bank conflict (`w` DMM pipeline stages);
//! * [`TileLayout::Diagonal`] — element `(i, j)` in bank `(i + j) mod w`
//!   ([`hmm_model::DiagonalLayout`]); both row and column access are
//!   conflict-free (Lemma 1 / Figure 6 of the paper).
//!
//! The layout is a recorded cost, not a host word order: the tile keeps
//! its words in logical row-major order under either layout, so a row is
//! one slice and a column one stride of `w`. The warp-shaped accessors
//! ([`SharedTile::read_row`], [`SharedTile::write_row`],
//! [`SharedTile::read_col`], [`SharedTile::write_col`]) report the layout's
//! DMM stage counts to the block's [`TxnRecorder`], so executions expose
//! shared-memory bank conflicts the same way they expose global-memory
//! coalescing.
//!
//! The tile-level primitives do a whole step of a block at once and move
//! each word once: [`SharedTile::load`] and [`SharedTile::store`] copy a
//! `w × w` block between a [`GlobalView`] and the tile, one copy per row,
//! and [`SharedTile::scan`] computes the tile SAT in place.
//! [`SharedTile::load_scan`] fuses the load with the scan and leaves each
//! row's last pass to the store ([`RowPass::store_with`]). Each records
//! exactly the warps of the accessor loop it replaces, in the same order,
//! when the recorder keeps a trace; a recorder that only counts adds a
//! step's shared warps in one update per counter.

use hmm_model::AccessKind;

use crate::buffer::GlobalView;
use crate::recorder::TxnRecorder;
use crate::trace::AddrPattern;

/// Bank arrangement of a shared-memory tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileLayout {
    /// Row-major: column access conflicts on a single bank.
    RowMajor,
    /// Diagonal arrangement: row *and* column access conflict-free.
    Diagonal,
}

/// A `w × w` shared-memory tile owned by one block.
#[derive(Debug)]
pub struct SharedTile<T> {
    /// The words in logical row-major order, whatever the layout.
    data: Vec<T>,
    w: usize,
    layout: TileLayout,
    /// Allocation index within the owning block, carried into the trace's
    /// address channel so analyzers can track per-tile state.
    id: u32,
}

impl<T: Copy + Default> SharedTile<T> {
    pub(crate) fn new(w: usize, layout: TileLayout, id: u32) -> Self {
        SharedTile {
            data: vec![T::default(); w * w],
            w,
            layout,
            id,
        }
    }

    /// Tile side length `w`.
    pub fn width(&self) -> usize {
        self.w
    }

    /// The tile's bank arrangement.
    pub fn layout(&self) -> TileLayout {
        self.layout
    }

    /// Allocation index of this tile within its block (0-based).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Register-style scalar read (not a warp access; unrecorded).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.w && j < self.w, "tile element out of range");
        self.data[i * self.w + j]
    }

    /// Register-style scalar write (not a warp access; unrecorded).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.w && j < self.w, "tile element out of range");
        self.data[i * self.w + j] = v;
    }

    /// DMM pipeline stages of one full-warp row access: rows touch all `w`
    /// banks exactly once in both layouts.
    fn row_stages(&self) -> u64 {
        1
    }

    /// DMM pipeline stages of one full-warp column access under this layout.
    fn col_stages(&self) -> u64 {
        match self.layout {
            TileLayout::RowMajor => self.w as u64, // single-bank conflict
            TileLayout::Diagonal => 1,             // Lemma 1
        }
    }

    /// Record one full-warp access of logical row `index`.
    #[inline]
    fn record_row(&self, kind: AccessKind, index: usize, rec: &mut TxnRecorder) {
        let tile = self.id;
        rec.record_shared_at(kind, self.w as u64, self.row_stages(), || {
            AddrPattern::TileRow {
                tile,
                index: index as u32,
            }
        });
    }

    /// Record one full-warp access of logical column `index`.
    #[inline]
    fn record_col(&self, kind: AccessKind, index: usize, rec: &mut TxnRecorder) {
        let tile = self.id;
        rec.record_shared_at(kind, self.w as u64, self.col_stages(), || {
            AddrPattern::TileCol {
                tile,
                index: index as u32,
            }
        });
    }

    /// Count all `w` row warps of a step of `kind` in one update, on a
    /// recorder that does not log (a logging one recorded them one by one).
    fn count_rows(&self, kind: AccessKind, rec: &mut TxnRecorder) {
        if !rec.logs() {
            let (w, lanes) = (self.w as u64, (self.w * self.w) as u64);
            let (reads, writes) = match kind {
                AccessKind::Read => (lanes, 0),
                AccessKind::Write => (0, lanes),
            };
            rec.count_shared(reads, writes, w * self.row_stages());
        }
    }

    /// The tile-level load: logical row `i` of the tile is read from the
    /// `w` global words at `base + i·pitch`. Per row it records one
    /// contiguous global read and one shared row write, in that order —
    /// the warps of a [`GlobalView::read_contig`] then [`Self::write_row`]
    /// loop — and copies the words straight into the row.
    pub fn load(
        &mut self,
        g: &GlobalView<'_, T>,
        base: usize,
        pitch: usize,
        rec: &mut TxnRecorder,
    ) {
        self.load_rows(g, base, pitch, rec, |_, _| {});
    }

    /// [`Self::load`], calling `landed(above, row)` on each row as it lands
    /// (`above` is the row before it, empty for row 0).
    fn load_rows(
        &mut self,
        g: &GlobalView<'_, T>,
        base: usize,
        pitch: usize,
        rec: &mut TxnRecorder,
        mut landed: impl FnMut(&[T], &mut [T]),
    ) {
        let (w, logs) = (self.w, rec.logs());
        for i in 0..w {
            let (above, rest) = self.data.split_at_mut(i * w);
            let row = &mut rest[..w];
            g.read_contig(base + i * pitch, row, rec);
            landed(&above[above.len().saturating_sub(w)..], row);
            if logs {
                self.record_row(AccessKind::Write, i, rec);
            }
        }
        self.count_rows(AccessKind::Write, rec);
    }

    /// The tile-level store, the inverse of [`Self::load`]: per row one
    /// shared row read, then one contiguous global write of the row to
    /// `base + i·pitch` — the warps of a [`Self::read_row`] then
    /// [`GlobalView::write_contig`] loop.
    pub fn store(&self, g: &GlobalView<'_, T>, base: usize, pitch: usize, rec: &mut TxnRecorder) {
        let logs = rec.logs();
        for (i, row) in self.data.chunks_exact(self.w).enumerate() {
            if logs {
                self.record_row(AccessKind::Read, i, rec);
            }
            g.write_contig(base + i * pitch, row, rec);
        }
        self.count_rows(AccessKind::Read, rec);
    }

    /// Record the warps of the tile SAT: `w − 1` row steps, then `w − 1`
    /// column steps, each the previous line read, the current line read and
    /// the current line written back. A logging recorder gets every warp in
    /// that order; a counting one gets the `6(w − 1)` warps in one update.
    fn record_scan(&self, rec: &mut TxnRecorder) {
        let w = self.w;
        if !rec.logs() {
            let steps = w.saturating_sub(1) as u64;
            let lanes = steps * w as u64;
            rec.count_shared(
                4 * lanes,
                2 * lanes,
                3 * steps * (self.row_stages() + self.col_stages()),
            );
            return;
        }
        for i in 1..w {
            self.record_row(AccessKind::Read, i - 1, rec);
            self.record_row(AccessKind::Read, i, rec);
            self.record_row(AccessKind::Write, i, rec);
        }
        for j in 1..w {
            self.record_col(AccessKind::Read, j - 1, rec);
            self.record_col(AccessKind::Read, j, rec);
            self.record_col(AccessKind::Write, j, rec);
        }
    }

    /// The tile SAT (Figure 6), in place: column-wise prefix sums by row
    /// steps (`row i = add(row i, row i − 1)` for `i = 1 … w−1`), then
    /// row-wise prefix sums by column steps (`column j = add(column j,
    /// column j − 1)`). Each step records the warps of the read-read-write
    /// loop it replaces (the previous line, the current line, the current
    /// line written back), so a [`TileLayout::RowMajor`] column step still
    /// pays `w` stages per access. The words never leave the tile; a column
    /// step is computed as one step of every row's prefix, with the same
    /// operands.
    pub fn scan(&mut self, add: impl Fn(T, T) -> T, rec: &mut TxnRecorder) {
        self.record_scan(rec);
        let w = self.w;
        for i in 1..w {
            let (above, rest) = self.data.split_at_mut(i * w);
            add_rows(&above[(i - 1) * w..], &mut rest[..w], &add);
        }
        for row in self.data.chunks_exact_mut(w) {
            prefix(row, &add);
        }
    }

    /// [`Self::load`] then [`Self::scan`], recorded exactly as those two
    /// steps, in one pass over the tile: each row's column step runs as the
    /// row lands, and each row's prefix is left to [`RowPass::store_with`],
    /// which finishes the row just before it is read out.
    pub fn load_scan<A: Fn(T, T) -> T>(
        &mut self,
        g: &GlobalView<'_, T>,
        base: usize,
        pitch: usize,
        add: A,
        rec: &mut TxnRecorder,
    ) -> RowPass<'_, T, A> {
        self.load_rows(g, base, pitch, rec, |above, row| {
            if !above.is_empty() {
                add_rows(above, row, &add);
            }
        });
        self.record_scan(rec);
        RowPass { tile: self, add }
    }

    /// Warp read of logical row `i` into `out` (length `w`).
    pub fn read_row(&self, i: usize, out: &mut [T], rec: &mut TxnRecorder) {
        assert_eq!(out.len(), self.w, "row access is a full warp");
        self.record_row(AccessKind::Read, i, rec);
        out.copy_from_slice(&self.data[i * self.w..(i + 1) * self.w]);
    }

    /// Warp write of `vals` (length `w`) to logical row `i`.
    pub fn write_row(&mut self, i: usize, vals: &[T], rec: &mut TxnRecorder) {
        assert_eq!(vals.len(), self.w, "row access is a full warp");
        self.record_row(AccessKind::Write, i, rec);
        self.data[i * self.w..(i + 1) * self.w].copy_from_slice(vals);
    }

    /// Warp read of logical column `j` into `out` (length `w`).
    pub fn read_col(&self, j: usize, out: &mut [T], rec: &mut TxnRecorder) {
        assert_eq!(out.len(), self.w, "column access is a full warp");
        self.record_col(AccessKind::Read, j, rec);
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.w)) {
            *o = row[j];
        }
    }

    /// Warp write of `vals` (length `w`) to logical column `j`.
    pub fn write_col(&mut self, j: usize, vals: &[T], rec: &mut TxnRecorder) {
        assert_eq!(vals.len(), self.w, "column access is a full warp");
        self.record_col(AccessKind::Write, j, rec);
        for (&v, row) in vals.iter().zip(self.data.chunks_exact_mut(self.w)) {
            row[j] = v;
        }
    }
}

/// A tile whose scan waits for its rows' prefixes (see
/// [`SharedTile::load_scan`]); [`Self::store_with`] finishes and stores it.
pub struct RowPass<'t, T, A> {
    tile: &'t mut SharedTile<T>,
    add: A,
}

impl<T: Copy + Default, A: Fn(T, T) -> T> RowPass<'_, T, A> {
    /// [`SharedTile::store`] of the scanned tile through `f`: per row,
    /// finish the row's prefix, record one shared row read, let `f(i, row)`
    /// rewrite the row in registers, then write it with one contiguous
    /// global write to `base + i·pitch`. The tile's words are consumed.
    pub fn store_with(
        self,
        g: &GlobalView<'_, T>,
        base: usize,
        pitch: usize,
        rec: &mut TxnRecorder,
        mut f: impl FnMut(usize, &mut [T]),
    ) {
        let tile = self.tile;
        let (w, logs) = (tile.w, rec.logs());
        for i in 0..w {
            if logs {
                tile.record_row(AccessKind::Read, i, rec);
            }
            let row = &mut tile.data[i * w..(i + 1) * w];
            prefix(row, &self.add);
            f(i, row);
            g.write_contig(base + i * pitch, row, rec);
        }
        tile.count_rows(AccessKind::Read, rec);
    }
}

/// One column step of every lane: `row[t] = add(row[t], above[t])`.
#[inline]
fn add_rows<T: Copy>(above: &[T], row: &mut [T], add: impl Fn(T, T) -> T) {
    for (c, &p) in row.iter_mut().zip(above) {
        *c = add(*c, p);
    }
}

/// The row's inclusive prefix: `row[j] = add(row[j], row[j − 1])` for
/// `j = 1 … w−1`.
#[inline]
fn prefix<T: Copy>(row: &mut [T], add: impl Fn(T, T) -> T) {
    if let Some((first, rest)) = row.split_first_mut() {
        let mut acc = *first;
        for v in rest {
            acc = add(*v, acc);
            *v = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> TxnRecorder {
        TxnRecorder::new(4, true)
    }

    #[test]
    fn tiles_start_zeroed() {
        let t: SharedTile<f64> = SharedTile::new(4, TileLayout::Diagonal, 0);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn logical_indexing_is_layout_independent() {
        let word = |i: usize, j: usize| (100 * i + j) as u32 + 1;
        for w in [1, 2, 3, 4, 5, 8, 32, 33] {
            for layout in [TileLayout::RowMajor, TileLayout::Diagonal] {
                let col_stages = match layout {
                    TileLayout::RowMajor => w as u64,
                    TileLayout::Diagonal => 1,
                };
                let mut t: SharedTile<u32> = SharedTile::new(w, layout, 0);
                let mut buf = vec![0u32; w];
                // Warp writes land in logical row-major order, whatever the
                // layout; the layout sets only the recorded stages.
                for i in 0..w {
                    let vals: Vec<u32> = (0..w).map(|j| word(i, j)).collect();
                    let mut r = rec();
                    t.write_row(i, &vals, &mut r);
                    assert_eq!(r.counters().shared_stages, 1, "{layout:?} w={w}");
                }
                for i in 0..w {
                    for j in 0..w {
                        assert_eq!(t.data[i * w + j], word(i, j), "{layout:?} w={w}");
                        assert_eq!(t.get(i, j), word(i, j));
                    }
                }
                for j in 0..w {
                    let vals: Vec<u32> = (0..w).map(|i| !word(i, j)).collect();
                    let mut r = rec();
                    t.write_col(j, &vals, &mut r);
                    assert_eq!(r.counters().shared_stages, col_stages, "{layout:?} w={w}");
                    for i in 0..w {
                        assert_eq!(t.get(i, j), !word(i, j), "{layout:?} w={w} ({i}, {j})");
                    }
                }
                // Warp reads see what scalar writes put there.
                for i in 0..w {
                    for j in 0..w {
                        t.set(i, j, word(i, j));
                    }
                }
                for i in 0..w {
                    let mut r = rec();
                    t.read_row(i, &mut buf, &mut r);
                    assert_eq!(r.counters().shared_stages, 1);
                    let want: Vec<u32> = (0..w).map(|j| word(i, j)).collect();
                    assert_eq!(buf, want, "{layout:?} w={w} row {i}");
                }
                for j in 0..w {
                    let mut r = rec();
                    t.read_col(j, &mut buf, &mut r);
                    assert_eq!(r.counters().shared_stages, col_stages);
                    let want: Vec<u32> = (0..w).map(|i| word(i, j)).collect();
                    assert_eq!(buf, want, "{layout:?} w={w} column {j}");
                }
            }
        }
    }

    #[test]
    fn diagonal_column_access_is_conflict_free() {
        let mut t: SharedTile<u32> = SharedTile::new(4, TileLayout::Diagonal, 0);
        let mut r = rec();
        t.write_col(1, &[1, 2, 3, 4], &mut r);
        let mut out = [0u32; 4];
        t.read_col(1, &mut out, &mut r);
        assert_eq!(out, [1, 2, 3, 4]);
        // write + read = 2 warp accesses, 1 stage each.
        assert_eq!(r.counters().shared_stages, 2);
        assert_eq!(r.counters().shared_reads, 4);
        assert_eq!(r.counters().shared_writes, 4);
    }

    #[test]
    fn row_major_column_access_pays_w_stages() {
        let mut t: SharedTile<u32> = SharedTile::new(4, TileLayout::RowMajor, 0);
        let mut r = rec();
        t.write_col(1, &[1, 2, 3, 4], &mut r);
        assert_eq!(r.counters().shared_stages, 4);
        let mut out = [0u32; 4];
        t.read_row(0, &mut out, &mut r);
        assert_eq!(r.counters().shared_stages, 4 + 1);
    }

    #[test]
    #[should_panic(expected = "full warp")]
    fn partial_row_access_rejected() {
        let t: SharedTile<u32> = SharedTile::new(4, TileLayout::Diagonal, 0);
        let mut out = [0u32; 2];
        t.read_row(0, &mut out, &mut rec());
    }
}
