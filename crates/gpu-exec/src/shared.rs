//! Per-block shared memory tiles.
//!
//! Each block of a launch may allocate `w × w` tiles of *shared memory*
//! (the DMM of its streaming multiprocessor). Tiles are zero-initialised at
//! allocation and dropped when the block finishes — they cannot outlive a
//! launch, which *is* the asynchronous HMM's reset-at-barrier semantics.
//!
//! A tile carries its bank [`TileLayout`]:
//!
//! * [`TileLayout::RowMajor`] — element `(i, j)` at offset `i·w + j`; a
//!   column access is a `w`-way bank conflict (`w` DMM pipeline stages);
//! * [`TileLayout::Diagonal`] — element `(i, j)` at offset
//!   `i·w + (i + j) mod w`; both row and column access are conflict-free
//!   (Lemma 1 / Figure 6 of the paper).
//!
//! The warp-shaped accessors ([`SharedTile::read_row`],
//! [`SharedTile::write_row`], [`SharedTile::read_col`],
//! [`SharedTile::write_col`]) report their DMM stage counts to the block's
//! [`TxnRecorder`], so executions expose shared-memory bank conflicts the
//! same way they expose global-memory coalescing. They move a warp's words
//! without computing any address per word: a diagonal row is the physical
//! row rotated by `i`, copied as two slices, and a column walks the physical
//! rows with a bank offset stepped by one (mod `w`). The scalar
//! [`SharedTile::get`] and [`SharedTile::set`] keep the definitional offset
//! ([`DiagonalLayout::addr`]), which the tests hold the accessors to.
//!
//! The tile-level primitives do a whole step of a block at once and move
//! each word once: [`SharedTile::load`] and [`SharedTile::store`] copy a
//! `w × w` block between a [`GlobalView`] and the tile's rotated half-rows,
//! and [`SharedTile::scan`] computes the tile SAT in place. Each records
//! exactly the warps of the accessor loop it replaces, in the same order.

use hmm_model::{AccessKind, DiagonalLayout};

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

impl TileLayout {
    /// Logical row `i` starts `rotation(i)` words into physical row `i`:
    /// the diagonal arrangement rotates row `i` by `i`, row-major by 0.
    fn rotation(self, i: usize) -> usize {
        match self {
            TileLayout::RowMajor => 0,
            TileLayout::Diagonal => i,
        }
    }

    /// Physical offset of a logical column in the next physical row of a
    /// `w`-wide tile, given its offset `k` in this one: `k + 1 mod w` on
    /// the diagonal, `k` row-major. A column walk needs no division.
    #[inline]
    fn next_bank(self, k: usize, w: usize) -> usize {
        match self {
            TileLayout::RowMajor => k,
            TileLayout::Diagonal if k + 1 == w => 0,
            TileLayout::Diagonal => k + 1,
        }
    }
}

/// A `w × w` shared-memory tile owned by one block.
#[derive(Debug)]
pub struct SharedTile<T> {
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

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.w && j < self.w, "tile element out of range");
        match self.layout {
            TileLayout::RowMajor => i * self.w + j,
            TileLayout::Diagonal => DiagonalLayout::new(self.w).addr(i, j),
        }
    }

    /// Register-style scalar read (not a warp access; unrecorded).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.offset(i, j)]
    }

    /// Register-style scalar write (not a warp access; unrecorded).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let o = self.offset(i, j);
        self.data[o] = v;
    }

    /// DMM pipeline stages of one full-warp row access under this layout.
    fn row_stages(&self) -> u64 {
        1 // rows touch all w banks exactly once in both layouts
    }

    /// DMM pipeline stages of one full-warp column access under this layout.
    fn col_stages(&self) -> u64 {
        match self.layout {
            TileLayout::RowMajor => self.w as u64, // single-bank conflict
            TileLayout::Diagonal => 1,             // Lemma 1
        }
    }

    /// The tile-level load: logical row `i` of the tile is read from the
    /// `w` global words at `base + i·pitch`. Per row it records one
    /// contiguous global read and one shared row write, in that order —
    /// the warps of a [`GlobalView::read_contig`] then [`Self::write_row`]
    /// loop — and copies the words straight into the row's two rotated
    /// halves.
    pub fn load(
        &mut self,
        g: &GlobalView<'_, T>,
        base: usize,
        pitch: usize,
        rec: &mut TxnRecorder,
    ) {
        let (w, id, layout, stages) = (self.w, self.id, self.layout, self.row_stages());
        for (i, row) in self.data.chunks_exact_mut(w).enumerate() {
            // Logical columns [0, w − r) sit at physical [r, w).
            let (wrapped, lead) = row.split_at_mut(layout.rotation(i));
            g.read_contig_split(base + i * pitch, lead, wrapped, rec);
            rec.record_shared_at(AccessKind::Write, w as u64, stages, || {
                AddrPattern::TileRow {
                    tile: id,
                    index: i as u32,
                }
            });
        }
    }

    /// The tile-level store, the inverse of [`Self::load`]: per row one
    /// shared row read, then one contiguous global write of the row's two
    /// rotated halves to `base + i·pitch` — the warps of a
    /// [`Self::read_row`] then [`GlobalView::write_contig`] loop.
    pub fn store(&self, g: &GlobalView<'_, T>, base: usize, pitch: usize, rec: &mut TxnRecorder) {
        let (w, stages) = (self.w, self.row_stages());
        for (i, row) in self.data.chunks_exact(w).enumerate() {
            rec.record_shared_at(AccessKind::Read, w as u64, stages, || {
                AddrPattern::TileRow {
                    tile: self.id,
                    index: i as u32,
                }
            });
            let (wrapped, lead) = row.split_at(self.layout.rotation(i));
            g.write_contig_split(base + i * pitch, lead, wrapped, rec);
        }
    }

    /// The tile SAT (Figure 6), in place: column-wise prefix sums by row
    /// steps (`row i = add(row i, row i − 1)` for `i = 1 … w−1`), then
    /// row-wise prefix sums by column steps (`column j = add(column j,
    /// column j − 1)`). Each step records the warps of the read-read-write
    /// loop it replaces (the previous line, the current line, the current
    /// line written back), so a [`TileLayout::RowMajor`] column step still
    /// pays `w` stages per access. The words never leave the tile.
    pub fn scan(&mut self, add: impl Fn(T, T) -> T, rec: &mut TxnRecorder) {
        let (w, id, layout) = (self.w, self.id, self.layout);
        let (row_stages, col_stages) = (self.row_stages(), self.col_stages());
        let row = |index: usize| {
            move || AddrPattern::TileRow {
                tile: id,
                index: index as u32,
            }
        };
        let col = |index: usize| {
            move || AddrPattern::TileCol {
                tile: id,
                index: index as u32,
            }
        };
        for i in 1..w {
            rec.record_shared_at(AccessKind::Read, w as u64, row_stages, row(i - 1));
            rec.record_shared_at(AccessKind::Read, w as u64, row_stages, row(i));
            rec.record_shared_at(AccessKind::Write, w as u64, row_stages, row(i));
            // Logical column j of row i sits `shift` banks right of its
            // place in row i − 1 (one on the diagonal, none row-major);
            // the second loop is the lane that wraps.
            let shift = layout.rotation(i) - layout.rotation(i - 1);
            let (above, below) = self.data.split_at_mut(i * w);
            let (prev, cur) = (&above[(i - 1) * w..], &mut below[..w]);
            for (c, &p) in cur[shift..].iter_mut().zip(&prev[..w - shift]) {
                *c = add(*c, p);
            }
            for (c, &p) in cur[..shift].iter_mut().zip(&prev[w - shift..]) {
                *c = add(*c, p);
            }
        }
        for j in 1..w {
            rec.record_shared_at(AccessKind::Read, w as u64, col_stages, col(j - 1));
            rec.record_shared_at(AccessKind::Read, w as u64, col_stages, col(j));
            rec.record_shared_at(AccessKind::Write, w as u64, col_stages, col(j));
            // One step of every row's prefix, the rows' chains independent.
            // Logical column j sits at physical word `i·w + j` row-major;
            // on the diagonal at `i·(w + 1) + j` in rows i < w − j, in bank
            // 0 of row w − j (column j − 1 wrapped to bank w − 1), and one
            // row's width earlier in the rows below.
            let d = &mut self.data;
            match layout {
                TileLayout::RowMajor => {
                    for f in (j..w * w).step_by(w) {
                        d[f] = add(d[f], d[f - 1]);
                    }
                }
                TileLayout::Diagonal => {
                    for f in (j..(w - j) * w).step_by(w + 1) {
                        d[f] = add(d[f], d[f - 1]);
                    }
                    let f = (w - j) * w;
                    d[f] = add(d[f], d[f + w - 1]);
                    for f in (f + w + 1..w * w).step_by(w + 1) {
                        d[f] = add(d[f], d[f - 1]);
                    }
                }
            }
        }
    }

    /// Warp read of logical row `i` into `out` (length `w`).
    pub fn read_row(&self, i: usize, out: &mut [T], rec: &mut TxnRecorder) {
        assert_eq!(out.len(), self.w, "row access is a full warp");
        rec.record_shared_at(AccessKind::Read, self.w as u64, self.row_stages(), || {
            AddrPattern::TileRow {
                tile: self.id,
                index: i as u32,
            }
        });
        let (w, r) = (self.w, self.layout.rotation(i));
        let (head, tail) = self.data[i * w..(i + 1) * w].split_at(r);
        out[..w - r].copy_from_slice(tail);
        out[w - r..].copy_from_slice(head);
    }

    /// Warp write of `vals` (length `w`) to logical row `i`.
    pub fn write_row(&mut self, i: usize, vals: &[T], rec: &mut TxnRecorder) {
        assert_eq!(vals.len(), self.w, "row access is a full warp");
        let (id, stages) = (self.id, self.row_stages());
        rec.record_shared_at(AccessKind::Write, self.w as u64, stages, || {
            AddrPattern::TileRow {
                tile: id,
                index: i as u32,
            }
        });
        let (w, r) = (self.w, self.layout.rotation(i));
        let (head, tail) = self.data[i * w..(i + 1) * w].split_at_mut(r);
        tail.copy_from_slice(&vals[..w - r]);
        head.copy_from_slice(&vals[w - r..]);
    }

    /// Warp read of logical column `j` into `out` (length `w`).
    pub fn read_col(&self, j: usize, out: &mut [T], rec: &mut TxnRecorder) {
        assert_eq!(out.len(), self.w, "column access is a full warp");
        rec.record_shared_at(AccessKind::Read, self.w as u64, self.col_stages(), || {
            AddrPattern::TileCol {
                tile: self.id,
                index: j as u32,
            }
        });
        let mut k = j;
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.w)) {
            *o = row[k];
            k = self.layout.next_bank(k, self.w);
        }
    }

    /// Warp write of `vals` (length `w`) to logical column `j`.
    pub fn write_col(&mut self, j: usize, vals: &[T], rec: &mut TxnRecorder) {
        assert_eq!(vals.len(), self.w, "column access is a full warp");
        let (id, stages) = (self.id, self.col_stages());
        rec.record_shared_at(AccessKind::Write, self.w as u64, stages, || {
            AddrPattern::TileCol {
                tile: id,
                index: j as u32,
            }
        });
        let (w, layout) = (self.w, self.layout);
        let mut k = j;
        for (&v, row) in vals.iter().zip(self.data.chunks_exact_mut(w)) {
            row[k] = v;
            k = layout.next_bank(k, w);
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
                // Warp writes land where the definitional offset says.
                for i in 0..w {
                    let vals: Vec<u32> = (0..w).map(|j| word(i, j)).collect();
                    let mut r = rec();
                    t.write_row(i, &vals, &mut r);
                    assert_eq!(r.counters().shared_stages, 1, "{layout:?} w={w}");
                }
                for i in 0..w {
                    for j in 0..w {
                        assert_eq!(t.data[t.offset(i, j)], word(i, j), "{layout:?} w={w}");
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
