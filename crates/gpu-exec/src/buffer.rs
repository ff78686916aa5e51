//! Global memory buffers shared by all blocks of a launch.
//!
//! A [`GlobalBuffer`] models the UMM's global memory: a flat array of words
//! that every block of every launch may access. Rust cannot prove at compile
//! time that the blocks of one launch touch disjoint words — that discipline
//! is the *algorithm's* contract on the asynchronous HMM — so the buffer uses
//! interior mutability with a documented contract, plus an optional per-word
//! **race detector** ([`GlobalBuffer::from_vec_checked`]) that enforces the
//! contract dynamically:
//!
//! * two different blocks writing the same word in one launch ⇒ panic;
//! * a block reading a word another block wrote in the same launch ⇒ panic
//!   (inter-block communication requires a barrier, i.e. a new launch).
//!
//! The detector is epoch-based: each launch gets a fresh epoch, so the table
//! never needs clearing and cross-launch reuse is free.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use hmm_model::AccessKind;

use crate::fault::corrupt_value;
use crate::recorder::TxnRecorder;

/// A word-addressed global memory region.
///
/// # Access contract
///
/// Between launches the owner has exclusive access (`&mut self` methods).
/// During a launch, blocks access the buffer through [`GlobalView`]s under
/// the asynchronous-HMM contract: writes of distinct blocks are disjoint,
/// and no block reads a word written by another block of the same launch.
///
/// A buffer carries no fault state. A failed launch (see
/// [`Device::fault_epoch`](crate::Device::fault_epoch)) leaves whatever its
/// surviving blocks wrote, so a caller that retries starts from a freshly
/// filled buffer rather than reusing this one.
pub struct GlobalBuffer<T> {
    cells: Box<[UnsafeCell<T>]>,
    race: Option<RaceTable>,
    id: u64,
}

/// Process-wide buffer identity source: addresses in the recorded
/// [`crate::AddrPattern`] channel are per-buffer offsets, so analyzers need
/// the buffer's identity to tell two buffers' word 0 apart.
static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh process-unique identity from the buffer-id sequence (shared
/// with [`crate::HandoffFlags`], whose flag sets live in the same id space).
pub(crate) fn next_buffer_id() -> u64 {
    NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)
}

// SAFETY: concurrent access is governed by the launch contract documented
// above; the race detector can verify it dynamically. `T: Send + Sync` is
// required so values may be read and written from worker threads.
unsafe impl<T: Send + Sync> Sync for GlobalBuffer<T> {}
unsafe impl<T: Send> Send for GlobalBuffer<T> {}

impl<T: Copy> GlobalBuffer<T> {
    /// A buffer initialised from `data`, without race checking.
    pub fn from_vec(data: Vec<T>) -> Self {
        GlobalBuffer {
            cells: data.into_iter().map(UnsafeCell::new).collect(),
            race: None,
            id: next_buffer_id(),
        }
    }

    /// A buffer initialised from `data` with the per-word race detector
    /// enabled (costs 8 bytes per word; intended for tests).
    pub fn from_vec_checked(data: Vec<T>) -> Self {
        let len = data.len();
        let mut buf = Self::from_vec(data);
        buf.race = Some(RaceTable::new(len));
        buf
    }

    /// A buffer of `len` copies of `value`.
    pub fn filled(value: T, len: usize) -> Self {
        Self::from_vec(vec![value; len])
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Process-unique identity of this buffer, as recorded in the trace's
    /// address channel.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `true` if the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Exclusive view of the contents (no launch may be in flight, which
    /// `&mut self` guarantees).
    pub fn as_slice(&mut self) -> &[T] {
        // SAFETY: `&mut self` excludes all concurrent views.
        unsafe { &*(std::ptr::from_ref(&*self.cells) as *const [T]) }
    }

    /// Consume the buffer and return its contents.
    pub fn into_vec(self) -> Vec<T> {
        self.cells
            .into_vec()
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect()
    }

    pub(crate) fn make_view(&self, epoch: u64, block: u64) -> GlobalView<'_, T> {
        if self.race.is_some() {
            assert!(
                block < BLOCK_MASK,
                "race-checked buffers support launches of at most {BLOCK_MASK} blocks (block {block})"
            );
        }
        GlobalView {
            cells: &self.cells,
            race: self.race.as_ref(),
            epoch,
            block,
            buf: self.id,
        }
    }
}

/// A block's handle to a [`GlobalBuffer`] during a launch.
///
/// All accessors are warp-shaped and report to the block's [`TxnRecorder`].
/// Each decides once per warp whether the race table or an armed corruption
/// applies; a contiguous warp then moves as one bounds-checked slice copy,
/// so without a race table the copy is the only per-word work.
#[derive(Clone, Copy)]
pub struct GlobalView<'a, T> {
    cells: &'a [UnsafeCell<T>],
    race: Option<&'a RaceTable>,
    epoch: u64,
    block: u64,
    buf: u64,
}

impl<'a, T: Copy> GlobalView<'a, T> {
    /// Number of words in the underlying buffer.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Identity of the underlying buffer (see [`GlobalBuffer::id`]), as
    /// recorded in the trace's address channel.
    pub fn buffer_id(&self) -> u64 {
        self.buf
    }

    /// `true` if the underlying buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Check lanes `base, base + stride, …` (`lanes` of them) against the
    /// race table, if the buffer has one: the only per-word work of an
    /// access.
    #[inline]
    fn check_race(&self, kind: AccessKind, base: usize, stride: usize, lanes: usize) {
        let Some(r) = self.race else { return };
        for t in 0..lanes {
            match kind {
                AccessKind::Read => r.check_read(base + t * stride, self.epoch, self.block),
                AccessKind::Write => r.check_write(base + t * stride, self.epoch, self.block),
            }
        }
    }

    /// Release per-word race ownership of `[base, base + len)` for the rest
    /// of this launch epoch: called by a handoff publish, whose release
    /// store orders the publisher's preceding writes before any acquiring
    /// reader, making the cross-block access legal. No-op without a race
    /// table.
    pub(crate) fn release_race_region(&self, base: usize, len: usize) {
        if let Some(r) = self.race {
            r.release_region(base, len, self.epoch);
        }
    }

    /// Single-lane read of word `addr`.
    #[inline]
    pub fn read(&self, addr: usize, rec: &mut TxnRecorder) -> T {
        rec.record_single(AccessKind::Read, self.buf, addr);
        self.check_race(AccessKind::Read, addr, 1, 1);
        // SAFETY: launch contract — no other block writes word `addr` in this
        // launch (dynamically verified when the race table is present).
        unsafe { *self.cells[addr].get() }
    }

    /// Single-lane write of word `addr`.
    #[inline]
    pub fn write(&self, addr: usize, mut v: T, rec: &mut TxnRecorder) {
        rec.record_single(AccessKind::Write, self.buf, addr);
        if rec.corrupt_lane(1).is_some() {
            v = corrupt_value(v);
        }
        self.check_race(AccessKind::Write, addr, 1, 1);
        // SAFETY: launch contract — this block exclusively writes word `addr`.
        unsafe { *self.cells[addr].get() = v }
    }

    /// Warp read of `[base, base + out.len())` into `out` (coalesced when
    /// the range is group-aligned), copied in one piece.
    pub fn read_contig(&self, base: usize, out: &mut [T], rec: &mut TxnRecorder) {
        let len = out.len();
        rec.record_contig(AccessKind::Read, self.buf, base, len);
        let cells = &self.cells[base..base + len];
        self.check_race(AccessKind::Read, base, 1, len);
        // SAFETY: `cells` holds `len` words; `out` is a unique borrow, so it
        // cannot overlap the buffer. Launch contract: no other block writes
        // these words in this launch (dynamically verified when the race
        // table is present). `UnsafeCell<T>` has the layout of `T`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                UnsafeCell::raw_get(cells.as_ptr()),
                out.as_mut_ptr(),
                len,
            );
        }
    }

    /// Warp write of `vals` to `[base, base + vals.len())`, copied in one
    /// piece; an armed corruption picks one of its lanes.
    pub fn write_contig(&self, base: usize, vals: &[T], rec: &mut TxnRecorder) {
        let len = vals.len();
        rec.record_contig(AccessKind::Write, self.buf, base, len);
        let victim = rec.corrupt_lane(len);
        let cells = &self.cells[base..base + len];
        self.check_race(AccessKind::Write, base, 1, len);
        // SAFETY: `cells` holds `len` words; `vals` cannot borrow the
        // buffer's cells, which are reachable only through views or
        // `&mut GlobalBuffer`. Launch contract: this block exclusively
        // writes these words. `UnsafeCell<T>` has the layout of `T`.
        unsafe {
            std::ptr::copy_nonoverlapping(vals.as_ptr(), UnsafeCell::raw_get(cells.as_ptr()), len);
        }
        if let Some(k) = victim {
            // SAFETY: as above; lane `k` is one of the words just written.
            unsafe { *cells[k].get() = corrupt_value(vals[k]) }
        }
    }

    /// Warp read of `out.len()` lanes at `base, base + stride, …` (the
    /// column access of a row-major matrix when `stride` is its width).
    pub fn read_strided(&self, base: usize, stride: usize, out: &mut [T], rec: &mut TxnRecorder) {
        rec.record_strided(AccessKind::Read, self.buf, base, stride, out.len());
        self.check_race(AccessKind::Read, base, stride, out.len());
        for (t, o) in out.iter_mut().enumerate() {
            // SAFETY: launch contract, as in `read_contig`.
            *o = unsafe { *self.cells[base + t * stride].get() };
        }
    }

    /// Warp write of `vals` at `base, base + stride, …`.
    pub fn write_strided(&self, base: usize, stride: usize, vals: &[T], rec: &mut TxnRecorder) {
        rec.record_strided(AccessKind::Write, self.buf, base, stride, vals.len());
        let victim = rec.corrupt_lane(vals.len());
        self.check_race(AccessKind::Write, base, stride, vals.len());
        for (t, &v) in vals.iter().enumerate() {
            // SAFETY: launch contract, as in `write_contig`.
            unsafe { *self.cells[base + t * stride].get() = v }
        }
        if let Some(k) = victim {
            // SAFETY: as above; lane `k` is one of the words just written.
            unsafe { *self.cells[base + k * stride].get() = corrupt_value(vals[k]) }
        }
    }
}

/// Epoch-tagged per-word ownership table for dynamic race detection.
struct RaceTable {
    // Each entry packs (epoch << 20) | (block + 1); 0 means "never written".
    // 20 bits of block id support launches of up to 2²⁰ − 1 blocks, which
    // `GlobalBuffer::make_view` asserts.
    entries: Vec<AtomicU64>,
}

const BLOCK_BITS: u32 = 20;
const BLOCK_MASK: u64 = (1 << BLOCK_BITS) - 1;

impl RaceTable {
    fn new(len: usize) -> Self {
        RaceTable {
            entries: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn check_write(&self, i: usize, epoch: u64, block: u64) {
        let tag = (epoch << BLOCK_BITS) | (block + 1);
        let prev = self.entries[i].swap(tag, Ordering::Relaxed);
        let (pe, pb) = (prev >> BLOCK_BITS, prev & BLOCK_MASK);
        if pe == epoch && pb != 0 && pb != block + 1 {
            panic!(
                "data race: blocks {} and {} both wrote global word {} in one launch \
                 (the asynchronous HMM requires disjoint writes per barrier window)",
                pb - 1,
                block,
                i
            );
        }
    }

    /// Mark `[base, base + len)` as owned by *no* block in `epoch`: the
    /// words were published through a handoff flag, so later same-epoch
    /// reads (and takeover writes) by other blocks are ordered and legal.
    #[inline]
    fn release_region(&self, base: usize, len: usize, epoch: u64) {
        for e in &self.entries[base..base + len] {
            e.store(epoch << BLOCK_BITS, Ordering::Relaxed);
        }
    }

    #[inline]
    fn check_read(&self, i: usize, epoch: u64, block: u64) {
        let prev = self.entries[i].load(Ordering::Relaxed);
        let (pe, pb) = (prev >> BLOCK_BITS, prev & BLOCK_MASK);
        if pe == epoch && pb != 0 && pb != block + 1 {
            panic!(
                "read-after-write hazard: block {} read global word {} written by block {} \
                 in the same launch (inter-block data needs a barrier between kernels)",
                block,
                i,
                pb - 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut b = GlobalBuffer::from_vec(vec![1u32, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(b.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn view_reads_and_writes() {
        let b = GlobalBuffer::filled(0i64, 16);
        let v = b.make_view(1, 0);
        let mut rec = TxnRecorder::new(4, true);
        v.write_contig(4, &[1, 2, 3, 4], &mut rec);
        let mut out = [0i64; 4];
        v.read_contig(4, &mut out, &mut rec);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(rec.counters().coalesced_writes, 4);
        assert_eq!(rec.counters().coalesced_reads, 4);
    }

    #[test]
    fn strided_read() {
        let b = GlobalBuffer::from_vec((0..32i32).collect());
        let v = b.make_view(1, 0);
        let mut rec = TxnRecorder::new(4, true);
        let mut out = [0i32; 4];
        v.read_strided(1, 8, &mut out, &mut rec);
        assert_eq!(out, [1, 9, 17, 25]);
        assert_eq!(rec.counters().stride_reads, 4);
    }

    /// The warp accessors, each driven over a warp that covers word 2 of an
    /// 8-word buffer: single lane 2, contiguous `[1, 4)`, strided `{0, 2, 4}`.
    #[derive(Debug, Clone, Copy)]
    enum Acc {
        Single,
        Contig,
        Strided,
    }

    const ACCESSORS: [Acc; 3] = [Acc::Single, Acc::Contig, Acc::Strided];

    fn write_word_2(v: &GlobalView<'_, u64>, acc: Acc, x: u64, rec: &mut TxnRecorder) {
        match acc {
            Acc::Single => v.write(2, x, rec),
            Acc::Contig => v.write_contig(1, &[x; 3], rec),
            Acc::Strided => v.write_strided(0, 2, &[x; 3], rec),
        }
    }

    fn read_word_2(v: &GlobalView<'_, u64>, acc: Acc, rec: &mut TxnRecorder) -> u64 {
        let mut out = [0; 3];
        match acc {
            Acc::Single => return v.read(2, rec),
            Acc::Contig => v.read_contig(1, &mut out, rec),
            Acc::Strided => v.read_strided(0, 2, &mut out, rec),
        }
        out[1]
    }

    /// Run `f`, which must panic, and return its panic message.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the access must panic");
        match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(err) => err.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[test]
    fn race_detector_allows_same_block_rw() {
        for w in ACCESSORS {
            for r in ACCESSORS {
                let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
                let v = b.make_view(7, 3);
                let mut rec = TxnRecorder::new(4, false);
                write_word_2(&v, w, 5, &mut rec);
                assert_eq!(read_word_2(&v, r, &mut rec), 5, "{w:?} then {r:?}");
            }
        }
    }

    #[test]
    fn race_detector_catches_write_write() {
        for first in ACCESSORS {
            for second in ACCESSORS {
                let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
                let mut rec = TxnRecorder::new(4, false);
                write_word_2(&b.make_view(7, 0), first, 5, &mut rec);
                let msg = panic_message(|| {
                    write_word_2(&b.make_view(7, 1), second, 6, &mut rec);
                });
                assert!(
                    msg.contains("data race"),
                    "{first:?} then {second:?}: {msg}"
                );
            }
        }
    }

    #[test]
    fn race_detector_catches_cross_block_read() {
        for w in ACCESSORS {
            for r in ACCESSORS {
                let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
                let mut rec = TxnRecorder::new(4, false);
                write_word_2(&b.make_view(7, 0), w, 5, &mut rec);
                let msg = panic_message(|| {
                    read_word_2(&b.make_view(7, 1), r, &mut rec);
                });
                assert!(
                    msg.contains("read-after-write hazard"),
                    "{w:?} then {r:?}: {msg}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "race-checked buffers support launches of at most")]
    fn race_table_rejects_block_ids_beyond_its_tag_bits() {
        let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        b.make_view(7, BLOCK_MASK - 1); // the largest block id that fits
        b.make_view(7, BLOCK_MASK);
    }

    #[test]
    fn unchecked_buffers_accept_any_block_id() {
        let b = GlobalBuffer::filled(0u64, 8);
        let mut rec = TxnRecorder::new(4, false);
        for block in [BLOCK_MASK, u64::MAX] {
            let v = b.make_view(7, block);
            v.write(2, block, &mut rec);
            assert_eq!(v.read(2, &mut rec), block);
        }
    }

    #[test]
    fn armed_corruption_lands_on_exactly_one_lane_of_the_right_warp() {
        let vals: Vec<u64> = (1..=4).collect();
        // Three 4-lane warps over disjoint words: contiguous at 0, strided
        // {5, 9, 13, 17}, contiguous at 20.
        let written = |addr: usize| match addr {
            0..=3 => Some(vals[addr]),
            5 | 9 | 13 | 17 => Some(vals[(addr - 5) / 4]),
            20..=23 => Some(vals[addr - 20]),
            _ => None,
        };
        for nth in 0..12u64 {
            let mut b = GlobalBuffer::filled(0u64, 24);
            let v = b.make_view(1, 0);
            let mut rec = TxnRecorder::new(4, false);
            rec.arm_corruption(nth);
            v.write_contig(0, &vals, &mut rec);
            v.write_strided(5, 4, &vals, &mut rec);
            v.write_contig(20, &vals, &mut rec);
            assert!(rec.corruption_hit());
            let k = (nth % 4) as usize;
            let victim = [k, 5 + 4 * k, 20 + k][(nth / 4) as usize];
            for (addr, &got) in b.as_slice().iter().enumerate() {
                let want = match written(addr) {
                    Some(x) if addr == victim => corrupt_value(x),
                    Some(x) => x,
                    None => 0,
                };
                assert_eq!(got, want, "nth {nth}: word {addr}");
            }
        }
    }

    #[test]
    fn race_detector_resets_across_epochs() {
        let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        let mut rec = TxnRecorder::new(4, false);
        b.make_view(7, 0).write(2, 5, &mut rec);
        // New epoch = after a barrier: another block may now read and write.
        assert_eq!(b.make_view(8, 1).read(2, &mut rec), 5);
        b.make_view(8, 1).write(2, 6, &mut rec);
    }
}
