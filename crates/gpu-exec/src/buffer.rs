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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
pub struct GlobalBuffer<T> {
    cells: Box<[UnsafeCell<T>]>,
    race: Option<RaceTable>,
    id: u64,
    /// Set when a *failed* launch (aborted or lost) wrote any word: the
    /// contents may be partial. [`BufferPool`](crate::BufferPool) consults
    /// this instead of comparing fault epochs, so a buffer that merely
    /// lived *across* an epoch bump — e.g. through a persistent launch's
    /// retry loop — is not condemned along with the genuinely dirty ones.
    poisoned: AtomicBool,
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
            poisoned: AtomicBool::new(false),
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

    /// Exclusive mutable view of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` excludes all concurrent views.
        unsafe { &mut *(std::ptr::from_mut(&mut *self.cells) as *mut [T]) }
    }

    /// Consume the buffer and return its contents.
    pub fn into_vec(self) -> Vec<T> {
        self.cells
            .into_vec()
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect()
    }

    /// Whether a failed (aborted or lost) launch wrote into this buffer,
    /// leaving possibly partial contents. Sticky until
    /// [`clear_poison`](Self::clear_poison).
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Reset the poison mark (owner-side, e.g. after scrubbing).
    pub fn clear_poison(&mut self) {
        self.poisoned.store(false, Ordering::Release);
    }

    pub(crate) fn make_view(&self, epoch: u64, block: u64, failed: bool) -> GlobalView<'_, T> {
        GlobalView {
            cells: &self.cells,
            race: self.race.as_ref(),
            poison: &self.poisoned,
            epoch,
            block,
            failed,
            buf: self.id,
        }
    }
}

/// A block's handle to a [`GlobalBuffer`] during a launch.
///
/// All accessors are warp-shaped and report to the block's [`TxnRecorder`];
/// when recording is disabled they compile down to bounds-checked copies.
#[derive(Clone, Copy)]
pub struct GlobalView<'a, T> {
    cells: &'a [UnsafeCell<T>],
    race: Option<&'a RaceTable>,
    poison: &'a AtomicBool,
    epoch: u64,
    block: u64,
    /// The owning launch failed (aborted or lost): every store through this
    /// view marks the buffer poisoned, because sibling blocks were skipped
    /// and the launch's writes are partial.
    failed: bool,
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

    #[inline]
    fn load(&self, i: usize) -> T {
        if let Some(r) = self.race {
            r.check_read(i, self.epoch, self.block);
        }
        // SAFETY: launch contract — no other block writes word `i` in this
        // launch (dynamically verified when the race table is present).
        unsafe { *self.cells[i].get() }
    }

    #[inline]
    fn store(&self, i: usize, v: T) {
        if let Some(r) = self.race {
            r.check_write(i, self.epoch, self.block);
        }
        if self.failed {
            self.poison.store(true, Ordering::Release);
        }
        // SAFETY: launch contract — this block exclusively writes word `i`.
        unsafe { *self.cells[i].get() = v }
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
        self.load(addr)
    }

    /// Single-lane write of word `addr`.
    #[inline]
    pub fn write(&self, addr: usize, mut v: T, rec: &mut TxnRecorder) {
        rec.record_single(AccessKind::Write, self.buf, addr);
        if rec.corrupt_lane(1).is_some() {
            v = corrupt_value(v);
        }
        self.store(addr, v);
    }

    /// Warp read of `[base, base + out.len())` into `out` (coalesced when
    /// the range is group-aligned).
    pub fn read_contig(&self, base: usize, out: &mut [T], rec: &mut TxnRecorder) {
        rec.record_contig(AccessKind::Read, self.buf, base, out.len());
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.load(base + t);
        }
    }

    /// Warp write of `vals` to `[base, base + vals.len())`.
    pub fn write_contig(&self, base: usize, vals: &[T], rec: &mut TxnRecorder) {
        rec.record_contig(AccessKind::Write, self.buf, base, vals.len());
        let victim = rec.corrupt_lane(vals.len());
        for (t, &v) in vals.iter().enumerate() {
            let v = if victim == Some(t) {
                corrupt_value(v)
            } else {
                v
            };
            self.store(base + t, v);
        }
    }

    /// Warp read of `out.len()` lanes at `base, base + stride, …` (the
    /// column access of a row-major matrix when `stride` is its width).
    pub fn read_strided(&self, base: usize, stride: usize, out: &mut [T], rec: &mut TxnRecorder) {
        rec.record_strided(AccessKind::Read, self.buf, base, stride, out.len());
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.load(base + t * stride);
        }
    }

    /// Warp write of `vals` at `base, base + stride, …`.
    pub fn write_strided(&self, base: usize, stride: usize, vals: &[T], rec: &mut TxnRecorder) {
        rec.record_strided(AccessKind::Write, self.buf, base, stride, vals.len());
        let victim = rec.corrupt_lane(vals.len());
        for (t, &v) in vals.iter().enumerate() {
            let v = if victim == Some(t) {
                corrupt_value(v)
            } else {
                v
            };
            self.store(base + t * stride, v);
        }
    }
}

/// Epoch-tagged per-word ownership table for dynamic race detection.
struct RaceTable {
    // Each entry packs (epoch << 20) | (block + 1); 0 means "never written".
    // 20 bits of block id support launches of up to ~10⁶ blocks.
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
        debug_assert!(block < BLOCK_MASK);
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
        b.as_mut_slice()[1] = 9;
        assert_eq!(b.as_slice(), &[1, 9, 3]);
        assert_eq!(b.into_vec(), vec![1, 9, 3]);
    }

    #[test]
    fn view_reads_and_writes() {
        let b = GlobalBuffer::filled(0i64, 16);
        let v = b.make_view(1, 0, false);
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
        let v = b.make_view(1, 0, false);
        let mut rec = TxnRecorder::new(4, true);
        let mut out = [0i32; 4];
        v.read_strided(1, 8, &mut out, &mut rec);
        assert_eq!(out, [1, 9, 17, 25]);
        assert_eq!(rec.counters().stride_reads, 4);
    }

    #[test]
    fn race_detector_allows_same_block_rw() {
        let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        let v = b.make_view(7, 3, false);
        let mut rec = TxnRecorder::new(4, false);
        v.write(2, 5, &mut rec);
        assert_eq!(v.read(2, &mut rec), 5);
    }

    #[test]
    #[should_panic(expected = "data race")]
    fn race_detector_catches_write_write() {
        let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        let mut rec = TxnRecorder::new(4, false);
        b.make_view(7, 0, false).write(2, 5, &mut rec);
        b.make_view(7, 1, false).write(2, 6, &mut rec);
    }

    #[test]
    #[should_panic(expected = "read-after-write hazard")]
    fn race_detector_catches_cross_block_read() {
        let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        let mut rec = TxnRecorder::new(4, false);
        b.make_view(7, 0, false).write(2, 5, &mut rec);
        b.make_view(7, 1, false).read(2, &mut rec);
    }

    #[test]
    fn race_detector_resets_across_epochs() {
        let b = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        let mut rec = TxnRecorder::new(4, false);
        b.make_view(7, 0, false).write(2, 5, &mut rec);
        // New epoch = after a barrier: another block may now read and write.
        assert_eq!(b.make_view(8, 1, false).read(2, &mut rec), 5);
        b.make_view(8, 1, false).write(2, 6, &mut rec);
    }
}
