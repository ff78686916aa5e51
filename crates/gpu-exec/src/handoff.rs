//! Flagged handoff slots: release/acquire publication of global data
//! between blocks.
//!
//! The asynchronous HMM's only built-in synchronisation is the barrier (the
//! launch boundary). Persistent-block and software-systolic kernels need a
//! finer primitive: a producer block fills a region of a [`GlobalBuffer`]
//! and *publishes* it by raising a flag; a consumer block *acquires* the
//! flag before reading the region. [`HandoffFlags`] is that primitive —
//! a set of atomic flag words with release/acquire semantics, separate from
//! the non-atomic data cells (which must never be raced directly).
//!
//! Every publish and poll also records itself in the trace's address
//! channel ([`FlagWrite`] / [`FlagRead`]), which is what lets `hmm-lint`'s
//! schedule-generalizing race analysis reconstruct the release→acquire
//! happens-before edges and check the `handoff-before-ready` rule: any read
//! of a published region must be ordered after the corresponding flag write
//! under *every* legal schedule.
//!
//! [`FlagWrite`]: crate::trace::AddrPattern::FlagWrite
//! [`FlagRead`]: crate::trace::AddrPattern::FlagRead

use std::sync::atomic::{AtomicU64, Ordering};

use crate::buffer::{next_buffer_id, GlobalView};
use crate::recorder::TxnRecorder;

/// A set of atomic handoff flags, one per slot.
///
/// Unlike [`GlobalBuffer`](crate::GlobalBuffer) words, flag cells are
/// atomics: concurrent publish/poll from different blocks is sound by
/// construction. The *data* a slot publishes still lives in a normal
/// buffer and is still subject to the launch contract — the flag only
/// provides the ordering that makes a cross-block handoff legal.
pub struct HandoffFlags {
    cells: Box<[AtomicU64]>,
    id: u64,
}

impl HandoffFlags {
    /// A set of `slots` flags, all initially unpublished (zero).
    pub fn new(slots: usize) -> Self {
        HandoffFlags {
            cells: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            id: next_buffer_id(),
        }
    }

    /// Process-unique identity of this flag set, as recorded in the
    /// trace's address channel (drawn from the same id space as
    /// [`GlobalBuffer::id`](crate::GlobalBuffer::id)).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the set holds no slots.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Owner-side reset of every slot to unpublished (no launch may be in
    /// flight, which `&mut self` guarantees).
    pub fn reset(&mut self) {
        for c in self.cells.iter() {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Whether `slot` has been published, without recording a trace op
    /// (owner-side inspection between launches).
    pub fn is_published(&self, slot: usize) -> bool {
        self.cells[slot].load(Ordering::Acquire) != 0
    }

    /// Release-publish `slot`, announcing that the `len` words of `data`
    /// starting at `base` are ready. The release store orders the
    /// producer's preceding data writes before any acquire that observes
    /// the flag.
    pub fn publish<T: Copy>(
        &self,
        slot: usize,
        data: &GlobalView<'_, T>,
        base: usize,
        len: usize,
        rec: &mut TxnRecorder,
    ) {
        assert!(
            base + len <= data.len(),
            "published region [{base}, {}) exceeds buffer of {} words",
            base + len,
            data.len()
        );
        // Hand the region's per-word race ownership over *before* raising
        // the flag: acquiring readers are ordered after the release store,
        // so their same-epoch reads of the region are legal by construction
        // and the dynamic race table must not condemn them.
        data.release_race_region(base, len);
        self.cells[slot].store(1, Ordering::Release);
        rec.record_flag_write(self.id, slot, data.buffer_id(), base, len);
    }

    /// Acquire-poll `slot` once, returning whether it has been published.
    /// An observed `true` orders this block after the publisher's release.
    pub fn poll(&self, slot: usize, rec: &mut TxnRecorder) -> bool {
        let ready = self.cells[slot].load(Ordering::Acquire) != 0;
        rec.record_flag_read(self.id, slot, ready);
        ready
    }

    /// Acquire-poll `slot` with up to `max_polls` *retries* (spinning
    /// between attempts), returning whether it became published:
    /// `max_polls == 0` means one check and no retry, so an
    /// already-published slot is always observed. Records a single flag
    /// read with the final outcome so bounded spinning does not flood the
    /// trace.
    ///
    /// Note the schedule hazard this API cannot hide: on a sequential
    /// device a same-launch producer may simply not have run yet, so spin
    /// counts must never be used as a correctness mechanism — publish in
    /// one launch and consume after the barrier, or prove the handoff with
    /// `satlint --races`.
    pub fn acquire(&self, slot: usize, max_polls: usize, rec: &mut TxnRecorder) -> bool {
        let mut ready = false;
        for attempt in 0..=max_polls {
            if self.cells[slot].load(Ordering::Acquire) != 0 {
                ready = true;
                break;
            }
            if attempt < max_polls {
                std::hint::spin_loop();
            }
        }
        rec.record_flag_read(self.id, slot, ready);
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::GlobalBuffer;
    use crate::device::{Device, DeviceOptions};
    use crate::trace::AddrPattern;
    use hmm_model::{AccessKind, MachineConfig, MemSpace};

    #[test]
    fn publish_then_poll_observes_readiness_and_traces_flag_ops() {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .record_trace(true),
        );
        let data = GlobalBuffer::filled(0u64, 8);
        let flags = HandoffFlags::new(2);
        // Launch 0: block 0 fills and publishes slot 0.
        dev.launch(1, |ctx| {
            let g = ctx.view(&data);
            let vals = [7u64; 4];
            g.write_contig(0, &vals, ctx.rec());
            flags.publish(0, &g, 0, 4, ctx.rec());
        });
        assert!(flags.is_published(0));
        assert!(!flags.is_published(1));
        // Launch 1: consumer polls (barrier-ordered, so always ready).
        let seen = GlobalBuffer::filled(0u64, 1);
        dev.launch(1, |ctx| {
            let g = ctx.view(&data);
            let out = ctx.view(&seen);
            if flags.poll(0, ctx.rec()) {
                let mut got = [0u64; 4];
                g.read_contig(0, &mut got, ctx.rec());
                out.write(0, got.iter().sum(), ctx.rec());
            }
        });
        assert_eq!(seen.into_vec()[0], 28);

        let trace = dev.take_trace();
        let l0 = &trace.launches[0];
        let fw = l0.addrs[0]
            .iter()
            .find_map(|p| match p {
                AddrPattern::FlagWrite {
                    flags: f,
                    slot,
                    data_buf,
                    base,
                    len,
                } => Some((*f, *slot, *data_buf, *base, *len)),
                _ => None,
            })
            .expect("publish recorded");
        assert_eq!(fw, (flags.id(), 0, data.id(), 0, 4));
        // The flag op is a one-op, one-stage global write.
        let k = l0.addrs[0]
            .iter()
            .position(|p| matches!(p, AddrPattern::FlagWrite { .. }))
            .unwrap();
        let op = l0.blocks[0][k];
        assert_eq!(
            (op.space, op.kind, op.ops, op.stages),
            (MemSpace::Global, AccessKind::Write, 1, 1)
        );
        let l1 = &trace.launches[1];
        assert!(l1.addrs[0]
            .iter()
            .any(|p| matches!(p, AddrPattern::FlagRead { ready: true, .. })));
    }

    #[test]
    fn acquire_gives_up_after_bounded_polls_and_records_the_outcome() {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .record_trace(true),
        );
        let flags = HandoffFlags::new(1);
        dev.launch(1, |ctx| {
            assert!(!flags.acquire(0, 16, ctx.rec()));
        });
        let trace = dev.take_trace();
        // Bounded spinning records exactly one (not-ready) flag read.
        let reads: Vec<_> = trace.launches[0].addrs[0]
            .iter()
            .filter(|p| matches!(p, AddrPattern::FlagRead { .. }))
            .collect();
        assert_eq!(reads.len(), 1);
        assert!(matches!(
            reads[0],
            AddrPattern::FlagRead { ready: false, .. }
        ));
    }

    #[test]
    fn acquire_with_zero_polls_observes_a_published_slot() {
        // `max_polls == 0` = one check, no retry — it must still see a slot
        // that is already published, and record exactly one ready FlagRead.
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .record_trace(true),
        );
        let data = GlobalBuffer::filled(3u64, 4);
        let flags = HandoffFlags::new(1);
        dev.launch(1, |ctx| {
            let g = ctx.view(&data);
            flags.publish(0, &g, 0, 4, ctx.rec());
        });
        dev.launch(1, |ctx| {
            assert!(flags.acquire(0, 0, ctx.rec()));
        });
        let trace = dev.take_trace();
        let reads: Vec<_> = trace.launches[1].addrs[0]
            .iter()
            .filter(|p| matches!(p, AddrPattern::FlagRead { .. }))
            .collect();
        assert_eq!(reads.len(), 1);
        assert!(matches!(
            reads[0],
            AddrPattern::FlagRead { ready: true, .. }
        ));
    }

    #[test]
    fn acquire_with_zero_polls_gives_up_on_an_unpublished_slot() {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .record_trace(true),
        );
        let flags = HandoffFlags::new(1);
        dev.launch(1, |ctx| {
            assert!(!flags.acquire(0, 0, ctx.rec()));
        });
        let trace = dev.take_trace();
        let reads: Vec<_> = trace.launches[0].addrs[0]
            .iter()
            .filter(|p| matches!(p, AddrPattern::FlagRead { .. }))
            .collect();
        assert_eq!(reads.len(), 1, "one check, one recorded read");
        assert!(matches!(
            reads[0],
            AddrPattern::FlagRead { ready: false, .. }
        ));
    }

    #[test]
    fn publish_releases_race_ownership_of_the_region() {
        // A race-checked handoff within one launch: without the publish
        // releasing the region, the dynamic race table would panic on the
        // consumer's same-epoch read.
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
        let data = GlobalBuffer::from_vec_checked(vec![0u64; 8]);
        let flags = HandoffFlags::new(1);
        let out = GlobalBuffer::filled(0u64, 1);
        dev.launch(2, |ctx| {
            let g = ctx.view(&data);
            if ctx.block_id() == 0 {
                g.write_contig(0, &[5u64; 4], ctx.rec());
                flags.publish(0, &g, 0, 4, ctx.rec());
            } else if flags.acquire(0, 1 << 20, ctx.rec()) {
                let mut got = [0u64; 4];
                g.read_contig(0, &mut got, ctx.rec());
                ctx.view(&out).write(0, got.iter().sum(), ctx.rec());
            }
        });
        assert_eq!(out.into_vec()[0], 20);
    }

    #[test]
    fn reset_unpublishes_every_slot() {
        let mut flags = HandoffFlags::new(3);
        let data = GlobalBuffer::filled(0u32, 4);
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
        dev.launch(1, |ctx| {
            let g = ctx.view(&data);
            flags.publish(2, &g, 0, 4, ctx.rec());
        });
        assert!(flags.is_published(2));
        flags.reset();
        assert!((0..3).all(|s| !flags.is_published(s)));
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn publishing_out_of_range_region_panics() {
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
        let data = GlobalBuffer::filled(0u32, 4);
        let flags = HandoffFlags::new(1);
        dev.launch(1, |ctx| {
            let g = ctx.view(&data);
            flags.publish(0, &g, 2, 4, ctx.rec());
        });
    }
}
