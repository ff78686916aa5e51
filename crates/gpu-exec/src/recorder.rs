//! Per-block transaction recording.
//!
//! Every warp-shaped memory access performed by a kernel reports itself to
//! the block's [`TxnRecorder`], which classifies it with the rules of
//! [`hmm_model`] (coalesced vs. stride on the UMM, bank-conflict stages on
//! the DMM) and accumulates [`CostCounters`]. Recording is cheap — every
//! global pattern (single, contiguous, strided) gets its stage count in
//! closed form ([`hmm_model::strided_groups`]) without materialising address
//! vectors — and can be disabled entirely, in which case accessors skip the
//! bookkeeping.

use hmm_model::cost::CostCounters;
use hmm_model::{strided_groups, AccessKind, MemSpace};

use crate::trace::{AddrPattern, BlockTrace, TraceOp};

/// Accumulates the memory access statistics of one block.
///
/// Created by the device for every block of a launch; merged into the
/// device-wide counters when the block finishes.
#[derive(Debug)]
pub struct TxnRecorder {
    w: usize,
    enabled: bool,
    counters: CostCounters,
    trace: Option<BlockTrace>,
    addrs: Option<Vec<AddrPattern>>,
    /// Fault injection: element stores remaining until one is corrupted
    /// (armed by the device on a victim block; independent of `enabled`).
    corrupt_countdown: Option<u64>,
    corrupted: bool,
}

impl TxnRecorder {
    /// A recorder for machine width `w`. When `enabled` is false all
    /// `record_*` calls are no-ops.
    pub fn new(w: usize, enabled: bool) -> Self {
        TxnRecorder {
            w,
            enabled,
            counters: CostCounters::new(),
            trace: None,
            addrs: None,
            corrupt_countdown: None,
            corrupted: false,
        }
    }

    /// A recorder that additionally logs every transaction in program order
    /// (implies `enabled`), for replay in the `hmm-sim` machine simulator,
    /// plus each transaction's [`AddrPattern`] provenance for static
    /// analysis.
    pub fn new_tracing(w: usize) -> Self {
        Self::with_options(w, true, true, true)
    }

    /// A recorder with each channel toggled independently: `stats` counts
    /// transactions, `trace` logs them in program order, `addrs` keeps their
    /// [`AddrPattern`] provenance. `trace` or `addrs` imply `stats`; `addrs`
    /// without `trace` is rounded up to both (the channels are parallel
    /// arrays and meaningless alone).
    pub fn with_options(w: usize, stats: bool, trace: bool, addrs: bool) -> Self {
        let trace = trace || addrs;
        TxnRecorder {
            w,
            enabled: stats || trace,
            counters: CostCounters::new(),
            trace: trace.then(Vec::new),
            addrs: addrs.then(Vec::new),
            corrupt_countdown: None,
            corrupted: false,
        }
    }

    /// Fault injection: arm this recorder so the `nth` element store that
    /// flows through its block's write accessors is silently corrupted.
    pub(crate) fn arm_corruption(&mut self, nth: u64) {
        self.corrupt_countdown = Some(nth);
        self.corrupted = false;
    }

    /// Whether an armed corruption actually landed on a store.
    pub(crate) fn corruption_hit(&self) -> bool {
        self.corrupted
    }

    /// Fault injection hook called by write accessors with the number of
    /// element stores they are about to perform: returns the lane index
    /// within this batch to corrupt, if the armed countdown lands inside it.
    /// Works even when statistics recording is disabled.
    #[inline]
    pub(crate) fn corrupt_lane(&mut self, lanes: usize) -> Option<usize> {
        let n = self.corrupt_countdown.as_mut()?;
        if *n >= lanes as u64 {
            *n -= lanes as u64;
            None
        } else {
            let k = *n as usize;
            self.corrupt_countdown = None;
            self.corrupted = true;
            Some(k)
        }
    }

    /// Take the recorded transaction log (empty unless tracing).
    pub fn take_trace(&mut self) -> BlockTrace {
        self.trace.take().unwrap_or_default()
    }

    /// Take the recorded address channel, parallel to [`Self::take_trace`]
    /// (empty unless tracing).
    pub fn take_addrs(&mut self) -> Vec<AddrPattern> {
        self.addrs.take().unwrap_or_default()
    }

    /// Machine width `w` (warp lanes per transaction).
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Whether recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The statistics accumulated so far.
    pub fn counters(&self) -> &CostCounters {
        &self.counters
    }

    /// Take the accumulated statistics, resetting this recorder.
    pub fn take(&mut self) -> CostCounters {
        std::mem::take(&mut self.counters)
    }

    #[inline]
    fn record_global(
        &mut self,
        kind: AccessKind,
        ops: u64,
        stages: u64,
        pattern: impl FnOnce() -> AddrPattern,
    ) {
        self.counters.global_stages += stages;
        let coalesced = stages <= 1;
        match (kind, coalesced) {
            (AccessKind::Read, true) => self.counters.coalesced_reads += ops,
            (AccessKind::Write, true) => self.counters.coalesced_writes += ops,
            (AccessKind::Read, false) => self.counters.stride_reads += ops,
            (AccessKind::Write, false) => self.counters.stride_writes += ops,
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceOp {
                space: MemSpace::Global,
                kind,
                ops: ops as u32,
                stages: stages as u32,
            });
        }
        if let Some(a) = &mut self.addrs {
            a.push(pattern());
        }
    }

    /// Record a contiguous global access `[base, base + len)` of buffer
    /// `buf`, split into `⌈len / w⌉` warp transactions.
    pub fn record_contig(&mut self, kind: AccessKind, buf: u64, base: usize, len: usize) {
        if !self.enabled || len == 0 {
            return;
        }
        let w = self.w;
        let mut start = base;
        let end = base + len;
        while start < end {
            let lanes = w.min(end - start);
            let stages = strided_groups(start, 1, lanes, w) as u64;
            self.record_global(kind, lanes as u64, stages, || AddrPattern::Contig {
                buf,
                base: start,
                lanes: lanes as u32,
            });
            start += lanes;
        }
    }

    /// Record a strided global access `base, base + stride, …` of `len`
    /// lanes of buffer `buf`, split into warp transactions of `w` lanes.
    pub fn record_strided(
        &mut self,
        kind: AccessKind,
        buf: u64,
        base: usize,
        stride: usize,
        len: usize,
    ) {
        if !self.enabled || len == 0 {
            return;
        }
        if stride == 1 {
            return self.record_contig(kind, buf, base, len);
        }
        let w = self.w;
        let mut i = 0;
        while i < len {
            let lanes = w.min(len - i);
            let first = base + i * stride;
            let stages = strided_groups(first, stride, lanes, w) as u64;
            self.record_global(kind, lanes as u64, stages, || AddrPattern::Strided {
                buf,
                base: first,
                stride,
                lanes: lanes as u32,
            });
            i += lanes;
        }
    }

    /// Record a single-lane global access of word `addr` of buffer `buf`
    /// (a warp in which one thread accesses memory: one operation, one
    /// stage, coalesced).
    #[inline]
    pub fn record_single(&mut self, kind: AccessKind, buf: u64, addr: usize) {
        if !self.enabled {
            return;
        }
        self.record_global(kind, 1, 1, || AddrPattern::Single { buf, addr });
    }

    /// Record the release-publication of a handoff slot (see
    /// [`crate::HandoffFlags::publish`]): one atomic flag store — one op in
    /// one address group — whose provenance names the published data region.
    #[inline]
    pub fn record_flag_write(
        &mut self,
        flags: u64,
        slot: usize,
        data_buf: u64,
        base: usize,
        len: usize,
    ) {
        if !self.enabled {
            return;
        }
        self.counters.handoff_publishes += 1;
        self.record_global(AccessKind::Write, 1, 1, || AddrPattern::FlagWrite {
            flags,
            slot,
            data_buf,
            base,
            len,
        });
    }

    /// Record an acquire-poll of a handoff slot flag (see
    /// [`crate::HandoffFlags::poll`]): one atomic load, with the observed
    /// readiness kept as provenance for happens-before reconstruction.
    #[inline]
    pub fn record_flag_read(&mut self, flags: u64, slot: usize, ready: bool) {
        if !self.enabled {
            return;
        }
        self.counters.handoff_acquires += 1;
        self.record_global(AccessKind::Read, 1, 1, || AddrPattern::FlagRead {
            flags,
            slot,
            ready,
        });
    }

    /// Whether this recorder logs each transaction (a trace, with or
    /// without its address channel). One that does not keeps only the
    /// counters, so the order of a run of warps is invisible to it and
    /// [`Self::count_shared`] may add the run in one update.
    #[inline]
    pub(crate) fn logs(&self) -> bool {
        self.trace.is_some()
    }

    /// Count a run of shared-memory warps in closed form: `reads` and
    /// `writes` lanes over `stages` DMM stages in all, one update per
    /// counter. Only for a recorder that does not [log](Self::logs).
    #[inline]
    pub(crate) fn count_shared(&mut self, reads: u64, writes: u64, stages: u64) {
        debug_assert!(!self.logs(), "a logging recorder records every warp");
        if self.enabled {
            self.counters.shared_reads += reads;
            self.counters.shared_writes += writes;
            self.counters.shared_stages += stages;
        }
    }

    /// Record a shared-memory warp access with a precomputed stage count
    /// (layouts know their bank-conflict degree analytically) and no tile
    /// provenance.
    #[inline]
    pub fn record_shared(&mut self, kind: AccessKind, ops: u64, stages: u64) {
        self.record_shared_at(kind, ops, stages, || AddrPattern::Opaque);
    }

    /// Record a shared-memory warp access with tile provenance for the
    /// address channel ([`SharedTile`](crate::SharedTile) accessors pass
    /// their row/column pattern).
    #[inline]
    pub fn record_shared_at(
        &mut self,
        kind: AccessKind,
        ops: u64,
        stages: u64,
        pattern: impl FnOnce() -> AddrPattern,
    ) {
        if !self.enabled || ops == 0 {
            return;
        }
        self.counters.shared_stages += stages;
        match kind {
            AccessKind::Read => self.counters.shared_reads += ops,
            AccessKind::Write => self.counters.shared_writes += ops,
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceOp {
                space: MemSpace::Shared,
                kind,
                ops: ops as u32,
                stages: stages as u32,
            });
        }
        if let Some(a) = &mut self.addrs {
            a.push(pattern());
        }
    }

    /// `MemSpace`/`WarpAccess`-based recording, used by differential tests
    /// to cross-check the analytic fast paths against the model crate.
    pub fn record_warp_access(
        &mut self,
        space: MemSpace,
        kind: AccessKind,
        access: &hmm_model::WarpAccess,
    ) {
        if !self.enabled {
            return;
        }
        self.counters.record(space, kind, access, self.w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_model::WarpAccess;

    /// The analytic fast paths must agree exactly with classification via
    /// `hmm_model::WarpAccess`.
    #[test]
    fn contig_matches_model() {
        for w in [4usize, 8, 32] {
            for base in [0usize, 1, 3, w - 1, w, 2 * w + 1] {
                for len in [1usize, 2, w - 1, w, w + 1, 3 * w, 3 * w + 2] {
                    let mut fast = TxnRecorder::new(w, true);
                    fast.record_contig(AccessKind::Read, 0, base, len);
                    let mut slow = TxnRecorder::new(w, true);
                    let addrs: Vec<usize> = (0..len).map(|t| base + t).collect();
                    for chunk in addrs.chunks(w) {
                        slow.record_warp_access(
                            MemSpace::Global,
                            AccessKind::Read,
                            &WarpAccess::dense(chunk, w),
                        );
                    }
                    assert_eq!(
                        fast.counters(),
                        slow.counters(),
                        "w={w} base={base} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_matches_model() {
        for w in [4usize, 8] {
            for stride in [1usize, 2, 3, w, w + 1, 5 * w] {
                for len in [1usize, w, 2 * w + 3] {
                    let mut fast = TxnRecorder::new(w, true);
                    fast.record_strided(AccessKind::Write, 0, 7, stride, len);
                    let mut slow = TxnRecorder::new(w, true);
                    let addrs: Vec<usize> = (0..len).map(|t| 7 + t * stride).collect();
                    for chunk in addrs.chunks(w) {
                        slow.record_warp_access(
                            MemSpace::Global,
                            AccessKind::Write,
                            &WarpAccess::dense(chunk, w),
                        );
                    }
                    assert_eq!(
                        fast.counters(),
                        slow.counters(),
                        "w={w} stride={stride} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_recorder_is_noop() {
        let mut r = TxnRecorder::new(32, false);
        r.record_contig(AccessKind::Read, 0, 0, 100);
        r.record_strided(AccessKind::Write, 0, 0, 64, 32);
        r.record_single(AccessKind::Read, 0, 0);
        r.record_shared(AccessKind::Write, 32, 1);
        assert_eq!(*r.counters(), CostCounters::new());
    }

    #[test]
    fn single_is_coalesced() {
        let mut r = TxnRecorder::new(32, true);
        r.record_single(AccessKind::Write, 0, 5);
        assert_eq!(r.counters().coalesced_writes, 1);
        assert_eq!(r.counters().global_stages, 1);
    }

    #[test]
    fn take_resets() {
        let mut r = TxnRecorder::new(32, true);
        r.record_single(AccessKind::Read, 0, 0);
        let c = r.take();
        assert_eq!(c.coalesced_reads, 1);
        assert_eq!(*r.counters(), CostCounters::new());
    }

    #[test]
    fn address_channel_parallels_trace() {
        let mut r = TxnRecorder::new_tracing(4);
        r.record_contig(AccessKind::Read, 3, 2, 6); // chunks at 2 (4 lanes) and 6 (2 lanes)
        r.record_strided(AccessKind::Write, 3, 0, 8, 4);
        r.record_single(AccessKind::Read, 4, 17);
        r.record_shared(AccessKind::Write, 4, 1);
        let trace = r.take_trace();
        let addrs = r.take_addrs();
        assert_eq!(trace.len(), addrs.len());
        assert_eq!(
            addrs,
            vec![
                AddrPattern::Contig {
                    buf: 3,
                    base: 2,
                    lanes: 4
                },
                AddrPattern::Contig {
                    buf: 3,
                    base: 6,
                    lanes: 2
                },
                AddrPattern::Strided {
                    buf: 3,
                    base: 0,
                    stride: 8,
                    lanes: 4
                },
                AddrPattern::Single { buf: 4, addr: 17 },
                AddrPattern::Opaque,
            ]
        );
        // Each global pattern reproduces the stage count stored in its op.
        for (op, pat) in trace.iter().zip(&addrs) {
            if let Some(stages) = pat.umm_stages(4) {
                assert_eq!(stages, op.stages, "{pat:?}");
            }
        }
    }

    #[test]
    fn tracing_without_addr_channel_keeps_ops_and_drops_patterns() {
        let mut r = TxnRecorder::with_options(4, true, true, false);
        r.record_contig(AccessKind::Read, 0, 0, 8);
        assert_eq!(r.counters().coalesced_reads, 8);
        assert_eq!(r.take_trace().len(), 2);
        assert!(r.take_addrs().is_empty());
    }

    #[test]
    fn addrs_channel_implies_trace_and_stats() {
        let mut r = TxnRecorder::with_options(4, false, false, true);
        assert!(r.enabled());
        r.record_single(AccessKind::Write, 1, 3);
        assert_eq!(r.take_trace().len(), 1);
        assert_eq!(r.take_addrs().len(), 1);
    }

    #[test]
    fn non_tracing_recorder_has_no_addrs() {
        let mut r = TxnRecorder::new(4, true);
        r.record_contig(AccessKind::Read, 0, 0, 8);
        assert!(r.take_addrs().is_empty());
        assert!(r.take_trace().is_empty());
    }
}
