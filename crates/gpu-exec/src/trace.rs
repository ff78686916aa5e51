//! Execution traces: the bridge from real kernel runs to the fine-grain
//! HMM simulator.
//!
//! When a [`crate::Device`] is created with `record_trace`, every block logs
//! the ordered sequence of warp operations it performs — memory space,
//! direction, element count and pipeline stage count (bank conflicts /
//! address groups are already resolved by the recorder). The resulting
//! [`RunTrace`] preserves launch boundaries (barriers) and per-block program
//! order, which is exactly the information the `hmm-sim` crate needs to
//! replay the execution on a `d`-DMM + UMM machine with latency and
//! round-robin warp dispatch — turning one real execution into a
//! dependency-aware simulated time.

use hmm_model::{strided_groups, AccessKind, MemSpace};

/// One warp-level memory operation performed by a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Shared (DMM) or global (UMM) memory.
    pub space: MemSpace,
    /// Read or write.
    pub kind: AccessKind,
    /// Element accesses carried by the transaction.
    pub ops: u32,
    /// Pipeline stages the transaction occupies (conflict/group resolved).
    pub stages: u32,
}

/// Address provenance of one [`TraceOp`]: which words (global) or which
/// tile row/column (shared) the transaction touched.
///
/// Stored in a channel parallel to the op log ([`LaunchTrace::addrs`]) so
/// [`TraceOp`] stays `Copy` and existing consumers are unaffected. Static
/// analyzers use it to pinpoint uncoalesced transactions, cross-block
/// hazards on concrete words, and reads of unwritten shared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrPattern {
    /// Single-lane access of one global word.
    Single {
        /// Identity of the accessed [`crate::GlobalBuffer`].
        buf: u64,
        /// The accessed word address.
        addr: usize,
    },
    /// One warp chunk of a contiguous access: words `[base, base + lanes)`.
    Contig {
        /// Identity of the accessed [`crate::GlobalBuffer`].
        buf: u64,
        /// First word address of the chunk.
        base: usize,
        /// Active lanes (≤ machine width).
        lanes: u32,
    },
    /// One warp chunk of a strided access: words `base + t·stride`.
    Strided {
        /// Identity of the accessed [`crate::GlobalBuffer`].
        buf: u64,
        /// First word address of the chunk.
        base: usize,
        /// Distance between consecutive lanes, in words.
        stride: usize,
        /// Active lanes (≤ machine width).
        lanes: u32,
    },
    /// Full-warp access of logical row `index` of shared tile `tile`.
    TileRow {
        /// Allocation index of the tile within its block (0-based).
        tile: u32,
        /// Logical row index.
        index: u32,
    },
    /// Full-warp access of logical column `index` of shared tile `tile`.
    TileCol {
        /// Allocation index of the tile within its block (0-based).
        tile: u32,
        /// Logical column index.
        index: u32,
    },
    /// Release-publication of a handoff slot: the producer marks the `len`
    /// data words starting at `base` of buffer `data_buf` as ready by
    /// storing a nonzero flag into slot `slot` of flag set `flags` (see
    /// [`crate::HandoffFlags`]). The flag word itself is a synchronisation
    /// cell, not data — it contributes no global data words.
    FlagWrite {
        /// Identity of the [`crate::HandoffFlags`] set.
        flags: u64,
        /// Slot index within the flag set.
        slot: usize,
        /// Identity of the [`crate::GlobalBuffer`] the slot publishes.
        data_buf: u64,
        /// First published word of `data_buf`.
        base: usize,
        /// Number of published words.
        len: usize,
    },
    /// Acquire-poll of a handoff slot flag; `ready` records whether the
    /// published (nonzero) value was observed. An observed `ready = true`
    /// orders the polling block after the corresponding [`Self::FlagWrite`].
    FlagRead {
        /// Identity of the [`crate::HandoffFlags`] set.
        flags: u64,
        /// Slot index within the flag set.
        slot: usize,
        /// Whether the poll observed the published flag.
        ready: bool,
    },
    /// No address information available (differential-test paths).
    Opaque,
}

impl AddrPattern {
    /// Append every global word this pattern touches to `out`, as
    /// `(buffer id, word address)` pairs — addresses are per-buffer, so the
    /// identity is part of the word's name. Shared-tile and opaque patterns
    /// contribute nothing.
    pub fn global_words(&self, out: &mut Vec<(u64, usize)>) {
        match self {
            AddrPattern::Single { buf, addr } => out.push((*buf, *addr)),
            AddrPattern::Contig { buf, base, lanes } => {
                out.extend((*base..*base + *lanes as usize).map(|a| (*buf, a)));
            }
            AddrPattern::Strided {
                buf,
                base,
                stride,
                lanes,
            } => {
                out.extend((0..*lanes as usize).map(|t| (*buf, base + t * stride)));
            }
            // Flag accesses touch only the synchronisation cell, which is
            // atomic and allowed to race; the *data* words a FlagWrite
            // publishes are covered by the producer's own write patterns.
            AddrPattern::FlagWrite { .. }
            | AddrPattern::FlagRead { .. }
            | AddrPattern::TileRow { .. }
            | AddrPattern::TileCol { .. }
            | AddrPattern::Opaque => {}
        }
    }

    /// UMM pipeline stages (distinct `w`-word address groups) this pattern
    /// occupies, or `None` for shared-tile / opaque patterns.
    pub fn umm_stages(&self, w: usize) -> Option<u32> {
        match self {
            AddrPattern::Single { .. } => Some(1),
            AddrPattern::Contig { base, lanes, .. } => {
                Some(strided_groups(*base, 1, *lanes as usize, w) as u32)
            }
            AddrPattern::Strided {
                base,
                stride,
                lanes,
                ..
            } => Some(strided_groups(*base, *stride, *lanes as usize, w) as u32),
            // A flag access is one word in one address group.
            AddrPattern::FlagWrite { .. } | AddrPattern::FlagRead { .. } => Some(1),
            AddrPattern::TileRow { .. } | AddrPattern::TileCol { .. } | AddrPattern::Opaque => None,
        }
    }
}

/// Ordered operations of one block (the block's warps issue them in program
/// order; the paper's kernels are warp-synchronous within a block).
pub type BlockTrace = Vec<TraceOp>;

/// All blocks of one kernel launch, indexed by block id.
#[derive(Debug, Clone, Default)]
pub struct LaunchTrace {
    /// Per-block operation logs.
    pub blocks: Vec<BlockTrace>,
    /// Per-block address patterns, parallel to `blocks`: when address
    /// recording is on, `addrs[b][k]` is the provenance of `blocks[b][k]`.
    /// Empty when the trace was recorded without addresses.
    pub addrs: Vec<Vec<AddrPattern>>,
    /// Whether this launch fell into an injected device-loss window. A
    /// well-behaved runtime performs **no global writes** during a lost
    /// launch (the no-write-after-loss contract `hmm-lint` checks).
    pub lost: bool,
}

impl LaunchTrace {
    /// A launch trace carrying only the op log (no address channel).
    pub fn from_blocks(blocks: Vec<BlockTrace>) -> Self {
        LaunchTrace {
            blocks,
            addrs: Vec::new(),
            lost: false,
        }
    }

    /// Whether the address channel is populated (one pattern list per
    /// block).
    pub fn has_addrs(&self) -> bool {
        self.addrs.len() == self.blocks.len() && !self.blocks.is_empty()
    }
}

/// A whole program: one [`LaunchTrace`] per kernel launch, in order. The
/// boundaries between entries are the barrier synchronisation steps.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Per-launch traces.
    pub launches: Vec<LaunchTrace>,
}

impl RunTrace {
    /// Total warp operations across all launches.
    pub fn total_ops(&self) -> usize {
        self.launches
            .iter()
            .flat_map(|l| &l.blocks)
            .map(|b| b.len())
            .sum()
    }

    /// Number of barrier steps (launches − 1).
    pub fn barrier_steps(&self) -> usize {
        self.launches.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let mut t = RunTrace::default();
        assert_eq!(t.barrier_steps(), 0);
        t.launches.push(LaunchTrace::from_blocks(vec![vec![TraceOp {
            space: MemSpace::Global,
            kind: AccessKind::Read,
            ops: 4,
            stages: 1,
        }]]));
        t.launches
            .push(LaunchTrace::from_blocks(vec![vec![], vec![]]));
        assert_eq!(t.total_ops(), 1);
        assert_eq!(t.barrier_steps(), 1);
    }

    #[test]
    fn pattern_global_words_and_stages() {
        let w = 4;
        let contig = AddrPattern::Contig {
            buf: 1,
            base: 6,
            lanes: 4,
        };
        let mut words = Vec::new();
        contig.global_words(&mut words);
        assert_eq!(words, vec![(1, 6), (1, 7), (1, 8), (1, 9)]);
        assert_eq!(contig.umm_stages(w), Some(2)); // spans groups 1 and 2

        let strided = AddrPattern::Strided {
            buf: 1,
            base: 0,
            stride: 8,
            lanes: 4,
        };
        assert_eq!(strided.umm_stages(w), Some(4));

        assert_eq!(
            AddrPattern::Single { buf: 0, addr: 9 }.umm_stages(w),
            Some(1)
        );
        assert_eq!(
            AddrPattern::TileRow { tile: 0, index: 1 }.umm_stages(w),
            None
        );
        let mut none = Vec::new();
        AddrPattern::TileCol { tile: 0, index: 2 }.global_words(&mut none);
        AddrPattern::Opaque.global_words(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn has_addrs_requires_parallel_channel() {
        let mut l = LaunchTrace::from_blocks(vec![vec![]]);
        assert!(!l.has_addrs());
        l.addrs.push(Vec::new());
        assert!(l.has_addrs());
    }
}
