//! The global memory access cost model (§III) and the closed forms of the
//! paper's Table I.
//!
//! Let `C` be the number of *coalesced* global memory access operations
//! (element accesses whose warp transaction touches a single address group),
//! `S` the number of *stride* operations (all others), and `B` the number of
//! barrier synchronisation steps. Barriers split execution into `B + 1`
//! windows; a window whose accesses occupy `p` pipeline stages takes about
//! `p + L` time units (Figure 5), so the paper defines the
//! **global memory access cost**
//!
//! ```text
//! cost = C / w + S + L · (B + 1)
//! ```
//!
//! which approximates the computing time on the HMM whenever the work inside
//! the DMMs is negligible (the SAT algorithms arrange exactly that, using the
//! diagonal arrangement to keep shared memory conflict-free).
//!
//! [`CostCounters`] accumulates measured `C`, `S`, `B` (plus exact pipeline
//! stage counts and shared-memory statistics) from an execution;
//! [`GlobalCost`] evaluates the closed forms of Table I for each SAT
//! algorithm, so experiments can compare *measured* against *predicted*.

use crate::config::MachineConfig;
use crate::warp::{AccessKind, MemSpace, WarpAccess};

/// The global memory access cost `C/w + S + Λ·windows` of `C` coalesced
/// and `S` stride operations on a machine of width `w` with window
/// overhead `Λ`, over `windows` barrier-delimited windows (`B + 1` for `B`
/// barrier steps). The one definition of the formula: every modeled cost
/// in the workspace is computed here.
pub fn cost(width: usize, window_overhead: u64, coalesced: u64, stride: u64, windows: u64) -> f64 {
    coalesced as f64 / width as f64 + stride as f64 + window_overhead as f64 * windows as f64
}

/// Measured access statistics of one execution on the (asynchronous) HMM.
///
/// Operations are counted per *element access* (the paper's unit: "2R2W
/// performs 2 read operations and 2 write operations per element"), and
/// classified by the warp transaction that carried them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Coalesced global read operations (element count).
    pub coalesced_reads: u64,
    /// Coalesced global write operations (element count).
    pub coalesced_writes: u64,
    /// Stride global read operations (element count).
    pub stride_reads: u64,
    /// Stride global write operations (element count).
    pub stride_writes: u64,
    /// Exact UMM pipeline stages occupied by all global transactions.
    pub global_stages: u64,
    /// Barrier synchronisation steps (kernel boundaries).
    pub barrier_steps: u64,
    /// Shared memory read operations (element count).
    pub shared_reads: u64,
    /// Shared memory write operations (element count).
    pub shared_writes: u64,
    /// Exact DMM pipeline stages occupied by all shared transactions.
    pub shared_stages: u64,
    /// Handoff-flag publishes (release stores). Persistent-block kernels
    /// replace per-stage launch barriers with these; the flag word itself
    /// is also counted as one coalesced global write.
    pub handoff_publishes: u64,
    /// Handoff-flag acquire/poll calls (each records one flag read
    /// regardless of how many times it spun).
    pub handoff_acquires: u64,
}

impl CostCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one warp transaction, classifying it with the machine width.
    pub fn record(&mut self, space: MemSpace, kind: AccessKind, access: &WarpAccess, w: usize) {
        let ops = access.ops() as u64;
        if ops == 0 {
            return;
        }
        match space {
            MemSpace::Global => {
                let stages = access.umm_stages(w) as u64;
                self.global_stages += stages;
                let coalesced = stages <= 1;
                match (kind, coalesced) {
                    (AccessKind::Read, true) => self.coalesced_reads += ops,
                    (AccessKind::Write, true) => self.coalesced_writes += ops,
                    (AccessKind::Read, false) => self.stride_reads += ops,
                    (AccessKind::Write, false) => self.stride_writes += ops,
                }
            }
            MemSpace::Shared => {
                self.shared_stages += access.dmm_stages(w) as u64;
                match kind {
                    AccessKind::Read => self.shared_reads += ops,
                    AccessKind::Write => self.shared_writes += ops,
                }
            }
        }
    }

    /// Record one barrier synchronisation step.
    pub fn barrier(&mut self) {
        self.barrier_steps += 1;
    }

    /// Fold another counter set into this one (counters from different DMMs
    /// or worker threads can be merged; barrier steps are global and should
    /// be merged from exactly one source — [`merge_parallel`](Self::merge_parallel)
    /// handles that).
    pub fn merge(&mut self, other: &CostCounters) {
        self.coalesced_reads += other.coalesced_reads;
        self.coalesced_writes += other.coalesced_writes;
        self.stride_reads += other.stride_reads;
        self.stride_writes += other.stride_writes;
        self.global_stages += other.global_stages;
        self.barrier_steps += other.barrier_steps;
        self.shared_reads += other.shared_reads;
        self.shared_writes += other.shared_writes;
        self.shared_stages += other.shared_stages;
        self.handoff_publishes += other.handoff_publishes;
        self.handoff_acquires += other.handoff_acquires;
    }

    /// Merge a per-worker counter set that must not contribute barrier steps.
    pub fn merge_parallel(&mut self, other: &CostCounters) {
        let barriers = self.barrier_steps;
        self.merge(other);
        self.barrier_steps = barriers;
    }

    /// Total global operations `C + S`.
    pub fn global_ops(&self) -> u64 {
        self.coalesced_ops() + self.stride_ops()
    }

    /// Coalesced global operations `C`.
    pub fn coalesced_ops(&self) -> u64 {
        self.coalesced_reads + self.coalesced_writes
    }

    /// Stride global operations `S`.
    pub fn stride_ops(&self) -> u64 {
        self.stride_reads + self.stride_writes
    }

    /// Global read operations per matrix element, for an `n × n` input —
    /// the "R" in the algorithm names (e.g. ≈ 1.0 for 1R1W).
    pub fn reads_per_element(&self, n: usize) -> f64 {
        (self.coalesced_reads + self.stride_reads) as f64 / (n as f64 * n as f64)
    }

    /// Global write operations per matrix element — the "W" in the names.
    pub fn writes_per_element(&self, n: usize) -> f64 {
        (self.coalesced_writes + self.stride_writes) as f64 / (n as f64 * n as f64)
    }

    /// The paper's global memory access cost `C/w + S + L·(B + 1)`.
    pub fn global_cost(&self, cfg: &MachineConfig) -> f64 {
        cost(
            cfg.width,
            cfg.window_overhead(),
            self.coalesced_ops(),
            self.stride_ops(),
            self.barrier_steps + 1,
        )
    }

    /// Stage-accurate simulated time: exact UMM pipeline stages plus `L` per
    /// barrier-delimited window. Differs from [`global_cost`](Self::global_cost)
    /// only in using measured stages instead of the `C/w + S` approximation
    /// (e.g. an unaligned coalesced-ish warp touching two groups counts two
    /// stages here but `w` "coalesced" ops there).
    pub fn simulated_time(&self, cfg: &MachineConfig) -> f64 {
        self.global_stages as f64 + cfg.window_overhead() as f64 * (self.barrier_steps + 1) as f64
    }
}

/// Closed-form global memory access costs of the SAT algorithms (Table I).
///
/// All formulas take the matrix side `n` (the input is `n × n`) and the
/// machine configuration; they keep the terms the paper reports and drop the
/// same "small terms" the paper drops. They are `f64` because the hybrid's
/// ratio `r` is continuous.
#[derive(Debug, Clone, Copy)]
pub struct GlobalCost {
    cfg: MachineConfig,
}

/// Identifier for the SAT algorithms analysed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SatAlgorithm {
    /// Column-wise then row-wise prefix sums, in place.
    TwoR2W,
    /// Prefix sums + two transposes, all coalesced.
    FourR4W,
    /// Element-wise anti-diagonal wavefront.
    FourR1W,
    /// Block three-phase algorithm (Nehab et al.).
    TwoR1W,
    /// Block anti-diagonal wavefront (this paper's contribution).
    OneR1W,
    /// Hybrid of 2R1W on corner triangles and 1R1W in the middle.
    HybridR1W,
}

impl SatAlgorithm {
    /// All algorithms in the order of Table I.
    pub const ALL: [SatAlgorithm; 6] = [
        SatAlgorithm::TwoR2W,
        SatAlgorithm::FourR4W,
        SatAlgorithm::FourR1W,
        SatAlgorithm::TwoR1W,
        SatAlgorithm::OneR1W,
        SatAlgorithm::HybridR1W,
    ];

    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SatAlgorithm::TwoR2W => "2R2W",
            SatAlgorithm::FourR4W => "4R4W",
            SatAlgorithm::FourR1W => "4R1W",
            SatAlgorithm::TwoR1W => "2R1W",
            SatAlgorithm::OneR1W => "1R1W",
            SatAlgorithm::HybridR1W => "(1+r^2)R1W",
        }
    }
}

impl std::str::FromStr for SatAlgorithm {
    type Err = String;

    /// Parse a paper [`name`](SatAlgorithm::name) in any case; the hybrid
    /// also answers to `hybrid` and `1.25r1w`.
    fn from_str(s: &str) -> Result<Self, String> {
        if s.eq_ignore_ascii_case("hybrid") || s.eq_ignore_ascii_case("1.25r1w") {
            return Ok(SatAlgorithm::HybridR1W);
        }
        SatAlgorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown algorithm {s:?}"))
    }
}

/// One row of Table I: leading-term operation counts and barrier steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOneRow {
    /// Algorithm the row describes.
    pub algorithm: SatAlgorithm,
    /// Predicted coalesced read operations (leading terms).
    pub coalesced_reads: f64,
    /// Predicted coalesced write operations (leading terms).
    pub coalesced_writes: f64,
    /// Predicted stride read operations (leading terms).
    pub stride_reads: f64,
    /// Predicted stride write operations (leading terms).
    pub stride_writes: f64,
    /// Predicted barrier synchronisation steps.
    pub barrier_steps: f64,
    /// The resulting global memory access cost.
    pub cost: f64,
}

impl TableOneRow {
    /// Predicted read operations (coalesced + stride).
    pub fn total_reads(&self) -> f64 {
        self.coalesced_reads + self.stride_reads
    }

    /// Predicted write operations (coalesced + stride).
    pub fn total_writes(&self) -> f64 {
        self.coalesced_writes + self.stride_writes
    }

    /// Fraction of read operations Table I predicts to be *stride*
    /// (0 when the algorithm performs no reads). 2R2W reads half stride
    /// (the row-wise pass), 4R1W everything, 4R4W nothing.
    pub fn stride_read_fraction(&self) -> f64 {
        let total = self.total_reads();
        if total == 0.0 {
            0.0
        } else {
            self.stride_reads / total
        }
    }

    /// Fraction of write operations Table I predicts to be *stride*
    /// (0 when the algorithm performs no writes).
    pub fn stride_write_fraction(&self) -> f64 {
        let total = self.total_writes();
        if total == 0.0 {
            0.0
        } else {
            self.stride_writes / total
        }
    }

    /// Fraction of *all* global operations predicted to be stride — the
    /// budget a trace analyzer should hold a kernel implementation to.
    pub fn stride_fraction(&self) -> f64 {
        let total = self.total_reads() + self.total_writes();
        if total == 0.0 {
            0.0
        } else {
            (self.stride_reads + self.stride_writes) / total
        }
    }
}

/// Transaction-exact operation counts for an algorithm run, where a closed
/// form exists (Table I keeps leading terms only; these keep every term, so
/// a measured [`CostCounters`] can be compared for *equality*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCounts {
    /// Coalesced global read operations.
    pub coalesced_reads: u64,
    /// Coalesced global write operations.
    pub coalesced_writes: u64,
    /// Stride global read operations.
    pub stride_reads: u64,
    /// Stride global write operations.
    pub stride_writes: u64,
    /// Barrier synchronisation steps.
    pub barrier_steps: u64,
}

impl ExactCounts {
    /// Coalesced operations `C`.
    pub fn coalesced_ops(&self) -> u64 {
        self.coalesced_reads + self.coalesced_writes
    }

    /// Stride operations `S`.
    pub fn stride_ops(&self) -> u64 {
        self.stride_reads + self.stride_writes
    }

    /// Counts of `batch` same-shape runs fused into one launch sequence
    /// (the batched wavefront): every transaction is paid per image, the
    /// barrier steps only once.
    pub fn fused(self, batch: u64) -> ExactCounts {
        ExactCounts {
            coalesced_reads: self.coalesced_reads * batch,
            coalesced_writes: self.coalesced_writes * batch,
            stride_reads: self.stride_reads * batch,
            stride_writes: self.stride_writes * batch,
            barrier_steps: self.barrier_steps,
        }
    }

    /// Whether measured counters agree exactly on `C`, `S` and `B`.
    pub fn matches(&self, measured: &CostCounters) -> bool {
        self.coalesced_reads == measured.coalesced_reads
            && self.coalesced_writes == measured.coalesced_writes
            && self.stride_reads == measured.stride_reads
            && self.stride_writes == measured.stride_writes
            && self.barrier_steps == measured.barrier_steps
    }
}

impl GlobalCost {
    /// Cost evaluator for a machine configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        GlobalCost { cfg }
    }

    fn w(&self) -> f64 {
        self.cfg.width as f64
    }

    /// Effective per-window overhead Λ (latency plus barrier overhead).
    fn l(&self) -> f64 {
        self.cfg.window_overhead() as f64
    }

    /// Lemma 2 — 2R2W: `2n²/w + 2n² + 2L`.
    ///
    /// The column-wise pass is coalesced (`2n²` operations), the row-wise
    /// pass is stride (`2n²` operations), one barrier between them.
    pub fn two_r2w(&self, n: usize) -> f64 {
        let n2 = (n as f64) * (n as f64);
        2.0 * n2 / self.w() + 2.0 * n2 + 2.0 * self.l()
    }

    /// Lemma 3 — 4R4W: `8n²/w + 4L`.
    ///
    /// Two coalesced column-wise passes plus two coalesced transposes
    /// (`8n²` operations), three barriers.
    pub fn four_r4w(&self, n: usize) -> f64 {
        let n2 = (n as f64) * (n as f64);
        8.0 * n2 / self.w() + 4.0 * self.l()
    }

    /// Lemma 5 — 4R1W: `5n² + 2nL`.
    ///
    /// Every operation is stride (`4n²` reads + `n²` writes) and the
    /// anti-diagonal wavefront needs `2n − 1` barrier-delimited stages.
    pub fn four_r1w(&self, n: usize) -> f64 {
        let n2 = (n as f64) * (n as f64);
        5.0 * n2 + 2.0 * (n as f64) * self.l()
    }

    /// Lemma 4 — 2R1W with recursion depth `k`:
    /// `3n²/w + 6n²/w² + (2k + 3)·L`.
    ///
    /// Step 1 reads `n²` and writes ≈ `2n²/w + n²/w²` fringe data; Step 3
    /// reads `n² + 2n²/w + n²/w²` and writes `n²`; Step 2 touches the fringe
    /// matrices again (≈ `3n²/w` operations in total across both). All
    /// accesses are coalesced. Recursion multiplies only the `n²/w²`-sized
    /// problem, and adds two barriers per level; `k ≤ 1` in practice
    /// (`w³ ≥ n` already at `n ≤ 32768` for `w = 32`).
    pub fn two_r1w(&self, n: usize) -> f64 {
        self.two_r1w_depth(n, self.recursion_depth(n))
    }

    /// 2R1W cost with an explicit recursion depth.
    pub fn two_r1w_depth(&self, n: usize, k: u32) -> f64 {
        let n2 = (n as f64) * (n as f64);
        let w = self.w();
        3.0 * n2 / w + 6.0 * n2 / (w * w) + (2.0 * k as f64 + 3.0) * self.l()
    }

    /// Natural recursion depth of 2R1W: the sums matrix has side `n/w`;
    /// recursion continues while that exceeds one block, i.e. depth
    /// `k = ⌈log_w(n/w²)⌉` clamped at 0 (`k ≤ 1` for all practical sizes).
    ///
    /// # Panics
    /// Panics at `w = 1` for `n > 1`: the sums matrix is `n × n` again, so
    /// 2R1W's recursion needs `w ≥ 2` to terminate.
    pub fn recursion_depth(&self, n: usize) -> u32 {
        let w = self.cfg.width;
        let mut side = n.div_ceil(w); // side of the sums matrix
        assert!(
            w >= 2 || side <= w,
            "2R1W's recursion needs w ≥ 2: at w = 1 the sums matrix of an \
             n = {n} input is {side} × {side} again"
        );
        let mut k = 0;
        while side > w {
            side = side.div_ceil(w);
            k += 1;
        }
        k
    }

    /// Theorem 6 — 1R1W: `2n²/w + 6n²/w² + (2n/w)·L`.
    ///
    /// Each block is read and written once (`2n²` coalesced operations) plus
    /// `O(w)` fringe operations per block; the block wavefront has
    /// `2·(n/w) − 1` barrier-delimited stages.
    pub fn one_r1w(&self, n: usize) -> f64 {
        let n2 = (n as f64) * (n as f64);
        let w = self.w();
        2.0 * n2 / w + 6.0 * n2 / (w * w) + 2.0 * (n as f64) / w * self.l()
    }

    /// Theorem 7 — the hybrid (1+r²)R1W:
    /// `(2 + r²)·n²/w + (2(1 − r)·n/w + 4k + 6)·L`.
    ///
    /// 2R1W handles the two corner triangles (together `r²n²` elements, so
    /// `3r²n²/w` traffic and `2(2k + 2) + 2` barriers), 1R1W handles the
    /// middle (`(1 − r²)n²` elements, `2(1 − r²)n²/w` traffic, and
    /// `2(1 − r)·n/w − 1` wavefront stages).
    pub fn hybrid(&self, n: usize, r: f64) -> f64 {
        assert!((0.0..=1.0).contains(&r), "r must lie in [0, 1]");
        let n2 = (n as f64) * (n as f64);
        let w = self.w();
        let k = self.recursion_depth(n) as f64;
        (2.0 + r * r) * n2 / w
            + 6.0 * n2 / (w * w)
            + (2.0 * (1.0 - r) * (n as f64) / w + 4.0 * k + 6.0) * self.l()
    }

    /// The admissible hybrid ratios for an `n × n` matrix: `r·(n/w)` must be
    /// an integer number of block anti-diagonals, so `r ∈ {0, w/n, 2w/n, …, 1}`.
    pub fn admissible_ratios(&self, n: usize) -> Vec<f64> {
        let m = n / self.cfg.width;
        (0..=m).map(|j| j as f64 / m as f64).collect()
    }

    /// The admissible `r` minimising the hybrid cost (the paper's Table II
    /// reports this per size; it decreases as `n` grows).
    pub fn optimal_r(&self, n: usize) -> f64 {
        let mut best = (f64::INFINITY, 0.0);
        for r in self.admissible_ratios(n) {
            let c = self.hybrid(n, r);
            if c < best.0 {
                best = (c, r);
            }
        }
        best.1
    }

    /// Cost of `algorithm` at size `n` (hybrid uses its optimal `r`).
    pub fn cost(&self, algorithm: SatAlgorithm, n: usize) -> f64 {
        match algorithm {
            SatAlgorithm::TwoR2W => self.two_r2w(n),
            SatAlgorithm::FourR4W => self.four_r4w(n),
            SatAlgorithm::FourR1W => self.four_r1w(n),
            SatAlgorithm::TwoR1W => self.two_r1w(n),
            SatAlgorithm::OneR1W => self.one_r1w(n),
            SatAlgorithm::HybridR1W => self.hybrid(n, self.optimal_r(n)),
        }
    }

    /// The algorithm the cost model predicts fastest at size `n`.
    pub fn predicted_best(&self, n: usize) -> SatAlgorithm {
        *SatAlgorithm::ALL
            .iter()
            .min_by(|a, b| {
                self.cost(**a, n)
                    .partial_cmp(&self.cost(**b, n))
                    .expect("costs are finite")
            })
            .expect("at least one algorithm")
    }

    /// One row of Table I: predicted operation counts, barriers and cost.
    pub fn table_one_row(&self, algorithm: SatAlgorithm, n: usize) -> TableOneRow {
        let n2 = (n as f64) * (n as f64);
        let w = self.w();
        let m = (n as f64) / w;
        let k = || self.recursion_depth(n) as f64;
        let (cr, cw, sr, sw, b) = match algorithm {
            SatAlgorithm::TwoR2W => (n2, n2, n2, n2, 1.0),
            SatAlgorithm::FourR4W => (4.0 * n2, 4.0 * n2, 0.0, 0.0, 3.0),
            SatAlgorithm::FourR1W => (0.0, 0.0, 4.0 * n2, n2, 2.0 * n as f64 - 1.0),
            SatAlgorithm::TwoR1W => (
                2.0 * n2 + 3.0 * n2 / w,
                n2 + 3.0 * n2 / w,
                0.0,
                0.0,
                2.0 * k() + 2.0,
            ),
            SatAlgorithm::OneR1W => (n2 + 2.0 * n2 / w, n2 + n2 / w, n2 / w, 0.0, 2.0 * m - 2.0),
            SatAlgorithm::HybridR1W => {
                // Fringe traffic scales with each part's share: ≈ 3n²/w in
                // the 2R1W triangles (r² of the area), ≈ n²/w coalesced +
                // n²/w stride in the 1R1W middle (1 − r² of the area).
                let r = self.optimal_r(n);
                let r2 = r * r;
                (
                    (1.0 + r2) * n2 + 3.0 * r2 * n2 / w + (1.0 - r2) * n2 / w,
                    n2 + 3.0 * r2 * n2 / w,
                    (1.0 - r2) * n2 / w,
                    0.0,
                    2.0 * (1.0 - r) * m + 4.0 * k() + 5.0,
                )
            }
        };
        TableOneRow {
            algorithm,
            coalesced_reads: cr,
            coalesced_writes: cw,
            stride_reads: sr,
            stride_writes: sw,
            barrier_steps: b,
            cost: self.cost(algorithm, n),
        }
    }

    /// Transaction-exact counts for `algorithm` on a `rows × cols` input,
    /// where the kernel admits a closed form with *every* term (currently
    /// 1R1W with `w | rows` and `w | cols` — pad first, as the drivers do;
    /// other algorithms return `None` and should be compared against
    /// [`table_one_row`](Self::table_one_row) leading terms with a
    /// tolerance).
    ///
    /// 1R1W per Theorem 6, counting the fringes Table I drops, with
    /// `m_r = rows/w` block-rows and `m_c = cols/w` block-columns: each
    /// block loads its `w × w` tile coalesced (`rows·cols` reads) and
    /// stores it once (`rows·cols` coalesced writes). Blocks below the
    /// first block-row additionally read the `w`-wide column-sum fringe
    /// above them coalesced (`(m_r−1)·m_c·w` reads); blocks right of the
    /// first block-column read the `w`-tall row-sum fringe to their left, a
    /// stride access down a column (`m_r·(m_c−1)·w` stride reads); interior
    /// blocks read one corner prefix scalar (`(m_r−1)·(m_c−1)` coalesced
    /// reads). The block anti-diagonal wavefront takes `m_r + m_c − 1`
    /// launches, hence `m_r + m_c − 2` barrier steps.
    pub fn exact_counts(
        &self,
        algorithm: SatAlgorithm,
        rows: usize,
        cols: usize,
    ) -> Option<ExactCounts> {
        let w = self.cfg.width;
        if rows == 0 || cols == 0 || rows % w != 0 || cols % w != 0 {
            return None;
        }
        let (mr, mc) = ((rows / w) as u64, (cols / w) as u64);
        let wu = w as u64;
        let area = (rows as u64) * (cols as u64);
        match algorithm {
            SatAlgorithm::OneR1W => Some(ExactCounts {
                coalesced_reads: area + (mr - 1) * mc * wu + (mr - 1) * (mc - 1),
                coalesced_writes: area,
                stride_reads: mr * (mc - 1) * wu,
                stride_writes: 0,
                barrier_steps: mr + mc - 2,
            }),
            _ => None,
        }
    }

    /// Exact operation counts of the **persistent-block** 1R1W driver
    /// (single launch, flagged handoffs) on a square `n × n` input with
    /// `w | n`, fully deterministic at one resident block.
    ///
    /// Identical data movement to [`Self::exact_counts`] for
    /// [`SatAlgorithm::OneR1W`], plus one coalesced word per handoff flag
    /// operation: every block below the last block-row publishes its bottom
    /// SAT row once (`(m−1)·m` coalesced writes) and every block below the
    /// first block-row acquires the flag above it (`(m−1)·m` coalesced
    /// reads when each acquire succeeds on its first poll). The launch
    /// barrier disappears entirely: `B = 0`.
    pub fn persistent_1r1w_exact_counts(&self, n: usize) -> Option<ExactCounts> {
        let base = self.exact_counts(SatAlgorithm::OneR1W, n, n)?;
        let m = (n / self.cfg.width) as u64;
        Some(ExactCounts {
            coalesced_reads: base.coalesced_reads + (m - 1) * m,
            coalesced_writes: base.coalesced_writes + (m - 1) * m,
            barrier_steps: 0,
            ..base
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc() -> GlobalCost {
        GlobalCost::new(MachineConfig::default())
    }

    #[test]
    fn algorithm_names_parse_in_any_case() {
        for alg in SatAlgorithm::ALL {
            assert_eq!(alg.name().parse(), Ok(alg));
            assert_eq!(alg.name().to_ascii_lowercase().parse(), Ok(alg));
        }
        for hybrid in ["hybrid", "HYBRID", "1.25r1w", "1.25R1W"] {
            assert_eq!(hybrid.parse(), Ok(SatAlgorithm::HybridR1W));
        }
        assert!("9r9w".parse::<SatAlgorithm>().is_err());
        assert!("".parse::<SatAlgorithm>().is_err());
    }

    #[test]
    fn counters_classify_coalesced_and_stride() {
        let w = 4;
        let mut c = CostCounters::new();
        c.record(
            MemSpace::Global,
            AccessKind::Read,
            &WarpAccess::contiguous(0, 4, w),
            w,
        );
        c.record(
            MemSpace::Global,
            AccessKind::Write,
            &WarpAccess::strided(0, 4, 4, w),
            w,
        );
        assert_eq!(c.coalesced_reads, 4);
        assert_eq!(c.stride_writes, 4);
        assert_eq!(c.global_stages, 1 + 4);
        assert_eq!(c.global_ops(), 8);
    }

    #[test]
    fn cost_formula_matches_definition() {
        let cfg = MachineConfig::with_width(4).latency(10);
        let mut c = CostCounters::new();
        // 8 coalesced ops (2 stages), 3 stride ops, 1 barrier.
        c.record(
            MemSpace::Global,
            AccessKind::Read,
            &WarpAccess::contiguous(0, 4, 4),
            4,
        );
        c.record(
            MemSpace::Global,
            AccessKind::Write,
            &WarpAccess::contiguous(4, 4, 4),
            4,
        );
        c.barrier();
        c.record(
            MemSpace::Global,
            AccessKind::Read,
            &WarpAccess::strided(0, 4, 3, 4),
            4,
        );
        assert_eq!(c.global_cost(&cfg), 8.0 / 4.0 + 3.0 + 10.0 * 2.0);
        assert_eq!(c.simulated_time(&cfg), (2 + 3) as f64 + 10.0 * 2.0);
    }

    #[test]
    fn stride_fractions_match_table_one_columns() {
        let g = gc();
        let n = 1024;
        // 2R2W: the row-wise pass is stride — half of reads, half of writes.
        let r = g.table_one_row(SatAlgorithm::TwoR2W, n);
        assert_eq!(r.stride_read_fraction(), 0.5);
        assert_eq!(r.stride_write_fraction(), 0.5);
        assert_eq!(r.stride_fraction(), 0.5);
        // 4R4W: everything coalesced.
        let r = g.table_one_row(SatAlgorithm::FourR4W, n);
        assert_eq!(r.stride_fraction(), 0.0);
        // 4R1W: everything stride (and the write fraction is 1 despite
        // fewer writes than reads).
        let r = g.table_one_row(SatAlgorithm::FourR1W, n);
        assert_eq!(r.stride_read_fraction(), 1.0);
        assert_eq!(r.stride_write_fraction(), 1.0);
        // 1R1W: only the fringe reads (n²/w of ≈ n²) are stride.
        let r = g.table_one_row(SatAlgorithm::OneR1W, n);
        assert!(r.stride_write_fraction() == 0.0);
        assert!(r.stride_read_fraction() > 0.0 && r.stride_read_fraction() < 0.1);
    }

    #[test]
    fn merge_parallel_keeps_barriers() {
        let mut a = CostCounters::new();
        a.barrier();
        let mut b = CostCounters::new();
        b.barrier();
        b.coalesced_reads = 7;
        a.merge_parallel(&b);
        assert_eq!(a.barrier_steps, 1);
        assert_eq!(a.coalesced_reads, 7);
    }

    #[test]
    fn shared_accesses_do_not_touch_global_cost() {
        let cfg = MachineConfig::with_width(4).latency(10);
        let mut c = CostCounters::new();
        c.record(
            MemSpace::Shared,
            AccessKind::Read,
            &WarpAccess::contiguous(0, 4, 4),
            4,
        );
        assert_eq!(c.shared_reads, 4);
        assert_eq!(c.global_ops(), 0);
        assert_eq!(c.global_cost(&cfg), 10.0);
    }

    #[test]
    fn stride_access_dominates_2r2w() {
        // Lemma 2 vs Lemma 3: for large n, 4R4W beats 2R2W despite moving
        // twice the data, because stride access costs w times more.
        let g = gc();
        for n in [1024, 4096, 16384] {
            assert!(g.four_r4w(n) < g.two_r2w(n), "n={n}");
        }
    }

    #[test]
    fn four_r1w_is_worst_for_large_n() {
        let g = gc();
        for n in [1024usize, 8192] {
            for alg in [
                SatAlgorithm::TwoR2W,
                SatAlgorithm::FourR4W,
                SatAlgorithm::TwoR1W,
                SatAlgorithm::OneR1W,
            ] {
                assert!(
                    g.cost(alg, n) < g.four_r1w(n),
                    "{:?} should beat 4R1W at n={n}",
                    alg
                );
            }
        }
    }

    #[test]
    fn one_r1w_overtakes_two_r1w_for_large_n() {
        // The paper's Table II behaviour on the calibrated profile: 2R1W
        // wins up to 6K (the wavefront's per-stage overhead dominates), 1R1W
        // wins from 7K on (bandwidth dominates). The measured crossover in
        // Table II is exactly between the 6K and 7K columns.
        let g = GlobalCost::new(MachineConfig::gtx780ti());
        for n in (1..=6).map(|k| k * 1024) {
            assert!(g.two_r1w(n) <= g.one_r1w(n), "2R1W should win at n={n}");
        }
        for n in (7..=18).map(|k| k * 1024) {
            assert!(g.one_r1w(n) < g.two_r1w(n), "1R1W should win at n={n}");
        }
        // Under the pure paper model (no kernel-launch overhead) the
        // crossover happens much earlier, at n ≈ 2L.
        let pure = gc();
        assert!(pure.one_r1w(1024) < pure.two_r1w(1024));
    }

    #[test]
    fn hybrid_at_optimal_r_beats_both_parents() {
        let g = gc();
        for n in (1..=18).map(|k| k * 1024) {
            let r = g.optimal_r(n);
            let h = g.hybrid(n, r);
            // r = 0 is 1R1W and r = 1 is (almost) 2R1W, so the optimum over
            // admissible r is no worse than either endpoint.
            assert!(h <= g.hybrid(n, 0.0) + 1e-9);
            assert!(h <= g.hybrid(n, 1.0) + 1e-9);
        }
    }

    #[test]
    fn optimal_r_decreases_with_n() {
        // The paper's Table II: the best r shrinks as n grows (the stationary
        // point of the hybrid cost is r* = Λ/n, clamped to [0, 1]).
        let g = GlobalCost::new(MachineConfig::gtx780ti());
        let rs: Vec<f64> = [5, 6, 8, 10, 12, 14, 16, 18]
            .iter()
            .map(|&k| g.optimal_r(k * 1024))
            .collect();
        for pair in rs.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "optimal r should not increase: {rs:?}"
            );
        }
        assert!(rs[0] < 1.0, "r should be interior at n = 5K: {rs:?}");
        assert!(*rs.last().unwrap() > 0.0, "r should stay positive: {rs:?}");
    }

    #[test]
    fn predicted_best_follows_table_two_shape() {
        // Table II, boldface column by column: 2R1W is fastest for small
        // matrices, the hybrid (1+r²)R1W from 5K on.
        let g = GlobalCost::new(MachineConfig::gtx780ti());
        for n in [1024usize, 2048, 3072] {
            assert_eq!(
                g.predicted_best(n),
                SatAlgorithm::TwoR1W,
                "2R1W should be predicted fastest at n={n}"
            );
        }
        for n in (5..=18).map(|k| k * 1024) {
            assert_eq!(
                g.predicted_best(n),
                SatAlgorithm::HybridR1W,
                "the hybrid should be predicted fastest at n={n}"
            );
        }
    }

    #[test]
    fn recursion_depth_practical_values() {
        let g = gc();
        assert_eq!(g.recursion_depth(1024), 0); // 1024/32 = 32 ≤ w
        assert_eq!(g.recursion_depth(18 * 1024), 1); // 18432/32 = 576 > 32
        assert_eq!(g.recursion_depth(32), 0);
    }

    #[test]
    #[should_panic(expected = "2R1W's recursion needs w ≥ 2")]
    fn recursion_depth_fails_fast_at_width_one() {
        GlobalCost::new(MachineConfig::with_width(1)).recursion_depth(4);
    }

    #[test]
    fn width_one_prices_everything_but_the_2r1w_recursion() {
        // n = 1 needs no recursion at any width, and the Table I rows of
        // the algorithms without one never ask for its depth.
        let g = GlobalCost::new(MachineConfig::with_width(1));
        assert_eq!(g.recursion_depth(1), 0);
        assert_eq!(g.table_one_row(SatAlgorithm::TwoR2W, 4).barrier_steps, 1.0);
    }

    #[test]
    fn admissible_ratios_are_block_aligned() {
        let g = GlobalCost::new(MachineConfig::with_width(32));
        let rs = g.admissible_ratios(128);
        assert_eq!(rs.len(), 5); // m = 4 → {0, ¼, ½, ¾, 1}
        assert_eq!(rs[0], 0.0);
        assert_eq!(*rs.last().unwrap(), 1.0);
    }

    #[test]
    fn table_one_rows_are_consistent_with_costs() {
        let g = gc();
        let n = 4096;
        for alg in SatAlgorithm::ALL {
            let row = g.table_one_row(alg, n);
            assert_eq!(row.algorithm, alg);
            assert!(row.cost > 0.0);
            // Reads/writes per element must reflect the algorithm's name.
            let n2 = (n * n) as f64;
            let reads = (row.coalesced_reads + row.stride_reads) / n2;
            let writes = (row.coalesced_writes + row.stride_writes) / n2;
            match alg {
                SatAlgorithm::TwoR2W => {
                    assert_eq!(reads, 2.0);
                    assert_eq!(writes, 2.0);
                }
                SatAlgorithm::FourR4W => {
                    assert_eq!(reads, 4.0);
                    assert_eq!(writes, 4.0);
                }
                SatAlgorithm::FourR1W => {
                    assert_eq!(reads, 4.0);
                    assert_eq!(writes, 1.0);
                }
                SatAlgorithm::TwoR1W => {
                    assert!((2.0..2.2).contains(&reads), "{reads}");
                    assert!((1.0..1.2).contains(&writes), "{writes}");
                }
                SatAlgorithm::OneR1W => {
                    assert!((1.0..1.2).contains(&reads), "{reads}");
                    assert!((1.0..1.1).contains(&writes), "{writes}");
                }
                SatAlgorithm::HybridR1W => {
                    assert!((1.0..2.2).contains(&reads), "{reads}");
                    assert!((1.0..1.2).contains(&writes), "{writes}");
                }
            }
        }
    }

    #[test]
    fn exact_counts_refine_table_one_leading_terms() {
        let g = gc();
        let (w, n) = (32usize, 1024usize);
        let e = g.exact_counts(SatAlgorithm::OneR1W, n, n).unwrap();
        let row = g.table_one_row(SatAlgorithm::OneR1W, n);
        // Each exact column agrees with its Table I leading term to the
        // dropped-small-terms order, O(1/w) relative…
        let close = |exact: u64, lead: f64| (exact as f64 - lead).abs() <= lead * 4.0 / w as f64;
        assert!(close(e.coalesced_reads, row.coalesced_reads));
        assert!(close(e.coalesced_writes, row.coalesced_writes));
        assert!(close(e.stride_reads, row.stride_reads));
        assert_eq!(e.stride_writes, 0);
        assert_eq!(e.barrier_steps as f64, row.barrier_steps);
        // …and the derived C/S aggregates are consistent.
        assert_eq!(e.coalesced_ops(), e.coalesced_reads + e.coalesced_writes);
        let m = (n / w) as u64;
        assert_eq!(e.stride_ops(), (m - 1) * m * w as u64);
    }

    #[test]
    fn persistent_exact_counts_add_flag_words_and_drop_barriers() {
        let g = gc(); // w = 32
        let n = 256;
        let m = (n / 32) as u64;
        let base = g.exact_counts(SatAlgorithm::OneR1W, n, n).unwrap();
        let p = g.persistent_1r1w_exact_counts(n).unwrap();
        assert_eq!(p.coalesced_reads, base.coalesced_reads + (m - 1) * m);
        assert_eq!(p.coalesced_writes, base.coalesced_writes + (m - 1) * m);
        assert_eq!(p.stride_reads, base.stride_reads);
        assert_eq!(p.stride_writes, 0);
        assert_eq!(p.barrier_steps, 0, "no launch barrier survives");
        assert!(base.barrier_steps > 0);
        // Same alignment requirements as the staged form.
        assert!(g.persistent_1r1w_exact_counts(100).is_none());
        assert!(g.persistent_1r1w_exact_counts(0).is_none());
    }

    #[test]
    fn exact_counts_require_block_aligned_dims() {
        let g = gc(); // w = 32
        assert!(g.exact_counts(SatAlgorithm::OneR1W, 0, 32).is_none());
        assert!(g.exact_counts(SatAlgorithm::OneR1W, 100, 100).is_none()); // 32 ∤ 100
        assert!(g.exact_counts(SatAlgorithm::OneR1W, 64, 100).is_none());
        assert!(g.exact_counts(SatAlgorithm::TwoR2W, 1024, 1024).is_none()); // no closed form

        // Degenerate single-block case: no fringes, no barriers.
        let e = g.exact_counts(SatAlgorithm::OneR1W, 32, 32).unwrap();
        assert_eq!(e.coalesced_reads, 32 * 32);
        assert_eq!(e.coalesced_writes, 32 * 32);
        assert_eq!(e.stride_reads, 0);
        assert_eq!(e.barrier_steps, 0);
    }

    #[test]
    fn exact_counts_match_detects_divergence() {
        let g = gc();
        let e = g.exact_counts(SatAlgorithm::OneR1W, 64, 64).unwrap();
        let mut measured = CostCounters {
            coalesced_reads: e.coalesced_reads,
            coalesced_writes: e.coalesced_writes,
            stride_reads: e.stride_reads,
            stride_writes: e.stride_writes,
            barrier_steps: e.barrier_steps,
            ..CostCounters::new()
        };
        assert!(e.matches(&measured));
        measured.stride_reads += 1;
        assert!(!e.matches(&measured));
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(SatAlgorithm::OneR1W.name(), "1R1W");
        assert_eq!(SatAlgorithm::HybridR1W.name(), "(1+r^2)R1W");
    }
}
