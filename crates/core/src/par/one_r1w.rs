//! The **1R1W** SAT algorithm (§VI) — the paper's contribution, optimal in
//! global memory accesses.
//!
//! 4R1W's anti-diagonal wavefront is lifted from elements to `w × w`
//! **blocks** (Figure 11): stage `d` computes the final SAT values of every
//! block on block-anti-diagonal `bi + bj = d`. A block needs three kinds of
//! fringe data, and *all of them can be read from the already-finished SAT
//! values of its neighbours* (the paper's "pairwise subtraction"):
//!
//! * `T[j] = S(bi·w−1, bj·w+j)` — the bottom row of the block above
//!   (stage `d−1`): the sum of column `bj·w+j` over all rows above, *plus*
//!   everything above-left;
//! * `Lᵢ = S(bi·w+i, bj·w−1)` — the rightmost column of the block to the
//!   left (stage `d−1`);
//! * `c = S(bi·w−1, bj·w−1)` — the bottom-right corner of the diagonal
//!   neighbour (stage `d−2`).
//!
//! With the block's local SAT `ℓ` (computed in shared memory with the
//! diagonal arrangement) the global value is simply
//!
//! ```text
//! S(bi·w+i, bj·w+j) = ℓ(i,j) + T[j] + Lᵢ − c .
//! ```
//!
//! Per element this costs exactly **1 read + 1 write** plus `O(w)` fringe
//! reads per block — optimal, since every input must be read and every
//! output written (Theorem 6). The price is `2·(n/w) − 1` barrier-separated
//! stages, whose latency dominates for small matrices — hence the hybrid
//! `(1+r²)R1W`.
//!
//! Every 1R1W variant — staged, batched, mirror and persistent — runs its
//! blocks through one body, a single pass over the tile: the local SAT's
//! column pass runs as each row is loaded, and its row pass as each row is
//! emitted, just before the row's fringe add and its global write
//! ([`load_scan_block`], `Fringes::emit`). The variants differ only in
//! where the fringes come from.

use gpu_exec::{BlockCtx, Device, GlobalBuffer, GlobalView, HandoffFlags, RowPass, SharedTile};

use crate::element::SatElement;
use crate::par::common::{default_tile, load_scan_block, Grid};

/// **1R1W**: compute into `s` the SAT of the `rows × cols` matrix in `a`,
/// by `rows/w + cols/w − 1` block-wavefront launches.
///
/// `s` may be `a`: a block reads its own input words before it writes them,
/// and its fringes are `S` words that earlier stages finished.
pub fn sat_1r1w<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
) {
    sat_1r1w_batch(dev, &[a], &[s], rows, cols);
}

/// Batched **1R1W**: compute `outputs[k]` = SAT of `inputs[k]` for every
/// `k`, all matrices `rows × cols`, with the block wavefront fused across
/// the batch (`rows/w + cols/w − 1` launches in total, independent of the
/// batch size).
///
/// 1R1W's weakness is its barrier-separated stages whose corner launches
/// are too narrow to hide latency (§VII). When several matrices need SATs
/// (video frames, depth + depth² for shadow maps, image stacks), stage `d`
/// of every image runs in one launch, so each launch is `B×` wider: the
/// corner stages of a 16-image batch hold 16 blocks instead of one. (The
/// paper's hybrid is still the answer for a *single* matrix; this is the
/// batch counterpart.) [`sat_1r1w`] is the batch of one.
pub fn sat_1r1w_batch<T: SatElement>(
    dev: &Device,
    inputs: &[&GlobalBuffer<T>],
    outputs: &[&GlobalBuffer<T>],
    rows: usize,
    cols: usize,
) {
    assert_eq!(inputs.len(), outputs.len(), "one output per input");
    if inputs.is_empty() {
        return;
    }
    let grid = Grid::new(rows, cols, dev.width());
    for (a, s) in inputs.iter().zip(outputs) {
        assert!(
            a.len() >= rows * cols && s.len() >= rows * cols,
            "buffers too small"
        );
    }
    for d in 0..grid.diagonals() {
        stage(dev, inputs, outputs, grid, d);
    }
}

/// One wavefront stage: finish every block with `bi + bj = d`. Exposed for
/// the hybrid algorithm, which runs these stages only over its middle
/// region. Requires all blocks with smaller `bi + bj` to hold final SAT
/// values in `s`.
pub fn one_r1w_stage<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    grid: Grid,
    d: usize,
) {
    stage(dev, &[a], &[s], grid, d);
}

/// Stage `d` over a whole batch in one launch: block id
/// `img · per_image + k` finishes the `k`-th block of diagonal `d` in image
/// `img`.
fn stage<T: SatElement>(
    dev: &Device,
    inputs: &[&GlobalBuffer<T>],
    outputs: &[&GlobalBuffer<T>],
    grid: Grid,
    d: usize,
) {
    let rows = grid.diagonal_rows(d);
    let (lo, per_image) = (rows.start, rows.len());
    dev.launch(per_image * inputs.len(), |ctx| {
        let id = ctx.block_id();
        let (img, which) = (id / per_image, id % per_image);
        let ga = ctx.view(inputs[img]);
        let gs = ctx.view(outputs[img]);
        let bi = lo + which;
        let bj = d - bi;
        let above = (bi > 0).then(|| (gs, grid.addr(bi * grid.w - 1, 0)));
        stage_block(ctx, &ga, &gs, None, grid, (bi, bj), above);
    });
}

/// A block's fringes, read from its finished neighbours by pairwise
/// subtraction: `top[j] = T[j]`, `left[i] = Lᵢ` and `corner = c` (zero
/// where the neighbour does not exist).
struct Fringes<T> {
    top: Vec<T>,
    left: Vec<T>,
    corner: T,
}

impl<T: SatElement> Fringes<T> {
    fn zero(w: usize) -> Self {
        Fringes {
            top: vec![T::ZERO; w],
            left: vec![T::ZERO; w],
            corner: T::ZERO,
        }
    }

    /// Emit the block at element `(r0, c0)` from its scanned tile `rows`:
    /// each row finishes its local SAT `ℓ` and is written as
    /// `S(r0+i, c0+j) = ℓ(i,j) + T[j] + (Lᵢ − c)`, one coalesced row write
    /// per tile row. `right`, when given, receives the block's right column
    /// (the payload of a mirror write).
    fn emit(
        &self,
        ctx: &mut BlockCtx<'_>,
        gs: &GlobalView<'_, T>,
        rows: RowPass<'_, T, impl Fn(T, T) -> T>,
        grid: Grid,
        (r0, c0): (usize, usize),
        mut right: Option<&mut [T]>,
    ) {
        let w = grid.w;
        rows.store_with(gs, grid.addr(r0, c0), grid.cols, &mut ctx.rec, |i, row| {
            let li = self.left[i].sub(self.corner);
            for (v, t) in row.iter_mut().zip(&self.top) {
                *v = v.add(*t).add(li);
            }
            if let Some(right) = right.as_deref_mut() {
                right[i] = row[w - 1];
            }
        });
    }
}

/// One block of a launch-per-stage 1R1W kernel: load block `(bi, bj)` and
/// scan it in shared memory, read its fringes, and emit it (recorded in
/// that order; the scan's row pass runs inside the emit).
///
/// * `above` is the row above the block, `S(r0 − 1, c)` at word `base + c`
///   of the view — the finished block-row in `s` — or `None` in the first
///   block-row. The top fringe is one coalesced read of it, the corner one
///   single-word read.
/// * The left fringe is the right column of the block to the left: a
///   stride read of `s` (the `O(n²/w)` lower-order term of Theorem 6), or,
///   with a `mirror`, one coalesced read of that column mirrored
///   transposed — in which case the block mirrors its own right column
///   too.
fn stage_block<T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    ga: &GlobalView<'_, T>,
    gs: &GlobalView<'_, T>,
    mirror: Option<&GlobalView<'_, T>>,
    grid: Grid,
    (bi, bj): (usize, usize),
    above: Option<(GlobalView<'_, T>, usize)>,
) {
    let w = grid.w;
    let (r0, c0) = grid.origin(bi, bj);
    let mut tile: SharedTile<T> = default_tile(ctx);
    let rows = load_scan_block(ctx, ga, grid, bi, bj, &mut tile);
    let mut f = Fringes::zero(w);
    if let Some((g, base)) = above {
        g.read_contig(base + c0, &mut f.top, &mut ctx.rec);
    }
    if bj > 0 {
        match mirror {
            Some(gm) => gm.read_contig((bj - 1) * grid.rows + r0, &mut f.left, &mut ctx.rec),
            None => gs.read_strided(grid.addr(r0, c0 - 1), grid.cols, &mut f.left, &mut ctx.rec),
        }
        if let Some((g, base)) = above {
            f.corner = g.read(base + c0 - 1, &mut ctx.rec);
        }
    }
    let mut right = mirror.map(|_| vec![T::ZERO; w]);
    f.emit(ctx, gs, rows, grid, (r0, c0), right.as_deref_mut());
    if let (Some(gm), Some(right)) = (mirror, right) {
        gm.write_contig(bj * grid.rows + r0, &right, &mut ctx.rec);
    }
}

/// Unrecorded [`HandoffFlags::is_published`] polls per burst before the
/// resident re-checks whether its launch failed and yields the core.
const SPIN_POLLS: usize = 1 << 12;
/// Yield rounds before a resident declares the handoff starved. A healthy
/// persistent schedule publishes within a few rounds; exhausting this means
/// a producer died without the launch being marked failed.
const STARVE_ROUNDS: usize = 1 << 20;
/// Per-stage retry bound of the launch-per-stage fallback.
const STAGE_RETRY_LIMIT: usize = 1000;

/// **1R1W, persistent-block**: the whole wavefront in **one** launch.
///
/// The launch-per-stage driver [`sat_1r1w`] pays a barrier (`Λ` in the cost
/// model) per block anti-diagonal — `2·(n/w) − 1` launches. This driver
/// launches a grid of `R = min(mr, resident_capacity)` *resident* blocks
/// once; resident `r` computes block-rows `r, r + R, r + 2R, …`, tiles left
/// to right, and the inter-stage ordering the barrier used to provide is
/// carried by [`HandoffFlags`] release/acquire instead:
///
/// * finishing tile `(bi, bj)` publishes its bottom SAT row (`w` coalesced
///   words) under slot `bi·mc + bj` when a block-row below exists;
/// * before computing tile `(bi, bj)` with `bi > 0`, the resident acquires
///   slot `(bi−1)·mc + bj` — the top fringe *and* (through the acquire made
///   one tile earlier) the corner are then safely readable;
/// * the left fringe needs no flag at all: tile `(bi, bj−1)` was computed
///   by the same resident moments ago, so program order suffices.
///
/// Data movement is bit-identical to [`sat_1r1w`]; the launch-boundary cost
/// `Λ·(B+1)` collapses to a single `Λ` plus `2·(m−1)·m` one-word flag
/// operations (`m = n/w`), which the device reports as
/// `handoff_publishes` / `handoff_acquires`.
///
/// If fault injection fails the persistent launch (abort or device loss),
/// residents notice via [`BlockCtx::launch_failed`], stop waiting on
/// handoffs that will never come, and the driver falls back to the
/// launch-per-stage path with a bounded per-stage retry — still bit-exact,
/// at the cost of the barriers the persistent mode exists to avoid.
pub fn sat_1r1w_persistent<T: SatElement>(
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
    let residents = grid.mr.min(dev.resident_capacity());
    let flags = HandoffFlags::new(grid.blocks());
    let epoch_before = dev.fault_epoch();
    dev.launch_persistent(residents, |ctx| {
        one_r1w_persistent(ctx, a, s, &flags, grid, residents);
    });
    if dev.fault_epoch() == epoch_before {
        return;
    }
    // Leave a structured breadcrumb before retrying: a post-mortem bundle
    // must show that the persistent mode stalled and where it gave up.
    dev.observer().emit(obs::Event::HandoffStall {
        stages: grid.diagonals() as u64,
        residents: residents as u64,
    });
    // The persistent launch was aborted or lost: recompute stage by stage.
    // Every stage rewrites its blocks completely, so no scrub is needed,
    // and a stage whose launch fails is simply run again.
    for d in 0..grid.diagonals() {
        let mut tries = 0;
        loop {
            let e0 = dev.fault_epoch();
            one_r1w_stage(dev, a, s, grid, d);
            if dev.fault_epoch() == e0 {
                break;
            }
            tries += 1;
            assert!(
                tries < STAGE_RETRY_LIMIT,
                "stage {d} kept failing after {STAGE_RETRY_LIMIT} retries"
            );
        }
    }
}

/// The persistent-block 1R1W kernel body: resident `ctx.block_id()` of `R =
/// residents` computes block-rows `block_id, block_id + R, …` of the
/// wavefront, synchronising with the row above through `flags` (one slot
/// per block, `bi·mc + bj`). See [`sat_1r1w_persistent`] for the protocol;
/// exposed so harnesses can drive the kernel under custom launches.
pub fn one_r1w_persistent<T: SatElement>(
    ctx: &mut BlockCtx<'_>,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    flags: &HandoffFlags,
    grid: Grid,
    residents: usize,
) {
    let w = grid.w;
    let ga = ctx.view(a);
    let gs = ctx.view(s);
    // One tile per resident, reused for every block it owns (each load
    // overwrites all w² words) — persistent blocks must live within the
    // same shared-memory budget as a single launch-per-stage block.
    let mut tile: SharedTile<T> = default_tile(ctx);
    let mut f = Fringes::zero(w);
    let mut bi = ctx.block_id();
    while bi < grid.mr {
        for bj in 0..grid.mc {
            let (r0, c0) = grid.origin(bi, bj);
            if bi > 0 {
                // The handoff that replaces the launch barrier: wait for
                // the block above, then read its bottom row — coalesced.
                if !acquire_ready(flags, (bi - 1) * grid.mc + bj, ctx) {
                    return; // launch failed; the producer will never publish
                }
                gs.read_contig(grid.addr(r0 - 1, c0), &mut f.top, &mut ctx.rec);
            } else {
                f.top.fill(T::ZERO);
            }
            let rows = load_scan_block(ctx, &ga, grid, bi, bj, &mut tile);
            if bj > 0 {
                // Same-resident program order: tile (bi, bj−1) is already
                // final. Stride w reads, as in the launch-per-stage kernel.
                gs.read_strided(grid.addr(r0, c0 - 1), grid.cols, &mut f.left, &mut ctx.rec);
            } else {
                f.left.fill(T::ZERO);
            }
            // The corner lies in the bottom row of block (bi−1, bj−1),
            // whose slot this resident acquired one tile ago.
            f.corner = if bi > 0 && bj > 0 {
                gs.read(grid.addr(r0 - 1, c0 - 1), &mut ctx.rec)
            } else {
                T::ZERO
            };
            f.emit(ctx, &gs, rows, grid, (r0, c0), None);
            if bi + 1 < grid.mr {
                // Release the finished bottom row to the block-row below.
                flags.publish(
                    bi * grid.mc + bj,
                    &gs,
                    grid.addr(r0 + w - 1, c0),
                    w,
                    &mut ctx.rec,
                );
            }
        }
        bi += residents;
    }
}

/// Acquire `slot` or report that it never will be published: spins on the
/// unrecorded [`HandoffFlags::is_published`] in bounded bursts, re-checking
/// [`BlockCtx::launch_failed`] and yielding between bursts so a skipped
/// producer cannot wedge the pool. The handoff then records exactly one
/// [`HandoffFlags::poll`] with its outcome, however long the wait was, so
/// the counts do not depend on the schedule.
fn acquire_ready(flags: &HandoffFlags, slot: usize, ctx: &mut BlockCtx<'_>) -> bool {
    for _ in 0..STARVE_ROUNDS {
        let published = (0..SPIN_POLLS).any(|_| {
            std::hint::spin_loop();
            flags.is_published(slot)
        });
        if published || ctx.launch_failed() {
            return flags.poll(slot, ctx.rec());
        }
        std::thread::yield_now();
    }
    panic!("persistent handoff starved: slot {slot} was never published");
}

/// **1R1W with a column mirror** — removes the last stride access.
///
/// Plain [`sat_1r1w`] reads each block's *left fringe* from the right
/// column of its left neighbour: a stride access (`w` transactions). This
/// variant maintains an auxiliary `mc × rows` array `M` with
/// `M[bj][r] = S(r, (bj+1)·w − 1)` — every finished block appends its right
/// column *transposed* (one coalesced write), and the next block column
/// reads its left fringe from `M` with one coalesced read. Total: `+rows·mc`
/// coalesced writes, `−rows·mc` stride reads; every access of the whole
/// algorithm is now coalesced. The `ablation` benchmark quantifies the
/// trade.
pub fn sat_1r1w_mirror<T: SatElement>(
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
    let mirror = GlobalBuffer::filled(T::ZERO, grid.mc * grid.rows);
    for d in 0..grid.diagonals() {
        let rows = grid.diagonal_rows(d);
        let lo = rows.start;
        dev.launch(rows.len(), |ctx| {
            let ga = ctx.view(a);
            let gs = ctx.view(s);
            let gm = ctx.view(&mirror);
            let bi = lo + ctx.block_id();
            let bj = d - bi;
            let above = (bi > 0).then(|| (gs, grid.addr(bi * grid.w - 1, 0)));
            stage_block(ctx, &ga, &gs, Some(&gm), grid, (bi, bj), above);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use gpu_exec::{BlockOrder, Device, DeviceOptions};
    use hmm_model::MachineConfig;
    use hmm_sim::AsyncHmm;

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
        sat_1r1w(&dev, &buf, &out, rows, cols);
        out.into_vec()
    }

    #[test]
    fn fig3_full_sat() {
        assert_eq!(run(FIG_BLOCK_WIDTH, &fig3_input()), fig3_sat().into_vec());
    }

    #[test]
    fn fig11_one_r1w_stage3() {
        // Figure 11: at stage 3 (w = 3, m = 3) blocks Λ(1,2) and Λ(2,1) are
        // finished from Λ(0,2), Λ(1,1), Λ(2,0). Run stages 0..=2, then stage
        // 3, and check both blocks hold their final SAT values while the
        // last block (2,2) is still untouched.
        let n = 9;
        let dev = dev(FIG_BLOCK_WIDTH);
        let a = GlobalBuffer::from_vec(fig3_input().into_vec());
        let s = GlobalBuffer::filled(0i64, n * n);
        let grid = Grid::square(n, FIG_BLOCK_WIDTH);
        for d in 0..=3 {
            one_r1w_stage(&dev, &a, &s, grid, d);
        }
        let got = s.into_vec();
        let sat = fig3_sat();
        // Finished diagonals: every block with bi + bj ≤ 3.
        for bi in 0..3 {
            for bj in 0..3 {
                for i in 0..3 {
                    for j in 0..3 {
                        let (r, c) = (bi * 3 + i, bj * 3 + j);
                        if bi + bj <= 3 {
                            assert_eq!(got[r * 9 + c], sat.get(r, c), "({r},{c})");
                        } else {
                            assert_eq!(got[r * 9 + c], 0, "untouched ({r},{c})");
                        }
                    }
                }
            }
        }
        // The Figure 11 highlight: Λ(1,2) = rows 3–5 × cols 6–8.
        assert_eq!(got[3 * 9 + 6], 25);
        assert_eq!(got[4 * 9 + 7], 41);
        assert_eq!(got[5 * 9 + 8], 55);
    }

    #[test]
    fn matches_reference_various_sizes() {
        for (w, n) in [(4, 4), (4, 8), (4, 16), (8, 64), (3, 27), (5, 35), (4, 68)] {
            let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as i64 - 11);
            assert_eq!(run(w, &a), sat_reference(&a).into_vec(), "w={w} n={n}");
        }
    }

    #[test]
    fn matches_reference_rectangles() {
        for (w, rows, cols) in [(4, 4, 24), (4, 24, 4), (4, 8, 32), (3, 6, 15), (5, 20, 45)] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 11 + j * 5) % 17) as i64 - 8);
            assert_eq!(
                run(w, &a),
                sat_reference(&a).into_vec(),
                "w={w} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn exactly_one_read_one_write_per_element_plus_fringe() {
        // Theorem 6: n² + O(n²/w) reads, n² writes.
        let (w, n) = (8usize, 64usize);
        let m = n / w;
        let dev = dev(w);
        let a = GlobalBuffer::filled(1i64, n * n);
        let s = GlobalBuffer::filled(0i64, n * n);
        dev.reset_stats();
        sat_1r1w(&dev, &a, &s, n, n);
        let st = dev.stats();
        let n2 = (n * n) as u64;
        let blocks = (m * m) as u64;
        let wu = w as u64;
        // Reads: block loads (n²) + top fringes + left fringes + corners.
        let interior_pairs = ((m - 1) * m) as u64; // blocks with bi>0, resp. bj>0
        let corners = ((m - 1) * (m - 1)) as u64;
        assert_eq!(
            st.coalesced_reads + st.stride_reads,
            n2 + interior_pairs * wu * 2 + corners
        );
        assert_eq!(st.coalesced_writes + st.stride_writes, n2);
        // The only stride accesses are the left-fringe columns.
        assert_eq!(st.stride_reads, interior_pairs * wu);
        assert_eq!(st.stride_writes, 0);
        // Barriers: 2m − 1 launches.
        assert_eq!(st.barrier_steps, (2 * m - 2) as u64);
        let _ = blocks;
    }

    #[test]
    fn order_independent_within_a_stage() {
        // Asynchronous HMM correctness: blocks within one stage may run in
        // any order on any worker.
        let (w, n) = (4usize, 32usize);
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j) % 13) as i64 - 6);
        let want = sat_reference(&a);
        for seed in [1u64, 7, 99] {
            let dev = Device::new(
                DeviceOptions::new(MachineConfig::with_width(w))
                    .workers(3)
                    .order(BlockOrder::Shuffled(seed)),
            );
            let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let sb = GlobalBuffer::filled(0i64, n * n);
            sat_1r1w(&dev, &ab, &sb, n, n);
            assert_eq!(sb.into_vec(), want.as_slice(), "seed={seed}");
        }
    }

    #[test]
    fn persistent_matches_reference_various_shapes_and_workers() {
        for (w, rows, cols) in [
            (4, 4, 4),
            (4, 16, 16),
            (4, 8, 32),
            (4, 32, 8),
            (3, 27, 9),
            (5, 35, 35),
        ] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 23) as i64 - 11);
            let want = sat_reference(&a);
            for workers in [0usize, 1, 3] {
                let dev =
                    Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(workers));
                let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
                let sb = GlobalBuffer::filled(0i64, rows * cols);
                sat_1r1w_persistent(&dev, &ab, &sb, rows, cols);
                assert_eq!(
                    sb.into_vec(),
                    want.as_slice(),
                    "w={w} {rows}x{cols} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn persistent_is_one_launch_with_handoffs_instead_of_barriers() {
        // Same data movement as launch-per-stage 1R1W, plus one coalesced
        // word per flag operation — and zero barrier steps.
        let (w, n) = (8usize, 64usize);
        let m = n / w;
        let a = GlobalBuffer::filled(1i64, n * n);

        let staged = dev(w);
        let s1 = GlobalBuffer::filled(0i64, n * n);
        staged.reset_stats();
        sat_1r1w(&staged, &a, &s1, n, n);
        let st_staged = staged.stats();

        let pers = Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(0));
        let s2 = GlobalBuffer::filled(0i64, n * n);
        pers.reset_stats();
        sat_1r1w_persistent(&pers, &a, &s2, n, n);
        let st = pers.stats();

        assert_eq!(pers.launches(), 1, "the whole wavefront in one launch");
        assert_eq!(st.barrier_steps, 0);
        assert_eq!(st_staged.barrier_steps, (2 * m - 2) as u64);
        let fl = ((m - 1) * m) as u64; // blocks with a row below = blocks with a row above
        assert_eq!(st.handoff_publishes, fl);
        // workers(0) ⇒ one resident ⇒ every acquire succeeds on its first
        // poll, so acquires are deterministic too.
        assert_eq!(st.handoff_acquires, fl);
        assert_eq!(st_staged.handoff_publishes, 0);
        // Flag words ride the normal coalesced counters: one write per
        // publish, one read per (first-poll-success) acquire.
        assert_eq!(st.coalesced_writes, st_staged.coalesced_writes + fl);
        assert_eq!(st.coalesced_reads, st_staged.coalesced_reads + fl);
        assert_eq!(st.stride_reads, st_staged.stride_reads);
        assert_eq!(s2.into_vec(), s1.into_vec());
    }

    #[test]
    fn persistent_counts_one_acquire_per_handoff_however_long_the_wait() {
        // Two residents; under seed 1 the straggler draw puts resident 0
        // (producer of block-row 0) to sleep for 20 ms and not resident 1,
        // whose first acquire then waits through many poll bursts. The
        // counts must still be the closed form.
        use gpu_exec::{FaultEvent, FaultPlan};
        use hmm_model::cost::GlobalCost;
        let (w, n) = (4usize, 16usize);
        let cfg = MachineConfig::with_width(w);
        let a = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 7) as i64 - 3);
        let dev = Device::new(
            DeviceOptions::new(cfg)
                .workers(1)
                .fault_plan(FaultPlan::new(1).straggler(0.5, Duration::from_millis(20))),
        );
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::filled(0i64, n * n);
        let start = Instant::now();
        sat_1r1w_persistent(&dev, &ab, &sb, n, n);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(
            dev.take_fault_events(),
            [FaultEvent::Straggler {
                launch: 0,
                block: 0
            }],
            "only the producer straggles, so the consumer waits"
        );
        assert_eq!(sb.into_vec(), sat_reference(&a).into_vec());
        let exact = GlobalCost::new(cfg)
            .persistent_1r1w_exact_counts(n)
            .unwrap();
        assert!(exact.matches(&dev.stats()), "{:?}", dev.stats());
    }

    #[test]
    fn persistent_hazard_free_under_race_detector_and_adversarial_order() {
        // Race-checked buffers + adversarial claim order + staggered
        // residents: the handoff protocol alone must order every
        // cross-resident access.
        let (w, n) = (4usize, 32usize);
        let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 13) as i64);
        for seed in [2u64, 11, 42] {
            let dev = Device::new(
                DeviceOptions::new(MachineConfig::with_width(w))
                    .workers(3)
                    .order(BlockOrder::Adversarial(seed)),
            );
            let ab = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
            let sb = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
            sat_1r1w_persistent(&dev, &ab, &sb, n, n);
            assert_eq!(sb.into_vec(), sat_reference(&a).into_vec(), "seed={seed}");
        }
    }

    #[test]
    fn persistent_grid_respects_resident_capacity() {
        // mr = 8 block-rows but only workers+1 = 3 residents may be
        // launched; the kernel multiplexes rows onto them.
        let (w, n) = (4usize, 32usize);
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(2));
        assert_eq!(dev.resident_capacity(), 3);
        let a = Matrix::from_fn(n, n, |i, j| (i * 5 + j) as i64 % 9);
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::filled(0i64, n * n);
        sat_1r1w_persistent(&dev, &ab, &sb, n, n);
        assert_eq!(dev.launches(), 1);
        assert_eq!(sb.into_vec(), sat_reference(&a).into_vec());
    }

    #[test]
    fn persistent_fallback_leaves_handoff_stall_breadcrumb() {
        // Lose exactly the persistent launch (index 0): the driver falls
        // back to launch-per-stage, stays bit-exact, and records a single
        // HandoffStall flight event carrying the stage count and the
        // resident count it gave up on.
        use gpu_exec::{FaultPlan, LossWindow};
        let obs = obs::Obs::new();
        let (w, n) = (4usize, 16usize);
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as i64 - 5);
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(w))
                .workers(0)
                .observer(obs.clone())
                .fault_plan(FaultPlan::new(1).loss(LossWindow::Launches { start: 0, count: 1 })),
        );
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::filled(0i64, n * n);
        sat_1r1w_persistent(&dev, &ab, &sb, n, n);
        assert_eq!(sb.into_vec(), sat_reference(&a).into_vec());
        let stalls: Vec<_> = obs
            .flight_recent()
            .into_iter()
            .filter_map(|e| match e.event {
                obs::Event::HandoffStall { stages, residents } => Some((stages, residents)),
                _ => None,
            })
            .collect();
        assert_eq!(stalls.len(), 1, "one breadcrumb per fallback");
        let m = (n / w) as u64;
        assert_eq!(stalls[0].0, 2 * m - 1, "stage count");
        assert_eq!(stalls[0].1, 1, "workers(0) launches one resident");
    }

    #[test]
    fn mirror_variant_matches_reference() {
        for (w, rows, cols) in [(4, 16, 16), (4, 8, 32), (3, 27, 9), (8, 64, 64)] {
            let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 23) as i64 - 11);
            let dev = dev(w);
            let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let sb = GlobalBuffer::filled(0i64, rows * cols);
            sat_1r1w_mirror(&dev, &ab, &sb, rows, cols);
            assert_eq!(
                sb.into_vec(),
                sat_reference(&a).into_vec(),
                "w={w} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn mirror_variant_is_fully_coalesced() {
        let (w, n) = (8usize, 64usize);
        let m = n / w;
        let dev = dev(w);
        let a = GlobalBuffer::filled(1i64, n * n);
        let s = GlobalBuffer::filled(0i64, n * n);
        dev.reset_stats();
        sat_1r1w_mirror(&dev, &a, &s, n, n);
        let st = dev.stats();
        assert_eq!(st.stride_ops(), 0, "no stride access remains");
        // Trade: + n·m/w coalesced mirror writes per column… i.e. n·m total
        // extra writes, versus the plain variant's n·(m−1) stride reads.
        let n2 = (n * n) as u64;
        assert_eq!(st.coalesced_writes + st.stride_writes, n2 + (n * m) as u64);
    }

    #[test]
    fn mirror_under_race_detector_and_shuffle() {
        let (w, n) = (4usize, 32usize);
        let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 13) as i64);
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(w))
                .workers(3)
                .order(BlockOrder::Shuffled(5)),
        );
        let ab = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        let sb = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        sat_1r1w_mirror(&dev, &ab, &sb, n, n);
        assert_eq!(sb.into_vec(), sat_reference(&a).into_vec());
    }

    #[test]
    fn hazard_free_under_race_detector() {
        // Every stage only reads SAT values finished in earlier launches;
        // the race detector would panic otherwise.
        let (w, n) = (4usize, 16usize);
        let a = Matrix::from_fn(n, n, |i, j| (i + j) as i64);
        let dev = dev(w);
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::from_vec_checked(vec![0i64; n * n]);
        sat_1r1w(&dev, &ab, &sb, n, n);
        assert_eq!(sb.into_vec(), sat_reference(&a).into_vec());
    }

    fn images(batch: usize, rows: usize, cols: usize) -> Vec<Matrix<i64>> {
        (0..batch)
            .map(|k| {
                Matrix::from_fn(rows, cols, |i, j| {
                    ((i * 31 + j * 7 + k * 13) % 29) as i64 - 14
                })
            })
            .collect()
    }

    #[test]
    fn batch_matches_per_image_results() {
        let (w, rows, cols) = (4usize, 16usize, 24usize);
        let d = dev(w);
        let imgs = images(5, rows, cols);
        let ins: Vec<GlobalBuffer<i64>> = imgs
            .iter()
            .map(|m| GlobalBuffer::from_vec(m.as_slice().to_vec()))
            .collect();
        let outs: Vec<GlobalBuffer<i64>> = (0..5)
            .map(|_| GlobalBuffer::filled(0i64, rows * cols))
            .collect();
        sat_1r1w_batch(
            &d,
            &ins.iter().collect::<Vec<_>>(),
            &outs.iter().collect::<Vec<_>>(),
            rows,
            cols,
        );
        for (img, out) in imgs.iter().zip(outs) {
            assert_eq!(out.into_vec(), sat_reference(img).into_vec());
        }
    }

    #[test]
    fn launch_count_is_batch_independent() {
        let (w, n) = (4usize, 16usize);
        let m = n / w;
        for batch in [1usize, 4, 8] {
            let d = dev(w);
            let imgs = images(batch, n, n);
            let ins: Vec<GlobalBuffer<i64>> = imgs
                .iter()
                .map(|mx| GlobalBuffer::from_vec(mx.as_slice().to_vec()))
                .collect();
            let outs: Vec<GlobalBuffer<i64>> = (0..batch)
                .map(|_| GlobalBuffer::filled(0i64, n * n))
                .collect();
            d.reset_stats();
            sat_1r1w_batch(
                &d,
                &ins.iter().collect::<Vec<_>>(),
                &outs.iter().collect::<Vec<_>>(),
                n,
                n,
            );
            assert_eq!(d.launches() as usize, 2 * m - 1, "batch={batch}");
        }
    }

    #[test]
    fn batching_hides_latency_in_simulation() {
        // Simulated time per image must drop with batching: the fused
        // corner stages finally have enough blocks to fill the pipeline.
        let (w, n) = (8usize, 64usize);
        let cfg = MachineConfig::with_width(w).latency(200).num_dmms(64);
        let mut per_image = Vec::new();
        for batch in [1usize, 8] {
            let d = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
            let imgs = images(batch, n, n);
            let ins: Vec<GlobalBuffer<i64>> = imgs
                .iter()
                .map(|mx| GlobalBuffer::from_vec(mx.as_slice().to_vec()))
                .collect();
            let outs: Vec<GlobalBuffer<i64>> = (0..batch)
                .map(|_| GlobalBuffer::filled(0i64, n * n))
                .collect();
            sat_1r1w_batch(
                &d,
                &ins.iter().collect::<Vec<_>>(),
                &outs.iter().collect::<Vec<_>>(),
                n,
                n,
            );
            let sim = AsyncHmm::new(cfg).simulate(&d.take_trace());
            per_image.push(sim.total_time as f64 / batch as f64);
        }
        assert!(
            per_image[1] < per_image[0] * 0.7,
            "batched {} vs single {} time units per image",
            per_image[1],
            per_image[0]
        );
    }

    #[test]
    fn empty_batch_is_noop() {
        let d = dev(4);
        sat_1r1w_batch::<i64>(&d, &[], &[], 8, 8);
        assert_eq!(d.launches(), 0);
    }

    #[test]
    #[should_panic(expected = "one output per input")]
    fn mismatched_batch_rejected() {
        let d = dev(4);
        let a = GlobalBuffer::filled(0i64, 64);
        sat_1r1w_batch(&d, &[&a], &[], 8, 8);
    }
}
