//! **Banded 1R1W** — the multi-device (fleet) decomposition of the block
//! wavefront, with an explicit margin exchange between bands.
//!
//! The matrix is split into `D` horizontal **bands** of whole block-rows,
//! one band per device. A band's wavefront only ever needs data from the
//! rows *above* it, condensed into a single **carry row** — the true SAT
//! values at the band boundary — so the pipeline has three fleet-wide
//! phases, each a full barrier between devices:
//!
//! 1. **Column sums** (`D − 1` one-launch kernels, bands `0..D−1` in
//!    parallel): band `k` reduces its rows into one row of per-column
//!    sums. The last band's sums are never consumed and are skipped.
//! 2. **Margin exchange** (one launch, `D − 1` blocks): block `r` sums
//!    column-sum rows `0..=r` and prefix-scans the result into carry row
//!    `r` — `carries[r][j] = S(end_of_band_r, j)`, the SAT row seeding
//!    band `r + 1`. All traffic is coalesced; this is the cross-shard
//!    term [`hmm_model::cost::GlobalCost::banded_1r1w_exact_counts`]
//!    prices.
//! 3. **Band wavefronts** (`D` bands in parallel): the standard 1R1W
//!    block wavefront inside each band, except blocks in a band's first
//!    block-row read their top fringe and corner from the carry row
//!    instead of finished neighbours. Left fringes go through a mirror
//!    buffer, so the banded pipeline performs **zero** stride accesses and
//!    its critical path is the slowest band, not the whole matrix. One band
//!    is exactly [`sat_1r1w_mirror`](super::one_r1w::sat_1r1w_mirror),
//!    which runs this phase alone.
//!
//! Bands touch pairwise-disjoint rows of the shared input/output/mirror
//! buffers, so concurrent launches on different devices are race-free (the
//! per-word detector verifies this under process-global launch epochs);
//! the phase joins provide the cross-device happens-before edges.
//!
//! The three kernels are exposed individually — the serving layer's fleet
//! router schedules them as units of work-stealing and failover — and
//! [`sat_1r1w_banded`] is the straight-line reference driver.

use gpu_exec::{Device, GlobalBuffer};

use crate::element::SatElement;
use crate::par::common::Grid;
use crate::par::one_r1w::stage_block;

/// One horizontal band: `rows` matrix rows starting at `start_row`, both
/// multiples of the block width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// First matrix row of the band.
    pub start_row: usize,
    /// Number of matrix rows in the band.
    pub rows: usize,
}

/// The banded decomposition of a `rows × cols` matrix into `D` bands of
/// whole block-rows.
///
/// Block-rows are split as evenly as possible; the remainder goes to the
/// *later* bands, because the last band skips the column-sum phase and can
/// afford to be the larger one. The shard count is clamped to the number
/// of block-rows (every band must own at least one).
#[derive(Debug, Clone)]
pub struct BandPlan {
    /// Full-matrix geometry.
    pub grid: Grid,
    /// The bands, top to bottom.
    pub bands: Vec<Band>,
}

impl BandPlan {
    /// Plan `shards` bands over a `rows × cols` matrix with width `w`.
    ///
    /// # Panics
    /// Panics unless both sides are positive multiples of `w` (pad first,
    /// as [`crate::compute_sat`] does).
    pub fn new(rows: usize, cols: usize, w: usize, shards: usize) -> Self {
        let grid = Grid::new(rows, cols, w);
        let d = shards.clamp(1, grid.mr);
        let base = grid.mr / d;
        let extra = grid.mr % d;
        let mut bands = Vec::with_capacity(d);
        let mut start = 0usize;
        for k in 0..d {
            let block_rows = base + usize::from(k >= d - extra);
            bands.push(Band {
                start_row: start,
                rows: block_rows * w,
            });
            start += block_rows * w;
        }
        debug_assert_eq!(start, rows);
        BandPlan { grid, bands }
    }

    /// Number of bands `D`.
    pub fn len(&self) -> usize {
        self.bands.len()
    }

    /// Whether the plan has no bands (never true for a constructed plan).
    pub fn is_empty(&self) -> bool {
        self.bands.is_empty()
    }

    /// Words needed in the column-sum and carry buffers: one row of `cols`
    /// words per band boundary (at least one word so buffers are
    /// constructible at `D = 1`).
    pub fn boundary_len(&self) -> usize {
        ((self.len() - 1) * self.grid.cols).max(1)
    }

    /// Words needed in the shared mirror buffer (`mc × rows`, as in the
    /// single-device mirror variant — bands use disjoint row ranges).
    pub fn mirror_len(&self) -> usize {
        self.grid.mc * self.grid.rows
    }

    /// Launches the band-`k` wavefront issues (`m_k + mc − 1`).
    pub fn wavefront_launches(&self, k: usize) -> usize {
        self.bands[k].rows / self.grid.w + self.grid.mc - 1
    }
}

/// Phase 1 for band `k < D−1`: reduce the band's rows into per-column sums,
/// written to row `k` of `colsums` (`(D−1) × cols`, row-major). One launch
/// of `mc` blocks; block `bj` owns one `w`-wide column chunk. Reads
/// `band.rows · cols` coalesced, writes `cols` coalesced.
pub fn band_colsum<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    colsums: &GlobalBuffer<T>,
    plan: &BandPlan,
    k: usize,
) {
    let grid = plan.grid;
    let band = plan.bands[k];
    assert!(k + 1 < plan.len(), "the last band's column sums are unused");
    assert!(colsums.len() >= plan.boundary_len(), "colsums too small");
    let w = grid.w;
    dev.launch(grid.mc, |ctx| {
        let ga = ctx.view(a);
        let gc = ctx.view(colsums);
        let bj = ctx.block_id();
        let c0 = bj * w;
        let mut sum = vec![T::ZERO; w];
        let mut row = vec![T::ZERO; w];
        for r in band.start_row..band.start_row + band.rows {
            ga.read_contig(grid.addr(r, c0), &mut row, &mut ctx.rec);
            for j in 0..w {
                sum[j] = sum[j].add(row[j]);
            }
        }
        gc.write_contig(k * grid.cols + c0, &sum, &mut ctx.rec);
    });
}

/// Phase 2, one launch of `D − 1` blocks: block `r` turns column-sum rows
/// `0..=r` into carry row `r` — the vertical sum of the rows, prefix-scanned
/// horizontally — so `carries[r][j]` is the finished SAT value at the last
/// row of band `r`, column `j`. Reads `D(D−1)/2 · cols` coalesced in total,
/// writes `(D−1) · cols` coalesced.
pub fn margin_exchange<T: SatElement>(
    dev: &Device,
    colsums: &GlobalBuffer<T>,
    carries: &GlobalBuffer<T>,
    plan: &BandPlan,
) {
    let grid = plan.grid;
    let d = plan.len();
    assert!(d > 1, "margin exchange needs at least two bands");
    assert!(
        colsums.len() >= plan.boundary_len() && carries.len() >= plan.boundary_len(),
        "boundary buffers too small"
    );
    let w = grid.w;
    dev.launch(d - 1, |ctx| {
        let gc = ctx.view(colsums);
        let go = ctx.view(carries);
        let r = ctx.block_id();
        let mut acc = vec![T::ZERO; w];
        let mut chunk = vec![T::ZERO; w];
        // Running prefix carried across chunks, left to right.
        let mut run = T::ZERO;
        for bj in 0..grid.mc {
            let c0 = bj * w;
            acc.fill(T::ZERO);
            for b in 0..=r {
                gc.read_contig(b * grid.cols + c0, &mut chunk, &mut ctx.rec);
                for j in 0..w {
                    acc[j] = acc[j].add(chunk[j]);
                }
            }
            for v in acc.iter_mut() {
                run = run.add(*v);
                *v = run;
            }
            go.write_contig(r * grid.cols + c0, &acc, &mut ctx.rec);
        }
    });
}

/// One wavefront stage of band `k`: finish every band-local block with
/// `lbi + bj = d`. See [`band_wavefront`] for the fringe sources.
#[allow(clippy::too_many_arguments)]
pub fn band_wavefront_stage<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    carries: &GlobalBuffer<T>,
    mirror: &GlobalBuffer<T>,
    plan: &BandPlan,
    k: usize,
    d: usize,
) {
    let grid = plan.grid;
    let band = plan.bands[k];
    let w = grid.w;
    let local = Grid::new(band.rows, grid.cols, w);
    let blocks: Vec<(usize, usize)> = local.diagonal_blocks(d).collect();
    let bi0 = band.start_row / w;
    dev.launch(blocks.len(), |ctx| {
        let ga = ctx.view(a);
        let gs = ctx.view(s);
        let gm = ctx.view(mirror);
        let (lbi, bj) = blocks[ctx.block_id()];
        let bi = bi0 + lbi;
        // The row above: finished rows within the band, or the carry row
        // when this is the band's first block-row (band 0 has none).
        let above = if lbi > 0 {
            Some((gs, grid.addr(bi * w - 1, 0)))
        } else {
            (k > 0).then(|| (ctx.view(carries), (k - 1) * grid.cols))
        };
        stage_block(ctx, &ga, &gs, Some(&gm), grid, (bi, bj), above);
    });
}

/// Phase 3 for band `k`: the carry-seeded block wavefront over the band,
/// `m_k + mc − 1` launches. Requires phase 2's carries (for `k > 0`); the
/// band's output rows of `s` and row range of `mirror` are written
/// completely, so a failed attempt can simply be re-run.
pub fn band_wavefront<T: SatElement>(
    dev: &Device,
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    carries: &GlobalBuffer<T>,
    mirror: &GlobalBuffer<T>,
    plan: &BandPlan,
    k: usize,
) {
    for d in 0..plan.wavefront_launches(k) {
        band_wavefront_stage(dev, a, s, carries, mirror, plan, k, d);
    }
}

/// **Banded 1R1W, reference driver**: compute into `s` the SAT of the
/// `rows × cols` matrix in `a`, split into `shards` bands over `devs`
/// (band `k` runs on `devs[k % devs.len()]`), with the phase barriers as
/// thread joins. The serving layer replaces this straight-line schedule
/// with a work-stealing, failover-capable router; results are identical.
pub fn sat_1r1w_banded<T: SatElement>(
    devs: &[&Device],
    a: &GlobalBuffer<T>,
    s: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    shards: usize,
) {
    assert!(!devs.is_empty(), "at least one device");
    let w = devs[0].width();
    let plan = BandPlan::new(rows, cols, w, shards);
    assert!(
        a.len() >= rows * cols && s.len() >= rows * cols,
        "buffers too small"
    );
    let d = plan.len();
    let colsums = GlobalBuffer::filled(T::ZERO, plan.boundary_len());
    let carries = GlobalBuffer::filled(T::ZERO, plan.boundary_len());
    let mirror = GlobalBuffer::filled(T::ZERO, plan.mirror_len());

    if d > 1 {
        std::thread::scope(|sc| {
            for k in 0..d - 1 {
                let (plan, a, colsums) = (&plan, &a, &colsums);
                let dev = devs[k % devs.len()];
                sc.spawn(move || band_colsum(dev, a, colsums, plan, k));
            }
        });
        margin_exchange(devs[0], &colsums, &carries, &plan);
    }
    std::thread::scope(|sc| {
        for k in 0..d {
            let (plan, a, s, carries, mirror) = (&plan, &a, &s, &carries, &mirror);
            let dev = devs[k % devs.len()];
            sc.spawn(move || band_wavefront(dev, a, s, carries, mirror, plan, k));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_exec::{DeviceFleet, DeviceOptions, FleetOptions};
    use hmm_model::cost::GlobalCost;
    use hmm_model::MachineConfig;

    use crate::matrix::Matrix;
    use crate::seq::sat_reference;

    fn fleet(w: usize, d: usize) -> DeviceFleet {
        DeviceFleet::new(FleetOptions::new(
            DeviceOptions::new(MachineConfig::with_width(w)).workers(0),
            d,
        ))
    }

    fn run_banded(w: usize, devs: usize, shards: usize, a: &Matrix<i64>) -> Vec<i64> {
        let f = fleet(w, devs);
        let (rows, cols) = (a.rows(), a.cols());
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let out = GlobalBuffer::filled(0i64, rows * cols);
        let refs: Vec<&Device> = f.iter().collect();
        sat_1r1w_banded(&refs, &buf, &out, rows, cols, shards);
        out.into_vec()
    }

    #[test]
    fn band_plan_partitions_block_rows() {
        // 11 block-rows over 4 bands: 2, 3, 3, 3 — extras on later bands.
        let p = BandPlan::new(88, 32, 8, 4);
        let rows: Vec<usize> = p.bands.iter().map(|b| b.rows).collect();
        assert_eq!(rows, vec![16, 24, 24, 24]);
        assert_eq!(p.bands[0].start_row, 0);
        assert_eq!(p.bands[3].start_row, 64);
        // Shards clamp to the block-row count.
        assert_eq!(BandPlan::new(16, 32, 8, 9).len(), 2);
        assert_eq!(BandPlan::new(16, 32, 8, 0).len(), 1);
    }

    #[test]
    fn banded_matches_reference_across_shard_counts() {
        let a = Matrix::from_fn(40, 24, |i, j| (i * 7 + j * 3) as i64 % 23 - 11);
        let want = sat_reference(&a);
        for shards in [1, 2, 3, 4, 5] {
            for devs in [1, 2, 4] {
                assert_eq!(
                    run_banded(8, devs, shards, &a),
                    want.as_slice(),
                    "shards={shards} devs={devs}"
                );
            }
        }
    }

    #[test]
    fn banded_is_bit_equal_to_single_device_on_integer_valued_floats() {
        // The failover guarantee is *bit*-exactness: integer-valued f64
        // sums are exact in both association orders, so the banded result
        // must equal plain single-device 1R1W bit for bit.
        let (rows, cols) = (32, 16);
        let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) % 29) as f64 - 14.0);
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(8)).workers(0));
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let plain = GlobalBuffer::filled(0.0f64, rows * cols);
        crate::par::sat_1r1w(&dev, &buf, &plain, rows, cols);
        let f = fleet(8, 4);
        let refs: Vec<&Device> = f.iter().collect();
        let banded = GlobalBuffer::filled(0.0f64, rows * cols);
        let buf2 = GlobalBuffer::from_vec(a.as_slice().to_vec());
        sat_1r1w_banded(&refs, &buf2, &banded, rows, cols, 4);
        let (p, b) = (plain.into_vec(), banded.into_vec());
        assert!(p.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn banded_counts_match_the_closed_form() {
        // Cross-crate pin: measured per-phase counters equal
        // `GlobalCost::banded_1r1w_exact_counts` field by field.
        let w = 8;
        let (rows, cols) = (48usize, 32usize);
        let shards = 3;
        let cfg = MachineConfig::with_width(w);
        let model = GlobalCost::new(cfg)
            .banded_1r1w_exact_counts(rows, cols, shards)
            .unwrap();
        let f = fleet(w, shards);
        let plan = BandPlan::new(rows, cols, w, shards);
        let a = Matrix::from_fn(rows, cols, |i, j| (i + 2 * j) as i64);
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let out = GlobalBuffer::filled(0i64, rows * cols);
        let colsums = GlobalBuffer::filled(0i64, plan.boundary_len());
        let carries = GlobalBuffer::filled(0i64, plan.boundary_len());
        let mirror = GlobalBuffer::filled(0i64, plan.mirror_len());

        let phase = |dev: &Device, f: &dyn Fn(&Device)| {
            dev.reset_stats();
            f(dev);
            (dev.stats(), dev.launches())
        };
        // Column sums, each on its own device.
        for k in 0..shards - 1 {
            let (st, launches) = phase(f.device(k), &|dev| {
                band_colsum(dev, &buf, &colsums, &plan, k)
            });
            assert_eq!(
                st.coalesced_reads, model.colsum[k].coalesced_reads,
                "colsum {k}"
            );
            assert_eq!(st.coalesced_writes, model.colsum[k].coalesced_writes);
            assert_eq!(st.stride_ops(), 0);
            assert_eq!(launches, 1);
        }
        let (st, launches) = phase(f.device(0), &|dev| {
            margin_exchange(dev, &colsums, &carries, &plan)
        });
        assert_eq!(st.coalesced_reads, model.exchange.coalesced_reads);
        assert_eq!(st.coalesced_writes, model.exchange.coalesced_writes);
        assert_eq!(st.stride_ops(), 0);
        assert_eq!(launches, 1);
        for k in 0..shards {
            let (st, launches) = phase(f.device(k), &|dev| {
                band_wavefront(dev, &buf, &out, &carries, &mirror, &plan, k)
            });
            assert_eq!(
                st.coalesced_reads, model.wavefront[k].coalesced_reads,
                "wavefront {k} reads"
            );
            assert_eq!(
                st.coalesced_writes, model.wavefront[k].coalesced_writes,
                "wavefront {k} writes"
            );
            assert_eq!(st.stride_ops(), 0, "the banded pipeline is fully coalesced");
            assert_eq!(launches, model.wavefront[k].barrier_steps + 1);
        }
        // And the result is right.
        assert_eq!(out.into_vec(), sat_reference(&a).into_vec());
    }

    #[test]
    fn banded_is_race_clean_across_devices() {
        // Shared race-checked buffers under truly concurrent band
        // wavefronts on distinct devices: disjoint row ranges + process-
        // global launch epochs must keep the detector silent.
        let (rows, cols) = (32, 16);
        let a = Matrix::from_fn(rows, cols, |i, j| (i * 3 + j) as i64);
        let f = fleet(8, 4);
        let refs: Vec<&Device> = f.iter().collect();
        let buf = GlobalBuffer::from_vec_checked(a.as_slice().to_vec());
        let out = GlobalBuffer::from_vec_checked(vec![0i64; rows * cols]);
        sat_1r1w_banded(&refs, &buf, &out, rows, cols, 4);
        assert_eq!(out.into_vec(), sat_reference(&a).into_vec());
    }

    #[test]
    fn one_band_reduces_to_the_mirror_variant() {
        // D = 1: no column sums, no exchange; counts equal the mirror
        // variant's (pinned by mirror_variant_is_fully_coalesced).
        let n = 32;
        let w = 8;
        let a = Matrix::from_fn(n, n, |i, j| (i * 5 + j) as i64 % 17);
        let f = fleet(w, 1);
        let refs: Vec<&Device> = f.iter().collect();
        let buf = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let out = GlobalBuffer::filled(0i64, n * n);
        sat_1r1w_banded(&refs, &buf, &out, n, n, 1);
        assert_eq!(out.into_vec(), sat_reference(&a).into_vec());
        let st = f.device(0).stats();
        let m = (n / w) as u64;
        let n2 = (n * n) as u64;
        assert_eq!(st.coalesced_writes, n2 + m * m * w as u64);
        assert_eq!(st.stride_ops(), 0);
    }
}
