//! The tile-level primitives — [`SharedTile::load`], [`SharedTile::scan`]
//! and [`SharedTile::store`], and the fused [`SharedTile::load_scan`] with
//! [`gpu_exec::RowPass::store_with`] — held to their definition: the
//! warp-op loops they replace, kept here as the oracle. For every width,
//! layout and element type the two must record the same counters, the same
//! op sequence and the same address channel, and leave the same words in
//! the tile and in global memory, bit for bit; on a device that only counts
//! (where the primitives add a step's shared warps in one update) the
//! counters must still be the loops'; on a race-checked buffer they must
//! pass and fail alike, and an armed corruption must land on the same lane
//! of the store.

use std::sync::Mutex;

use gpu_exec::{
    AddrPattern, BlockCtx, Device, DeviceOptions, FaultEvent, FaultPlan, GlobalBuffer, GlobalView,
    SharedTile, TileLayout, TraceOp,
};
use hmm_model::{CostCounters, MachineConfig};

const WIDTHS: [usize; 8] = [1, 2, 3, 4, 5, 8, 32, 33];
const LAYOUTS: [TileLayout; 2] = [TileLayout::RowMajor, TileLayout::Diagonal];

/// The element types of the grid: wrapping integers and fractional floats,
/// whose sums round, so a changed operand order shows in the bits.
trait Word: Copy + Default + Send + Sync + 'static {
    fn add(self, rhs: Self) -> Self;
    fn bits(self) -> u64;
    /// Test input word number `k`.
    fn input(k: usize) -> Self;
}

impl Word for i64 {
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
    fn bits(self) -> u64 {
        self as u64
    }
    fn input(k: usize) -> Self {
        (k * 7919 % 2003) as i64 - 1000
    }
}

impl Word for f64 {
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn input(k: usize) -> Self {
        ((k * 7919 % 2003) as f64 - 1000.0) / 7.0
    }
}

/// Which implementation of the three tile steps a run uses.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// The warp-op loops: the definition.
    Loop,
    /// The tile-level primitives.
    Primitive,
    /// `load_scan`, then `store_with` leaving each row as scanned.
    Fused,
}

fn load_loop<T: Word>(
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    base: usize,
    pitch: usize,
    tile: &mut SharedTile<T>,
) {
    let w = tile.width();
    let mut row = vec![T::default(); w];
    for i in 0..w {
        g.read_contig(base + i * pitch, &mut row, &mut ctx.rec);
        tile.write_row(i, &row, &mut ctx.rec);
    }
}

fn store_loop<T: Word>(
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    base: usize,
    pitch: usize,
    tile: &SharedTile<T>,
) {
    let w = tile.width();
    let mut row = vec![T::default(); w];
    for i in 0..w {
        tile.read_row(i, &mut row, &mut ctx.rec);
        g.write_contig(base + i * pitch, &row, &mut ctx.rec);
    }
}

fn scan_loop<T: Word>(ctx: &mut BlockCtx<'_>, tile: &mut SharedTile<T>) {
    let w = tile.width();
    let mut prev = vec![T::default(); w];
    let mut cur = vec![T::default(); w];
    for i in 1..w {
        tile.read_row(i - 1, &mut prev, &mut ctx.rec);
        tile.read_row(i, &mut cur, &mut ctx.rec);
        for t in 0..w {
            cur[t] = cur[t].add(prev[t]);
        }
        tile.write_row(i, &cur, &mut ctx.rec);
    }
    for j in 1..w {
        tile.read_col(j - 1, &mut prev, &mut ctx.rec);
        tile.read_col(j, &mut cur, &mut ctx.rec);
        for t in 0..w {
            cur[t] = cur[t].add(prev[t]);
        }
        tile.write_col(j, &cur, &mut ctx.rec);
    }
}

fn load<T: Word>(
    path: Path,
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    base: usize,
    pitch: usize,
    tile: &mut SharedTile<T>,
) {
    match path {
        Path::Loop => load_loop(ctx, g, base, pitch, tile),
        Path::Primitive | Path::Fused => tile.load(g, base, pitch, &mut ctx.rec),
    }
}

fn store<T: Word>(
    path: Path,
    ctx: &mut BlockCtx<'_>,
    g: &GlobalView<'_, T>,
    base: usize,
    pitch: usize,
    tile: &SharedTile<T>,
) {
    match path {
        Path::Loop => store_loop(ctx, g, base, pitch, tile),
        Path::Primitive | Path::Fused => tile.store(g, base, pitch, &mut ctx.rec),
    }
}

fn scan<T: Word>(path: Path, ctx: &mut BlockCtx<'_>, tile: &mut SharedTile<T>) {
    match path {
        Path::Loop => scan_loop(ctx, tile),
        Path::Primitive | Path::Fused => tile.scan(T::add, &mut ctx.rec),
    }
}

/// Load, scan and store one block: the three steps of `path`, or for
/// [`Path::Fused`] the fused pair, which leaves no scanned tile to
/// snapshot. `snapshot` sees the tile after the load and after the scan.
fn load_scan_store<T: Word>(
    path: Path,
    ctx: &mut BlockCtx<'_>,
    src: &GlobalView<'_, T>,
    dst: &GlobalView<'_, T>,
    (base, dst_base, pitch): (usize, usize, usize),
    tile: &mut SharedTile<T>,
    mut snapshot: impl FnMut(&SharedTile<T>),
) {
    if let Path::Fused = path {
        let rows = tile.load_scan(src, base, pitch, T::add, &mut ctx.rec);
        return rows.store_with(dst, dst_base, pitch, &mut ctx.rec, |_, _| {});
    }
    load(path, ctx, src, base, pitch, tile);
    snapshot(tile);
    scan(path, ctx, tile);
    snapshot(tile);
    store(path, ctx, dst, dst_base, pitch, tile);
}

/// The block of a run: a `w × w` block of a `(2w + 1) × (3w + 1)` matrix
/// at element `(1, w + 1)`, so its rows start at varying offsets within an
/// address group and some of its contiguous warps span two groups.
struct Shape {
    pitch: usize,
    len: usize,
    base: usize,
}

impl Shape {
    fn new(w: usize) -> Self {
        let pitch = 3 * w + 1;
        Shape {
            pitch,
            len: (2 * w + 1) * pitch,
            base: pitch + w + 1,
        }
    }

    /// Global word of logical element `(i, j)` of the block.
    fn word(&self, i: usize, j: usize) -> usize {
        self.base + i * self.pitch + j
    }
}

/// A sequential device that traces with addresses, or with `trace` off
/// only counts.
fn device(w: usize, plan: Option<FaultPlan>, trace: bool) -> Device {
    let mut opts = DeviceOptions::new(MachineConfig::with_width(w))
        .workers(0)
        .record_trace(trace)
        .record_addrs(trace);
    if let Some(plan) = plan {
        opts = opts.fault_plan(plan);
    }
    Device::new(opts)
}

/// Everything a run leaves behind, with buffer ids replaced by the
/// buffer's role (0 input, 1 output) so two runs compare.
#[derive(Debug, PartialEq)]
struct Run {
    stats: CostCounters,
    ops: Vec<Vec<Vec<TraceOp>>>,
    addrs: Vec<Vec<Vec<AddrPattern>>>,
    /// The tile's logical words after the load and after the scan (none
    /// on [`Path::Fused`]).
    tiles: Vec<Vec<u64>>,
    out: Vec<u64>,
    faults: Vec<FaultEvent>,
}

/// One launch of one block on a tracing device: load the block of `src`
/// into a tile, scan it, and store it to the same block of a zeroed output
/// buffer.
fn run<T: Word>(w: usize, layout: TileLayout, path: Path, plan: Option<FaultPlan>) -> Run {
    run_on::<T>(w, layout, path, plan, true)
}

/// [`run`] on a tracing device, or with `trace` off on one that only
/// counts.
fn run_on<T: Word>(
    w: usize,
    layout: TileLayout,
    path: Path,
    plan: Option<FaultPlan>,
    trace: bool,
) -> Run {
    let dev = device(w, plan, trace);
    let shape = Shape::new(w);
    let src = GlobalBuffer::from_vec((0..shape.len).map(T::input).collect());
    let dst = GlobalBuffer::filled(T::default(), shape.len);
    let tiles = Mutex::new(Vec::new());
    let snapshot = |tile: &SharedTile<T>| {
        let words = (0..w * w).map(|k| tile.get(k / w, k % w).bits()).collect();
        tiles.lock().unwrap().push(words);
    };
    dev.launch(1, |ctx| {
        let (gs, gd) = (ctx.view(&src), ctx.view(&dst));
        let mut tile: SharedTile<T> = ctx.shared_tile(layout);
        let at = (shape.base, shape.base, shape.pitch);
        load_scan_store(path, ctx, &gs, &gd, at, &mut tile, snapshot);
    });
    let role = |buf: u64| [src.id(), dst.id()].iter().position(|&b| b == buf).unwrap() as u64;
    let trace = dev.take_trace();
    Run {
        stats: dev.stats(),
        ops: trace.launches.iter().map(|l| l.blocks.clone()).collect(),
        addrs: trace
            .launches
            .iter()
            .map(|l| {
                let canon = |p: &AddrPattern| match *p {
                    AddrPattern::Contig { buf, base, lanes } => AddrPattern::Contig {
                        buf: role(buf),
                        base,
                        lanes,
                    },
                    ref other => other.clone(),
                };
                l.addrs
                    .iter()
                    .map(|b| b.iter().map(canon).collect())
                    .collect()
            })
            .collect(),
        tiles: tiles.into_inner().unwrap(),
        faults: dev.take_fault_events(),
        out: dst.into_vec().into_iter().map(Word::bits).collect(),
    }
}

/// `got`, a [`Path::Fused`] run, against the loops' `want`, all but the
/// tile snapshots the fused pair does not leave.
fn assert_fused_matches(got: Run, want: &Run, at: &str) {
    assert!(got.tiles.is_empty(), "{at}");
    let got = Run {
        tiles: want.tiles.clone(),
        ..got
    };
    assert_eq!(&got, want, "{at}: fused");
}

fn primitives_match_the_loops<T: Word>() {
    for w in WIDTHS {
        for layout in LAYOUTS {
            let want = run::<T>(w, layout, Path::Loop, None);
            let got = run::<T>(w, layout, Path::Primitive, None);
            assert_eq!(got, want, "w = {w}, {layout:?}");
            let fused = run::<T>(w, layout, Path::Fused, None);
            assert_fused_matches(fused, &want, &format!("w = {w}, {layout:?}"));
            // The run is not vacuous: every step issued its warps, and the
            // stored block holds the scanned tile.
            assert_eq!(want.ops[0][0].len(), 4 * w + 6 * (w - 1));
            let shape = Shape::new(w);
            for k in 0..w * w {
                assert_eq!(want.out[shape.word(k / w, k % w)], want.tiles[1][k]);
            }
        }
    }
}

#[test]
fn primitives_match_the_loops_on_integers() {
    primitives_match_the_loops::<i64>();
}

#[test]
fn primitives_match_the_loops_on_fractional_floats() {
    primitives_match_the_loops::<f64>();
}

#[test]
fn a_counting_device_counts_the_primitives_like_the_loops() {
    for w in WIDTHS {
        for layout in LAYOUTS {
            let want = run_on::<f64>(w, layout, Path::Loop, None, false);
            assert!(want.ops.is_empty() && want.addrs.is_empty(), "no trace");
            assert_eq!(want.stats, run::<f64>(w, layout, Path::Loop, None).stats);
            for path in [Path::Primitive, Path::Fused] {
                let got = run_on::<f64>(w, layout, path, None, false);
                let at = format!("w = {w}, {layout:?}, {path:?}");
                assert_eq!(got.stats, want.stats, "{at}");
                assert_eq!(got.out, want.out, "{at}");
            }
        }
    }
}

#[test]
fn an_armed_corruption_lands_on_the_same_store_lane() {
    let mut wrapped = 0;
    for w in [3, 4, 5, 8] {
        for layout in LAYOUTS {
            let clean = run::<f64>(w, layout, Path::Loop, None).out;
            let shape = Shape::new(w);
            let mut lanes = Vec::new();
            for seed in 0..12 {
                let plan = || Some(FaultPlan::new(seed).corrupt_p(1.0));
                let want = run::<f64>(w, layout, Path::Loop, plan());
                let got = run::<f64>(w, layout, Path::Primitive, plan());
                assert_eq!(got, want, "w = {w}, {layout:?}, seed {seed}");
                let fused = run::<f64>(w, layout, Path::Fused, plan());
                assert_fused_matches(fused, &want, &format!("w = {w}, {layout:?}, seed {seed}"));
                let hit: Vec<usize> = (0..shape.len).filter(|&a| got.out[a] != clean[a]).collect();
                if got.faults.is_empty() {
                    assert!(hit.is_empty(), "w = {w}, seed {seed}");
                    continue;
                }
                // The victim is the nth store of the block: lane n % w of
                // row n / w, whatever the tile's rotation.
                assert_eq!(hit.len(), 1, "w = {w}, {layout:?}, seed {seed}");
                let n = (0..w * w)
                    .find(|&n| shape.word(n / w, n % w) == hit[0])
                    .unwrap();
                lanes.push(n % w);
                // On the diagonal, lanes j ≥ w − i of row i are the ones
                // whose bank index wraps past w − 1.
                if layout == TileLayout::Diagonal && n % w >= w - n / w {
                    wrapped += 1;
                }
            }
            lanes.sort_unstable();
            lanes.dedup();
            assert!(lanes.len() > 1, "w = {w}, {layout:?}: lanes {lanes:?}");
        }
    }
    assert!(wrapped > 0, "no corruption landed on a wrapped bank");
}

/// Run `f`, which must panic, and return its panic message.
fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the launch must panic");
    match err.downcast::<String>() {
        Ok(msg) => *msg,
        Err(err) => err.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    }
}

#[test]
fn race_checked_buffers_pass_and_fail_alike() {
    for w in [1, 3, 8] {
        for layout in LAYOUTS {
            for path in [Path::Loop, Path::Primitive, Path::Fused] {
                let at = format!("w = {w}, {layout:?}, {path:?}");
                let shape = Shape::new(w);
                let src = GlobalBuffer::from_vec_checked((0..shape.len).map(i64::input).collect());
                let dst = GlobalBuffer::from_vec_checked(vec![0i64; shape.len]);
                let dev = device(w, None, true);
                // Two blocks read the same words and each writes its own
                // block of the output: legal.
                dev.launch(2, |ctx| {
                    let (gs, gd) = (ctx.view(&src), ctx.view(&dst));
                    let mut tile: SharedTile<i64> = ctx.shared_tile(layout);
                    let base = [shape.base, (w + 1) * shape.pitch][ctx.block_id()];
                    let at = (shape.base, base, shape.pitch);
                    load_scan_store(path, ctx, &gs, &gd, at, &mut tile, |_| {});
                });
                // Two blocks store the same block: a write-write race.
                let msg = panic_message(|| {
                    dev.launch(2, |ctx| {
                        let gd = ctx.view(&dst);
                        let tile: SharedTile<i64> = ctx.shared_tile(layout);
                        store(path, ctx, &gd, shape.base, shape.pitch, &tile);
                    })
                });
                assert!(msg.contains("data race"), "{at}: {msg}");
                // Block 1 loads what block 0 stored in the same launch.
                let msg = panic_message(|| {
                    dev.launch(2, |ctx| {
                        let gd = ctx.view(&dst);
                        let mut tile: SharedTile<i64> = ctx.shared_tile(layout);
                        match ctx.block_id() {
                            0 => store(path, ctx, &gd, shape.base, shape.pitch, &tile),
                            _ => load(path, ctx, &gd, shape.base, shape.pitch, &mut tile),
                        }
                    })
                });
                assert!(msg.contains("read-after-write hazard"), "{at}: {msg}");
            }
        }
    }
}
