//! The library workloads (`sat-hd-frame`, `paper-mix-256`) and the
//! per-layer ledger every workload's traced run uses for the device-side
//! layers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gpu_exec::{Device, DeviceOptions, FaultPlan};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use obs::{Conformance, ConformanceConfig, Obs};
use sat_core::seq::sat_reference;
use sat_core::Matrix;

use crate::paths::{self, Path};
use crate::report::{
    self, bit_equal, mean, median, median_over, percentile, ratio, Facts, Metric, Outcome, Rng,
};
use crate::{Args, SETUPS};

/// A generated image and its reference SAT.
pub struct Input {
    pub image: Matrix<f64>,
    pub reference: Matrix<f64>,
}

impl Input {
    pub fn new(image: Matrix<f64>) -> Input {
        let reference = sat_reference(&image);
        Input { image, reference }
    }
}

/// One SAT computation of an operation.
#[derive(Clone, Copy)]
pub struct Part {
    pub path: Path,
    pub input: usize,
}

/// A workload's inputs and its operations; operation `k` of a run is
/// `ops[k % ops.len()]`.
pub struct OpSet {
    pub inputs: Vec<Input>,
    pub ops: Vec<Vec<Part>>,
}

impl OpSet {
    /// Ragged 1080×1920 frames: they pad to 1088×1920 at w = 32.
    pub fn hd_frames(seed: u64) -> OpSet {
        let mut rng = Rng::new(seed, 1);
        let inputs: Vec<Input> = (0..3)
            .map(|_| Input::new(report::image(&mut rng, 1080, 1920)))
            .collect();
        let ops = (0..inputs.len())
            .map(|i| {
                vec![Part {
                    path: Path::Alg(SatAlgorithm::OneR1W),
                    input: i,
                }]
            })
            .collect();
        OpSet { inputs, ops }
    }

    /// One round = every path of [`Path::MIX`] on one 256×256 image.
    pub fn paper_mix(seed: u64) -> OpSet {
        let mut rng = Rng::new(seed, 2);
        let inputs: Vec<Input> = (0..6)
            .map(|_| Input::new(report::image(&mut rng, 256, 256)))
            .collect();
        let ops = (0..inputs.len())
            .map(|i| {
                Path::MIX
                    .iter()
                    .map(|&path| Part { path, input: i })
                    .collect()
            })
            .collect();
        OpSet { inputs, ops }
    }

    pub fn op(&self, k: usize) -> &[Part] {
        &self.ops[k % self.ops.len()]
    }

    fn image(&self, part: &Part) -> &Matrix<f64> {
        &self.inputs[part.input].image
    }

    /// Input pixels of one operation.
    pub fn pixels(&self, op: &[Part]) -> u64 {
        op.iter()
            .map(|p| (self.image(p).rows() * self.image(p).cols()) as u64)
            .sum()
    }

    /// Run one operation's parts; `None` marks a part that panicked.
    fn run_op(&self, dev: &Device, op: &[Part]) -> Vec<Option<Matrix<f64>>> {
        op.iter()
            .map(|p| run_part(dev, p.path, self.image(p)))
            .collect()
    }

    /// Whether every part's output equals its reference bit for bit.
    fn verify(&self, op: &[Part], outs: &[Option<Matrix<f64>>]) -> bool {
        op.iter().zip(outs).all(|(p, o)| {
            o.as_ref()
                .is_some_and(|m| bit_equal(m, &self.inputs[p.input].reference))
        })
    }

    /// Padded device bytes one operation's driver calls touch (input plus
    /// output or scratch buffer, 8-byte words), computed from the shapes.
    fn working_set_bytes(&self, dev: &Device, op: &[Part]) -> u64 {
        op.iter()
            .map(|p| {
                let (r, c) = paths::padded_dims(dev, self.image(p));
                (2 * r * c * 8) as u64
            })
            .sum()
    }

    fn shapes(&self) -> String {
        let mut shapes: Vec<String> = self
            .inputs
            .iter()
            .map(|i| format!("{}x{}", i.image.rows(), i.image.cols()))
            .collect();
        shapes.dedup();
        shapes.join(",")
    }

    /// Workload facts shared by every mode.
    pub fn describe(&self, dev: &Device, facts: &mut Facts) {
        facts.text("input_shapes", &self.shapes());
        let op = self.op(0);
        let paths: Vec<&str> = op.iter().map(|p| p.path.label()).collect();
        facts.text("op_paths", &paths.join(","));
        facts.int("op_pixels", self.pixels(op));
        facts.int(
            "op_working_set_bytes_computed",
            self.working_set_bytes(dev, op),
        );
        facts.int("device_workers", dev.workers() as u64);
        facts.int("device_width", dev.width() as u64);
    }
}

fn run_part(dev: &Device, path: Path, a: &Matrix<f64>) -> Option<Matrix<f64>> {
    catch_unwind(AssertUnwindSafe(|| path.run(dev, a))).ok()
}

/// A device with default options at w = 32: one device serves each
/// workload.
pub fn default_device() -> Device {
    Device::new(DeviceOptions::new(MachineConfig::default()))
}

/// Exact counts of one part, from `Device::stats()` around one call.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub launches: u64,
    pub coalesced: u64,
    pub stride: u64,
    pub barriers: u64,
    /// The paper's modeled cost `C/w + S + Λ(B+1)`.
    pub units: f64,
}

pub fn counts(dev: &Device, path: Path, a: &Matrix<f64>) -> Counts {
    dev.reset_stats();
    std::hint::black_box(path.run(dev, a));
    let s = dev.stats();
    Counts {
        launches: dev.launches(),
        coalesced: s.coalesced_ops(),
        stride: s.stride_ops(),
        barriers: s.barrier_steps,
        units: s.global_cost(dev.config()),
    }
}

/// Negative self-test: the same checker must flag outputs of a device that
/// corrupts one store per launch. Returns the share of parts it flagged.
pub fn corruption_selftest(set: &OpSet, seed: u64) -> f64 {
    let dev = Device::new(
        DeviceOptions::new(MachineConfig::default())
            .fault_plan(FaultPlan::new(seed).corrupt_p(1.0)),
    );
    let op = set.op(0);
    let outs = set.run_op(&dev, op);
    let flagged = op
        .iter()
        .zip(&outs)
        .filter(|(p, o)| !set.verify(std::slice::from_ref(p), std::slice::from_ref(o)))
        .count();
    flagged as f64 / op.len() as f64
}

/// A default device warmed up with the set's first `warmup_ops`
/// operations: one set-up.
fn warm_device(set: &OpSet, warmup_ops: usize) -> Device {
    let dev = default_device();
    for k in 0..warmup_ops {
        std::hint::black_box(set.run_op(&dev, set.op(k)));
    }
    dev
}

/// A library workload run: end-to-end metrics, or with `--trace 1` the
/// ledger.
pub fn run(args: &Args, set: &OpSet, warmup_ops: usize) -> Outcome {
    let mut facts = Facts::default();
    let dev = warm_device(set, warmup_ops);
    set.describe(&dev, &mut facts);
    facts.int("warmup_ops", warmup_ops as u64);
    let selftest_error_rate = corruption_selftest(set, args.seed);
    if args.trace {
        let mut ledger = Ledger::new(set);
        let start = Instant::now();
        let mut round = 0;
        while start.elapsed().as_secs_f64() < args.seconds {
            ledger.round(round);
            round += 1;
        }
        facts.int("ledger_rounds", round as u64);
        let mut metrics = ledger.metrics();
        metrics.push(Metric::new(
            "bench.tracing_overhead",
            ledger.tracing_overhead(),
            "ratio",
        ));
        metrics.extend(crate::serve::absent_metrics());
        return Outcome {
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics,
            facts,
            selftest_error_rate,
        };
    }

    let mut units = Vec::new();
    for op in &set.ops {
        units.push(
            op.iter()
                .map(|p| counts(&dev, p.path, set.image(p)).units)
                .sum::<f64>(),
        );
    }
    drop(dev);

    // One slice of the window per set-up: each builds and warms up a fresh
    // device, then measures it for its share of the window.
    let share = args.seconds / SETUPS as f64;
    let mut setups = Vec::new();
    let mut slices: Vec<Vec<OpSample>> = Vec::new();
    let mut peak_rss = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut k = 0;
    for round in 0..SETUPS {
        let t = Instant::now();
        let dev = warm_device(set, warmup_ops);
        setups.push(t.elapsed().as_secs_f64());
        if round == 0 {
            // Peak memory of set-up and warm-up, read before the window:
            // inside it, glibc heap growth depends on which thread ran which
            // block, so the end-of-run peak jumps in whole-buffer steps from
            // run to run.
            peak_rss = crate::host::peak_rss_mb();
        }
        let mut samples = Vec::with_capacity(1 << 14);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < share {
            let op = set.op(k);
            k += 1;
            let c0 = crate::host::cpu_time();
            let t0 = Instant::now();
            let outs = set.run_op(&dev, op);
            let dt = t0.elapsed();
            let cpu = crate::host::cpu_time().saturating_sub(c0);
            // Checked outside the timed call.
            attempted += 1;
            let ok = set.verify(op, &outs);
            failed += u64::from(!ok);
            samples.push(OpSample {
                latency_ms: ms(dt),
                cpu_ms: ms(cpu),
                pixels: if ok { set.pixels(op) } else { 0 },
            });
        }
        slices.push(samples);
    }
    facts.int("latency_samples", attempted);
    facts.int("slices", slices.len() as u64);
    facts.num("peak_rss_mb_end", crate::host::peak_rss_mb());
    let metrics = vec![
        // A single closed-loop caller: throughput is pixels over the time
        // spent inside the calls.
        Metric::new(
            "throughput_mpix_s",
            median_over(&slices, |s| {
                let pixels: u64 = s.iter().map(|x| x.pixels).sum();
                let busy_ms: f64 = s.iter().map(|x| x.latency_ms).sum();
                ratio(pixels as f64, busy_ms * 1e3)
            }),
            "Mpix/s",
        ),
        Metric::new(
            "latency_p50_ms",
            median_over(&slices, |s| median(&latencies(s))),
            "ms",
        ),
        Metric::new(
            "latency_p90_ms",
            median_over(&slices, |s| percentile(&latencies(s), 0.9)),
            "ms",
        ),
        Metric::new(
            "success_rate",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
        Metric::new(
            "cpu_ms_per_op",
            median_over(&slices, |s| {
                mean(&s.iter().map(|x| x.cpu_ms).collect::<Vec<_>>())
            }),
            "ms",
        ),
        Metric::new("modeled_cost_units", mean(&units), "units"),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
        facts,
        selftest_error_rate,
    }
}

/// Per-part measurements the ledger takes, each a span around one public
/// call, kept in memory by `(kind, part key)`.
#[derive(Clone, Copy)]
enum Kind {
    /// `compute_sat` (or the persistent path) inside a traced operation.
    Compute,
    /// The `par::*` driver on pre-built buffers, default device.
    Driver,
    /// Padding, allocation, read-back and cropping without the driver.
    Marshal,
    /// The driver on a device built with `record_stats(false)`.
    StatsOff,
    /// The driver on a device with an enabled `Obs` observer.
    Observed,
    /// The driver on a device with a `Conformance` tracker attached.
    Conformed,
    /// `seq::sat_reference`, the native floor.
    Reference,
    /// The part's launch grids replayed with empty kernels.
    Dispatch,
}

const KINDS: usize = 8;

/// Steps of one ledger round; the order rotates every round so drift on a
/// shared host spreads over all of them.
#[derive(Clone, Copy)]
enum Step {
    TracedOp,
    UntracedOp,
    Part(Kind),
}

const STEPS: [Step; 9] = [
    Step::TracedOp,
    Step::UntracedOp,
    Step::Part(Kind::Driver),
    Step::Part(Kind::Marshal),
    Step::Part(Kind::StatsOff),
    Step::Part(Kind::Observed),
    Step::Part(Kind::Conformed),
    Step::Part(Kind::Reference),
    Step::Part(Kind::Dispatch),
];

/// The per-layer ledger: interleaved rounds over one operation at a time,
/// each timing the whole operation with and without spans and every part
/// under every [`Kind`].
pub struct Ledger<'a> {
    set: &'a OpSet,
    /// Distinct `(path, rows, cols)` of the workload's parts.
    keys: Vec<(Path, usize, usize)>,
    dev: Device,
    stats_off: Device,
    observed: Device,
    conformed: Device,
    grids: Vec<Vec<usize>>,
    counts: Vec<Counts>,
    samples: Vec<Vec<Vec<f64>>>,
    op_traced: Vec<f64>,
    op_untraced: Vec<f64>,
    op_closure: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Ledger<'a> {
    pub fn new(set: &'a OpSet) -> Ledger<'a> {
        let cfg = MachineConfig::default();
        let dev = default_device();
        let mut keys = Vec::new();
        for op in &set.ops {
            for p in op {
                let a = set.image(p);
                let key = (p.path, a.rows(), a.cols());
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        let tracer = Device::new(
            DeviceOptions::new(cfg)
                .record_trace(true)
                .record_addrs(false),
        );
        let mut grids = Vec::new();
        let mut counts_by_key = Vec::new();
        for &(path, rows, cols) in &keys {
            let a = Matrix::zeros(rows, cols);
            tracer.reset_stats();
            std::hint::black_box(path.run(&tracer, &a));
            grids.push(
                tracer
                    .take_trace()
                    .launches
                    .iter()
                    .map(|l| l.blocks.len())
                    .collect(),
            );
            counts_by_key.push(counts(&dev, path, &a));
        }
        let conformance = ConformanceConfig::for_machine(cfg.width as u64, cfg.window_overhead());
        Ledger {
            set,
            samples: vec![vec![Vec::new(); keys.len()]; KINDS],
            keys,
            dev,
            stats_off: Device::new(DeviceOptions::new(cfg).record_stats(false)),
            observed: Device::new(DeviceOptions::new(cfg).observer(Obs::new())),
            conformed: Device::new(
                DeviceOptions::new(cfg).conformance(Conformance::new(conformance)),
            ),
            grids,
            counts: counts_by_key,
            op_traced: Vec::new(),
            op_untraced: Vec::new(),
            op_closure: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn key(&self, p: &Part) -> usize {
        let a = self.set.image(p);
        self.keys
            .iter()
            .position(|&k| k == (p.path, a.rows(), a.cols()))
            .expect("every part has a key")
    }

    /// One interleaved round over operation `round`.
    pub fn round(&mut self, round: usize) {
        let set = self.set;
        let op = set.op(round);
        for i in 0..STEPS.len() {
            match STEPS[(i + round) % STEPS.len()] {
                Step::TracedOp => {
                    let t0 = Instant::now();
                    let mut spans = Vec::with_capacity(op.len());
                    let outs: Vec<_> = op
                        .iter()
                        .map(|p| {
                            let t = Instant::now();
                            let out = run_part(&self.dev, p.path, set.image(p));
                            spans.push((self.key(p), ms(t.elapsed())));
                            out
                        })
                        .collect();
                    let total = ms(t0.elapsed());
                    let covered: f64 = spans.iter().map(|s| s.1).sum();
                    for (key, v) in spans {
                        self.samples[Kind::Compute as usize][key].push(v);
                    }
                    self.op_traced.push(total);
                    self.op_closure.push((total - covered) / total);
                    self.check(op, &outs);
                }
                Step::UntracedOp => {
                    let t0 = Instant::now();
                    let outs = set.run_op(&self.dev, op);
                    self.op_untraced.push(ms(t0.elapsed()));
                    self.check(op, &outs);
                }
                Step::Part(kind) => {
                    for p in op {
                        let v = self.time_part(kind, p);
                        let key = self.key(p);
                        self.samples[kind as usize][key].push(v);
                    }
                }
            }
        }
    }

    fn check(&mut self, op: &[Part], outs: &[Option<Matrix<f64>>]) {
        self.attempted += 1;
        if !self.set.verify(op, outs) {
            self.failed += 1;
        }
    }

    /// Milliseconds of one part under `kind`; buffers are built before the
    /// timer starts.
    fn time_part(&self, kind: Kind, p: &Part) -> f64 {
        let a = self.set.image(p);
        let on = |dev: &Device| {
            let prepared = paths::prepare(dev, p.path, a);
            let t = Instant::now();
            paths::driver(dev, p.path, &prepared);
            ms(t.elapsed())
        };
        match kind {
            Kind::Compute => unreachable!("compute spans come from traced operations"),
            Kind::Driver => on(&self.dev),
            Kind::StatsOff => on(&self.stats_off),
            Kind::Observed => on(&self.observed),
            Kind::Conformed => on(&self.conformed),
            Kind::Marshal => {
                let t = Instant::now();
                std::hint::black_box(paths::marshal(&self.dev, p.path, a));
                ms(t.elapsed())
            }
            Kind::Reference => {
                let t = Instant::now();
                std::hint::black_box(sat_reference(a));
                ms(t.elapsed())
            }
            Kind::Dispatch => {
                let t = Instant::now();
                for &g in &self.grids[self.key(p)] {
                    self.dev.launch(g, |_| {});
                }
                ms(t.elapsed())
            }
        }
    }

    /// Mean over the workload's operations of `f(part)` summed over the
    /// parts `keep` selects.
    fn per_op(&self, keep: impl Fn(&Part) -> bool, f: impl Fn(usize) -> f64) -> f64 {
        let per: Vec<f64> = self
            .set
            .ops
            .iter()
            .map(|op| op.iter().filter(|p| keep(p)).map(|p| f(self.key(p))).sum())
            .collect();
        mean(&per)
    }

    fn med(&self, kind: Kind, key: usize) -> f64 {
        median(&self.samples[kind as usize][key])
    }

    fn all_ms(&self, kind: Kind) -> f64 {
        self.per_op(|_| true, |k| self.med(kind, k))
    }

    /// Traced minus untraced median operation time, as a share of the
    /// untraced one.
    pub fn tracing_overhead(&self) -> f64 {
        let untraced = median(&self.op_untraced);
        ratio(median(&self.op_traced) - untraced, untraced)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let compute = self.all_ms(Kind::Compute);
        let driver = self.all_ms(Kind::Driver);
        let marshal = self.all_ms(Kind::Marshal);
        let reference = self.all_ms(Kind::Reference);
        let count = |f: fn(&Counts) -> f64| self.per_op(|_| true, |k| f(&self.counts[k]));
        let units = count(|c| c.units);
        let mut m = vec![
            Metric::new("sat-core.compute_sat_ms", compute, "ms"),
            Metric::new("sat-core.driver_ms", driver, "ms"),
            Metric::new("sat-core.marshal_ms", marshal, "ms"),
            Metric::new(
                "sat-core.closure_residual",
                ratio(compute - marshal - driver, compute),
                "ratio",
            ),
            Metric::new("sat-core.reference_ms", reference, "ms"),
            Metric::new(
                "sat-core.gap_to_reference",
                ratio(driver, reference),
                "ratio",
            ),
        ];
        for path in Path::MIX {
            m.push(Metric::new(
                format!("sat-core.mix.{}_ms", path.label()),
                self.per_op(|p| p.path == path, |k| self.med(Kind::Compute, k)),
                "ms",
            ));
        }
        m.push(Metric::new(
            "sat-core.mix.closure_residual",
            median(&self.op_closure),
            "ratio",
        ));
        m.extend([
            Metric::new(
                "gpu-exec.launches_per_op",
                count(|c| c.launches as f64),
                "count",
            ),
            Metric::new(
                "gpu-exec.coalesced_ops",
                count(|c| c.coalesced as f64),
                "count",
            ),
            Metric::new("gpu-exec.stride_ops", count(|c| c.stride as f64), "count"),
            Metric::new(
                "gpu-exec.barrier_steps",
                count(|c| c.barriers as f64),
                "count",
            ),
            Metric::new("gpu-exec.dispatch_ms", self.all_ms(Kind::Dispatch), "ms"),
            Metric::new(
                "gpu-exec.stats_ms",
                driver - self.all_ms(Kind::StatsOff),
                "ms",
            ),
            Metric::new(
                "obs.observer_ms",
                self.all_ms(Kind::Observed) - driver,
                "ms",
            ),
            Metric::new(
                "obs.conformance_ms",
                self.all_ms(Kind::Conformed) - driver,
                "ms",
            ),
            Metric::new(
                "hmm-model.ns_per_unit",
                ratio(driver * 1e6, units),
                "ns/unit",
            ),
        ]);
        for path in Path::MIX {
            let keep = |p: &Part| p.path == path;
            let path_driver = self.per_op(keep, |k| self.med(Kind::Driver, k));
            let path_units = self.per_op(keep, |k| self.counts[k].units);
            m.push(Metric::new(
                format!("hmm-model.ns_per_unit.{}", path.label()),
                ratio(path_driver * 1e6, path_units),
                "ns/unit",
            ));
        }
        m
    }
}

/// One timed operation of a library workload.
struct OpSample {
    latency_ms: f64,
    /// Process CPU time, every thread, during the call.
    cpu_ms: f64,
    /// Input pixels, or 0 when an output was wrong.
    pixels: u64,
}

fn latencies(samples: &[OpSample]) -> Vec<f64> {
    samples.iter().map(|x| x.latency_ms).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
