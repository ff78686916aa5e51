//! The virtual GPU device: launch machinery, block contexts and statistics.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hmm_model::cost::CostCounters;
use hmm_model::MachineConfig;
use obs::conformance::LaunchSample;
use obs::profile::gpu;
use obs::{
    ArgValue, Conformance, Counter, Event, FaultClass, FlowPhase, Histogram, Label, Obs, Registry,
    Track,
};
use parking_lot::Mutex;

use crate::buffer::{GlobalBuffer, GlobalView};
use crate::fault::{FaultEvent, FaultPlan};
use crate::pool::Pool;
use crate::recorder::TxnRecorder;
use crate::shared::{SharedTile, TileLayout};
use crate::trace::{LaunchTrace, RunTrace};

/// In which order the blocks of a launch are dispatched to workers.
///
/// Algorithms for the asynchronous HMM must be correct under *any* block
/// order; [`BlockOrder::Shuffled`] stress-tests that property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOrder {
    /// Blocks are claimed in increasing id order (still interleaved
    /// arbitrarily across workers).
    Forward,
    /// Blocks are claimed in decreasing id order — the exact mirror of
    /// [`BlockOrder::Forward`], the cheapest schedule that exposes
    /// "block b+1 ran first" hazards.
    Reverse,
    /// Blocks are claimed in a pseudo-random permutation derived from the
    /// seed and the launch number.
    Shuffled(u64),
    /// Adversarial schedule: a seeded pseudo-random permutation (distinct
    /// from [`BlockOrder::Shuffled`]'s stream) *plus* seeded per-block
    /// start delays on parallel devices, actively trying to realise
    /// interleavings the natural order never exhibits. On a sequential
    /// device (0 workers) the permutation alone determines the schedule,
    /// so replay under this order is fully deterministic per seed.
    Adversarial(u64),
}

/// Construction options for a [`Device`].
#[derive(Debug, Clone)]
pub struct DeviceOptions {
    /// Machine model parameters (width, latency, DMM count, shared capacity).
    pub config: MachineConfig,
    /// Background worker threads; `None` uses `config.num_dmms`, capped by
    /// the host's available parallelism (the launching thread always helps,
    /// so 0 extra workers is a valid sequential device).
    pub workers: Option<usize>,
    /// Record memory access statistics (coalescing, stages, barriers).
    pub record_stats: bool,
    /// Additionally log every transaction in program order for replay in
    /// the `hmm-sim` machine simulator (implies statistics; costs memory
    /// proportional to the number of transactions).
    pub record_trace: bool,
    /// Keep the per-transaction [`AddrPattern`](crate::AddrPattern) address
    /// channel alongside the trace (only meaningful with `record_trace`;
    /// one pattern per transaction, on top of the op log). On by
    /// default when tracing so `hmm-lint` analyses keep working; turn it
    /// off to replay in `hmm-sim` at a fraction of the memory.
    pub record_addrs: bool,
    /// Dispatch order of blocks.
    pub order: BlockOrder,
    /// Observability sink: when enabled, the device emits one wall-clock
    /// span per launch (with per-launch coalesced/stride/stage deltas as
    /// args) and maintains `gpu_*` counters in the handle's registry
    /// (implies statistics). Disabled by default — the no-op fast path.
    pub observer: Obs,
    /// Deterministic fault schedule (see [`FaultPlan`]); `None` (the
    /// default) injects nothing and adds no per-launch work.
    pub fault_plan: Option<FaultPlan>,
    /// Model-conformance tracker: when attached, every launch's exact
    /// counter deltas and wall time are fed as one
    /// [`LaunchSample`] (implies statistics). Trackers are
    /// `Arc`-shared, so one tracker can ingest from a whole fleet.
    pub conformance: Option<Conformance>,
    /// Fleet shard index: when set, conformance cell labels gain an
    /// `@s<shard>` suffix so shard-relative drift localizes a sick device.
    /// Set by [`DeviceFleet`](crate::DeviceFleet); `None` for standalone
    /// devices.
    pub shard: Option<u64>,
}

impl DeviceOptions {
    /// Options with the given machine configuration, statistics enabled and
    /// forward block order.
    pub fn new(config: MachineConfig) -> Self {
        DeviceOptions {
            config,
            workers: None,
            record_stats: true,
            record_trace: false,
            record_addrs: true,
            order: BlockOrder::Forward,
            observer: Obs::disabled(),
            fault_plan: None,
            conformance: None,
            shard: None,
        }
    }

    /// Set the number of background workers.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Enable or disable statistics recording.
    pub fn record_stats(mut self, on: bool) -> Self {
        self.record_stats = on;
        self
    }

    /// Enable or disable transaction-trace recording (see
    /// [`DeviceOptions::record_trace`]).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Enable or disable the address channel of the transaction trace (see
    /// [`DeviceOptions::record_addrs`]).
    pub fn record_addrs(mut self, on: bool) -> Self {
        self.record_addrs = on;
        self
    }

    /// Set the block dispatch order.
    pub fn order(mut self, order: BlockOrder) -> Self {
        self.order = order;
        self
    }

    /// Attach an observability handle (see [`DeviceOptions::observer`]).
    /// An enabled handle implies statistics recording.
    pub fn observer(mut self, obs: Obs) -> Self {
        self.observer = obs;
        self
    }

    /// Attach a deterministic fault schedule (see
    /// [`DeviceOptions::fault_plan`]). An empty plan is dropped so the
    /// fault path stays entirely off the no-injection fast path.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Attach a model-conformance tracker (see
    /// [`DeviceOptions::conformance`]). Implies statistics recording — the
    /// tracker needs the per-launch counter deltas.
    pub fn conformance(mut self, tracker: Conformance) -> Self {
        self.conformance = Some(tracker);
        self
    }

    /// Set the fleet shard index (see [`DeviceOptions::shard`]).
    pub fn shard(mut self, shard: u64) -> Self {
        self.shard = Some(shard);
        self
    }
}

/// The device's handles into the observer's registry, registered once at
/// construction so launches pay one atomic add per counter.
struct DeviceCounters {
    coalesced_ops: Counter,
    stride_ops: Counter,
    global_stages: Counter,
    launches: Counter,
    barrier_steps: Counter,
    handoff_publishes: Counter,
    handoff_acquires: Counter,
    launch_duration: Histogram,
}

/// Cap on the retained fault-event log; beyond it, events still count and
/// fail launches but are no longer retained for [`Device::take_fault_events`].
const FAULT_EVENT_CAP: usize = 65_536;

/// The device side of an active [`FaultPlan`].
struct FaultState {
    plan: FaultPlan,
    /// Fault events in canonical order (written only by launching threads,
    /// under the launch gate).
    events: Mutex<Vec<FaultEvent>>,
    /// Launches that failed (abort or loss) since construction — the
    /// device's *fault epoch*, moved by `FaultState::log`. Corruption is
    /// silent and does not move it.
    failed_launches: AtomicU64,
    /// Wall-clock loss window state (set at the first triggering launch).
    loss_started: Mutex<Option<Instant>>,
    /// `gpu_fault_injections{kind=…}` counters, indexed by [`FaultClass`].
    counters: Vec<Counter>,
}

impl FaultState {
    fn log(&self, ev: FaultEvent, obs: &Obs) {
        let class = ev.class();
        if let Some(c) = self.counters.get(class as usize) {
            c.inc();
        }
        // Aborts and losses fail their launch and move the fault epoch.
        if matches!(class, FaultClass::LaunchAbort | FaultClass::DeviceLoss) {
            self.failed_launches.fetch_add(1, Ordering::Relaxed);
        }
        obs.emit(Event::FaultInjected {
            launch: ev.launch(),
            class,
        });
        let mut log = self.events.lock();
        if log.len() < FAULT_EVENT_CAP {
            log.push(ev);
        }
    }
}

/// Request-scoped metadata a caller attaches to the launches it is about to
/// issue ([`Device::set_launch_context`]): the batch id, the request ids
/// fused into it and the conformance cell. While set, a launch with
/// requests carries the batch id and first request id as span args and a
/// flow point per request, so Perfetto's arrow chain for a request passes
/// *through* the launches that computed it.
#[derive(Debug, Clone, Default)]
pub struct LaunchContext {
    /// The serving layer's batch sequence number (ignored without requests).
    pub batch: u64,
    /// Ids of the requests fused into the batch, in lane order.
    pub requests: Vec<u64>,
    /// The (algorithm × shape-bucket) conformance cell of the launches (see
    /// [`obs::conformance::cell_label`]); `None` falls back to a
    /// mode/grid-derived label. Ignored without an attached tracker.
    pub cell: Option<String>,
}

/// A virtual GPU executing kernels with asynchronous-HMM semantics.
///
/// See the [crate docs](crate) for the execution model. A `Device` is
/// `Send + Sync` and may be shared across threads (e.g. behind an `Arc` by
/// a serving layer), but it executes **one launch at a time**, like a
/// single CUDA stream: concurrent `launch` calls serialize on an internal
/// gate rather than interleave. Statistics (`stats`, `launches`,
/// `reset_stats`) aggregate across whichever threads launched, so callers
/// that attribute counters to specific work should either funnel launches
/// through one executor thread or snapshot around their own launches.
pub struct Device {
    cfg: MachineConfig,
    record_stats: bool,
    record_trace: bool,
    record_addrs: bool,
    order: BlockOrder,
    obs: Obs,
    counters: Option<DeviceCounters>,
    pool: Pool,
    /// Serializes launches: the worker pool supports one job at a time.
    launch_gate: Mutex<()>,
    stats: Mutex<CostCounters>,
    trace: Mutex<RunTrace>,
    launches: AtomicU64,
    /// Launches since *construction* (never reset): keys every fault
    /// decision and drives the cumulative `gpu_barrier_steps` counter.
    launches_total: AtomicU64,
    fault: Option<FaultState>,
    /// Request-scoped metadata for the next launches (serving layer hook).
    launch_ctx: Mutex<Option<LaunchContext>>,
    /// Model-conformance tracker fed once per launch (shared across a
    /// fleet's devices via its inner `Arc`).
    conformance: Option<Conformance>,
    /// Fleet shard index: suffixes every conformance cell label
    /// `@s<shard>` and names the shard in drift alerts (a standalone
    /// device's alerts name shard 0).
    shard: Option<u64>,
}

impl Device {
    /// Create a device.
    pub fn new(opts: DeviceOptions) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = opts
            .workers
            .unwrap_or_else(|| opts.config.num_dmms.min(host).saturating_sub(1));
        let counters = opts.observer.registry().map(|reg| DeviceCounters {
            coalesced_ops: reg.counter(gpu::COALESCED_OPS),
            stride_ops: reg.counter(gpu::STRIDE_OPS),
            global_stages: reg.counter(gpu::GLOBAL_STAGES),
            launches: reg.counter(gpu::LAUNCHES),
            barrier_steps: reg.counter(gpu::BARRIER_STEPS),
            handoff_publishes: reg.counter(gpu::HANDOFF_PUBLISHES),
            handoff_acquires: reg.counter(gpu::HANDOFF_ACQUIRES),
            launch_duration: reg.histogram(gpu::LAUNCH_DURATION),
        });
        let fault = opts
            .fault_plan
            .filter(|p| !p.is_empty())
            .map(|plan| FaultState {
                plan,
                events: Mutex::new(Vec::new()),
                failed_launches: AtomicU64::new(0),
                loss_started: Mutex::new(None),
                // The labels spell each class's name with `_` for `-`.
                counters: opts.observer.registry().map_or_else(Vec::new, |reg| {
                    let label = |c: &FaultClass| c.name().replace('-', "_");
                    let labeled =
                        |c| Registry::labeled(gpu::FAULT_INJECTIONS, &[("kind", &label(c))]);
                    FaultClass::ALL
                        .iter()
                        .map(|c| reg.counter(&labeled(c)))
                        .collect()
                }),
            });
        Device {
            cfg: opts.config,
            record_stats: opts.record_stats
                || opts.record_trace
                || opts.observer.is_enabled()
                || opts.conformance.is_some(),
            record_trace: opts.record_trace,
            record_addrs: opts.record_trace && opts.record_addrs,
            order: opts.order,
            obs: opts.observer,
            counters,
            pool: Pool::new(workers),
            launch_gate: Mutex::new(()),
            stats: Mutex::new(CostCounters::new()),
            trace: Mutex::new(RunTrace::default()),
            launches: AtomicU64::new(0),
            launches_total: AtomicU64::new(0),
            fault,
            launch_ctx: Mutex::new(None),
            conformance: opts.conformance,
            shard: opts.shard,
        }
    }

    /// Attach (or with `None` clear) launch metadata (see
    /// [`LaunchContext`]). Until changed, every launch's span carries the
    /// context's batch id and one flow point per request id, linking the
    /// serving layer's request chain through the device's launches, and
    /// its conformance sample lands in the context's cell. Callers
    /// dispatching batches serially set it before the batch's launches and
    /// clear it after; launches are serialized by the launch gate, so the
    /// context observed by a launch is the one its dispatcher set.
    pub fn set_launch_context(&self, ctx: Option<LaunchContext>) {
        *self.launch_ctx.lock() = ctx;
    }

    /// The attached model-conformance tracker, if any.
    pub fn conformance(&self) -> Option<&Conformance> {
        self.conformance.as_ref()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Machine width `w`.
    pub fn width(&self) -> usize {
        self.cfg.width
    }

    /// Background worker count (the launcher thread participates too).
    pub fn workers(&self) -> usize {
        self.pool.extra_workers()
    }

    /// Launch `grid` blocks of `kernel`, returning when all blocks have
    /// completed — the kernel boundary is the barrier synchronisation step
    /// of the asynchronous HMM.
    ///
    /// Safe to call from several threads: launches serialize (single-stream
    /// semantics); a second caller blocks until the first launch drains.
    pub fn launch<F>(&self, grid: usize, kernel: F)
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        self.launch_impl(grid, kernel, false);
    }

    /// Number of blocks that can stay *resident* simultaneously: the extra
    /// workers plus the launching thread. A persistent-block kernel whose
    /// grid exceeds this would deadlock (a claimed block runs to completion
    /// on its thread, so an unclaimed producer could never start), which is
    /// exactly the occupancy constraint of persistent grids on real GPUs.
    pub fn resident_capacity(&self) -> usize {
        self.pool.extra_workers() + 1
    }

    /// Launch `grid` blocks of `kernel` in **persistent** mode: the grid is
    /// launched once, blocks stay resident for the kernel's whole lifetime,
    /// and inter-block ordering is carried by
    /// [`HandoffFlags`](crate::HandoffFlags) release/acquire slots instead
    /// of launch-boundary barriers. One launch ⇒ the run contributes zero
    /// barrier steps to [`stats`](Self::stats); the synchronisation cost
    /// shows up as `handoff_publishes` / `handoff_acquires` instead.
    ///
    /// Panics when `grid` exceeds [`resident_capacity`](Self::resident_capacity):
    /// on this virtual device a claimed block occupies its thread until it
    /// returns, so a grid beyond the resident capacity could spin forever
    /// on a handoff whose producer block was never scheduled.
    ///
    /// Inside the kernel, [`BlockCtx::launch_failed`] reports whether the
    /// launch was aborted or lost by fault injection — resident blocks must
    /// use it to stop waiting on handoffs that will never be published.
    pub fn launch_persistent<F>(&self, grid: usize, kernel: F)
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        assert!(
            grid <= self.resident_capacity(),
            "persistent grid of {grid} blocks exceeds the resident capacity of {} \
             (extra workers + the launching thread); a non-resident producer would deadlock",
            self.resident_capacity()
        );
        self.launch_impl(grid, kernel, true);
    }

    /// One launch, in order: gate, fault decision, schedule, blocks, then
    /// the launch's one counter delta fanned out to the sinks (device
    /// stats, registry, launch span, conformance, flight recorder).
    fn launch_impl<F>(&self, grid: usize, kernel: F, persistent: bool)
    where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        // Gate: one launch at a time. `seq` counts launches since the last
        // stats reset; the never-reset `launch` keys fault decisions, fault
        // events and the cumulative barrier counter. The clock is read only
        // for the sinks that take wall time (duration histogram, conformance).
        let _stream = self.launch_gate.lock();
        let started = (self.counters.is_some() || self.conformance.is_some()).then(Instant::now);
        let seq = self.launches.fetch_add(1, Ordering::Relaxed);
        let launch = self.launches_total.fetch_add(1, Ordering::Relaxed);
        let lc = self.launch_ctx.lock().clone().unwrap_or_default();
        let (stats, trace, addrs) = (self.record_stats, self.record_trace, self.record_addrs);
        let obs = &self.obs;

        // Fault decision, fixed before any block runs so every worker (and
        // the event log) agrees on it. `corrupt` is `(victim block, nth
        // element store of that block)`.
        let fault = self.fault.as_ref();
        let plan = fault.map(|f| &f.plan);
        let lost = fault.is_some_and(|f| f.plan.launch_lost(launch, &mut f.loss_started.lock()));
        let aborted = !lost && plan.is_some_and(|p| p.launch_aborts(launch));
        let corrupt = plan
            .and_then(|p| p.corruption(launch, grid))
            .filter(|_| !lost);
        // A block must be able to tell that its launch failed: a persistent
        // kernel spinning on a handoff whose producer was skipped would
        // otherwise never return. Also gates buffer poisoning — only writes
        // made under a failed launch taint a buffer.
        let failed = lost || aborted;
        let skips = |b: u64| lost || (aborted && plan.is_some_and(|p| p.skips_block(launch, b)));

        // Schedule: the block permutation, plus adversarial start delays
        // (only meaningful when blocks actually overlap). Adversarial uses a
        // distinct stream from Shuffled's, so `Adversarial(s)` and
        // `Shuffled(s)` explore different permutations of each launch.
        let (perm, stagger): (Option<Vec<u32>>, _) = match self.order {
            BlockOrder::Forward => (None, None),
            BlockOrder::Reverse => (Some((0..grid as u32).rev().collect()), None),
            BlockOrder::Shuffled(seed) => (Some(permutation(grid, seed ^ seq)), None),
            BlockOrder::Adversarial(seed) => (
                Some(permutation(grid, seed ^ seq ^ 0xADE5_A21A_15EE_D000)),
                (self.pool.extra_workers() > 0).then_some(seed ^ seq),
            ),
        };
        // Race-table entries are tagged `(epoch, block)`; the epoch is
        // *process-global* (not per-device) so that concurrent launches on
        // different devices of a fleet touching one checked buffer can
        // never alias each other's tags and report false races.
        static NEXT_LAUNCH_EPOCH: AtomicU64 = AtomicU64::new(1);
        let epoch = NEXT_LAUNCH_EPOCH.fetch_add(1, Ordering::Relaxed);

        if let Some(reg) = obs.registry() {
            reg.reset_scope();
        }
        let mut span = obs.span(Track::wall(0), "launch");
        span.arg("launch", ArgValue::from(seq));
        span.arg("grid", ArgValue::from(grid));
        if persistent {
            span.arg("mode", ArgValue::from("persistent"));
        }
        if let Some(&first) = lc.requests.first() {
            span.arg("batch", ArgValue::from(lc.batch));
            span.arg("request", ArgValue::from(first));
        }
        let request = lc.requests.first().copied().unwrap_or(0);
        obs.emit(Event::LaunchBegin {
            request,
            launch,
            grid: grid as u64,
        });

        // Blocks: each merges its recorder into the launch-local delta.
        let delta = Mutex::new(CostCounters::new());
        let corrupt_hit = AtomicBool::new(false);
        let launch_trace = trace.then(|| {
            Mutex::new(LaunchTrace {
                blocks: vec![Vec::new(); grid],
                addrs: vec![Vec::new(); if addrs { grid } else { 0 }],
                lost,
            })
        });
        let wrapper = |idx: usize| {
            let block_id = perm.as_ref().map_or(idx, |p| p[idx] as usize);
            if skips(block_id as u64) {
                return; // this block never runs
            }
            if let Some(p) = plan.filter(|p| p.straggles(launch, block_id as u64)) {
                std::thread::sleep(p.straggler_delay);
            }
            // Roughly a quarter of the blocks start up to ~40 µs late —
            // enough to scramble worker interleavings without making large
            // grids crawl.
            let h = stagger.map(|seed| splitmix64(seed.wrapping_add(block_id as u64)));
            if let Some(h) = h.filter(|h| h % 4 == 0) {
                std::thread::sleep(Duration::from_micros((h >> 8) % 40 + 1));
            }
            let mut ctx = BlockCtx {
                dev: self,
                block_id,
                epoch,
                failed,
                tiles_allocated: 0,
                rec: TxnRecorder::with_options(self.cfg.width, stats, trace, addrs),
            };
            if let Some((_, nth)) = corrupt.filter(|&(victim, _)| victim == block_id) {
                ctx.rec.arm_corruption(nth);
            }
            kernel(&mut ctx);
            if ctx.rec.corruption_hit() {
                corrupt_hit.store(true, Ordering::Relaxed);
            }
            if stats {
                delta.lock().merge_parallel(&ctx.rec.take());
            }
            if let Some(lt) = &launch_trace {
                let mut lt = lt.lock();
                lt.blocks[block_id] = ctx.rec.take_trace();
                if addrs {
                    lt.addrs[block_id] = ctx.rec.take_addrs();
                }
            }
        };
        self.pool.run(grid, &wrapper);
        if let Some(lt) = launch_trace {
            self.trace.lock().launches.push(lt.into_inner());
        }
        let delta = delta.into_inner();
        self.stats.lock().merge_parallel(&delta);

        if let Some(f) = fault {
            // All events are logged here, on the launching thread, in a
            // canonical order (failure, stragglers by block, corruption) so
            // the log is identical across runs regardless of worker timing.
            let blocks = 0..grid as u64;
            let skipped = blocks.clone().filter(|&b| skips(b)).count() as u64;
            let lost_ev = lost.then_some(FaultEvent::DeviceLost { launch });
            let aborted_ev = aborted.then_some(FaultEvent::LaunchAborted { launch, skipped });
            let stragglers = blocks
                .filter(|&b| !skips(b) && f.plan.straggles(launch, b))
                .map(|block| FaultEvent::Straggler { launch, block });
            let corrupted = corrupt
                .filter(|_| corrupt_hit.into_inner())
                .map(|(victim, _)| victim as u64)
                .map(|block| FaultEvent::Corrupted { launch, block });
            let events = lost_ev.into_iter().chain(aborted_ev).chain(stragglers);
            events.chain(corrupted).for_each(|ev| f.log(ev, obs));
        }

        // The one delta fans out to the registry, the span and conformance.
        let elapsed = started.map_or(Duration::ZERO, |s| s.elapsed());
        if let Some(c) = &self.counters {
            c.coalesced_ops.add(delta.coalesced_ops());
            c.stride_ops.add(delta.stride_ops());
            c.global_stages.add(delta.global_stages);
            c.handoff_publishes.add(delta.handoff_publishes);
            c.handoff_acquires.add(delta.handoff_acquires);
            c.launches.inc();
            c.barrier_steps.add(u64::from(launch > 0));
            c.launch_duration.observe_duration(elapsed);
        }
        span.arg("coalesced_ops", ArgValue::from(delta.coalesced_ops()));
        span.arg("stride_ops", ArgValue::from(delta.stride_ops()));
        span.arg("global_stages", ArgValue::from(delta.global_stages));
        if let Some(conf) = &self.conformance {
            // Unlabeled launches still get a stable mode/grid bucket.
            let mode = if persistent { "persistent" } else { "launch" };
            let bucket = grid.max(1).next_power_of_two();
            let mut cell = lc.cell.unwrap_or_else(|| format!("{mode}/g{bucket}"));
            if let Some(s) = self.shard {
                let _ = write!(cell, "@s{s}");
            }
            conf.ingest(LaunchSample {
                cell,
                coalesced_ops: delta.coalesced_ops(),
                stride_ops: delta.stride_ops(),
                global_stages: delta.global_stages,
                wall_seconds: elapsed.as_secs_f64(),
            });
            for alert in conf.take_new_alerts() {
                obs.emit(Event::DriftAlert {
                    cell: Label::new(&alert.cell),
                    shard: self.shard.unwrap_or(0),
                    ratio_ppm: (alert.ratio * 1e6) as u64,
                    samples: alert.samples,
                });
            }
        }
        // Flow points for every request the batch carries, stamped while
        // the launch span is still open so they anchor *inside* it —
        // Perfetto then routes each request's arrow chain through this
        // launch. Dropped after, the span guard records the slice.
        for &rid in &lc.requests {
            let now = Instant::now();
            obs.flow_wall(Track::wall(0), "request", FlowPhase::Step, rid, now);
        }
        obs.emit(Event::LaunchEnd {
            request,
            launch,
            failed,
        });
    }

    /// Reset the accumulated statistics (typically before timing a run).
    pub fn reset_stats(&self) {
        *self.stats.lock() = CostCounters::new();
        *self.trace.lock() = RunTrace::default();
        self.launches.store(0, Ordering::Relaxed);
    }

    /// Drain the transaction trace recorded since the last reset (empty
    /// unless the device was created with `record_trace`).
    pub fn take_trace(&self) -> RunTrace {
        std::mem::take(&mut self.trace.lock())
    }

    /// The statistics accumulated since the last reset. `barrier_steps` is
    /// the number of kernel boundaries *between* launches (launches − 1),
    /// matching the paper's counting.
    pub fn stats(&self) -> CostCounters {
        let mut c = *self.stats.lock();
        c.barrier_steps = self.launches.load(Ordering::Relaxed).saturating_sub(1);
        c
    }

    /// Number of launches since the last reset.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// The observability handle the device was built with (disabled unless
    /// [`DeviceOptions::observer`] was set). Registry counters
    /// (`gpu_coalesced_ops`, `gpu_stride_ops`, `gpu_global_stages`,
    /// `gpu_launches`, `gpu_barrier_steps`, plus the
    /// `gpu_launch_duration_seconds` histogram) are cumulative since
    /// construction and are *not* zeroed by [`Device::reset_stats`]; the
    /// per-launch scope is zeroed at each launch start.
    pub fn observer(&self) -> &Obs {
        &self.obs
    }

    /// Number of launches that *failed* (launch abort or device loss) since
    /// construction. The virtual analogue of polling `cudaGetLastError`:
    /// snapshot it around your launches; a delta means they did not all
    /// complete. Silent corruption does **not** move the epoch — only
    /// result verification can catch it. Always 0 without a fault plan.
    pub fn fault_epoch(&self) -> u64 {
        self.fault
            .as_ref()
            .map_or(0, |f| f.failed_launches.load(Ordering::Relaxed))
    }

    /// Drain the injected-fault event log (empty without a fault plan).
    /// Events appear in a canonical deterministic order; the log retains at
    /// most `65536` events per drain.
    pub fn take_fault_events(&self) -> Vec<FaultEvent> {
        self.fault
            .as_ref()
            .map_or_else(Vec::new, |f| std::mem::take(&mut f.events.lock()))
    }

    /// The fault plan the device was built with, if any non-empty plan.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }
}

/// Per-block execution context handed to kernels.
pub struct BlockCtx<'a> {
    dev: &'a Device,
    block_id: usize,
    epoch: u64,
    failed: bool,
    tiles_allocated: u32,
    /// The block's transaction recorder. Pass `ctx.rec()` (or borrow this
    /// field) to every memory accessor.
    pub rec: TxnRecorder,
}

impl<'a> BlockCtx<'a> {
    /// This block's id within the launch grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Machine width `w`.
    pub fn width(&self) -> usize {
        self.dev.cfg.width
    }

    /// The device's machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.dev.cfg
    }

    /// The block's recorder (convenience for call sites:
    /// `g.read_contig(base, &mut out, ctx.rec())`).
    pub fn rec(&mut self) -> &mut TxnRecorder {
        &mut self.rec
    }

    /// Whether this block is running under a launch the fault injector
    /// failed (aborted or lost). Persistent kernels consult this to stop
    /// polling handoff flags whose producer block will never publish; the
    /// virtual analogue of a grid noticing `cudaGetLastError` went bad.
    pub fn launch_failed(&self) -> bool {
        self.failed
    }

    /// Obtain this block's view of a global buffer.
    pub fn view<'b, T: Copy>(&self, buf: &'b GlobalBuffer<T>) -> GlobalView<'b, T> {
        buf.make_view(self.epoch, self.block_id as u64, self.failed)
    }

    /// Allocate a zeroed `w × w` shared-memory tile with the given bank
    /// layout. Panics if the block exceeds the DMM's shared capacity —
    /// the 48 KB limit of real GPUs that the paper's `O(w²)` assumption
    /// models.
    pub fn shared_tile<T: Copy + Default>(&mut self, layout: TileLayout) -> SharedTile<T> {
        let w = self.dev.cfg.width;
        let id = self.tiles_allocated;
        self.tiles_allocated += 1;
        let used = self.tiles_allocated as usize * w * w;
        assert!(
            used <= self.dev.cfg.shared_capacity,
            "block {} exceeded shared memory capacity: {used} words used, {} available",
            self.block_id,
            self.dev.cfg.shared_capacity
        );
        SharedTile::new(w, layout, id)
    }
}

/// The splitmix64 finaliser: a deterministic 64-bit hash with good
/// avalanche, used for shuffles and adversarial stagger decisions.
fn splitmix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random permutation of `0..n` (Fisher–Yates driven by
/// a splitmix64 stream; no external RNG dependency).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "grid too large to shuffle");
    let mut v: Vec<u32> = (0..n as u32).collect();
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(s)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev4() -> Device {
        Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(2))
    }

    #[test]
    fn launch_runs_every_block() {
        let dev = dev4();
        let out = GlobalBuffer::filled(0u64, 64);
        dev.launch(64, |ctx| {
            let g = ctx.view(&out);
            let b = ctx.block_id();
            g.write(b, b as u64 + 1, ctx.rec());
        });
        let v = out.into_vec();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 + 1);
        }
    }

    #[test]
    fn stats_accumulate_and_count_barriers() {
        let dev = dev4();
        let buf = GlobalBuffer::filled(1.0f64, 32);
        for _ in 0..3 {
            dev.launch(8, |ctx| {
                let g = ctx.view(&buf);
                let base = ctx.block_id() * 4;
                let mut v = [0.0; 4];
                g.read_contig(base, &mut v, ctx.rec());
                g.write_contig(base, &v, ctx.rec());
            });
        }
        let s = dev.stats();
        assert_eq!(s.coalesced_reads, 3 * 32);
        assert_eq!(s.coalesced_writes, 3 * 32);
        assert_eq!(s.barrier_steps, 2); // 3 launches = 2 barriers
        assert_eq!(dev.launches(), 3);
        dev.reset_stats();
        assert_eq!(dev.stats().global_ops(), 0);
        assert_eq!(dev.stats().barrier_steps, 0);
    }

    #[test]
    fn stats_can_be_disabled() {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .record_stats(false),
        );
        let buf = GlobalBuffer::filled(1u32, 16);
        dev.launch(4, |ctx| {
            let g = ctx.view(&buf);
            let mut v = [0u32; 4];
            g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
        });
        assert_eq!(dev.stats().global_ops(), 0);
    }

    #[test]
    fn shuffled_order_gives_same_result() {
        for order in [
            BlockOrder::Forward,
            BlockOrder::Reverse,
            BlockOrder::Shuffled(42),
            BlockOrder::Adversarial(42),
        ] {
            let dev = Device::new(
                DeviceOptions::new(MachineConfig::with_width(4))
                    .workers(3)
                    .order(order),
            );
            let out = GlobalBuffer::filled(0usize, 100);
            dev.launch(100, |ctx| {
                let g = ctx.view(&out);
                g.write(ctx.block_id(), ctx.block_id() * 7, ctx.rec());
            });
            let v = out.into_vec();
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i * 7, "{order:?}");
            }
        }
    }

    #[test]
    fn shared_tiles_are_fresh_per_block() {
        // Failure-injection for the reset-at-barrier semantics: even when a
        // block writes its tile, the next block (possibly on the same
        // worker) must observe zeros.
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
        let dirty = GlobalBuffer::filled(0u32, 64);
        for _round in 0..2 {
            dev.launch(64, |ctx| {
                let g = ctx.view(&dirty);
                let mut t: SharedTile<u32> = ctx.shared_tile(TileLayout::Diagonal);
                let mut sum = 0;
                for i in 0..4 {
                    for j in 0..4 {
                        sum += t.get(i, j);
                    }
                }
                // Report any stale value, then pollute the tile.
                g.write(ctx.block_id(), sum, ctx.rec());
                for i in 0..4 {
                    for j in 0..4 {
                        t.set(i, j, 0xDEAD);
                    }
                }
            });
        }
        assert!(dirty.into_vec().iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "exceeded shared memory capacity")]
    fn shared_capacity_is_enforced() {
        let cfg = MachineConfig::with_width(4).shared_capacity(2 * 16);
        let dev = Device::new(DeviceOptions::new(cfg).workers(0));
        dev.launch(1, |ctx| {
            let _a: SharedTile<f64> = ctx.shared_tile(TileLayout::Diagonal);
            let _b: SharedTile<f64> = ctx.shared_tile(TileLayout::Diagonal);
            let _c: SharedTile<f64> = ctx.shared_tile(TileLayout::Diagonal); // 3rd tile: over
        });
    }

    #[test]
    fn race_checked_buffer_catches_bad_kernel() {
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(1));
        let buf = GlobalBuffer::from_vec_checked(vec![0u32; 4]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(8, |ctx| {
                let g = ctx.view(&buf);
                // Every block writes word 0: a write-write race.
                g.write(0, ctx.block_id() as u32, ctx.rec());
            });
        }));
        assert!(r.is_err(), "race must be detected");
    }

    #[test]
    fn permutation_is_a_permutation() {
        for n in [0usize, 1, 2, 17, 1000] {
            let p = permutation(n, 0xABCD);
            let mut seen = vec![false; n];
            for &x in &p {
                assert!(!seen[x as usize]);
                seen[x as usize] = true;
            }
            assert!(seen.into_iter().all(|b| b));
        }
    }

    #[test]
    fn observer_counters_and_spans_track_launches() {
        let obs = Obs::new();
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .observer(obs.clone()),
        );
        let buf = GlobalBuffer::filled(1.0f64, 32);
        for _ in 0..3 {
            dev.launch(8, |ctx| {
                let g = ctx.view(&buf);
                let base = ctx.block_id() * 4;
                let mut v = [0.0; 4];
                g.read_contig(base, &mut v, ctx.rec());
                g.write_contig(base, &v, ctx.rec());
            });
        }
        let reg = obs.registry().unwrap();
        let snap = reg.snapshot();
        // Cumulative totals match device stats; the per-launch scope holds
        // only the last launch's contribution.
        assert_eq!(snap.counter("gpu_coalesced_ops").unwrap().total, 3 * 64);
        assert_eq!(snap.counter("gpu_coalesced_ops").unwrap().scoped, 64);
        assert_eq!(snap.counter("gpu_stride_ops").unwrap().total, 0);
        assert_eq!(snap.counter("gpu_launches").unwrap().total, 3);
        assert_eq!(snap.counter("gpu_barrier_steps").unwrap().total, 2);
        // Every launch lands one observation in the duration histogram.
        let dur = snap.histogram("gpu_launch_duration_seconds").unwrap();
        assert_eq!(dur.count, 3);
        assert!(dur.sum > 0.0);
        // One span per launch, schema-valid.
        assert_eq!(obs.event_count(), 3);
        let stats = obs::chrome::validate(&obs.trace_json()).unwrap();
        assert_eq!(stats.complete, 3);
    }

    #[test]
    fn conformance_tracker_ingests_launches_and_respects_cell_labels() {
        use obs::conformance::{cell_label, ConformanceConfig};
        let cfg = MachineConfig::with_width(4);
        let tracker = Conformance::new(ConformanceConfig::for_machine(
            cfg.width as u64,
            cfg.window_overhead(),
        ));
        // No observer: conformance alone must imply stats and feed samples.
        let dev = Device::new(
            DeviceOptions::new(cfg)
                .workers(0)
                .record_stats(false)
                .conformance(tracker.clone()),
        );
        let buf = GlobalBuffer::filled(1.0f64, 64);
        dev.set_launch_context(Some(LaunchContext {
            cell: Some(cell_label("1r1w", 8, 8)),
            ..LaunchContext::default()
        }));
        for i in 0..4usize {
            // Vary the grid so C varies launch to launch.
            dev.launch(2 + i * 2, |ctx| {
                let g = ctx.view(&buf);
                let base = (ctx.block_id() * 4) % 60;
                let mut v = [0.0; 4];
                g.read_contig(base, &mut v, ctx.rec());
                g.write_contig(base, &v, ctx.rec());
            });
        }
        dev.set_launch_context(None);
        dev.launch(2, |ctx| {
            let g = ctx.view(&buf);
            let mut v = [0.0; 4];
            g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
        });
        assert_eq!(tracker.sample_count(), 5);
        let cells = tracker.cells();
        assert_eq!(cells.len(), 2, "{cells:?}");
        assert_eq!(cells[0].cell, "1r1w/8x8");
        assert_eq!(cells[0].samples, 4);
        assert_eq!(cells[1].cell, "launch/g2", "unlabeled fallback bucket");
        assert!(tracker.tau_seconds_per_unit() > 0.0);
        // The counters the tracker saw are the real per-launch deltas.
        let stats = dev.stats();
        assert!(stats.coalesced_ops() > 0);
    }

    #[test]
    fn fleet_devices_tag_conformance_cells_with_their_shard() {
        use crate::fleet::{DeviceFleet, FleetOptions};
        use obs::conformance::ConformanceConfig;
        let cfg = MachineConfig::with_width(4);
        let tracker = Conformance::new(ConformanceConfig::for_machine(
            cfg.width as u64,
            cfg.window_overhead(),
        ));
        let base = DeviceOptions::new(cfg)
            .workers(0)
            .conformance(tracker.clone());
        let fleet = DeviceFleet::new(FleetOptions::new(base, 2));
        let buf = GlobalBuffer::filled(1.0f64, 32);
        for d in 0..2 {
            fleet.device(d).launch(4, |ctx| {
                let g = ctx.view(&buf);
                let mut v = [0.0; 4];
                g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
            });
        }
        let cells = tracker.cells();
        let names: Vec<&str> = cells.iter().map(|c| c.cell.as_str()).collect();
        assert_eq!(names, vec!["launch/g4@s0", "launch/g4@s1"], "{cells:?}");
    }

    #[test]
    fn sustained_drift_emits_one_flight_event() {
        use obs::conformance::ConformanceConfig;
        let obs = Obs::new();
        let cfg = MachineConfig::with_width(4);
        let mut ccfg = ConformanceConfig::for_machine(cfg.width as u64, cfg.window_overhead());
        ccfg.baseline_samples = 4;
        let tracker = Conformance::new(ccfg.clone());
        let dev = Device::new(
            DeviceOptions::new(cfg)
                .workers(0)
                .observer(obs.clone())
                .conformance(tracker.clone()),
        );
        let buf = GlobalBuffer::filled(1.0f64, 64);
        let cell = "drifting/64x64";
        dev.set_launch_context(Some(LaunchContext {
            cell: Some(cell.to_string()),
            ..LaunchContext::default()
        }));
        let run = |dev: &Device| {
            dev.launch(2, |ctx| {
                let g = ctx.view(&buf);
                let mut v = [0.0; 4];
                g.read_contig((ctx.block_id() * 4) % 60, &mut v, ctx.rec());
            })
        };
        for _ in 0..6 {
            run(&dev); // completes the cell's baseline
        }
        // Sustained 5× slowdown on the same cell (units large enough for
        // full CUSUM weight): three samples latch the alert…
        let base_tau = tracker.cells()[0].baseline_tau.max(1e-9);
        for _ in 0..3 {
            tracker.ingest(obs::LaunchSample {
                cell: cell.to_string(),
                coalesced_ops: 40_000,
                stride_ops: 0,
                global_stages: 10_000,
                wall_seconds: base_tau * 5.0 * (10_000 + ccfg.window_overhead) as f64,
            });
        }
        assert_eq!(tracker.alert_count(), 1, "{:?}", tracker.alerts());
        // …and the device's next launch drains it into the flight ring.
        run(&dev);
        let drifts: Vec<_> = obs
            .flight_recent()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::DriftAlert {
                    cell,
                    shard,
                    ratio_ppm,
                    ..
                } => Some((cell, shard, ratio_ppm)),
                _ => None,
            })
            .collect();
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert!(drifts[0].2 > 1_000_000, "ratio ppm: {:?}", drifts[0]);
        // The event alone names the drifting cell and the device's shard.
        assert_eq!((drifts[0].0.as_str(), drifts[0].1), (cell, 0));
        // Latched: further launches emit nothing new.
        run(&dev);
        let again = obs
            .flight_recent()
            .into_iter()
            .filter(|e| matches!(e.event, Event::DriftAlert { .. }))
            .count();
        assert_eq!(again, 1);
    }

    #[test]
    fn observer_implies_stats_and_one_span_per_launch() {
        let obs = Obs::new();
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(2)
                .record_stats(false)
                .observer(obs.clone()),
        );
        let buf = GlobalBuffer::filled(1u32, 16);
        dev.launch(4, |ctx| {
            let g = ctx.view(&buf);
            let mut v = [0u32; 4];
            g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
        });
        // The observer forced stats back on.
        assert_eq!(dev.stats().coalesced_reads, 16);
        // One launch span and nothing per block.
        assert_eq!(obs.event_count(), 1);
    }

    #[test]
    fn launch_context_threads_requests_through_launch_spans() {
        let obs = Obs::new();
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .observer(obs.clone()),
        );
        let buf = GlobalBuffer::filled(1u32, 16);
        // A request context, no context, and a context carrying only a
        // conformance cell (as the profilers set): the last must look
        // exactly like no context at all.
        for ctx in [
            Some(LaunchContext {
                batch: 9,
                requests: vec![101, 102],
                cell: None,
            }),
            None,
            Some(LaunchContext {
                cell: Some("1r1w/16x16".to_string()),
                ..LaunchContext::default()
            }),
        ] {
            dev.set_launch_context(ctx);
            dev.launch(4, |ctx| {
                let g = ctx.view(&buf);
                let mut v = [0u32; 4];
                g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
            });
        }
        let json = obs.trace_json();
        let stats = obs::chrome::validate(&json).unwrap();
        assert_eq!(stats.complete, 3, "three launch spans");
        assert_eq!(stats.flows, 2, "one flow point per context request");
        let v = obs::json::JsonValue::parse(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let launches: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("launch"))
            .collect();
        // First launch carries the batch + first request args; the others
        // (context cleared, or cell only) carry neither.
        let args0 = launches[0].get("args").unwrap();
        assert_eq!(args0.get("batch").unwrap().as_f64(), Some(9.0));
        assert_eq!(args0.get("request").unwrap().as_f64(), Some(101.0));
        for l in &launches[1..] {
            let args = l.get("args").unwrap();
            assert!(args.get("batch").is_none() && args.get("request").is_none());
        }
        let flow_ids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("t"))
            .map(|e| e.get("id").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(flow_ids, vec![101.0, 102.0]);
        // Launch begin/end made it into the flight recorder with the first
        // request id attached.
        let flight = obs.flight_recent();
        let begins: Vec<u64> = flight
            .iter()
            .filter_map(|e| match e.event {
                Event::LaunchBegin { request, .. } => Some(request),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 3);
        assert_eq!(begins[0], 101);
        assert_eq!(begins[1], 0);
        assert_eq!(begins[2], 0);
    }

    #[test]
    fn disabled_observer_emits_nothing() {
        let dev = dev4();
        let buf = GlobalBuffer::filled(1u32, 16);
        dev.launch(4, |ctx| {
            let g = ctx.view(&buf);
            let mut v = [0u32; 4];
            g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
        });
        assert!(!dev.observer().is_enabled());
        assert_eq!(dev.observer().event_count(), 0);
    }

    #[test]
    fn addr_channel_can_be_disabled_independently_of_trace() {
        let dev = Device::new(
            DeviceOptions::new(MachineConfig::with_width(4))
                .workers(0)
                .record_trace(true)
                .record_addrs(false),
        );
        let buf = GlobalBuffer::filled(1u32, 16);
        dev.launch(4, |ctx| {
            let g = ctx.view(&buf);
            let mut v = [0u32; 4];
            g.read_contig(ctx.block_id() * 4, &mut v, ctx.rec());
        });
        let trace = dev.take_trace();
        assert_eq!(trace.launches.len(), 1);
        assert_eq!(trace.launches[0].blocks.len(), 4);
        assert!(trace.launches[0].blocks.iter().all(|b| b.len() == 1));
        assert!(trace.launches[0].addrs.is_empty());
    }

    #[test]
    fn device_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
    }

    #[test]
    fn concurrent_launches_serialize_instead_of_panicking() {
        // A serving layer shares one device across request threads; the
        // launch gate must turn simultaneous launches into a queue, not a
        // "one launch at a time" pool panic.
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(2));
        let bufs: Vec<GlobalBuffer<u64>> = (0..4).map(|_| GlobalBuffer::filled(0u64, 64)).collect();
        std::thread::scope(|s| {
            for buf in &bufs {
                s.spawn(|| {
                    for _ in 0..10 {
                        dev.launch(16, |ctx| {
                            let g = ctx.view(buf);
                            let b = ctx.block_id() * 4;
                            let mut v = [0u64; 4];
                            g.read_contig(b, &mut v, ctx.rec());
                            for x in &mut v {
                                *x += 1;
                            }
                            g.write_contig(b, &v, ctx.rec());
                        });
                    }
                });
            }
        });
        assert_eq!(dev.launches(), 40);
        for buf in bufs {
            assert!(buf.into_vec().iter().all(|&x| x == 10));
        }
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let cfg = MachineConfig::with_width(4);
        let dev = Device::new(DeviceOptions::new(cfg));
        let buf = GlobalBuffer::from_vec(vec![1.0f64; 64]);
        dev.launch(4, |ctx| {
            let g = ctx.view(&buf);
            let base = ctx.block_id() * 16;
            let mut vals = [0.0f64; 16];
            g.read_contig(base, &mut vals, ctx.rec());
            for v in &mut vals {
                *v *= 2.0;
            }
            g.write_contig(base, &vals, ctx.rec());
        });
        assert!(buf.into_vec().iter().all(|&v| v == 2.0));
    }
}
