//! The service proper: bounded submission queue, client handles, and the
//! batch-former thread that owns the device.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_exec::{
    BufferPool, Device, DeviceFleet, DeviceOptions, FleetOptions, GlobalBuffer, LaunchContext,
};
use hmm_model::cost::{ExactCounts, GlobalCost, SatAlgorithm};
use obs::conformance::cell_label;
use obs::flight::Trigger;
use obs::{ArgValue, BreakerState, Conformance, Event, FlowPhase, Obs, RejectReason, Track};
use parking_lot::{Condvar, Mutex};
use sat_core::par::{band_colsum, band_wavefront, margin_exchange, BandPlan};
use sat_core::{compute_sat, compute_sat_batch_with, Matrix, SumTable};

use crate::http::Telemetry;
use crate::metrics::{Metrics, MODEL_PREFIX};
use crate::resilience::{backoff_delay, canary_ok, verify_sat, CircuitBreaker, Disposition};
use crate::{ServiceConfig, ServiceError, ServiceStats, VerifyMode};

type Reply = mpsc::SyncSender<Result<SumTable<f64>, ServiceError>>;

pub(crate) struct Request {
    /// Request id minted at admission; the flow id of the request's
    /// Chrome-trace arrow chain and the key of its flight-recorder events.
    id: u64,
    image: Matrix<f64>,
    algorithm: SatAlgorithm,
    enqueued: Instant,
    deadline: Instant,
    reply: Reply,
}

#[derive(Default)]
pub(crate) struct QueueState {
    pub(crate) queue: VecDeque<Request>,
    pub(crate) shutdown: bool,
}

impl QueueState {
    /// Queue depth, for the health endpoint.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServiceConfig,
    pub(crate) state: Mutex<QueueState>,
    /// Submitters wait here for queue space (backpressure edge).
    space_cv: Condvar,
    /// The batch-former waits here for work or its linger window.
    work_cv: Condvar,
    pub(crate) metrics: Metrics,
    /// Source of admission-time request ids (1-based; 0 means "no
    /// request" in flight-recorder events).
    next_request: AtomicU64,
    /// Post-mortem bundles dumped so far (capped by
    /// [`crate::PostmortemConfig::max_bundles`]).
    pub(crate) postmortems: AtomicU64,
    /// The live model-conformance observatory: every device launch feeds
    /// it a (counters, wall-time) sample; it fits (w, Λ) online and
    /// raises drift alerts. Shared with the fleet's devices.
    pub(crate) conformance: Conformance,
    /// Drift alerts already turned into post-mortem triggers — a cursor
    /// over [`Conformance::alert_count`], advanced at dispatch boundaries.
    drift_alerts_seen: AtomicU64,
}

impl Shared {
    /// Emit one fact, once: its registry counter ([`Metrics::on_event`])
    /// and its observer event (a flight-ring slot and a trace instant).
    fn emit(&self, event: Event) {
        self.metrics.on_event(&event);
        self.cfg.observer.emit(event);
    }
}

/// A running SAT service. Created by [`Service::start`]; hand out
/// [`Client`]s with [`Service::client`]. Dropping the service shuts it
/// down (still-queued requests fail fast with [`ServiceError::Shutdown`]).
pub struct Service {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
    telemetry: Option<Telemetry>,
}

/// A cheap, cloneable handle for submitting requests from any thread.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Service {
    /// Start the service: build the device fleet of
    /// [`ServiceConfig::shards`] devices and spawn the batch-former.
    pub fn start(cfg: ServiceConfig) -> Service {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.max_batch > 0, "max batch must be positive");
        assert!(cfg.shards > 0, "shard count must be positive");
        // Share one registry between serving-layer, device and conformance
        // metrics so a single scrape covers all three; fall back to a
        // private registry when observability is off (ServiceStats and the
        // conformance report keep working either way).
        let registry = cfg.observer.registry().unwrap_or_default();
        // The observatory is always on: launches are being timed anyway,
        // and a fit that never converges is itself a health signal. The
        // machine's configured parameters always win over a caller-supplied
        // config — they are what the fit is checked against.
        let mut ccfg = cfg
            .conformance
            .clone()
            .unwrap_or_else(|| obs::ConformanceConfig::for_machine(0, 0));
        ccfg.width = cfg.machine.width as u64;
        ccfg.window_overhead = cfg.machine.window_overhead();
        let conformance = Conformance::with_registry(ccfg, &registry, MODEL_PREFIX);
        let mut opts = DeviceOptions::new(cfg.machine)
            .observer(cfg.observer.clone())
            .conformance(conformance.clone());
        if let Some(w) = cfg.device_workers {
            opts = opts.workers(w);
        }
        if let Some(plan) = cfg.fault_plan.clone() {
            opts = opts.fault_plan(plan);
        }
        let mut fleet_opts = FleetOptions::new(opts, cfg.shards);
        if !cfg.shard_fault_plans.is_empty() {
            assert!(
                cfg.shard_fault_plans.len() == cfg.shards,
                "shard_fault_plans must be empty or have one entry per shard ({} vs {})",
                cfg.shard_fault_plans.len(),
                cfg.shards
            );
            fleet_opts = fleet_opts.fault_plans(cfg.shard_fault_plans.clone());
        }
        let fleet = DeviceFleet::new(fleet_opts);
        let metrics = Metrics::new(registry, cfg.slo, cfg.shards);
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(QueueState::default()),
            space_cv: Condvar::new(),
            work_cv: Condvar::new(),
            metrics,
            next_request: AtomicU64::new(0),
            postmortems: AtomicU64::new(0),
            conformance,
            drift_alerts_seen: AtomicU64::new(0),
        });
        if shared.cfg.postmortem.panic_hook {
            if let (Some(dir), true) = (
                shared.cfg.postmortem.dir.clone(),
                shared.cfg.observer.is_enabled(),
            ) {
                obs::flight::install_panic_hook(
                    shared.cfg.observer.clone(),
                    dir,
                    shared.cfg.postmortem.prefix.clone(),
                );
            }
        }
        let telemetry = shared.cfg.telemetry.listen.clone().map(|addr| {
            Telemetry::start(Arc::clone(&shared), &addr)
                .unwrap_or_else(|e| panic!("telemetry listener on {addr}: {e}"))
        });
        let for_batcher = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("sat-service-batcher".to_string())
            .spawn(move || batcher_loop(&for_batcher, &fleet))
            .expect("spawning the batch-former thread");
        Service {
            shared,
            batcher: Some(batcher),
            telemetry,
        }
    }

    /// A new submission handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot the service's instrumentation.
    pub fn stats(&self) -> ServiceStats {
        self.shared.metrics.snapshot()
    }

    /// Prometheus-style text exposition of every counter and gauge the
    /// service maintains (plus the device's `gpu_*` counters when the
    /// service was started with an enabled observer). The `/metrics`
    /// endpoint of the telemetry listener serves exactly these bytes.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.expose_text()
    }

    /// The live model-conformance observatory: online (w, Λ) fit,
    /// per-cell residual statistics and drift alerts, fed by every device
    /// launch the service issues.
    pub fn conformance(&self) -> &Conformance {
        &self.shared.conformance
    }

    /// The JSON conformance report — the same document the telemetry
    /// listener serves at `/debug/conformance`.
    pub fn conformance_report(&self) -> String {
        self.shared.conformance.report_json()
    }

    /// The telemetry listener's bound address, when one was configured
    /// ([`crate::TelemetryConfig::listen`]) — useful with an ephemeral
    /// port request like `127.0.0.1:0`.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(Telemetry::addr)
    }

    /// Stop admitting requests, fail everything still queued with
    /// [`ServiceError::Shutdown`] (counted under `reason="shutdown_drain"`),
    /// join the batch-former, and return the final statistics. A dispatch
    /// already on the device completes normally first.
    pub fn shutdown(mut self) -> ServiceStats {
        self.begin_shutdown();
        self.shared.metrics.snapshot()
    }

    fn begin_shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        if let Some(t) = self.telemetry.take() {
            t.stop();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

impl Client {
    /// Submit one matrix for SAT computation and block until the result or
    /// a rejection.
    ///
    /// `deadline` is the time budget for *queueing* (admission under
    /// backpressure plus waiting for a batch slot); `None` uses
    /// [`ServiceConfig::default_deadline`]. Once dispatched to the device a
    /// request always completes. The returned [`SumTable`] wraps a SAT
    /// bit-equal to `compute_sat` of the same image.
    pub fn submit(
        &self,
        image: Matrix<f64>,
        algorithm: SatAlgorithm,
        deadline: Option<Duration>,
    ) -> Result<SumTable<f64>, ServiceError> {
        let reject = |reason| {
            self.shared.emit(Event::Reject { request: 0, reason });
        };
        if image.rows() == 0 || image.cols() == 0 {
            reject(RejectReason::Invalid);
            return Err(ServiceError::InvalidRequest("empty matrix".to_string()));
        }
        let enqueued = Instant::now();
        let deadline_at = enqueued + deadline.unwrap_or(self.shared.cfg.default_deadline);
        let (rows, cols) = (image.rows(), image.cols());
        let (tx, rx) = mpsc::sync_channel(1);
        let id;
        {
            let mut st = self.shared.state.lock();
            loop {
                if st.shutdown {
                    drop(st);
                    reject(RejectReason::Shutdown);
                    return Err(ServiceError::ShuttingDown);
                }
                if st.queue.len() < self.shared.cfg.queue_capacity {
                    break;
                }
                let timeout = deadline_at.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    drop(st);
                    reject(RejectReason::QueueFull);
                    return Err(ServiceError::QueueFull);
                }
                self.shared.space_cv.wait_for(&mut st, timeout);
            }
            // Mint the request id at admission: 1-based so 0 can mean "no
            // request" in launch metadata and flight events.
            id = self.shared.next_request.fetch_add(1, Ordering::Relaxed) + 1;
            st.queue.push_back(Request {
                id,
                image,
                algorithm,
                enqueued,
                deadline: deadline_at,
                reply: tx,
            });
        }
        self.shared.emit(Event::Admit {
            request: id,
            rows: rows as u64,
            cols: cols as u64,
        });
        self.shared.work_cv.notify_all();
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServiceError::Internal(
                "batch-former dropped the request without answering".to_string(),
            )),
        }
    }

    /// Snapshot the service's instrumentation.
    pub fn stats(&self) -> ServiceStats {
        self.shared.metrics.snapshot()
    }

    /// Prometheus-style text exposition; see [`Service::metrics_text`].
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.expose_text()
    }
}

/// Base `tid` of the wall-clock tracks request-lifecycle spans land on
/// (`queue` spans use 1..=16; `request` spans get their own lane group so
/// the two never have to nest).
const REQUEST_TRACK_BASE: u32 = 32;
const REQUEST_TRACK_LANES: u64 = 8;

/// Retro-emit the terminal lifecycle records of one request: a `request`
/// span covering admission → exit with its terminal `status` arg, plus the
/// flow chain's endpoints (`FlowPhase::Start` at admission inside that
/// span, `FlowPhase::End` at its close), so every opened request span is
/// closed on every exit path — complete, degraded, deadline-expired and
/// shutdown-drain alike.
fn close_request_span(obs: &Obs, id: u64, enqueued: Instant, ended: Instant, status: &'static str) {
    if !obs.is_enabled() {
        return;
    }
    let track = Track::wall(REQUEST_TRACK_BASE + (id % REQUEST_TRACK_LANES) as u32);
    obs.wall_span_at(
        track,
        "request",
        enqueued,
        ended,
        None,
        vec![
            ("request", ArgValue::from(id)),
            ("status", ArgValue::from(status)),
        ],
    );
    obs.flow_wall(track, "request", FlowPhase::Start, id, enqueued);
    obs.flow_wall(track, "request", FlowPhase::End, id, ended);
}

/// One dispatch decision: a same-shape, same-algorithm slice of the queue.
struct Dispatch {
    algorithm: SatAlgorithm,
    requests: Vec<Request>,
}

/// A group's view while scanning the queue.
struct GroupView {
    rows: usize,
    cols: usize,
    algorithm: SatAlgorithm,
    count: usize,
    oldest: Instant,
}

/// How one dispatch maps its pending images onto fleet tasks. The only
/// inputs are the algorithm and the fleet size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// 1R1W on a one-device fleet: every pending image in one fused
    /// wavefront ([`compute_sat_batch_with`]) — a single task paying
    /// `m_r + m_c − 1` launches for the whole batch.
    Fused,
    /// 1R1W on a fleet of several devices: each image through the banded
    /// three-phase pipeline, its band kernels spread over the shards.
    Banded,
    /// Every other algorithm: one whole-image task per request.
    Whole(SatAlgorithm),
}

/// The batch-former's execution state: the fleet, one circuit breaker per
/// shard and the buffer pool, owned by this one thread between
/// dispatches. During a dispatch each shard worker locks only its own
/// breaker, so those locks are never contended.
struct Router<'a> {
    shared: &'a Shared,
    fleet: &'a DeviceFleet,
    breakers: Vec<Mutex<CircuitBreaker>>,
    pool: BufferPool<f64>,
    /// Whether result verification and the closed-form launch check run
    /// (resolved from [`VerifyMode`]).
    verify_on: bool,
    /// Decorrelates successive backoff jitters within one batcher lifetime.
    salt: u64,
    /// Dispatch sequence number, carried as launch metadata.
    batch_no: u64,
    /// Post-mortem triggers queued during the current dispatch; dumped at
    /// its end, once the lifecycle records they point at are emitted.
    dumps: Mutex<Vec<Trigger>>,
}

fn batcher_loop(shared: &Shared, fleet: &DeviceFleet) {
    let verify_on = match shared.cfg.resilience.verify {
        VerifyMode::Always => true,
        VerifyMode::Never => false,
        VerifyMode::Auto => fleet.iter().any(|d| d.fault_plan().is_some()),
    };
    let mut router = Router {
        shared,
        fleet,
        breakers: (0..fleet.len())
            .map(|_| Mutex::new(CircuitBreaker::new(&shared.cfg.resilience)))
            .collect(),
        pool: BufferPool::new(),
        verify_on,
        salt: 0,
        batch_no: 0,
        dumps: Mutex::new(Vec::new()),
    };
    loop {
        let mut expired: Vec<Request> = Vec::new();
        let mut drained: Vec<Request> = Vec::new();
        let mut ready: Vec<Dispatch> = Vec::new();
        let mut exit = false;
        {
            let mut st = shared.state.lock();
            loop {
                // Fail fast on shutdown: everything still queued is answered
                // `Shutdown` immediately instead of riding out its deadline.
                if st.shutdown {
                    drained.extend(st.queue.drain(..));
                    exit = true;
                    break;
                }
                let now = Instant::now();
                let before = st.queue.len();

                // Reject-rather-than-wedge: drop requests whose queueing
                // deadline has passed.
                let mut i = 0;
                while i < st.queue.len() {
                    if st.queue[i].deadline <= now {
                        expired.push(st.queue.remove(i).expect("index in bounds"));
                    } else {
                        i += 1;
                    }
                }

                // Group the survivors by (shape, algorithm).
                let mut groups: Vec<GroupView> = Vec::new();
                for r in &st.queue {
                    let key = (r.image.rows(), r.image.cols(), r.algorithm);
                    match groups
                        .iter_mut()
                        .find(|g| (g.rows, g.cols, g.algorithm) == key)
                    {
                        Some(g) => {
                            g.count += 1;
                            g.oldest = g.oldest.min(r.enqueued);
                        }
                        None => groups.push(GroupView {
                            rows: key.0,
                            cols: key.1,
                            algorithm: key.2,
                            count: 1,
                            oldest: r.enqueued,
                        }),
                    }
                }

                // Adaptive window: a group dispatches when full, when its
                // oldest request has lingered long enough, or when the
                // algorithm cannot batch anyway.
                for g in &groups {
                    let batchable = g.algorithm == SatAlgorithm::OneR1W;
                    let linger_hit = g.oldest + shared.cfg.max_linger <= now;
                    if g.count >= shared.cfg.max_batch || linger_hit || !batchable {
                        // Non-batchable algorithms dispatch one at a time so
                        // the width histogram reflects true fused widths.
                        let cap = if batchable { shared.cfg.max_batch } else { 1 };
                        let mut take = Vec::new();
                        let mut i = 0;
                        while i < st.queue.len() && take.len() < cap {
                            let r = &st.queue[i];
                            if (r.image.rows(), r.image.cols(), r.algorithm)
                                == (g.rows, g.cols, g.algorithm)
                            {
                                take.push(st.queue.remove(i).expect("index in bounds"));
                            } else {
                                i += 1;
                            }
                        }
                        ready.push(Dispatch {
                            algorithm: g.algorithm,
                            requests: take,
                        });
                    }
                }

                if st.queue.len() < before {
                    shared.space_cv.notify_all();
                }
                if !ready.is_empty() || !expired.is_empty() {
                    break;
                }

                // Sleep until the earliest linger expiry or request
                // deadline, whichever comes first; submissions notify.
                let wake = st
                    .queue
                    .iter()
                    .map(|r| r.deadline)
                    .chain(groups.iter().map(|g| g.oldest + shared.cfg.max_linger))
                    .min();
                match wake {
                    None => shared.work_cv.wait(&mut st),
                    Some(t) => {
                        let timeout = t.saturating_duration_since(now);
                        if !timeout.is_zero() {
                            shared.work_cv.wait_for(&mut st, timeout);
                        }
                    }
                }
            }
        }

        for r in expired {
            shared.emit(Event::Reject {
                request: r.id,
                reason: RejectReason::Deadline,
            });
            close_request_span(
                &shared.cfg.observer,
                r.id,
                r.enqueued,
                Instant::now(),
                "deadline_expired",
            );
            let _ = r.reply.send(Err(ServiceError::DeadlineExceeded));
        }
        let now = Instant::now();
        for r in drained {
            shared.emit(Event::Reject {
                request: r.id,
                reason: RejectReason::ShutdownDrain,
            });
            close_request_span(
                &shared.cfg.observer,
                r.id,
                r.enqueued,
                now,
                "shutdown_drain",
            );
            let _ = r.reply.send(Err(ServiceError::Shutdown));
        }
        for d in ready {
            router.dispatch(d);
        }
        if exit {
            return;
        }
    }
}

/// Dump one queued post-mortem bundle, respecting the lifetime cap. Only
/// the batch-former calls this, but the count is atomic anyway so the
/// panic hook's dumps cannot race it into exceeding the cap by more than
/// the hook's own bundle.
fn maybe_dump(shared: &Shared, trigger: &Trigger) {
    let Some(dir) = shared.cfg.postmortem.dir.as_deref() else {
        return;
    };
    if !shared.cfg.observer.is_enabled() {
        return;
    }
    if shared.postmortems.fetch_add(1, Ordering::Relaxed) >= shared.cfg.postmortem.max_bundles {
        shared.postmortems.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    match obs::flight::dump(
        &shared.cfg.observer,
        dir,
        &shared.cfg.postmortem.prefix,
        trigger,
    ) {
        Ok(_) => shared.emit(Event::Postmortem {
            request: trigger.request,
            bundles: shared.postmortems.load(Ordering::Relaxed),
        }),
        Err(e) => eprintln!("sat-service: post-mortem dump failed: {e}"),
    }
}

/// Queue a post-mortem trigger when the observatory raised drift alerts
/// since the last dispatch boundary the batcher looked at. The
/// `DriftAlert` *flight events* are emitted by the device at ingest time;
/// this only decides when a bundle is worth dumping. Drift is
/// machine-scoped, not request-scoped, so the trigger carries request 0.
fn check_drift(shared: &Shared, dumps: &mut Vec<Trigger>) {
    let total = shared.conformance.alert_count() as u64;
    let seen = shared.drift_alerts_seen.swap(total, Ordering::Relaxed);
    if total > seen {
        dumps.push(Trigger {
            reason: "drift".to_string(),
            request: 0,
            detail: format!(
                "{} new model-conformance drift alert(s); see /debug/conformance",
                total - seen
            ),
        });
    }
}

/// Run `work` on `dev` and compare the device's measured deltas with the
/// closed form `expect` ([`GlobalCost::exact_counts`], fused or banded):
/// blocks silently skipped by a fault show up as missing transactions, a
/// lost launch as a short launch count. Without a closed form (`None`:
/// verification off, or an algorithm without one) there is no evidence of
/// failure and the check passes.
fn counts_match(dev: &Device, expect: Option<&ExactCounts>, work: impl FnOnce()) -> bool {
    let Some(e) = expect else {
        work();
        return true;
    };
    let (before, launches) = (dev.stats(), dev.launches());
    work();
    let after = dev.stats();
    after.coalesced_reads.wrapping_sub(before.coalesced_reads) == e.coalesced_reads
        && after.coalesced_writes.wrapping_sub(before.coalesced_writes) == e.coalesced_writes
        && after.stride_reads.wrapping_sub(before.stride_reads) == e.stride_reads
        && after.stride_writes.wrapping_sub(before.stride_writes) == e.stride_writes
        && dev.launches().wrapping_sub(launches) == e.barrier_steps + 1
}

impl Router<'_> {
    /// Run one dispatch through the self-healing attempt loop and answer
    /// its requests. Every request is answered `Ok`: work lost with a shard
    /// moves to the survivors, and only when no shard is healthy — or the
    /// attempt budget is spent — does a request degrade to the CPU path.
    fn dispatch(&mut self, d: Dispatch) {
        let (shared, fleet) = (self.shared, self.fleet);
        let width = d.requests.len();
        if width == 0 {
            return;
        }
        let dispatched_at = Instant::now();
        let queue_ns: Vec<u64> = d
            .requests
            .iter()
            .map(|r| dispatched_at.duration_since(r.enqueued).as_nanos() as u64)
            .collect();
        let enqueued_at: Vec<Instant> = d.requests.iter().map(|r| r.enqueued).collect();
        let ids: Vec<u64> = d.requests.iter().map(|r| r.id).collect();
        let mut images = Vec::with_capacity(width);
        let mut replies = Vec::with_capacity(width);
        for r in d.requests {
            images.push(r.image);
            replies.push(r.reply);
        }
        self.batch_no += 1;
        let batch_no = self.batch_no;
        shared.emit(Event::BatchFormed {
            request: ids[0],
            batch: batch_no,
            width: width as u64,
        });

        let plan = match (d.algorithm, fleet.len()) {
            (SatAlgorithm::OneR1W, 1) => Plan::Fused,
            (SatAlgorithm::OneR1W, _) => Plan::Banded,
            (algorithm, _) => Plan::Whole(algorithm),
        };
        // Launches one per-request 1R1W run of this shape would cost: the
        // padded grid has `m_r × m_c` blocks and `m_r + m_c − 1` diagonals.
        let w = fleet.device(0).width();
        let (rows, cols) = (images[0].rows(), images[0].cols());
        let per_single = (rows.div_ceil(w) + cols.div_ceil(w) - 1) as u64;

        let rcfg = &shared.cfg.resilience;
        let launches_before = fleet.launches();
        // One cell label per dispatch; each shard device appends its own
        // `@s<i>` suffix, which is what lets the shard-relative drift
        // channel localize a sick device.
        let cell = cell_label(d.algorithm.name(), rows, cols);
        let mut results: Vec<Option<Matrix<f64>>> = (0..width).map(|_| None).collect();
        let mut degraded: Vec<bool> = vec![false; width];
        let mut pending: Vec<usize> = (0..width).collect();
        let mut attempts = 0u32;
        while !pending.is_empty() {
            // Attempt budget spent, or no shard healthy even after probing
            // the cooled-down ones: stop fighting the fleet and finish on
            // the sequential CPU path, slower but immune to device faults
            // (the terminal span status reads `degraded`).
            if attempts >= rcfg.max_attempts || self.poll_breakers(ids[pending[0]]) == 0 {
                for i in pending.drain(..) {
                    let mut m = images[i].clone();
                    sat_core::seq::sat_4r1w_cpu(&mut m);
                    results[i] = Some(m);
                    degraded[i] = true;
                    shared.emit(Event::Degraded { request: ids[i] });
                }
                break;
            }
            if attempts > 0 {
                shared.metrics.on_retry();
                self.salt = self.salt.wrapping_add(1);
                std::thread::sleep(backoff_delay(rcfg, attempts, self.salt));
            }
            attempts += 1;
            // Launch metadata: the devices stamp these ids onto their
            // launch spans and emit one flow step per id inside them, which
            // links each request's admit-side chain to the kernel level.
            for dev in fleet {
                dev.set_launch_context(Some(LaunchContext {
                    batch: batch_no,
                    requests: pending.iter().map(|&i| ids[i]).collect(),
                    cell: Some(cell.clone()),
                }));
            }
            let out = self.attempt(plan, &images, &pending, &ids);

            // Verify each result; failures stay pending for the next
            // attempt (they do not feed the breakers — the launches
            // themselves were healthy), as do images whose tasks ran out
            // of shards.
            let mut unverified: Vec<usize> = Vec::new();
            let mut still: Vec<usize> = Vec::new();
            for (i, sat) in pending.iter().copied().zip(out) {
                let Some(sat) = sat else {
                    still.push(i);
                    continue;
                };
                if !self.verify_on || verify_sat(&images[i], &sat) {
                    if self.verify_on {
                        shared.metrics.on_verify_pass();
                    }
                    results[i] = Some(sat);
                } else {
                    unverified.push(i);
                    still.push(i);
                    shared.emit(Event::VerifyFailure {
                        request: ids[i],
                        attempt: attempts as u64,
                    });
                }
            }
            if let Some(&first) = unverified.first() {
                self.dumps.get_mut().push(Trigger {
                    reason: "verify_failure".to_string(),
                    request: ids[first],
                    detail: format!("{} result(s) failed SAT verification", unverified.len()),
                });
            }
            pending = still;
        }
        for dev in fleet {
            dev.set_launch_context(None);
        }

        let mut issued = 0u64;
        for (shard, (after, before)) in fleet.launches().iter().zip(&launches_before).enumerate() {
            let delta = after.wrapping_sub(*before);
            shared.metrics.on_shard_launches(shard, delta);
            issued += delta;
        }
        let exec_ns = dispatched_at.elapsed().as_nanos() as u64;

        // What per-request single-device execution would have cost: 1R1W
        // re-pays the full wavefront per image, so the fused batch saves
        // all but one and the fleet spreads the banded pipeline's launches
        // over `D` devices (the loadgen fleet gate asserts
        // `max(shard launches) × D < equiv`); the other algorithms see no
        // amortisation (equiv = issued).
        let launches_equiv = match plan {
            Plan::Whole(_) => issued,
            Plan::Fused | Plan::Banded => per_single * width as u64,
        };
        let runs = if plan == Plan::Fused { 1 } else { width as u64 };
        shared.emit(Event::Complete {
            request: ids[0],
            batch: batch_no,
            width: width as u64,
        });
        shared.metrics.on_batch(&crate::metrics::BatchRecord {
            width,
            launches: issued,
            launches_equiv,
            barriers: issued.saturating_sub(runs),
            barriers_equiv: launches_equiv.saturating_sub(width as u64),
            queue_ns: &queue_ns,
            exec_ns,
            request_ids: &ids,
        });

        // SLO-burn trigger: check the scrape-time burn rate after folding
        // this batch in, and queue a dump the first time it crosses the
        // threshold.
        if let Some(threshold) = shared.cfg.postmortem.burn_threshold {
            let burn = shared.metrics.slo_burn();
            if burn >= threshold {
                shared.emit(Event::SloBurn {
                    request: ids[0],
                    burn_ppm: (burn * 1e6) as u64,
                    threshold_ppm: (threshold * 1e6) as u64,
                });
                self.dumps.get_mut().push(Trigger {
                    reason: "slo_burn".to_string(),
                    request: ids[0],
                    detail: format!("error-budget burn {burn:.3} reached threshold {threshold:.3}"),
                });
            }
        }
        check_drift(shared, self.dumps.get_mut());

        // Retro-emit the lifecycle spans now that the batch's end is known:
        // a `batch` span covering device execution on lane 0 (the devices'
        // own per-launch spans nest inside it by containment), one `queue`
        // span per request from admission to dispatch parented to the
        // batch, and one `request` span per request carrying its terminal
        // status and the flow chain's endpoints. A flow step at dispatch
        // time inside the batch span joins the per-request chains to the
        // shared batch.
        let obs = &shared.cfg.observer;
        if obs.is_enabled() {
            let done = Instant::now();
            let batch = obs.wall_span_at(
                Track::wall(0),
                "batch",
                dispatched_at,
                done,
                None,
                vec![
                    ("batch", ArgValue::from(batch_no)),
                    ("width", ArgValue::from(width)),
                    ("algo", ArgValue::from(d.algorithm.name())),
                    ("launches", ArgValue::from(issued)),
                    ("shards", ArgValue::from(fleet.len())),
                ],
            );
            for (i, &enq) in enqueued_at.iter().enumerate() {
                obs.wall_span_at(
                    Track::wall(1 + (i as u32 % 16)),
                    "queue",
                    enq,
                    dispatched_at,
                    batch,
                    vec![("request", ArgValue::from(ids[i]))],
                );
                obs.flow_wall(
                    Track::wall(0),
                    "request",
                    FlowPhase::Step,
                    ids[i],
                    dispatched_at,
                );
                let status = if degraded[i] { "degraded" } else { "ok" };
                close_request_span(obs, ids[i], enq, done, status);
            }
        }
        // Dump queued post-mortems only now, so a bundle triggered
        // mid-attempt still captures the triggering request's complete
        // event chain.
        for trigger in std::mem::take(self.dumps.get_mut()) {
            maybe_dump(shared, &trigger);
        }
        for (reply, sat) in replies.into_iter().zip(results) {
            let sat = sat.expect("the attempt loop resolves every request");
            let _ = reply.send(Ok(SumTable::from_sat(sat)));
        }
    }

    /// One attempt at every pending image under `plan`; `None` marks an
    /// image whose tasks could not complete because every shard they could
    /// run on opened.
    fn attempt(
        &self,
        plan: Plan,
        images: &[Matrix<f64>],
        pending: &[usize],
        ids: &[u64],
    ) -> Vec<Option<Matrix<f64>>> {
        match plan {
            Plan::Fused => {
                let retry: Vec<Matrix<f64>>;
                let batch = if pending.len() == images.len() {
                    images
                } else {
                    retry = pending.iter().map(|&i| images[i].clone()).collect();
                    &retry
                };
                let expect = self.verify_on.then(|| self.fused_counts(batch)).flatten();
                let slot = Mutex::new(None);
                let complete = self.run_tasks(ids[pending[0]], vec![0], &|dev, _| {
                    counts_match(dev, expect.as_ref(), || {
                        *slot.lock() = Some(compute_sat_batch_with(dev, &self.pool, batch));
                    })
                });
                match slot.into_inner() {
                    Some(out) if complete => out.into_iter().map(Some).collect(),
                    _ => pending.iter().map(|_| None).collect(),
                }
            }
            Plan::Banded => pending
                .iter()
                .map(|&i| self.banded_sat(ids[i], &images[i]))
                .collect(),
            Plan::Whole(algorithm) => pending
                .iter()
                .map(|&i| {
                    let slot = Mutex::new(None);
                    let complete = self.run_tasks(ids[i], vec![0], &|dev, _| {
                        *slot.lock() = Some(compute_sat(dev, algorithm, &images[i]));
                        true
                    });
                    slot.into_inner().filter(|_| complete)
                })
                .collect(),
        }
    }

    /// Closed form of one fused 1R1W wavefront over `batch`: the single-run
    /// counts of the padded shape, paid per image, barriers paid once.
    fn fused_counts(&self, batch: &[Matrix<f64>]) -> Option<ExactCounts> {
        let dev = self.fleet.device(0);
        let w = dev.width();
        let (rows, cols) = (batch[0].rows(), batch[0].cols());
        GlobalCost::new(*dev.config())
            .exact_counts(
                SatAlgorithm::OneR1W,
                rows.next_multiple_of(w),
                cols.next_multiple_of(w),
            )
            .map(|e| e.fused(batch.len() as u64))
    }

    /// Report shard `shard`'s circuit-breaker transition, if one happened,
    /// as one [`Event::BreakerTransition`]. A transition into `open` also
    /// queues a post-mortem trigger: `shard_failover` when `survivors`
    /// other shards take the work over, `breaker_open` when none is left to.
    fn report_breaker(
        &self,
        transition: Option<BreakerState>,
        shard: usize,
        survivors: usize,
        request: u64,
    ) {
        let Some(to) = transition else {
            return;
        };
        self.shared.emit(Event::BreakerTransition {
            request,
            shard: shard as u64,
            to,
        });
        if to != BreakerState::Open {
            return;
        }
        self.dumps.lock().push(if survivors > 0 {
            Trigger {
                reason: "shard_failover".to_string(),
                request,
                detail: format!(
                    "shard {shard}'s breaker opened; {survivors} healthy shard(s) take its work"
                ),
            }
        } else {
            Trigger {
                reason: "breaker_open".to_string(),
                request,
                detail: "consecutive launch failures opened the last healthy shard's \
                         circuit breaker"
                    .to_string(),
            }
        });
    }

    /// Shards whose breaker is closed right now.
    fn closed_shards(&self) -> Vec<usize> {
        (0..self.breakers.len())
            .filter(|&s| self.breakers[s].lock().is_closed())
            .collect()
    }

    /// Advance every shard breaker at a dispatch boundary: closed shards
    /// count as healthy, open shards whose cooldown elapsed get a canary
    /// probe on *their own* device (a recovered device rejoins the fleet
    /// here), and still-open shards sit the attempt out. Returns the number
    /// of healthy shards.
    fn poll_breakers(&self, request: u64) -> usize {
        let mut healthy = 0usize;
        for (shard, breaker) in self.breakers.iter().enumerate() {
            let (disposition, transition) = breaker.lock().poll(Instant::now());
            self.report_breaker(transition, shard, 0, request);
            match disposition {
                Disposition::Use => healthy += 1,
                Disposition::Probe => {
                    let ok = canary_ok(self.fleet.device(shard));
                    self.shared.emit(Event::Canary {
                        shard: shard as u64,
                        ok,
                    });
                    let transition = if ok {
                        breaker.lock().on_success()
                    } else {
                        breaker.lock().on_failure(Instant::now())
                    };
                    let survivors = self.closed_shards().len();
                    self.report_breaker(transition, shard, survivors, request);
                    healthy += usize::from(ok);
                }
                Disposition::Degrade => {}
            }
        }
        healthy
    }

    /// Run one phase's tasks to completion across the healthy shards.
    ///
    /// Every shard whose breaker is closed runs a worker that pulls task
    /// indices from a shared queue (work stealing: a fast shard simply
    /// pulls more). The first healthy shard's worker runs on the calling
    /// thread and only the others get scoped threads, so a one-device
    /// fleet spawns nothing. Returns `true` when every task completed on
    /// some shard; see [`shard_worker`](Self::shard_worker) for failures.
    fn run_tasks(
        &self,
        request: u64,
        tasks: Vec<usize>,
        run_task: &(dyn Fn(&Device, usize) -> bool + Sync),
    ) -> bool {
        if tasks.is_empty() {
            return true;
        }
        let healthy = self.closed_shards();
        let Some((&first, rest)) = healthy.split_first() else {
            return false;
        };
        let total = tasks.len();
        let queue = Mutex::new(VecDeque::from(tasks));
        let done = AtomicUsize::new(0);
        // Fault domains still standing this phase: decremented only when a
        // breaker opens, never on normal worker exit — a worker that
        // drained the queue and left is still a healthy shard.
        let alive = AtomicUsize::new(healthy.len());
        let worker = |shard| {
            let completed = self.shard_worker(shard, request, &queue, &alive, run_task);
            done.fetch_add(completed, Ordering::Relaxed);
        };
        std::thread::scope(|sc| {
            for &shard in rest {
                sc.spawn(move || worker(shard));
            }
            worker(first);
        });
        done.load(Ordering::Relaxed) == total
    }

    /// One shard's worker: pull tasks until the queue drains or the shard's
    /// breaker opens; returns the number of tasks it completed.
    ///
    /// A failed attempt — fault-epoch bump, or `run_task` returning `false`
    /// on a closed-form count mismatch — stays with this shard (feeding its
    /// breaker) across backoff retries until either a retry succeeds or the
    /// breaker opens. On open the worker puts the task back at the front of
    /// the queue, emits [`Event::DeviceLost`] and, when some shard
    /// survives, [`Event::ShardFailover`], and exits: the survivors drain
    /// the queue.
    fn shard_worker(
        &self,
        shard: usize,
        request: u64,
        queue: &Mutex<VecDeque<usize>>,
        alive: &AtomicUsize,
        run_task: &(dyn Fn(&Device, usize) -> bool + Sync),
    ) -> usize {
        let (shared, dev) = (self.shared, self.fleet.device(shard));
        let breaker = &self.breakers[shard];
        let mut completed = 0usize;
        let mut streak = 0u32;
        // A failed task is retained by this worker across its own retries
        // rather than requeued immediately: if it went back on the queue a
        // fast healthy shard would steal it, the failure streak would never
        // reach the breaker threshold, and a permanently dead shard would
        // keep sampling (and stalling) fresh tasks forever.
        let mut held: Option<usize> = None;
        loop {
            let Some(task) = held.take().or_else(|| queue.lock().pop_front()) else {
                return completed;
            };
            let epoch_before = dev.fault_epoch();
            let counts_ok = run_task(dev, task);
            if dev.fault_epoch() == epoch_before && counts_ok {
                shared.metrics.on_attempt_ok();
                streak = 0;
                let transition = breaker.lock().on_success();
                self.report_breaker(transition, shard, 0, request);
                completed += 1;
                continue;
            }
            streak += 1;
            shared.emit(Event::AttemptFailed {
                request,
                shard: shard as u64,
                streak: u64::from(streak),
            });
            let transition = breaker.lock().on_failure(Instant::now());
            if transition != Some(BreakerState::Open) {
                held = Some(task);
                shared.metrics.on_retry();
                let salt = self.salt ^ ((shard as u64) << 8);
                std::thread::sleep(backoff_delay(&shared.cfg.resilience, streak, salt));
                continue;
            }
            // This fault domain is gone until a canary re-closes it: hand
            // the task back, record the loss, and leave the remaining work
            // to whoever survives.
            let queued_tasks = {
                let mut queue = queue.lock();
                queue.push_front(task);
                queue.len() as u64
            };
            let survivors = alive.fetch_sub(1, Ordering::AcqRel) - 1;
            self.report_breaker(transition, shard, survivors, request);
            shared.emit(Event::DeviceLost {
                request,
                shard: shard as u64,
                fault_epoch: dev.fault_epoch(),
            });
            if survivors > 0 {
                shared.emit(Event::ShardFailover {
                    request,
                    shard: shard as u64,
                    queued_tasks,
                });
            }
            return completed;
        }
    }

    /// One image through the banded three-phase pipeline (column sums →
    /// margin exchange → carry-seeded band wavefronts), its phase kernels
    /// spread over the healthy shards with failover. Returns `None` when
    /// some phase could not complete — every remaining shard opened.
    ///
    /// Bit-exactness: the banded kernels sum in exactly the association
    /// order of the single-device 1R1W wavefront within each band, and band
    /// boundaries only ever consume finished carry rows, so re-running a
    /// band on a different shard cannot change a single bit of the result
    /// (pinned by `sat_core::par::band` tests).
    fn banded_sat(&self, request: u64, image: &Matrix<f64>) -> Option<Matrix<f64>> {
        let dev0 = self.fleet.device(0);
        let w = dev0.width();
        let (rows, cols) = (image.rows(), image.cols());
        let prows = rows.next_multiple_of(w);
        let pcols = cols.next_multiple_of(w);
        let plan = BandPlan::new(prows, pcols, w, self.fleet.len());
        let d = plan.len();
        let a = GlobalBuffer::from_vec(image.zero_padded_to(prows, pcols).into_vec());
        let s = GlobalBuffer::filled(0.0f64, prows * pcols);
        let colsums = GlobalBuffer::filled(0.0f64, plan.boundary_len());
        let carries = GlobalBuffer::filled(0.0f64, plan.boundary_len());
        let mirror = GlobalBuffer::filled(0.0f64, plan.mirror_len());
        // Closed-form phase entries for the per-task launch check (always
        // available: the dims are padded to multiples of `w`).
        let model = if self.verify_on {
            GlobalCost::new(*dev0.config()).banded_1r1w_exact_counts(prows, pcols, d)
        } else {
            None
        };
        let model = model.as_ref();

        if d > 1 {
            let complete = self.run_tasks(request, (0..d - 1).collect(), &|dev, k| {
                counts_match(dev, model.map(|m| &m.colsum[k]), || {
                    band_colsum(dev, &a, &colsums, &plan, k)
                })
            }) && self.run_tasks(request, vec![0], &|dev, _| {
                counts_match(dev, model.map(|m| &m.exchange), || {
                    margin_exchange(dev, &colsums, &carries, &plan)
                })
            });
            if !complete {
                return None;
            }
        }
        let complete = self.run_tasks(request, (0..d).collect(), &|dev, k| {
            counts_match(dev, model.map(|m| &m.wavefront[k]), || {
                band_wavefront(dev, &a, &s, &carries, &mirror, &plan, k)
            })
        });
        complete.then(|| Matrix::from_vec(prows, pcols, s.into_vec()).cropped(rows, cols))
    }
}
