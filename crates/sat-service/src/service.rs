//! The service proper: bounded submission queue, client handles, and the
//! batch-former thread that owns the device.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_exec::{Device, DeviceOptions, LaunchContext};
use hmm_model::cost::{ExactCounts, GlobalCost, SatAlgorithm};
use obs::conformance::cell_label;
use obs::flight::Trigger;
use obs::{ArgValue, BreakerState, Conformance, Event, FlowPhase, Obs, RejectReason, Track};
use parking_lot::{Condvar, Mutex};
use sat_core::{compute_sat, compute_sat_batch, Matrix, SumTable};

use crate::http::Telemetry;
use crate::metrics::{BatchCause, Metrics, MODEL_PREFIX};
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
    /// Requests admitted and not yet answered: the queue plus the dispatch
    /// on the device. Raised at admission, lowered before each reply.
    outstanding: usize,
    population: Population,
}

impl QueueState {
    /// Queue depth, for the health endpoint.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    /// One request is admitted.
    fn admit(&mut self) {
        self.outstanding += 1;
        self.population.admit(self.outstanding);
    }

    /// `n` requests are about to be answered, on any exit path.
    fn answer(&mut self, n: usize) {
        self.outstanding -= n;
        self.population.answered |= n > 0;
    }
}

/// Admissions per bucket of [`Population`]'s peak.
const POPULATION_WINDOW: u32 = 16;

/// An estimate of how many closed-loop clients the service serves: the
/// peak of `outstanding` seen at admission over the last one to two
/// buckets of [`POPULATION_WINDOW`] admissions, so it decays once a client
/// leaves. A closed-loop client has at most one request outstanding, and
/// the batch-former is the only executor, so when the queue holds this
/// many requests no company can arrive except from a new client.
#[derive(Default)]
struct Population {
    /// Whether any request has been answered yet; before that the service
    /// has no evidence of its population.
    answered: bool,
    peak: usize,
    previous_peak: usize,
    admissions: u32,
}

impl Population {
    fn admit(&mut self, outstanding: usize) {
        if self.admissions == POPULATION_WINDOW {
            self.previous_peak = std::mem::take(&mut self.peak);
            self.admissions = 0;
        }
        self.admissions += 1;
        self.peak = self.peak.max(outstanding);
    }

    /// Whether every client seen is waiting in a queue of length `queued`;
    /// always false before the first answer.
    fn all_waiting(&self, queued: usize) -> bool {
        self.answered && queued >= self.peak.max(self.previous_peak)
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
    /// raises drift alerts. Shared with the device.
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
    /// Start the service: build the device and spawn the batch-former
    /// that owns it.
    pub fn start(cfg: ServiceConfig) -> Service {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.max_batch > 0, "max batch must be positive");
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
        let dev = Device::new(opts);
        let metrics = Metrics::new(registry, cfg.slo);
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
            .spawn(move || batcher_loop(&for_batcher, dev))
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
            st.admit();
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
    cause: BatchCause,
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

/// The batch-former's execution state: the device and its circuit
/// breaker, owned by this one thread.
struct Router<'a> {
    shared: &'a Shared,
    dev: Device,
    breaker: CircuitBreaker,
    /// Whether result verification and the closed-form launch check run
    /// (resolved from [`VerifyMode`]).
    verify_on: bool,
    /// Decorrelates successive backoff jitters within one batcher lifetime.
    salt: u64,
    /// Dispatch sequence number, carried as launch metadata.
    batch_no: u64,
    /// Post-mortem triggers queued during the current dispatch; dumped at
    /// its end, once the lifecycle records they point at are emitted.
    dumps: Vec<Trigger>,
}

fn batcher_loop(shared: &Shared, dev: Device) {
    let verify_on = match shared.cfg.resilience.verify {
        VerifyMode::Always => true,
        VerifyMode::Never => false,
        VerifyMode::Auto => dev.fault_plan().is_some(),
    };
    let mut router = Router {
        shared,
        dev,
        breaker: CircuitBreaker::new(&shared.cfg.resilience),
        verify_on,
        salt: 0,
        batch_no: 0,
        dumps: Vec::new(),
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

                // Adaptive window: a group dispatches when its algorithm
                // cannot batch anyway, when full, or when its oldest request
                // has lingered `max_linger`.
                let mut chosen: Vec<(&GroupView, BatchCause)> = groups
                    .iter()
                    .filter_map(|g| {
                        let cause = if g.algorithm != SatAlgorithm::OneR1W {
                            BatchCause::Unbatchable
                        } else if g.count >= shared.cfg.max_batch {
                            BatchCause::Full
                        } else if g.oldest + shared.cfg.max_linger <= now {
                            BatchCause::Lingered
                        } else {
                            return None;
                        };
                        Some((g, cause))
                    })
                    .collect();
                // When every client seen is waiting, company can only come
                // from clients a dispatch answers: send the oldest group
                // alone, and none while another dispatch is going anyway.
                if chosen.is_empty() && st.population.all_waiting(st.queue.len()) {
                    chosen.extend(
                        groups
                            .iter()
                            .min_by_key(|g| g.oldest)
                            .map(|g| (g, BatchCause::AllWaiting)),
                    );
                }
                for (g, cause) in chosen {
                    // Non-batchable algorithms dispatch one at a time so
                    // the width histogram reflects true fused widths.
                    let cap = if cause == BatchCause::Unbatchable {
                        1
                    } else {
                        shared.cfg.max_batch
                    };
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
                        cause,
                        requests: take,
                    });
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
            st.answer(expired.len() + drained.len());
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
/// closed form `expect` ([`GlobalCost::exact_counts`], fused): blocks
/// silently skipped by a fault show up as missing transactions, a lost
/// launch as a short launch count. Without a closed form (`None`:
/// verification off, or an algorithm without one) there is no evidence of
/// failure and the check passes.
fn counts_match<R>(
    dev: &Device,
    expect: Option<&ExactCounts>,
    work: impl FnOnce() -> R,
) -> (R, bool) {
    let Some(e) = expect else {
        return (work(), true);
    };
    let (before, launches) = (dev.stats(), dev.launches());
    let out = work();
    let after = dev.stats();
    let ok = after.coalesced_reads.wrapping_sub(before.coalesced_reads) == e.coalesced_reads
        && after.coalesced_writes.wrapping_sub(before.coalesced_writes) == e.coalesced_writes
        && after.stride_reads.wrapping_sub(before.stride_reads) == e.stride_reads
        && after.stride_writes.wrapping_sub(before.stride_writes) == e.stride_writes
        && dev.launches().wrapping_sub(launches) == e.barrier_steps + 1;
    (out, ok)
}

impl Router<'_> {
    /// Run one dispatch through the self-healing attempt loop and answer
    /// its requests. Every request is answered `Ok`: only when the device's
    /// breaker is open — or the attempt budget is spent — does a request
    /// degrade to the CPU path.
    fn dispatch(&mut self, d: Dispatch) {
        let shared = self.shared;
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

        // 1R1W batches fuse every pending image into one wavefront
        // ([`compute_sat_batch`]); every other algorithm runs one
        // whole-image attempt per request. `fused` holds the closed form of
        // one 1R1W run of the padded shape, which `submit`'s rejection of
        // empty images guarantees.
        let (rows, cols) = (images[0].rows(), images[0].cols());
        let fused = (d.algorithm == SatAlgorithm::OneR1W).then(|| {
            let w = self.dev.width();
            GlobalCost::new(*self.dev.config())
                .exact_counts(
                    SatAlgorithm::OneR1W,
                    rows.next_multiple_of(w),
                    cols.next_multiple_of(w),
                )
                .expect("submit rejects empty images")
        });

        let rcfg = &shared.cfg.resilience;
        let launches_before = self.dev.launches();
        let cell = cell_label(d.algorithm.name(), rows, cols);
        let mut results: Vec<Option<Matrix<f64>>> = (0..width).map(|_| None).collect();
        let mut degraded: Vec<bool> = vec![false; width];
        let mut pending: Vec<usize> = (0..width).collect();
        let mut attempts = 0u32;
        while !pending.is_empty() {
            // Attempt budget spent, or the device's breaker still open after
            // probing a cooled-down one: finish on the sequential CPU path,
            // slower but immune to device faults (the terminal span status
            // reads `degraded`).
            if attempts >= rcfg.max_attempts || !self.poll_breaker(ids[pending[0]]) {
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
            // Launch metadata: the device stamps these ids onto its launch
            // spans and emits one flow step per id inside them, which links
            // each request's admit-side chain to the kernel level.
            self.dev.set_launch_context(Some(LaunchContext {
                batch: batch_no,
                requests: pending.iter().map(|&i| ids[i]).collect(),
                cell: Some(cell.clone()),
            }));
            let out = self.attempt(d.algorithm, fused, &images, &pending, &ids);

            // Verify each result; failures stay pending for the next
            // attempt (they do not feed the breaker — the launches
            // themselves were healthy), as do images the device could not
            // finish before its breaker opened.
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
                self.dumps.push(Trigger {
                    reason: "verify_failure".to_string(),
                    request: ids[first],
                    detail: format!("{} result(s) failed SAT verification", unverified.len()),
                });
            }
            pending = still;
        }
        self.dev.set_launch_context(None);

        let issued = self.dev.launches().wrapping_sub(launches_before);
        let exec_ns = dispatched_at.elapsed().as_nanos() as u64;

        // What per-request execution would have cost: 1R1W re-pays the
        // full wavefront per image, so the fused batch saves all but one;
        // the other algorithms see no amortisation (equiv = issued).
        let (launches_equiv, runs) = match fused {
            Some(single) => ((single.barrier_steps + 1) * width as u64, 1),
            None => (issued, width as u64),
        };
        shared.emit(Event::Complete {
            request: ids[0],
            batch: batch_no,
            width: width as u64,
        });
        shared.metrics.on_batch(&crate::metrics::BatchRecord {
            cause: d.cause,
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
                self.dumps.push(Trigger {
                    reason: "slo_burn".to_string(),
                    request: ids[0],
                    detail: format!("error-budget burn {burn:.3} reached threshold {threshold:.3}"),
                });
            }
        }
        check_drift(shared, &mut self.dumps);

        // Retro-emit the lifecycle spans now that the batch's end is known:
        // a `batch` span covering device execution on lane 0 (the device's
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
        for trigger in std::mem::take(&mut self.dumps) {
            maybe_dump(shared, &trigger);
        }
        shared.state.lock().answer(width);
        for (reply, sat) in replies.into_iter().zip(results) {
            let sat = sat.expect("the attempt loop resolves every request");
            let _ = reply.send(Ok(SumTable::from_sat(sat)));
        }
    }

    /// One attempt at every pending image: one fused 1R1W run of the whole
    /// batch when `fused` holds the single-run closed form, or one run per
    /// image for every other algorithm. `None` marks an image the device
    /// could not finish because its breaker opened. Each run pads the
    /// untouched request images afresh, so no run sees another's writes.
    fn attempt(
        &mut self,
        algorithm: SatAlgorithm,
        fused: Option<ExactCounts>,
        images: &[Matrix<f64>],
        pending: &[usize],
        ids: &[u64],
    ) -> Vec<Option<Matrix<f64>>> {
        let Some(single) = fused else {
            return pending
                .iter()
                .map(|&i| self.run(ids[i], None, |dev| compute_sat(dev, algorithm, &images[i])))
                .collect();
        };
        let retry: Vec<Matrix<f64>>;
        let batch = if pending.len() == images.len() {
            images
        } else {
            retry = pending.iter().map(|&i| images[i].clone()).collect();
            &retry
        };
        let expect = self.verify_on.then(|| single.fused(batch.len() as u64));
        match self.run(ids[pending[0]], expect, |dev| compute_sat_batch(dev, batch)) {
            Some(out) => out.into_iter().map(Some).collect(),
            None => pending.iter().map(|_| None).collect(),
        }
    }

    /// Run `work` on the device until it succeeds or the breaker opens.
    ///
    /// A failed run — a fault-epoch bump, or measured counts that miss the
    /// closed form `expect` ([`counts_match`]) — feeds the breaker and is
    /// retried after backoff. When the breaker opens the device is lost:
    /// [`Event::DeviceLost`] is emitted and the run returns `None`, as it
    /// does at once when the breaker is not closed.
    fn run<R>(
        &mut self,
        request: u64,
        expect: Option<ExactCounts>,
        work: impl Fn(&Device) -> R,
    ) -> Option<R> {
        if !self.breaker.is_closed() {
            return None;
        }
        let mut streak = 0u32;
        loop {
            let epoch_before = self.dev.fault_epoch();
            let (out, counts_ok) = counts_match(&self.dev, expect.as_ref(), || work(&self.dev));
            if self.dev.fault_epoch() == epoch_before && counts_ok {
                self.shared.metrics.on_attempt_ok();
                let transition = self.breaker.on_success();
                self.report_breaker(transition, request);
                return Some(out);
            }
            streak += 1;
            self.shared.emit(Event::AttemptFailed {
                request,
                streak: u64::from(streak),
            });
            let transition = self.breaker.on_failure(Instant::now());
            if transition == Some(BreakerState::Open) {
                self.report_breaker(transition, request);
                self.shared.emit(Event::DeviceLost {
                    request,
                    fault_epoch: self.dev.fault_epoch(),
                });
                return None;
            }
            self.shared.metrics.on_retry();
            std::thread::sleep(backoff_delay(
                &self.shared.cfg.resilience,
                streak,
                self.salt,
            ));
        }
    }

    /// Report the breaker's transition, if one happened, as one
    /// [`Event::BreakerTransition`]. A transition into `open` also queues a
    /// `breaker_open` post-mortem trigger.
    fn report_breaker(&mut self, transition: Option<BreakerState>, request: u64) {
        let Some(to) = transition else {
            return;
        };
        self.shared.emit(Event::BreakerTransition { request, to });
        if to == BreakerState::Open {
            self.dumps.push(Trigger {
                reason: "breaker_open".to_string(),
                request,
                detail: "consecutive launch failures opened the device's circuit breaker"
                    .to_string(),
            });
        }
    }

    /// Advance the breaker at an attempt boundary: a closed breaker lets
    /// the attempt run, an open one whose cooldown elapsed gets a canary
    /// probe on the device (a recovered device closes it here), and a
    /// still-open one sits the attempt out. Returns whether the device may
    /// take the attempt.
    fn poll_breaker(&mut self, request: u64) -> bool {
        let (disposition, transition) = self.breaker.poll(Instant::now());
        self.report_breaker(transition, request);
        match disposition {
            Disposition::Use => true,
            Disposition::Probe => {
                let ok = canary_ok(&self.dev);
                self.shared.emit(Event::Canary { ok });
                let transition = if ok {
                    self.breaker.on_success()
                } else {
                    self.breaker.on_failure(Instant::now())
                };
                self.report_breaker(transition, request);
                ok
            }
            Disposition::Degrade => false,
        }
    }
}
