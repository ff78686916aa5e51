//! End-to-end instrumentation of the serving layer.
//!
//! Counters live on an [`obs::Registry`] (shared with the device when the
//! service is constructed with an enabled [`obs::Obs`]), so one
//! Prometheus-style scrape ([`Metrics::expose_text`]) covers both the
//! serving layer (`sat_service_*`) and the device (`gpu_*`). Latencies
//! live in log-bucketed [`obs::Histogram`]s — `sat_service_request_latency_seconds`
//! per request plus `sat_service_stage_latency_seconds{stage=…}` for the
//! queue, batch-formation and execute stages — so percentiles come from
//! mergeable buckets (exposed as `_bucket`/`_sum`/`_count` series) rather
//! than from sorting a bounded ring, never drop samples, and cost one
//! atomic increment per observation. SLO gauges (target, attainment,
//! error-budget burn) are derived from the request histogram at scrape
//! time.

use std::time::Duration;

use obs::{BreakerState, Counter, Event, Histogram, HistogramSample, Registry, RejectReason};
use parking_lot::Mutex;

/// The latency objective the service reports against: a target for
/// per-request latency and the fraction of requests allowed to miss it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Per-request latency target (queue + execute).
    pub target: Duration,
    /// Fraction of requests allowed to exceed the target before the error
    /// budget is spent (burn rate 1.0 = spending exactly the budget).
    pub error_budget: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            target: Duration::from_millis(100),
            error_budget: 0.01,
        }
    }
}

// Metric families the serving layer registers, each spelled once here.
const SUBMITTED: &str = "sat_service_submitted_total";
const COMPLETED: &str = "sat_service_completed_total";
const REJECTED: &str = "sat_service_rejected_total";
const BATCHES: &str = "sat_service_batches_total";
const LAUNCHES: &str = "sat_service_launches_total";
const BARRIER_STEPS: &str = "sat_service_barrier_steps_total";
const ATTEMPTS: &str = "sat_service_attempts_total";
const RETRIES: &str = "sat_service_retries_total";
const DEGRADED: &str = "sat_service_degraded_total";
const VERIFICATIONS: &str = "sat_service_verifications_total";
const BREAKER_TRANSITIONS: &str = "sat_service_breaker_transitions_total";
const CANARY_PROBES: &str = "sat_service_canary_probes_total";
const DEVICES_LOST: &str = "sat_service_devices_lost_total";
const REQUEST_LATENCY: &str = "sat_service_request_latency_seconds";
const STAGE_LATENCY: &str = "sat_service_stage_latency_seconds";
const SLO_TARGET: &str = "sat_service_slo_target_seconds";
const SLO_ATTAINMENT: &str = "sat_service_slo_attainment_ratio";
const SLO_BURN: &str = "sat_service_slo_error_budget_burn";

/// Every family registered above.
pub(crate) const FAMILIES: [&str; 18] = [
    SUBMITTED,
    COMPLETED,
    REJECTED,
    BATCHES,
    LAUNCHES,
    BARRIER_STEPS,
    ATTEMPTS,
    RETRIES,
    DEGRADED,
    VERIFICATIONS,
    BREAKER_TRANSITIONS,
    CANARY_PROBES,
    DEVICES_LOST,
    REQUEST_LATENCY,
    STAGE_LATENCY,
    SLO_TARGET,
    SLO_ATTAINMENT,
    SLO_BURN,
];

/// Prefix the service registers the conformance observatory's
/// [`obs::conformance::MODEL_FAMILIES`] under.
pub(crate) const MODEL_PREFIX: &str = "sat_service_";

/// Shared counters and latency histograms, updated by submitters and the
/// batch-former.
pub(crate) struct Metrics {
    inner: Mutex<Inner>,
    registry: Registry,
    c: Counters,
    h: Hists,
    slo: SloConfig,
    /// The device's circuit-breaker state, for the `/healthz` endpoint
    /// ([`breaker_state`](Self::breaker_state)).
    breaker: Mutex<BreakerState>,
}

/// Registry-backed latency histograms (per-request plus per-stage).
struct Hists {
    /// Queue + execute per request.
    request: Histogram,
    /// Admission → batch dispatch, per request.
    queue: Histogram,
    /// Batch formation window (oldest member's wait), per batch.
    batch: Histogram,
    /// Device execution of the request's batch, per request.
    exec: Histogram,
}

/// Registry-backed counter handles (cheap atomics; see `obs::Counter`).
struct Counters {
    submitted: Counter,
    completed: Counter,
    /// `rejected_total{reason=…}`, indexed by [`RejectReason`].
    rejected: Vec<Counter>,
    /// `batches_total{cause=…}`, indexed by [`BatchCause`].
    batches: Vec<Counter>,
    launches_issued: Counter,
    launches_unbatched_equiv: Counter,
    barriers_issued: Counter,
    barriers_unbatched_equiv: Counter,
    attempts_ok: Counter,
    attempts_failed: Counter,
    retries: Counter,
    degraded: Counter,
    verify_pass: Counter,
    verify_fail: Counter,
    /// `breaker_transitions_total{to=…}`, indexed by [`BreakerState`].
    breaker_to: Vec<Counter>,
    canaries: Counter,
    devices_lost: Counter,
}

struct Inner {
    batch_width_hist: Vec<u64>,
}

/// Why the batch-former dispatched a batch: the `cause` label of
/// `sat_service_batches_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchCause {
    /// The group reached [`crate::ServiceConfig::max_batch`].
    Full,
    /// The group's oldest request waited out
    /// [`crate::ServiceConfig::max_linger`].
    Lingered,
    /// The algorithm does not batch; it dispatches one request at a time.
    Unbatchable,
    /// Every client the service has seen was waiting in the queue, so no
    /// company could arrive except from a new client.
    AllWaiting,
}

impl BatchCause {
    const ALL: [BatchCause; 4] = [
        BatchCause::Full,
        BatchCause::Lingered,
        BatchCause::Unbatchable,
        BatchCause::AllWaiting,
    ];

    fn name(self) -> &'static str {
        match self {
            BatchCause::Full => "full",
            BatchCause::Lingered => "lingered",
            BatchCause::Unbatchable => "unbatchable",
            BatchCause::AllWaiting => "all_waiting",
        }
    }
}

/// One dispatched batch's accounting: its width, the launches/barriers it
/// actually cost, what per-request execution would have cost, and the
/// per-request latencies (`queue_ns` per request; `exec_ns` is shared by
/// every request of the batch).
pub(crate) struct BatchRecord<'a> {
    pub cause: BatchCause,
    pub width: usize,
    pub launches: u64,
    pub launches_equiv: u64,
    pub barriers: u64,
    pub barriers_equiv: u64,
    pub queue_ns: &'a [u64],
    pub exec_ns: u64,
    /// Request ids parallel to `queue_ns`, stamped onto the latency
    /// histograms as OpenMetrics exemplars; empty when untracked (the
    /// histograms then observe without exemplars).
    pub request_ids: &'a [u64],
}

impl Metrics {
    /// Register the service's counters and histograms on `registry`
    /// (typically the one behind the service's [`obs::Obs`], falling back
    /// to a private one).
    pub(crate) fn new(registry: Registry, slo: SloConfig) -> Metrics {
        let counter = |family: &str, key: &str, value: &str| {
            registry.counter(&Registry::labeled(family, &[(key, value)]))
        };
        let c = Counters {
            submitted: registry.counter(SUBMITTED),
            completed: registry.counter(COMPLETED),
            rejected: RejectReason::ALL
                .iter()
                .map(|r| counter(REJECTED, "reason", r.name()))
                .collect(),
            batches: BatchCause::ALL
                .iter()
                .map(|c| counter(BATCHES, "cause", c.name()))
                .collect(),
            launches_issued: counter(LAUNCHES, "kind", "issued"),
            launches_unbatched_equiv: counter(LAUNCHES, "kind", "unbatched_equiv"),
            barriers_issued: counter(BARRIER_STEPS, "kind", "issued"),
            barriers_unbatched_equiv: counter(BARRIER_STEPS, "kind", "unbatched_equiv"),
            attempts_ok: counter(ATTEMPTS, "result", "ok"),
            attempts_failed: counter(ATTEMPTS, "result", "failed"),
            retries: registry.counter(RETRIES),
            degraded: registry.counter(DEGRADED),
            verify_pass: counter(VERIFICATIONS, "result", "pass"),
            verify_fail: counter(VERIFICATIONS, "result", "fail"),
            breaker_to: BreakerState::ALL
                .iter()
                .map(|b| counter(BREAKER_TRANSITIONS, "to", b.name()))
                .collect(),
            canaries: registry.counter(CANARY_PROBES),
            devices_lost: registry.counter(DEVICES_LOST),
        };
        let stage =
            |name| registry.histogram(&Registry::labeled(STAGE_LATENCY, &[("stage", name)]));
        let h = Hists {
            request: registry.histogram(REQUEST_LATENCY),
            queue: stage("queue"),
            batch: stage("batch"),
            exec: stage("execute"),
        };
        registry.gauge(SLO_TARGET).set(slo.target.as_secs_f64());
        Metrics {
            inner: Mutex::new(Inner {
                batch_width_hist: Vec::new(),
            }),
            registry,
            c,
            h,
            slo,
            breaker: Mutex::new(BreakerState::Closed),
        }
    }

    /// Count the registry side of one emitted fact: the one match from
    /// event to counter (kinds without a counter are ignored).
    pub(crate) fn on_event(&self, event: &Event) {
        match *event {
            Event::Admit { .. } => self.c.submitted.inc(),
            Event::Reject { reason, .. } => self.c.rejected[reason as usize].inc(),
            Event::BreakerTransition { to, .. } => {
                self.c.breaker_to[to as usize].inc();
                *self.breaker.lock() = to;
            }
            Event::DeviceLost { .. } => self.c.devices_lost.inc(),
            Event::VerifyFailure { .. } => self.c.verify_fail.inc(),
            Event::AttemptFailed { .. } => self.c.attempts_failed.inc(),
            Event::Canary { .. } => self.c.canaries.inc(),
            Event::Degraded { .. } => self.c.degraded.inc(),
            Event::Complete { width, .. } => self.c.completed.add(width),
            _ => {}
        }
    }

    /// One device attempt passed every check; failures arrive as
    /// [`Event::AttemptFailed`].
    pub(crate) fn on_attempt_ok(&self) {
        self.c.attempts_ok.inc();
    }

    /// A failed attempt is about to be retried (after backoff).
    pub(crate) fn on_retry(&self) {
        self.c.retries.inc();
    }

    /// One per-result verification passed; failures arrive as
    /// [`Event::VerifyFailure`].
    pub(crate) fn on_verify_pass(&self) {
        self.c.verify_pass.inc();
    }

    /// The device's circuit-breaker state, for the health endpoint.
    pub(crate) fn breaker_state(&self) -> BreakerState {
        *self.breaker.lock()
    }

    /// SLO attainment and error-budget burn derived from one request
    /// histogram sample. The *single* shared computation behind both the
    /// flight-recorder's SLO-burn trigger ([`slo_burn`](Self::slo_burn))
    /// and the scrape-time gauges ([`expose_text`](Self::expose_text)), so
    /// the two can never disagree. No samples means the SLO is vacuously
    /// met (attainment 1, burn 0), not vacuously blown —
    /// [`HistogramSample::fraction_le`] on an empty histogram reads 0.
    fn burn_stats(&self, request: &HistogramSample) -> (f64, f64) {
        let attainment = if request.count == 0 {
            1.0
        } else {
            request.fraction_le(self.slo.target.as_secs_f64())
        };
        let burn = if self.slo.error_budget > 0.0 {
            (1.0 - attainment) / self.slo.error_budget
        } else {
            // An unlimited budget cannot burn.
            0.0
        };
        (attainment, burn)
    }

    /// Current SLO error-budget burn rate (1.0 = spending the budget
    /// exactly); see [`burn_stats`](Self::burn_stats).
    pub(crate) fn slo_burn(&self) -> f64 {
        let (_, _, request, _) = self.latency_samples();
        self.burn_stats(&request).1
    }

    /// Record one answered batch: its cause, launches, barriers and
    /// latencies; its completion count arrives as [`Event::Complete`].
    pub(crate) fn on_batch(&self, b: &BatchRecord<'_>) {
        self.c.batches[b.cause as usize].inc();
        self.c.launches_issued.add(b.launches);
        self.c.launches_unbatched_equiv.add(b.launches_equiv);
        self.c.barriers_issued.add(b.barriers);
        self.c.barriers_unbatched_equiv.add(b.barriers_equiv);
        {
            let mut m = self.inner.lock();
            if m.batch_width_hist.len() <= b.width {
                m.batch_width_hist.resize(b.width + 1, 0);
            }
            m.batch_width_hist[b.width] += 1;
        }
        let secs = |ns: u64| ns as f64 * 1e-9;
        for (i, &q) in b.queue_ns.iter().enumerate() {
            match b.request_ids.get(i) {
                // Stamp the landing bucket with the request id so a scrape
                // can name a request that actually paid each latency.
                Some(&rid) => {
                    self.h.queue.observe_with_exemplar(secs(q), rid);
                    self.h.exec.observe_with_exemplar(secs(b.exec_ns), rid);
                    self.h
                        .request
                        .observe_with_exemplar(secs(q + b.exec_ns), rid);
                }
                None => {
                    self.h.queue.observe(secs(q));
                    self.h.exec.observe(secs(b.exec_ns));
                    self.h.request.observe(secs(q + b.exec_ns));
                }
            }
        }
        // The batch-formation window is the oldest member's wait: from its
        // admission until the batch dispatched.
        self.h
            .batch
            .observe(secs(b.queue_ns.iter().copied().max().unwrap_or(0)));
    }

    /// Sample the four latency histograms (queue, exec, request, batch).
    fn latency_samples(
        &self,
    ) -> (
        HistogramSample,
        HistogramSample,
        HistogramSample,
        HistogramSample,
    ) {
        let snap = self.registry.snapshot();
        let get = |name: &str| {
            snap.histogram(name)
                .cloned()
                .expect("latency histogram registered at construction")
        };
        let stage = |name| get(&Registry::labeled(STAGE_LATENCY, &[("stage", name)]));
        (
            stage("queue"),
            stage("execute"),
            get(REQUEST_LATENCY),
            stage("batch"),
        )
    }

    pub(crate) fn snapshot(&self) -> ServiceStats {
        let (queue, exec, request, _) = self.latency_samples();
        let m = self.inner.lock();
        let rejected = |r: RejectReason| self.c.rejected[r as usize].total();
        let breaker_to = |b: BreakerState| self.c.breaker_to[b as usize].total();
        ServiceStats {
            submitted: self.c.submitted.total(),
            completed: self.c.completed.total(),
            rejected_deadline: rejected(RejectReason::Deadline),
            rejected_queue_full: rejected(RejectReason::QueueFull),
            rejected_shutdown: rejected(RejectReason::Shutdown),
            rejected_invalid: rejected(RejectReason::Invalid),
            batches: self.c.batches.iter().map(Counter::total).sum(),
            batch_width_hist: m.batch_width_hist.clone(),
            launches_issued: self.c.launches_issued.total(),
            launches_unbatched_equiv: self.c.launches_unbatched_equiv.total(),
            barriers_issued: self.c.barriers_issued.total(),
            barriers_unbatched_equiv: self.c.barriers_unbatched_equiv.total(),
            rejected_shutdown_drain: rejected(RejectReason::ShutdownDrain),
            attempts_ok: self.c.attempts_ok.total(),
            attempts_failed: self.c.attempts_failed.total(),
            retries: self.c.retries.total(),
            degraded: self.c.degraded.total(),
            verify_pass: self.c.verify_pass.total(),
            verify_fail: self.c.verify_fail.total(),
            breaker_opened: breaker_to(BreakerState::Open),
            breaker_half_open: breaker_to(BreakerState::HalfOpen),
            breaker_closed: breaker_to(BreakerState::Closed),
            canary_probes: self.c.canaries.total(),
            devices_lost: self.c.devices_lost.total(),
            queue_latency: LatencySummary::from_histogram(&queue),
            exec_latency: LatencySummary::from_histogram(&exec),
            total_latency: LatencySummary::from_histogram(&request),
        }
    }

    /// Prometheus-style text exposition: refresh the SLO gauges from the
    /// request histogram, then render every metric on the registry —
    /// counters, gauges and the histograms' own `_bucket`/`_sum`/`_count`
    /// series (including the device's `gpu_*` family when the registry is
    /// shared).
    pub(crate) fn expose_text(&self) -> String {
        let (_, _, request, _) = self.latency_samples();
        // SLO attainment from the request histogram: the `<= target`
        // fraction is rounded up to a bucket boundary (conservative in the
        // service's favour is the wrong direction for an SLO, so the burn
        // rate derived from it is a *lower bound* — the bucket containing
        // the target bounds the error either way within one bucket). The
        // same `burn_stats` feeds the post-mortem trigger's `slo_burn`.
        let (attainment, burn) = self.burn_stats(&request);
        self.registry.gauge(SLO_ATTAINMENT).set(attainment);
        self.registry.gauge(SLO_BURN).set(burn);
        self.registry.expose_text()
    }
}

/// A point-in-time snapshot of the service's instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests answered with a SAT.
    pub completed: u64,
    /// Requests rejected because their deadline expired while queued.
    pub rejected_deadline: u64,
    /// Requests rejected because the queue stayed full past their deadline.
    pub rejected_queue_full: u64,
    /// Requests rejected because the service was shutting down.
    pub rejected_shutdown: u64,
    /// Requests rejected as malformed before queueing.
    pub rejected_invalid: u64,
    /// Dispatched batches (width-1 batches included).
    pub batches: u64,
    /// `batch_width_hist[w]` = number of batches dispatched at width `w`.
    pub batch_width_hist: Vec<u64>,
    /// Kernel launches actually issued by the service.
    pub launches_issued: u64,
    /// Kernel launches per-request execution of the same traffic would
    /// have issued.
    pub launches_unbatched_equiv: u64,
    /// Barrier synchronisation steps actually issued.
    pub barriers_issued: u64,
    /// Barrier steps per-request execution would have issued.
    pub barriers_unbatched_equiv: u64,
    /// Requests failed with [`crate::ServiceError::Shutdown`] because the
    /// service shut down while they were still queued.
    pub rejected_shutdown_drain: u64,
    /// Device attempts that passed every check.
    pub attempts_ok: u64,
    /// Device attempts that failed a launch or a verification.
    pub attempts_failed: u64,
    /// Failed attempts retried after backoff.
    pub retries: u64,
    /// Requests completed on the degraded sequential CPU path.
    pub degraded: u64,
    /// Per-result SAT verifications that passed.
    pub verify_pass: u64,
    /// Per-result SAT verifications that failed (result discarded, retried).
    pub verify_fail: u64,
    /// Circuit-breaker transitions into `Open`.
    pub breaker_opened: u64,
    /// Circuit-breaker transitions into `HalfOpen`.
    pub breaker_half_open: u64,
    /// Circuit-breaker transitions back into `Closed`.
    pub breaker_closed: u64,
    /// Half-open canary launches issued to probe the device.
    pub canary_probes: u64,
    /// Times the device's breaker opened mid-dispatch (the device lost
    /// until a canary re-closes it).
    pub devices_lost: u64,
    /// Time from admission to batch dispatch, per request
    /// (bucket-estimated; see [`LatencySummary::from_histogram`]).
    pub queue_latency: LatencySummary,
    /// Device execution time of the request's batch (bucket-estimated).
    pub exec_latency: LatencySummary,
    /// Queue + execute, per request (bucket-estimated).
    pub total_latency: LatencySummary,
}

impl ServiceStats {
    /// Mean width of dispatched batches.
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed as f64 / self.batches as f64
    }

    /// How many times fewer launches the service issued than per-request
    /// execution would have (1.0 = no amortisation).
    pub fn launch_reduction(&self) -> f64 {
        if self.launches_issued == 0 {
            return 1.0;
        }
        self.launches_unbatched_equiv as f64 / self.launches_issued as f64
    }

    /// Kernel launches saved by batch fusing.
    pub fn launches_saved(&self) -> u64 {
        self.launches_unbatched_equiv
            .saturating_sub(self.launches_issued)
    }

    /// Barrier windows saved by batch fusing.
    pub fn barrier_windows_saved(&self) -> u64 {
        self.barriers_unbatched_equiv
            .saturating_sub(self.barriers_issued)
    }
}

/// Summary of one latency distribution, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarised.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (nearest-rank).
    pub p50_ms: f64,
    /// 95th percentile (nearest-rank).
    pub p95_ms: f64,
    /// 99th percentile (nearest-rank).
    pub p99_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarise nanosecond samples; all-zero when `samples` is empty.
    pub fn from_ns(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let ms = |ns: u64| ns as f64 * 1e-6;
        let pct = |q: f64| {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            ms(sorted[rank - 1])
        };
        LatencySummary {
            count: sorted.len() as u64,
            mean_ms: sorted.iter().map(|&x| x as f64).sum::<f64>() * 1e-6 / sorted.len() as f64,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: ms(*sorted.last().unwrap()),
        }
    }

    /// Summarise a latency histogram (seconds) in milliseconds. Percentiles
    /// are bucket-boundary estimates (within one log bucket — ≈ a factor of
    /// the layout's growth — of the exact sample quantile); the mean and
    /// max are exact.
    pub fn from_histogram(h: &HistogramSample) -> Self {
        LatencySummary {
            count: h.count,
            mean_ms: h.mean() * 1e3,
            p50_ms: h.quantile(0.50) * 1e3,
            p95_ms: h.quantile(0.95) * 1e3,
            p99_ms: h.quantile(0.99) * 1e3,
            max_ms: h.max * 1e3,
        }
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new(Registry::new(), SloConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit() -> Event {
        Event::Admit {
            request: 1,
            rows: 4,
            cols: 4,
        }
    }

    /// The breaker moved to `to`.
    fn breaker(m: &Metrics, to: BreakerState) {
        m.on_event(&Event::BreakerTransition { request: 0, to });
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_ns(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ms, 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let ns: Vec<u64> = (1..=100).map(|k| k * 1_000_000).collect();
        let s = LatencySummary::from_ns(&ns);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 0.51);
    }

    #[test]
    fn batch_accounting() {
        let m = Metrics::default();
        m.on_event(&admit());
        m.on_event(&admit());
        m.on_event(&Event::Complete {
            request: 1,
            batch: 1,
            width: 2,
        });
        m.on_batch(&BatchRecord {
            cause: BatchCause::Lingered,
            width: 2,
            launches: 3,
            launches_equiv: 6,
            barriers: 2,
            barriers_equiv: 4,
            queue_ns: &[1_000, 2_000],
            exec_ns: 5_000,
            request_ids: &[1, 2],
        });
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_width_hist[2], 1);
        assert_eq!(s.mean_batch_width(), 2.0);
        assert_eq!(s.launches_saved(), 3);
        assert_eq!(s.barrier_windows_saved(), 2);
        assert_eq!(s.launch_reduction(), 2.0);
        assert_eq!(s.total_latency.count, 2);
        // Histograms never drop samples; the count covers all history.
        assert_eq!(s.queue_latency.count, 2);
        assert_eq!(s.exec_latency.count, 2);
    }

    #[test]
    fn summaries_come_from_histogram_buckets() {
        let m = Metrics::default();
        // 100 requests: queue k ms (k = 1..=100), exec 0.
        for k in 1..=100u64 {
            m.on_batch(&BatchRecord {
                cause: BatchCause::Lingered,
                width: 1,
                launches: 1,
                launches_equiv: 1,
                barriers: 0,
                barriers_equiv: 0,
                queue_ns: &[k * 1_000_000],
                exec_ns: 0,
                request_ids: &[],
            });
        }
        let s = m.snapshot().queue_latency;
        assert_eq!(s.count, 100);
        // The default layout's buckets are log-spaced (×2), so the
        // bucket-derived percentiles sit within a factor of 2 of the exact
        // nearest-rank values (50 / 95 / 99 ms).
        for (est, exact) in [(s.p50_ms, 50.0), (s.p95_ms, 95.0), (s.p99_ms, 99.0)] {
            assert!(
                est >= exact && est <= exact * 2.0,
                "estimate {est} vs exact {exact}"
            );
        }
        // Mean and max are tracked exactly, not bucketed.
        assert!((s.mean_ms - 50.5).abs() < 1e-6);
        assert!((s.max_ms - 100.0).abs() < 1e-6);
    }

    #[test]
    fn expose_text_renders_counters_latency_gauges_and_buckets() {
        let m = Metrics::default();
        m.on_event(&admit());
        m.on_event(&Event::Reject {
            request: 1,
            reason: RejectReason::Deadline,
        });
        m.on_batch(&BatchRecord {
            cause: BatchCause::Lingered,
            width: 1,
            launches: 2,
            launches_equiv: 2,
            barriers: 1,
            barriers_equiv: 1,
            queue_ns: &[2_000_000],
            exec_ns: 1_000_000,
            request_ids: &[42],
        });
        let text = m.expose_text();
        assert!(text.contains("# TYPE sat_service_submitted_total counter"));
        assert!(text.contains("sat_service_submitted_total 1"));
        assert!(text.contains("sat_service_rejected_total{reason=\"deadline\"} 1"));
        assert!(text.contains("sat_service_launches_total{kind=\"issued\"} 2"));
        // Stage histograms carry the per-stage latencies: the 2 ms queue
        // sample lands in the bucket whose upper bound is 2.048 ms.
        assert!(text.contains("# TYPE sat_service_stage_latency_seconds histogram"));
        assert!(text.contains("sat_service_stage_latency_seconds_sum{stage=\"queue\"} 0.002"));
        assert!(text.contains(
            "sat_service_stage_latency_seconds_bucket{stage=\"queue\",le=\"0.002048\"} 1"
        ));
        // Raw Prometheus histogram series.
        assert!(text.contains("# TYPE sat_service_request_latency_seconds histogram"));
        assert!(text.contains("sat_service_request_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("sat_service_request_latency_seconds_count 1"));
        assert!(text.contains("sat_service_request_latency_seconds_sum 0.003"));
        // The landing bucket carries an OpenMetrics exemplar naming the
        // request that paid the latency (3 ms → le="0.004096" bucket).
        let exemplar = text
            .lines()
            .find(|l| {
                l.starts_with("sat_service_request_latency_seconds_bucket")
                    && l.contains("# {request_id=\"42\"}")
            })
            .expect("request histogram carries an exemplar");
        assert!(
            exemplar.ends_with("# {request_id=\"42\"} 0.003"),
            "{exemplar}"
        );
        assert!(text
            .contains("sat_service_stage_latency_seconds_bucket{stage=\"queue\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn breaker_state_tracks_transitions_for_health() {
        let m = Metrics::default();
        assert_eq!(m.breaker_state().name(), "closed");
        breaker(&m, BreakerState::Open);
        assert_eq!(m.breaker_state().name(), "open");
        breaker(&m, BreakerState::HalfOpen);
        assert_eq!(m.breaker_state().name(), "half_open");
        breaker(&m, BreakerState::Closed);
        assert_eq!(m.breaker_state().name(), "closed");
        // No samples yet: the burn rate reads zero, not NaN.
        assert_eq!(m.slo_burn(), 0.0);
    }

    #[test]
    fn attempt_and_loss_events_feed_their_counters() {
        let m = Metrics::default();
        m.on_attempt_ok();
        m.on_event(&Event::AttemptFailed {
            request: 1,
            streak: 1,
        });
        breaker(&m, BreakerState::Open);
        m.on_event(&Event::DeviceLost {
            request: 1,
            fault_epoch: 3,
        });
        let s = m.snapshot();
        assert_eq!(s.breaker_opened, 1);
        assert_eq!(s.attempts_ok, 1);
        assert_eq!(s.attempts_failed, 1);
        assert_eq!(s.devices_lost, 1);
        assert_eq!(m.breaker_state().name(), "open");
    }

    #[test]
    fn slo_gauges_follow_the_request_histogram() {
        let m = Metrics::new(
            Registry::new(),
            SloConfig {
                target: Duration::from_millis(10),
                error_budget: 0.1,
            },
        );
        // Before any traffic the SLO is vacuously met: the shared burn
        // computation special-cases the empty histogram (whose raw
        // `fraction_le` reads 0) so a pre-traffic scrape cannot report a
        // fully-burnt budget, and the trigger agrees with the gauge.
        let text = m.expose_text();
        assert!(text.contains("sat_service_slo_attainment_ratio 1"));
        assert!(text.contains("sat_service_slo_error_budget_burn 0"));
        assert_eq!(m.slo_burn(), 0.0);
        // 3 fast requests (1 ms) and 1 slow (1 s): attainment 0.75, and a
        // burn rate of (1 - 0.75) / 0.1 = 2.5.
        m.on_batch(&BatchRecord {
            cause: BatchCause::Lingered,
            width: 4,
            launches: 1,
            launches_equiv: 4,
            barriers: 0,
            barriers_equiv: 0,
            queue_ns: &[0, 0, 0, 0],
            exec_ns: 0,
            request_ids: &[],
        });
        let text = m.expose_text();
        assert!(text.contains("sat_service_slo_target_seconds 0.01"));
        assert!(text.contains("sat_service_slo_attainment_ratio 1"));
        // Fresh metrics, mixed latencies: one of four requests misses.
        let m = Metrics::new(
            Registry::new(),
            SloConfig {
                target: Duration::from_millis(10),
                error_budget: 0.1,
            },
        );
        for exec_ns in [1_000_000, 1_000_000, 1_000_000, 1_000_000_000] {
            m.on_batch(&BatchRecord {
                cause: BatchCause::Lingered,
                width: 1,
                launches: 1,
                launches_equiv: 1,
                barriers: 0,
                barriers_equiv: 0,
                queue_ns: &[0],
                exec_ns,
                request_ids: &[],
            });
        }
        let text = m.expose_text();
        assert!(text.contains("sat_service_slo_attainment_ratio 0.75"));
        assert!(text.contains("sat_service_slo_error_budget_burn 2.5"));
        // The programmatic burn (the post-mortem trigger's input) agrees
        // with the exposed gauge.
        assert!((m.slo_burn() - 2.5).abs() < 1e-9, "{}", m.slo_burn());
    }
}
