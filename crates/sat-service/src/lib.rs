//! # sat-service — a concurrent SAT serving layer with batch fusing
//!
//! The paper's §VII observation: 1R1W's `2n/w` barrier-separated stages
//! have corner launches too narrow to hide memory latency, and fusing the
//! wavefront **across a batch of matrices** repairs exactly that — the
//! launch count stays `2m − 1` while every launch is `B×` wider
//! ([`sat_core::par::sat_1r1w_batch`]). This crate turns that kernel-level
//! fact into a *serving* win: many independent client threads submit
//! matrices, and a single **batch-former** thread coalesces queued
//! same-shape requests into fused batched launches on one shared
//! [`gpu_exec::Device`].
//!
//! ```
//! use hmm_model::{cost::SatAlgorithm, MachineConfig};
//! use sat_core::{Matrix, Rect};
//! use sat_service::{Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig {
//!     machine: MachineConfig::with_width(4),
//!     ..ServiceConfig::default()
//! });
//! let client = service.client();
//! let image = Matrix::from_fn(16, 16, |i, j| (i + j) as f64);
//! let table = client
//!     .submit(image, SatAlgorithm::OneR1W, None)
//!     .expect("service accepted the request");
//! assert_eq!(table.sum(Rect::new(0, 0, 0, 0)), 0.0);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! ## Architecture
//!
//! * [`Client::submit`] validates the request, stamps its deadline, and
//!   pushes it onto a **bounded submission queue** — when the queue is
//!   full, submitters block until space frees or their deadline expires
//!   ([`ServiceError::QueueFull`]), which is the backpressure edge.
//! * The batch-former thread owns the device. It groups queued requests by
//!   `(rows, cols, algorithm)` and dispatches a group when it reaches
//!   [`ServiceConfig::max_batch`] width **or** its oldest request has
//!   lingered [`ServiceConfig::max_linger`] — the adaptive window that
//!   trades a bounded sliver of latency for launch-count amortisation.
//! * Requests whose **deadline** passes while queued are rejected
//!   ([`ServiceError::DeadlineExceeded`]) rather than wedging the queue.
//! * [`Service::shutdown`] stops admissions and **fails fast**: requests
//!   still queued are answered [`ServiceError::Shutdown`] immediately
//!   (counted under `reason="shutdown_drain"`) instead of being left to
//!   hit their deadlines; then the batch-former is joined. A request
//!   already dispatched to the device still completes.
//! * Every dispatch goes through one **fleet router** over
//!   [`ServiceConfig::shards`] devices, each its own fault domain with its
//!   own circuit breaker; a single device is a fleet of one. On one
//!   device a batched `OneR1W` dispatch is one fused wavefront; on `D > 1`
//!   devices `OneR1W` requests shard into `D` row-bands (the banded
//!   decomposition with an explicit margin exchange) whose kernels are
//!   pulled from a shared queue by whichever shards are healthy; other
//!   algorithms run one whole-image task per request.
//! * The router **self-heals** ([`ResilienceConfig`]): failed or corrupted
//!   device attempts (detected via the device's fault epoch, the paper's
//!   Table-I closed-form operation counts, and a SAT checksum /
//!   recurrence sweep) are retried with exponential backoff; consecutive
//!   launch failures open a shard's breaker, and the shard hands its
//!   remaining work to the survivors (`ShardFailover` in the flight
//!   recorder) — results stay bit-exact. Only when *every* shard is open
//!   do dispatches degrade to the sequential CPU path — requests complete
//!   slower instead of erroring — until a half-open canary probe re-closes
//!   a breaker.
//! * Everything is instrumented ([`ServiceStats`]): per-request queue /
//!   execute / total latency, a batch-width histogram, and the launches and
//!   barrier windows actually issued vs. what per-request execution would
//!   have cost.
//! * Observability is **request-scoped** end to end: every admitted
//!   request is minted a `RequestId` that rides through batch formation
//!   into device launch metadata, links its whole lifecycle with
//!   Chrome-trace flow arrows (admit → queue → batch → launch →
//!   complete), stamps OpenMetrics exemplars onto the latency buckets,
//!   and keys the flight recorder's post-mortem bundles
//!   ([`PostmortemConfig`]). A zero-dependency HTTP listener
//!   ([`TelemetryConfig`]) serves `/metrics`, `/healthz` and
//!   `/debug/flight`.
//!
//! Only [`OneR1W`](hmm_model::cost::SatAlgorithm::OneR1W) requests batch
//! (that is the fused kernel the paper's analysis yields); other algorithms
//! are served per-request on the same device and simply see no
//! amortisation.

#![warn(missing_docs)]

mod http;
mod metrics;
mod resilience;
mod service;

pub use metrics::{LatencySummary, ServiceStats, SloConfig};
pub use resilience::{ResilienceConfig, VerifyMode};
pub use service::{Client, Service};

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use hmm_model::MachineConfig;

/// Every metric family a service's `/metrics` scrape can contain, with
/// label sets and histogram-series suffixes stripped: the device's `gpu_*`
/// families, the serving layer's `sat_service_*` families and the
/// conformance observatory's `sat_service_model_*` families — each
/// derived from the constants its registration site uses.
pub fn metric_families() -> Vec<String> {
    let model = obs::conformance::MODEL_FAMILIES
        .iter()
        .map(|f| format!("{}{f}", metrics::MODEL_PREFIX));
    obs::profile::gpu::FAMILIES
        .iter()
        .chain(&metrics::FAMILIES)
        .map(|f| f.to_string())
        .chain(model)
        .collect()
}

/// Telemetry HTTP listener configuration ([`ServiceConfig::telemetry`]).
///
/// When `listen` is set the service serves three plain-HTTP endpoints on
/// it — no external dependencies, one short-lived connection per request:
///
/// * `/metrics` — the exact bytes of [`Service::metrics_text`]
///   (Prometheus text exposition, OpenMetrics exemplars included);
/// * `/healthz` — a JSON health document reflecting the circuit-breaker
///   state and submission-queue depth;
/// * `/debug/flight` — the flight recorder's recent structured events.
///
/// The listener thread shuts down with the service.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Bind address (e.g. `"127.0.0.1:0"` for an ephemeral port); `None`
    /// (the default) starts no listener. Binding failures panic at
    /// [`Service::start`] — an explicitly requested listener that cannot
    /// serve is a deployment error, not something to limp past.
    pub listen: Option<String>,
}

/// Post-mortem dump configuration ([`ServiceConfig::postmortem`]).
///
/// On a trigger — circuit breaker opening, a result failing verification,
/// the SLO error-budget burn crossing `burn_threshold`, or (opted in via
/// `panic_hook`) a panic — the service dumps a schema-versioned bundle of
/// recent flight-recorder events, a registry snapshot, the last launch's
/// trace slice and the triggering request's flow to
/// `dir/postmortem-<prefix>-<seq>-<reason>.json` (see [`obs::flight`]).
#[derive(Debug, Clone)]
pub struct PostmortemConfig {
    /// Directory bundles are written to; `None` (the default) disables
    /// dumping. The observer must also be enabled — a disabled observer
    /// has nothing to dump.
    pub dir: Option<PathBuf>,
    /// Filename tag distinguishing this service's bundles.
    pub prefix: String,
    /// At most this many bundles per service lifetime (the first triggers
    /// win; a flapping breaker must not fill the disk).
    pub max_bundles: u64,
    /// Dump when the SLO error-budget burn rate reaches this value
    /// (checked after every dispatched batch); `None` disables the burn
    /// trigger.
    pub burn_threshold: Option<f64>,
    /// Install a process-wide panic hook that dumps a bundle (reason
    /// `panic`) before delegating to the previous hook. Off by default:
    /// panic hooks are global, so only one service per process should
    /// opt in.
    pub panic_hook: bool,
}

impl Default for PostmortemConfig {
    fn default() -> Self {
        PostmortemConfig {
            dir: None,
            prefix: "svc".to_string(),
            max_bundles: 1,
            burn_threshold: None,
            panic_hook: false,
        }
    }
}

/// Construction parameters for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Machine model of the owned device.
    pub machine: MachineConfig,
    /// Background device workers; `None` uses the device default.
    pub device_workers: Option<usize>,
    /// Bounded submission-queue capacity; submitters block (up to their
    /// deadline) when it is full.
    pub queue_capacity: usize,
    /// Maximum requests fused into one batched launch sequence.
    pub max_batch: usize,
    /// Longest a request may linger waiting for same-shape company before
    /// its batch is dispatched anyway.
    pub max_linger: Duration,
    /// Deadline applied when [`Client::submit`] passes `None`.
    pub default_deadline: Duration,
    /// Observability sink. When enabled ([`obs::Obs::new`]) the service
    /// emits request-lifecycle spans (admit → queue → batch → complete)
    /// and the owned device shares the same trace and counter registry;
    /// the default ([`obs::Obs::disabled`]) records nothing.
    pub observer: obs::Obs,
    /// Deterministic fault schedule injected into the owned device —
    /// chaos-testing hook; `None` (the default) injects nothing. With
    /// `shards > 1` this is the per-shard default, overridden entirely by
    /// [`shard_fault_plans`](Self::shard_fault_plans) when that is
    /// non-empty.
    pub fault_plan: Option<gpu_exec::FaultPlan>,
    /// Number of device shards (fault domains) in the
    /// [`gpu_exec::DeviceFleet`] every dispatch is routed through, each
    /// guarded by its own circuit breaker. `1` — the default — is a fleet
    /// of one: batched `OneR1W` dispatches run as one fused wavefront.
    /// `D > 1` serves `OneR1W` requests through the banded decomposition
    /// ([`sat_core::par::sat_1r1w_banded`]'s kernels): each request's
    /// matrix splits into `D` row-bands whose phase kernels are work-stolen
    /// by the healthy shards — losing a device reshards its bands onto the
    /// survivors instead of degrading the whole service.
    pub shards: usize,
    /// Per-shard fault schedules, chaos-testing hook for asymmetric fleet
    /// faults (one device lost, rolling loss, a straggler shard). Empty
    /// (the default): every shard inherits [`fault_plan`](Self::fault_plan).
    /// Non-empty: must have exactly [`shards`](Self::shards) entries and
    /// fully specifies each shard's plan (`None` = no injection).
    pub shard_fault_plans: Vec<Option<gpu_exec::FaultPlan>>,
    /// Retry / circuit-breaker / verification tuning.
    pub resilience: ResilienceConfig,
    /// Latency objective the service reports against (target gauge,
    /// attainment ratio and error-budget burn on the metrics endpoint).
    pub slo: SloConfig,
    /// Model-conformance observatory (see [`obs::conformance`]). `None` —
    /// the default — derives [`obs::ConformanceConfig::for_machine`] from
    /// [`machine`](Self::machine), so the observatory is always on: every
    /// launch feeds the online (w, Λ, τ) estimator and drift detector,
    /// `sat_service_model_*` gauges and residual histograms are exposed on
    /// `/metrics`, and `/debug/conformance` serves the full JSON report.
    /// Set to override the estimator/drift tuning; the `width` and
    /// `window_overhead` fields are always overwritten from
    /// [`machine`](Self::machine) (one source of truth for the reference
    /// model).
    pub conformance: Option<obs::ConformanceConfig>,
    /// Optional plain-HTTP telemetry listener (`/metrics`, `/healthz`,
    /// `/debug/flight`).
    pub telemetry: TelemetryConfig,
    /// Post-mortem flight-recorder dumps on breaker-open, verification
    /// failure, SLO burn or panic.
    pub postmortem: PostmortemConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            machine: MachineConfig::with_width(32),
            device_workers: None,
            queue_capacity: 256,
            max_batch: 16,
            max_linger: Duration::from_micros(500),
            default_deadline: Duration::from_secs(5),
            observer: obs::Obs::disabled(),
            fault_plan: None,
            shards: 1,
            shard_fault_plans: Vec::new(),
            resilience: ResilienceConfig::default(),
            slo: SloConfig::default(),
            conformance: None,
            telemetry: TelemetryConfig::default(),
            postmortem: PostmortemConfig::default(),
        }
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The submission queue stayed full until the request's deadline.
    QueueFull,
    /// The deadline expired while the request waited in the queue.
    DeadlineExceeded,
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The service shut down before the queued request was dispatched
    /// (fail-fast drain; distinct from [`ServiceError::ShuttingDown`],
    /// which rejects at admission time).
    Shutdown,
    /// The request was malformed (e.g. an empty matrix).
    InvalidRequest(String),
    /// The serving thread died before answering (a bug, not load).
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "submission queue full past the deadline"),
            ServiceError::DeadlineExceeded => write!(f, "deadline expired while queued"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Shutdown => {
                write!(f, "service shut down before the request was dispatched")
            }
            ServiceError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServiceError::Internal(m) => write!(f, "internal service error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}
