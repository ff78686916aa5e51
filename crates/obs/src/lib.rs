//! # obs — workspace-wide observability core
//!
//! The paper's whole argument is accounting: the global memory access cost
//! `C/w + S + L·(B+1)` per algorithm (Table I) and measured wall-clock per
//! configuration (Table II). This crate gives every layer of the workspace a
//! shared vocabulary for that accounting:
//!
//! * a **counter/gauge/histogram [`Registry`]** — lock-cheap atomic cells
//!   behind typed handles, cumulative counters (one launch's own counts
//!   ride on its span's args), log-bucketed mergeable [`Histogram`]s with bucket-derived quantiles,
//!   and Prometheus-style text exposition ([`Registry::expose_text`],
//!   including the `_bucket`/`_sum`/`_count` histogram series);
//! * **per-launch cost attribution** ([`profile`]) — launch spans rendered
//!   as a `C/w + S + L·(B+1)` ledger per launch, as a table and as
//!   Perfetto counter tracks (modeled vs measured);
//! * a **structured span API** ([`Obs`]) — begin/end events with parent ids
//!   and thread/block attribution, on **two clocks**: the wall clock
//!   (`pid 1`) and the simulated HMM clock (`pid 2`), so a real execution
//!   and its `hmm-sim` replay overlay in one timeline;
//! * a **Chrome trace-event serializer** ([`Obs::trace_json`], the
//!   [`chrome`] module) whose output loads directly in Perfetto or
//!   `chrome://tracing` — including *flow events* that chain one request's
//!   admit → batch → launch → complete across processes;
//! * **the workspace's one JSON module** ([`json`]) — the [`json::ToJson`]
//!   writer, the `json::record!` macro every serialized record is defined
//!   with, and the strict reader the trace and bundle validators, tests
//!   and CI gates parse with;
//! * **one typed event per fact** ([`Event`]) — each variant carries its
//!   payload as named fields, and [`Obs::emit`] is the one way to record
//!   it: one flight-ring slot and one Chrome instant, both rendered from
//!   the event table;
//! * a **flight recorder** ([`flight`]) — a fixed-capacity lock-free ring
//!   of those events that on a trigger dumps a schema-versioned post-mortem
//!   bundle (recent events with named fields, registry snapshot, last
//!   launch's trace slice, the triggering request's flow), checked by
//!   [`flight::validate`] the way traces are checked by
//!   [`chrome::validate`];
//! * a **model-conformance observatory** ([`conformance`]) — an online
//!   least-squares estimator recovering the effective machine parameters
//!   (w, Λ, per-word bandwidth) from the live launch stream, per-cell
//!   rolling residuals, and an EWMA/CUSUM drift detector that raises
//!   structured [`DriftAlert`]s when modeled-vs-measured divergence
//!   exceeds a configured band.
//!
//! ## Disabled means free
//!
//! [`Obs::disabled`] yields a handle whose inner state is `None`: every span
//! or emit call reduces to one branch on an `Option` and returns. No
//! clock is read, nothing allocates, no lock is touched. Code can therefore
//! thread an `Obs` unconditionally and let construction decide; the
//! `disabled_path_is_cheap` test holds this to a budget.
//!
//! ```
//! use obs::{ArgValue, Obs, Track};
//!
//! let obs = Obs::new();
//! let reg = obs.registry().unwrap();
//! let ops = reg.counter("gpu_coalesced_ops");
//! {
//!     let mut span = obs.span(Track::wall(0), "launch");
//!     ops.add(128);
//!     span.arg("grid", ArgValue::from(4u64));
//! }
//! let trace = obs.trace_json();
//! obs::chrome::validate(&trace).expect("valid Chrome trace JSON");
//! assert!(reg.expose_text().contains("gpu_coalesced_ops 128"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod conformance;
mod event;
pub mod flight;
mod histogram;
pub mod json;
pub mod profile;
mod registry;
mod span;

pub use conformance::{Conformance, ConformanceConfig, DriftAlert, FitReport, LaunchSample};
pub use event::{BreakerState, Event, FaultClass, Label, RejectReason};
pub use flight::FlightEvent;
pub use histogram::{BucketLayout, Histogram, HistogramSample, MAX_BUCKETS};
pub use registry::{Counter, CounterSample, Gauge, GaugeSample, Registry, Snapshot};
pub use span::{ArgValue, FlowPhase, Obs, SpanGuard, SpanId, Track};
