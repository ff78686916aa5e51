//! Live model-conformance observatory.
//!
//! The paper's cost model `C/w + S + Λ(B+1)` is only as good as its
//! calibration: the machine parameters `w` (width) and `Λ` (window
//! overhead) are constants of a *particular* machine, and the per-word
//! bandwidth `τ` (seconds per model time unit) that converts model cost to
//! wall clock drifts with thermal state, contention and sick hardware. This
//! module makes conformance a first-class, always-on observable: a
//! [`Conformance`] tracker ingests one [`LaunchSample`] per kernel launch —
//! the launch's exact counters (`C` coalesced words, `S` stride words, the
//! recorded pipeline stages) plus its measured wall time — and maintains
//! three live results:
//!
//! * an **online least-squares estimator** over the stream. Each launch's
//!   model time is `u = stages + Λ` (one launch is one barrier window).
//!   Since the recorder charges one pipeline stage per coalesced
//!   transaction and the model charges exactly one unit per stride stage,
//!   the regression `u − S = a·C + c` over exponentially forgotten sums
//!   recovers `w = 1/a` and `Λ = c` — with a *genuine* residual, because
//!   partial-width transactions and sub-warp strides break the closed
//!   form's full-transaction assumption. The stride coefficient is not
//!   fitted: it is 1 by definition (a stride stage *is* the time unit);
//!   the machine's free parameters are `w`, `Λ` and `τ`.
//! * **per-cell rolling residual statistics**, where a *cell* is an
//!   (algorithm × shape-bucket) label ([`cell_label`]).
//! * an **EWMA/CUSUM change-point detector** on `τ = wall / u` per cell: a
//!   baseline `τ̄` is frozen over the first [`baseline_samples`] launches
//!   (units-weighted, so tiny launches do not skew it), then each sample
//!   adds `min(1, u/ū) · clamp(τ/τ̄ − 1 − slack, −1, rise_cap)` to a
//!   one-sided CUSUM score; crossing [`DRIFT_THRESHOLD`] latches a
//!   structured [`DriftAlert`] (one per cell, ever).
//!
//!   Each cell also keeps an EWMA of `τ`, seeded by its first sample and
//!   updated on every one, so a cell reports a measured τ from its first
//!   launch on; the detector does not read it.
//!
//! [`baseline_samples`]: ConformanceConfig::baseline_samples
//!
//! The tracker is cheap (one mutex-guarded accumulation per *launch* — and
//! launches are milliseconds), clone-shared (`Arc` inside), and optionally
//! attaches to a [`Registry`] under a caller-chosen prefix, exposing
//! `<prefix>model_residual_*` histograms and live fitted-parameter gauges.
//! [`Conformance::report_json`] renders the whole state as a
//! schema-versioned JSON report (see [`REPORT_SCHEMA`]) served by
//! `sat-service` at `/debug/conformance`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::histogram::{BucketLayout, Histogram};
use crate::json::{escape_into, finite};
use crate::registry::{Counter, Gauge, Registry};

/// Schema identifier stamped into every conformance report.
pub const REPORT_SCHEMA: &str = "sat-hmm/conformance/v2";

/// Convergence tolerance: fitted `w` and `Λ` conform within this relative
/// band of the configured machine (CI gates assert it through
/// [`FitReport::matches`]).
pub const FIT_TOLERANCE: f64 = 0.1;

/// CUSUM score at which a [`DriftAlert`] is raised (and latched) for a
/// cell.
pub const DRIFT_THRESHOLD: f64 = 6.0;

/// Cap on one sample's positive CUSUM contribution, so a single scheduler
/// hiccup cannot trip the detector alone.
const DRIFT_RISE_CAP: f64 = 2.0;

/// Per-sample exponential forgetting factor on the estimator's sums: an
/// effective window of ~1000 launches, so a re-parameterized machine is
/// re-learned.
const FORGETTING: f64 = 0.999;

/// Relative ridge term added to the normal equations' diagonal, for
/// numerical safety on poorly conditioned streams.
const RIDGE: f64 = 1e-9;

/// Samples required before the fit may report `converged`.
const MIN_SAMPLES: u64 = 24;

/// Weight of the newest sample in a cell's `τ` EWMA.
const EWMA_WEIGHT: f64 = 0.2;

/// Tuning knobs for a [`Conformance`] tracker. Start from
/// [`ConformanceConfig::for_machine`] and override selectively.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Configured machine width `w` (words per coalesced transaction).
    pub width: u64,
    /// Configured window overhead `Λ` (latency + barrier overhead, in time
    /// units) charged once per launch.
    pub window_overhead: u64,
    /// Per-cell launches over which the drift baseline `τ̄` is frozen.
    pub baseline_samples: u64,
    /// Relative slack before a slow sample contributes to the CUSUM score:
    /// `τ` must exceed `(1 + slack) · τ̄`. Absorbs host jitter.
    pub drift_slack: f64,
}

impl ConformanceConfig {
    /// Defaults for a machine with the given width and window overhead.
    pub fn for_machine(width: u64, window_overhead: u64) -> Self {
        ConformanceConfig {
            width,
            window_overhead,
            baseline_samples: 16,
            drift_slack: 1.0,
        }
    }
}

/// One launch's contribution to the conformance stream. It borrows its
/// cell label, so ingesting a launch of a known cell allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchSample<'a> {
    /// The (algorithm × shape-bucket) cell label, e.g. `1r1w/64x64` (see
    /// [`cell_label`]).
    pub cell: &'a str,
    /// Coalesced global operations `C` (words) of the launch.
    pub coalesced_ops: u64,
    /// Stride global operations `S` (words) of the launch.
    pub stride_ops: u64,
    /// Exact UMM pipeline stages the launch recorded.
    pub global_stages: u64,
    /// Measured wall clock of the launch, in seconds.
    pub wall_seconds: f64,
}

/// A latched drift alert: the cell's measured `τ` diverged from its
/// frozen baseline. At most one alert is ever raised per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlert {
    /// The offending cell.
    pub cell: String,
    /// The CUSUM score at alert time.
    pub score: f64,
    /// The cell's frozen baseline `τ̄` in seconds per unit.
    pub baseline_tau: f64,
    /// The `τ` that tripped the detector, in seconds per unit.
    pub recent_tau: f64,
    /// `recent_tau / baseline_tau`.
    pub ratio: f64,
    /// Cell samples ingested when the alert fired.
    pub samples: u64,
}

/// The online estimator's current answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Launch samples ingested (before forgetting).
    pub samples: u64,
    /// Whether the fit is statistically usable: enough samples, a
    /// well-conditioned system, positive parameters and a small relative
    /// residual. Gates read this before comparing against the configured
    /// machine.
    pub converged: bool,
    /// Fitted machine width `w` (0 when unconverged and unidentifiable).
    pub width: f64,
    /// Fitted window overhead `Λ`, in time units.
    pub window_overhead: f64,
    /// Root-mean-square regression residual, relative to the mean model
    /// time per launch.
    pub residual_rms: f64,
}

impl FitReport {
    /// Whether the fit converged *and* lands within `tol` (relative) of the
    /// configured machine's `width` and `window_overhead`.
    pub fn matches(&self, width: u64, window_overhead: u64, tol: f64) -> bool {
        self.converged
            && (self.width - width as f64).abs() <= tol * width as f64
            && (self.window_overhead - window_overhead as f64).abs()
                <= tol * (window_overhead as f64).max(1.0)
    }
}

/// One cell's rolling state, for programmatic report consumers.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell label.
    pub cell: String,
    /// Samples ingested for this cell.
    pub samples: u64,
    /// Frozen baseline `τ̄` in seconds per unit (0 until the baseline
    /// window completes).
    pub baseline_tau: f64,
    /// Most recent `τ` in seconds per unit.
    pub last_tau: f64,
    /// EWMA of `τ` in seconds per unit, seeded by the cell's first sample
    /// and updated on every sample.
    pub ewma_tau: f64,
    /// Current CUSUM score.
    pub cusum: f64,
    /// Whether a [`DriftAlert`] has latched for this cell.
    pub drifted: bool,
    /// Mean absolute counter-model residual, relative to the closed-form
    /// prediction.
    pub mean_abs_residual: f64,
}

/// The canonical (algorithm × shape-bucket) cell label: dimensions round up
/// to powers of two, so nearby shapes share a cell and its baseline.
pub fn cell_label(algorithm: &str, rows: usize, cols: usize) -> String {
    format!(
        "{algorithm}/{}x{}",
        rows.max(1).next_power_of_two(),
        cols.max(1).next_power_of_two()
    )
}

#[derive(Default)]
struct FitSums {
    samples: u64,
    /// Weighted sums for the regression `y = a·C + c` with
    /// `y = stages + Λ − S`: count, ΣC, ΣC², Σy, ΣCy, Σy².
    sn: f64,
    sc: f64,
    sc2: f64,
    sy: f64,
    scy: f64,
    syy: f64,
}

#[derive(Default)]
struct CellState {
    samples: u64,
    base_wall: f64,
    base_units: f64,
    cusum: f64,
    last_tau: f64,
    ewma_tau: f64,
    drifted: bool,
    resid_sum: f64,
}

impl CellState {
    fn baseline_complete(&self, cfg: &ConformanceConfig) -> bool {
        self.samples >= cfg.baseline_samples
    }

    fn baseline_tau(&self) -> f64 {
        if self.base_units > 0.0 {
            self.base_wall / self.base_units
        } else {
            0.0
        }
    }
}

#[derive(Default)]
struct State {
    fit: FitSums,
    wall_total: f64,
    units_total: f64,
    cells: BTreeMap<String, CellState>,
    alerts: Vec<DriftAlert>,
    /// How many of `alerts` have been drained by [`Conformance::take_new_alerts`].
    flight_cursor: usize,
}

/// Registry handles, registered once at attach time.
struct Metrics {
    samples_total: Counter,
    drift_alerts_total: Counter,
    fitted_width: Gauge,
    fitted_window_overhead: Gauge,
    fit_converged: Gauge,
    tau_ns: Gauge,
    residual_relative: Histogram,
    residual_tau_ratio: Histogram,
}

struct Inner {
    cfg: ConformanceConfig,
    metrics: Option<Metrics>,
    state: Mutex<State>,
}

/// Metric families [`Conformance::with_registry`] registers, before the
/// caller's prefix is prepended.
pub const MODEL_FAMILIES: [&str; 8] = [
    "model_samples_total",
    "model_drift_alerts_total",
    "model_fitted_width",
    "model_fitted_window_overhead",
    "model_fit_converged",
    "model_tau_ns",
    "model_residual_relative",
    "model_residual_tau_ratio",
];

/// The live conformance tracker; see the [module docs](self). Cloning is
/// cheap (one `Arc`) and all clones share one stream.
#[derive(Clone)]
pub struct Conformance {
    inner: Arc<Inner>,
}

impl fmt::Debug for Conformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock().expect("conformance lock");
        f.debug_struct("Conformance")
            .field("samples", &st.fit.samples)
            .field("cells", &st.cells.len())
            .field("alerts", &st.alerts.len())
            .finish()
    }
}

impl Conformance {
    /// A tracker with no registry attachment.
    pub fn new(cfg: ConformanceConfig) -> Self {
        Conformance {
            inner: Arc::new(Inner {
                cfg,
                metrics: None,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// A tracker that additionally maintains `<prefix>model_*` metrics in
    /// `registry`: `model_residual_relative` / `model_residual_tau_ratio`
    /// histograms, live `model_fitted_width` / `model_fitted_window_overhead`
    /// / `model_fit_converged` / `model_tau_ns` gauges, and
    /// `model_samples_total` / `model_drift_alerts_total` counters.
    pub fn with_registry(cfg: ConformanceConfig, registry: &Registry, prefix: &str) -> Self {
        let [samples, alerts, width, overhead, converged, tau, relative, tau_ratio] =
            MODEL_FAMILIES.map(|f| format!("{prefix}{f}"));
        let metrics = Metrics {
            samples_total: registry.counter(&samples),
            drift_alerts_total: registry.counter(&alerts),
            fitted_width: registry.gauge(&width),
            fitted_window_overhead: registry.gauge(&overhead),
            fit_converged: registry.gauge(&converged),
            tau_ns: registry.gauge(&tau),
            residual_relative: registry
                .histogram_with(&relative, &BucketLayout::log(1e-4, 2.0, 20)),
            residual_tau_ratio: registry
                .histogram_with(&tau_ratio, &BucketLayout::log(0.125, 2.0, 12)),
        };
        Conformance {
            inner: Arc::new(Inner {
                cfg,
                metrics: Some(metrics),
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &ConformanceConfig {
        &self.inner.cfg
    }

    /// Ingest one launch. This is the only hot(ish) path: one short
    /// mutex-guarded accumulation plus a handful of atomic metric updates.
    pub fn ingest(&self, sample: LaunchSample<'_>) {
        let cfg = &self.inner.cfg;
        let c = sample.coalesced_ops as f64;
        let s = sample.stride_ops as f64;
        let lam = cfg.window_overhead as f64;
        let units = sample.global_stages as f64 + lam;
        if units <= 0.0 {
            return;
        }
        let wall = if sample.wall_seconds.is_finite() {
            sample.wall_seconds.max(0.0)
        } else {
            0.0
        };
        let y = units - s;
        let pred = hmm_model::cost(
            cfg.width.max(1) as usize,
            cfg.window_overhead,
            sample.coalesced_ops,
            sample.stride_ops,
            1,
        );
        let rel = if pred > 0.0 {
            (units - pred) / pred
        } else {
            0.0
        };
        let tau = wall / units;

        let mut alert: Option<DriftAlert> = None;
        let mut tau_ratio: Option<f64> = None;
        {
            let mut st = self.inner.state.lock().expect("conformance lock");
            let f = FORGETTING;
            let fit = &mut st.fit;
            fit.sn = fit.sn * f + 1.0;
            fit.sc = fit.sc * f + c;
            fit.sc2 = fit.sc2 * f + c * c;
            fit.sy = fit.sy * f + y;
            fit.scy = fit.scy * f + c * y;
            fit.syy = fit.syy * f + y * y;
            fit.samples += 1;
            st.wall_total += wall;
            st.units_total += units;

            {
                // A known cell is found by its borrowed label; only a new
                // one allocates its key.
                if !st.cells.contains_key(sample.cell) {
                    st.cells
                        .insert(sample.cell.to_owned(), CellState::default());
                }
                let cell = st.cells.get_mut(sample.cell).expect("inserted above");
                cell.samples += 1;
                cell.last_tau = tau;
                cell.ewma_tau = if cell.samples == 1 {
                    tau
                } else {
                    (1.0 - EWMA_WEIGHT) * cell.ewma_tau + EWMA_WEIGHT * tau
                };
                cell.resid_sum += rel.abs();
                if cell.samples <= cfg.baseline_samples {
                    cell.base_wall += wall;
                    cell.base_units += units;
                } else {
                    let tau_base = cell.baseline_tau();
                    let mean_units = cell.base_units / cfg.baseline_samples as f64;
                    let weight = if mean_units > 0.0 {
                        (units / mean_units).min(1.0)
                    } else {
                        1.0
                    };
                    let ratio = if tau_base > 0.0 { tau / tau_base } else { 1.0 };
                    tau_ratio = Some(ratio);
                    let inc = weight * (ratio - 1.0 - cfg.drift_slack).clamp(-1.0, DRIFT_RISE_CAP);
                    cell.cusum = (cell.cusum + inc).max(0.0);
                    if !cell.drifted && cell.cusum >= DRIFT_THRESHOLD {
                        cell.drifted = true;
                        alert = Some(DriftAlert {
                            cell: sample.cell.to_owned(),
                            score: cell.cusum,
                            baseline_tau: tau_base,
                            recent_tau: tau,
                            ratio,
                            samples: cell.samples,
                        });
                    }
                }
            }

            if let Some(a) = &alert {
                st.alerts.push(a.clone());
            }
        }

        if let Some(m) = &self.inner.metrics {
            m.samples_total.inc();
            m.residual_relative.observe(rel.abs());
            if let Some(r) = tau_ratio {
                m.residual_tau_ratio.observe(r);
            }
            if alert.is_some() {
                m.drift_alerts_total.inc();
            }
            let fit = self.fit();
            m.fitted_width.set(fit.width);
            m.fitted_window_overhead.set(fit.window_overhead);
            m.fit_converged.set(if fit.converged { 1.0 } else { 0.0 });
            m.tau_ns.set(self.tau_seconds_per_unit() * 1e9);
        }
    }

    /// Solve the normal equations for the current fit.
    pub fn fit(&self) -> FitReport {
        let st = self.inner.state.lock().expect("conformance lock");
        let fs = &st.fit;
        let mut rep = FitReport {
            samples: fs.samples,
            converged: false,
            width: 0.0,
            window_overhead: 0.0,
            residual_rms: 0.0,
        };
        if fs.samples == 0 || fs.sn <= 0.0 {
            return rep;
        }
        let a11 = fs.sc2 + RIDGE * fs.sc2.max(1.0);
        let a22 = fs.sn + RIDGE * fs.sn.max(1.0);
        let det = a11 * a22 - fs.sc * fs.sc;
        let scale = a11 * a22;
        // Degenerate stream (e.g. every launch with identical C): width and
        // Λ are not separable; report unconverged rather than noise. The
        // ridge floors det/scale near 2·ridge on such streams, so the
        // threshold sits well above that.
        if det <= 0.0 || scale <= 0.0 || det / scale < 1e-6 {
            return rep;
        }
        let a = (a22 * fs.scy - fs.sc * fs.sy) / det;
        let c = (a11 * fs.sy - fs.sc * fs.scy) / det;
        let sse = (fs.syy - 2.0 * (a * fs.scy + c * fs.sy)
            + a * a * fs.sc2
            + 2.0 * a * c * fs.sc
            + c * c * fs.sn)
            .max(0.0);
        let mean_y = fs.sy / fs.sn;
        let rms = (sse / fs.sn).sqrt() / mean_y.abs().max(f64::MIN_POSITIVE);
        rep.residual_rms = rms;
        if a > 0.0 && a.is_finite() && c.is_finite() {
            rep.width = 1.0 / a;
            rep.window_overhead = c;
            rep.converged = fs.samples >= MIN_SAMPLES && c > 0.0 && rms <= 0.25;
        }
        rep
    }

    /// Measured per-word bandwidth: mean seconds per model time unit across
    /// the whole stream (0 before the first sample).
    pub fn tau_seconds_per_unit(&self) -> f64 {
        let st = self.inner.state.lock().expect("conformance lock");
        if st.units_total > 0.0 {
            st.wall_total / st.units_total
        } else {
            0.0
        }
    }

    /// Launch samples ingested so far.
    pub fn sample_count(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("conformance lock")
            .fit
            .samples
    }

    /// All latched alerts, in raise order.
    pub fn alerts(&self) -> Vec<DriftAlert> {
        self.inner
            .state
            .lock()
            .expect("conformance lock")
            .alerts
            .clone()
    }

    /// Number of latched alerts.
    pub fn alert_count(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("conformance lock")
            .alerts
            .len()
    }

    /// Drain alerts raised since the previous drain (for flight-recorder
    /// emission: each alert is reported exactly once).
    pub fn take_new_alerts(&self) -> Vec<DriftAlert> {
        let mut st = self.inner.state.lock().expect("conformance lock");
        let out = st.alerts[st.flight_cursor..].to_vec();
        st.flight_cursor = st.alerts.len();
        out
    }

    /// Per-cell rolling state, sorted by cell label.
    pub fn cells(&self) -> Vec<CellReport> {
        let cfg = &self.inner.cfg;
        let st = self.inner.state.lock().expect("conformance lock");
        st.cells
            .iter()
            .map(|(name, cell)| CellReport {
                cell: name.clone(),
                samples: cell.samples,
                baseline_tau: if cell.baseline_complete(cfg) {
                    cell.baseline_tau()
                } else {
                    0.0
                },
                last_tau: cell.last_tau,
                ewma_tau: cell.ewma_tau,
                cusum: cell.cusum,
                drifted: cell.drifted,
                mean_abs_residual: if cell.samples > 0 {
                    cell.resid_sum / cell.samples as f64
                } else {
                    0.0
                },
            })
            .collect()
    }

    /// The full conformance report as JSON (see [`REPORT_SCHEMA`]):
    /// configured machine, fitted parameters, drift policy, per-cell
    /// residual/τ state and every latched alert.
    pub fn report_json(&self) -> String {
        let cfg = &self.inner.cfg;
        let fit = self.fit();
        let tau_ns = self.tau_seconds_per_unit() * 1e9;
        let cells = self.cells();
        let alerts = self.alerts();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":");
        escape_into(&mut out, REPORT_SCHEMA);
        out.push_str(&format!(
            ",\"machine\":{{\"width\":{},\"window_overhead\":{}}}",
            cfg.width, cfg.window_overhead
        ));
        out.push_str(&format!(
            ",\"fit\":{{\"samples\":{},\"converged\":{},\"width\":{},\
             \"window_overhead\":{},\"residual_rms\":{},\"tolerance\":{}}}",
            fit.samples,
            fit.converged,
            finite(fit.width),
            finite(fit.window_overhead),
            finite(fit.residual_rms),
            finite(FIT_TOLERANCE),
        ));
        out.push_str(&format!(",\"tau_ns\":{}", finite(tau_ns)));
        out.push_str(&format!(
            ",\"drift\":{{\"alerts\":{},\"baseline_samples\":{},\"slack\":{},\
             \"threshold\":{}}}",
            alerts.len(),
            cfg.baseline_samples,
            finite(cfg.drift_slack),
            finite(DRIFT_THRESHOLD),
        ));
        out.push_str(",\"cells\":[");
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cell\":");
            escape_into(&mut out, &c.cell);
            out.push_str(&format!(
                ",\"samples\":{},\"baseline_tau_ns\":{},\"last_tau_ns\":{},\
                 \"ewma_tau_ns\":{},\"cusum\":{},\"drifted\":{},\
                 \"mean_abs_residual\":{}}}",
                c.samples,
                finite(c.baseline_tau * 1e9),
                finite(c.last_tau * 1e9),
                finite(c.ewma_tau * 1e9),
                finite(c.cusum),
                c.drifted,
                finite(c.mean_abs_residual),
            ));
        }
        out.push_str("],\"alerts\":[");
        for (i, a) in alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cell\":");
            escape_into(&mut out, &a.cell);
            out.push_str(&format!(
                ",\"score\":{},\"baseline_tau_ns\":{},\"recent_tau_ns\":{},\
                 \"ratio\":{},\"samples\":{}}}",
                finite(a.score),
                finite(a.baseline_tau * 1e9),
                finite(a.recent_tau * 1e9),
                finite(a.ratio),
                a.samples,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn cfg() -> ConformanceConfig {
        ConformanceConfig::for_machine(32, 40)
    }

    /// A synthetic launch whose counters satisfy the closed form exactly
    /// and whose wall clock is `tau` seconds per unit.
    fn exact_sample<'a>(
        cell: &'a str,
        c: u64,
        s: u64,
        tau: f64,
        cfg: &ConformanceConfig,
    ) -> LaunchSample<'a> {
        let stages = c / cfg.width + s;
        let units = stages + cfg.window_overhead;
        LaunchSample {
            cell,
            coalesced_ops: c,
            stride_ops: s,
            global_stages: stages,
            wall_seconds: tau * units as f64,
        }
    }

    #[test]
    fn estimator_recovers_machine_parameters_from_exact_stream() {
        let cfg = cfg();
        let t = Conformance::new(cfg.clone());
        for i in 0..200u64 {
            // Vary C and S independently so width and Λ are identifiable.
            let c = (i % 17 + 1) * cfg.width * 4;
            let s = (i % 5) * 3;
            t.ingest(exact_sample("1r1w/64x64", c, s, 2e-9, &cfg));
        }
        let fit = t.fit();
        assert!(fit.converged, "{fit:?}");
        assert!((fit.width - 32.0).abs() < 0.05, "{fit:?}");
        assert!((fit.window_overhead - 40.0).abs() < 0.5, "{fit:?}");
        assert!(fit.residual_rms < 1e-6, "{fit:?}");
        assert!(fit.matches(32, 40, 0.01), "{fit:?}");
        assert!(!fit.matches(16, 40, 0.01), "tolerance must bind");
        let tau = t.tau_seconds_per_unit();
        assert!((tau - 2e-9).abs() / 2e-9 < 1e-9, "tau = {tau}");
        assert!(t.alerts().is_empty(), "exact stream must not drift");
    }

    #[test]
    fn constant_counter_stream_is_reported_unconverged() {
        // With every launch identical, width and Λ cannot be separated;
        // the fit must say so instead of hallucinating parameters.
        let cfg = cfg();
        let t = Conformance::new(cfg.clone());
        for _ in 0..100 {
            t.ingest(exact_sample("flat/32x32", 32 * 64, 0, 2e-9, &cfg));
        }
        assert!(!t.fit().converged);
    }

    #[test]
    fn single_hiccup_does_not_alert_but_sustained_slowdown_does_once() {
        let mut cfg = cfg();
        cfg.baseline_samples = 8;
        let t = Conformance::new(cfg.clone());
        let tau = 5e-9;
        for i in 0..20u64 {
            let c = (i % 7 + 1) * cfg.width * 2;
            t.ingest(exact_sample("1r1w/64x64", c, i % 3, tau, &cfg));
        }
        // One 10× scheduler hiccup: capped contribution, no alert.
        t.ingest(exact_sample("1r1w/64x64", 32 * 6, 1, tau * 10.0, &cfg));
        assert_eq!(t.alert_count(), 0, "single hiccup must not alert");
        // Recovery drains the score.
        for i in 0..5u64 {
            t.ingest(exact_sample("1r1w/64x64", (i % 7 + 1) * 64, 0, tau, &cfg));
        }
        // Sustained 4× slowdown: alert fires, exactly once, and latches.
        for i in 0..12u64 {
            t.ingest(exact_sample(
                "1r1w/64x64",
                (i % 7 + 1) * 64,
                2,
                tau * 4.0,
                &cfg,
            ));
        }
        let alerts = t.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].cell, "1r1w/64x64");
        assert!(alerts[0].ratio > 2.0, "{:?}", alerts[0]);
        // The drain-once API yields it exactly once.
        assert_eq!(t.take_new_alerts().len(), 1);
        assert!(t.take_new_alerts().is_empty());
        // The cell is marked drifted in the report.
        let cell = &t.cells()[0];
        assert!(cell.drifted);
        assert!(cell.cusum >= DRIFT_THRESHOLD);
    }

    #[test]
    fn stationary_noise_never_alerts() {
        let mut cfg = cfg();
        cfg.baseline_samples = 8;
        let t = Conformance::new(cfg.clone());
        // Deterministic ±25% jitter around τ: inside the slack band.
        for i in 0..300u64 {
            let jitter = 1.0 + 0.25 * (((i * 2654435761) % 200) as f64 / 100.0 - 1.0);
            let c = (i % 9 + 1) * cfg.width * 2;
            t.ingest(exact_sample("1r1w/128x128", c, i % 4, 3e-9 * jitter, &cfg));
        }
        assert_eq!(t.alert_count(), 0);
    }

    #[test]
    fn report_json_parses_and_carries_the_contract_fields() {
        let cfg = cfg();
        let t = Conformance::new(cfg.clone());
        for i in 0..40u64 {
            let c = (i % 11 + 1) * cfg.width * 2;
            t.ingest(exact_sample("2r1w/64x64", c, i % 4, 2e-9, &cfg));
        }
        // A cell still short of `baseline_samples` launches has no frozen
        // baseline yet, but its measured τ is already reported.
        for i in 0..3u64 {
            t.ingest(exact_sample("4r4w/64x64", (i + 1) * 64, 0, 2e-9, &cfg));
        }
        let text = t.report_json();
        let v = JsonValue::parse(&text).expect("report is valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(REPORT_SCHEMA)
        );
        let machine = v.get("machine").expect("machine");
        assert_eq!(machine.get("width").unwrap().as_f64(), Some(32.0));
        let fit = v.get("fit").expect("fit");
        for key in [
            "samples",
            "width",
            "window_overhead",
            "residual_rms",
            "tolerance",
        ] {
            assert!(fit.get(key).unwrap().as_f64().is_some(), "fit.{key}");
        }
        let cells = v.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        for key in [
            "samples",
            "baseline_tau_ns",
            "last_tau_ns",
            "ewma_tau_ns",
            "cusum",
            "mean_abs_residual",
        ] {
            assert!(cells[0].get(key).unwrap().as_f64().is_some(), "cell.{key}");
        }
        assert_eq!(cells[0].get("cell").unwrap().as_str(), Some("2r1w/64x64"));
        let young = &cells[1];
        assert_eq!(young.get("cell").unwrap().as_str(), Some("4r4w/64x64"));
        assert_eq!(young.get("baseline_tau_ns").unwrap().as_f64(), Some(0.0));
        let tau_ns = young.get("ewma_tau_ns").unwrap().as_f64().unwrap();
        assert!(
            (tau_ns - 2.0).abs() < 1e-9,
            "young cell τ = {tau_ns} ns/unit"
        );
        assert!(v.get("alerts").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn registry_attachment_exposes_prefixed_metrics() {
        let reg = Registry::new();
        let cfg = cfg();
        let t = Conformance::with_registry(cfg.clone(), &reg, "sat_service_");
        for i in 0..40u64 {
            let c = (i % 11 + 1) * cfg.width * 2;
            t.ingest(exact_sample("1r1w/64x64", c, i % 4, 2e-9, &cfg));
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("sat_service_model_samples_total")
                .unwrap()
                .total,
            40
        );
        assert_eq!(
            snap.counter("sat_service_model_drift_alerts_total")
                .unwrap()
                .total,
            0
        );
        let w = snap.gauge("sat_service_model_fitted_width").unwrap().value;
        assert!((w - 32.0).abs() < 0.5, "fitted width gauge = {w}");
        assert_eq!(
            snap.gauge("sat_service_model_fit_converged").unwrap().value,
            1.0
        );
        assert!(snap.gauge("sat_service_model_tau_ns").unwrap().value > 0.0);
        let h = snap
            .histogram("sat_service_model_residual_relative")
            .unwrap();
        assert_eq!(h.count, 40);
        let text = reg.expose_text();
        assert!(text.contains("# TYPE sat_service_model_residual_relative histogram"));
        assert!(text.contains("sat_service_model_fitted_window_overhead"));
    }

    #[test]
    fn cell_labels_bucket_shapes_to_powers_of_two() {
        assert_eq!(cell_label("1r1w", 64, 64), "1r1w/64x64");
        assert_eq!(cell_label("1r1w", 65, 100), "1r1w/128x128");
        assert_eq!(cell_label("hybrid", 0, 1), "hybrid/1x1");
    }
}
