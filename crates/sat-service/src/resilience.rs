//! Self-healing machinery: retry budgets with deterministic backoff, the
//! device circuit breaker, and cheap result verification.
//!
//! The serving layer assumes the device can fail the way real GPUs do
//! (lost launches, aborted launches, silently corrupted results — see
//! [`gpu_exec::FaultPlan`]) and recovers in three layers:
//!
//! 1. **Detect.** After each dispatch the executor checks the device's
//!    [fault epoch](gpu_exec::Device::fault_epoch) (launch abort / device
//!    loss are detectable, like a CUDA error code), compares measured
//!    operation counts against the paper's Table-I closed forms
//!    (missing work from skipped blocks shows up as missing transactions),
//!    and runs [`verify_sat`] on each result — the last row/column of a
//!    valid SAT are prefix sums of the input's margins, and every interior
//!    cell must satisfy the defining recurrence
//!    `s(i,j) − s(i−1,j) − s(i,j−1) + s(i−1,j−1) = a(i,j)`.
//! 2. **Retry.** Failed attempts are retried with exponential backoff and
//!    deterministic jitter, up to [`ResilienceConfig::max_attempts`].
//! 3. **Degrade.** Consecutive launch failures open a [`CircuitBreaker`];
//!    while it is open, dispatches complete on the sequential CPU path
//!    ([`sat_core::seq::sat_4r1w_cpu`]) instead of erroring, and after
//!    [`ResilienceConfig::breaker_cooldown`] a half-open canary launch
//!    probes whether the device recovered.

use std::time::{Duration, Instant};

use gpu_exec::Device;
use hmm_model::cost::SatAlgorithm;
use obs::BreakerState;
use sat_core::{compute_sat, Matrix};

/// When the executor verifies device results against the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Verify iff the service was configured with a fault plan (the
    /// default: fault-free production traffic skips the sweep entirely).
    #[default]
    Auto,
    /// Always verify, even without injected faults.
    Always,
    /// Never verify (results are returned as the device produced them).
    Never,
}

/// Tuning for the self-healing path. The defaults match the chaos
/// acceptance gate: three GPU attempts, sub-millisecond backoff, a breaker
/// that opens after three consecutive launch failures and probes again
/// after 25 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// GPU attempts per dispatch before degrading to the CPU path.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Hard upper bound on the delay actually slept: applied *after*
    /// jitter, so no retry ever waits longer than this.
    pub max_backoff: Duration,
    /// Seed of the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Consecutive launch failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a half-open canary probe.
    pub breaker_cooldown: Duration,
    /// Result verification policy.
    pub verify: VerifyMode,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(5),
            backoff_seed: 0x5EED,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(25),
            verify: VerifyMode::Auto,
        }
    }
}

/// The classic closed → open → half-open breaker, owned exclusively by the
/// batch-former thread (no locking).
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    state: State,
    threshold: u32,
    cooldown: Duration,
}

#[derive(Debug)]
enum State {
    /// Healthy; counts consecutive launch failures.
    Closed { failures: u32 },
    /// Tripped; GPU dispatches degrade to CPU until the cooldown elapses.
    Open { since: Instant },
    /// Cooldown elapsed; one canary probe decides re-close vs. re-open.
    HalfOpen,
}

/// What the executor should do with the device right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Breaker closed: use the GPU normally.
    Use,
    /// Breaker half-open: run a canary probe before trusting the device.
    Probe,
    /// Breaker open: degrade to the CPU path.
    Degrade,
}

impl CircuitBreaker {
    pub(crate) fn new(cfg: &ResilienceConfig) -> Self {
        CircuitBreaker {
            state: State::Closed { failures: 0 },
            threshold: cfg.breaker_threshold.max(1),
            cooldown: cfg.breaker_cooldown,
        }
    }

    /// Advance time-driven transitions and return the current disposition
    /// plus the transition that just happened, if any (for metrics).
    pub(crate) fn poll(&mut self, now: Instant) -> (Disposition, Option<BreakerState>) {
        match self.state {
            State::Closed { .. } => (Disposition::Use, None),
            State::HalfOpen => (Disposition::Probe, None),
            State::Open { since } => {
                if now.duration_since(since) >= self.cooldown {
                    self.state = State::HalfOpen;
                    (Disposition::Probe, Some(BreakerState::HalfOpen))
                } else {
                    (Disposition::Degrade, None)
                }
            }
        }
    }

    /// A launch (or canary) succeeded.
    pub(crate) fn on_success(&mut self) -> Option<BreakerState> {
        match self.state {
            State::Closed { failures: 0 } => None,
            State::Closed { .. } => {
                self.state = State::Closed { failures: 0 };
                None
            }
            State::HalfOpen | State::Open { .. } => {
                self.state = State::Closed { failures: 0 };
                Some(BreakerState::Closed)
            }
        }
    }

    /// A launch (or canary) failed.
    pub(crate) fn on_failure(&mut self, now: Instant) -> Option<BreakerState> {
        match self.state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    self.state = State::Open { since: now };
                    Some(BreakerState::Open)
                } else {
                    self.state = State::Closed { failures };
                    None
                }
            }
            State::HalfOpen => {
                self.state = State::Open { since: now };
                Some(BreakerState::Open)
            }
            State::Open { .. } => None,
        }
    }

    /// Whether the breaker is closed right now: the router runs an
    /// attempt only then. Half-open probing happens only at attempt
    /// boundaries, so a device lost mid-dispatch stays out until the next
    /// [`poll`](Self::poll).
    pub(crate) fn is_closed(&self) -> bool {
        matches!(self.state, State::Closed { .. })
    }

    #[cfg(test)]
    fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }
}

/// Deterministic exponential backoff with jitter: `base · 2^(attempt−1)`
/// scaled by a jitter factor in `[0.5, 1.0)` drawn from a splitmix64
/// stream — so two runs of the same fault schedule sleep the same amounts,
/// keeping chaos runs reproducible — then clamped to `max_backoff`. The
/// clamp is applied *after* jitter: `max_backoff` bounds the delay actually
/// slept, not some pre-jitter intermediate, so the documented ceiling holds
/// for every `(attempt, salt)` pair.
pub(crate) fn backoff_delay(cfg: &ResilienceConfig, attempt: u32, salt: u64) -> Duration {
    let exp = attempt.saturating_sub(1).min(20);
    let raw = cfg.base_backoff.saturating_mul(1u32 << exp);
    let h = splitmix(cfg.backoff_seed ^ (u64::from(attempt) << 32) ^ salt);
    let jitter = 0.5 + ((h >> 11) as f64) * (0.5 / (1u64 << 53) as f64);
    raw.mul_f64(jitter).min(cfg.max_backoff)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Relative tolerance of the margin checks, against the running `Σ|a|` of
/// the sum each one compares: two honest summation orders of `N` terms
/// differ by at most about `2N·ε` of it, under `1e-9` for `N` below four
/// million.
const VERIFY_REL_TOL: f64 = 1e-9;

/// Slack of the recurrence check at cell `(i, j)`, in ulps of
/// `M(i,j) = Σ|a(u,v)|` over `u ≤ i, v ≤ j`. Every partial sum an honest
/// path forms on the way to `s(i,j)` and its three neighbours covers a
/// sub-rectangle of that cell's rectangle, so `M(i,j)` bounds each of them,
/// and with them the four SAT operands. Probed on fractional images of
/// either sign up to 1080 × 1920 at w ∈ {4, 8, 32}, no device algorithm
/// came within a quarter of this bound (the worst read 15 ulps).
const VERIFY_ULPS: f64 = 64.0;

/// `got` equals `want` up to `tol`. A corrupted exponent can land on
/// ±inf/NaN, where `inf ≤ tol` comparisons mislead; only exact equality
/// counts there.
#[inline]
fn close(got: f64, want: f64, tol: f64) -> bool {
    if !got.is_finite() || !want.is_finite() {
        return got == want;
    }
    (got - want).abs() <= tol
}

/// Cheap validity check of a SAT against its input, without recomputing the
/// SAT: the margins checksum (the last row and column of a valid SAT are
/// prefix sums of the input's column and row margins) catches global drift,
/// and the defining recurrence `s(i,j) − s(i−1,j) − s(i,j−1) + s(i−1,j−1) =
/// a(i,j)` — four reads per cell — catches any corrupted interior word.
/// Returns `true` when the SAT is consistent with `image`.
///
/// Each check is bounded by the rounding of what it sums: a margin check by
/// [`VERIFY_REL_TOL`] of its running `Σ|a|`, the recurrence by
/// [`VERIFY_ULPS`] ulps of the cell rectangle's `Σ|a|`, which bounds
/// `|s| + |up| + |left| + |diag|` and every partial sum behind them. So
/// honest reassociation passes at any size and sign, while a flipped
/// exponent bit, which changes a word by a relative amount of ½ or more,
/// clears the bound by about thirteen orders of magnitude unless the word
/// is itself below the rounding noise of its rectangle.
pub(crate) fn verify_sat(image: &Matrix<f64>, sat: &Matrix<f64>) -> bool {
    let (rows, cols) = (image.rows(), image.cols());
    if sat.rows() != rows || sat.cols() != cols {
        return false;
    }
    if rows == 0 || cols == 0 {
        return true;
    }
    // Margins: last row = prefix sums of the column margins.
    let (mut acc, mut mag) = (0.0f64, 0.0f64);
    for j in 0..cols {
        for i in 0..rows {
            let v = image.get(i, j);
            acc += v;
            mag += v.abs();
        }
        if !close(sat.get(rows - 1, j), acc, VERIFY_REL_TOL * mag) {
            return false;
        }
    }
    // Margins: last column = prefix sums of the row margins.
    let (mut acc, mut mag) = (0.0f64, 0.0f64);
    for i in 0..rows {
        for &v in image.row(i) {
            acc += v;
            mag += v.abs();
        }
        if !close(sat.get(i, cols - 1), acc, VERIFY_REL_TOL * mag) {
            return false;
        }
    }
    // Recurrence sweep with zero boundary; `col_mag[j]` is `Σ|a(u,j)|` over
    // `u ≤ i`, and `mag` runs along row `i` to `M(i,j)`.
    let mut col_mag = vec![0.0f64; cols];
    for i in 0..rows {
        let mut mag = 0.0f64;
        for (j, col) in col_mag.iter_mut().enumerate() {
            let a = image.get(i, j);
            *col += a.abs();
            mag += *col;
            let up = if i > 0 { sat.get(i - 1, j) } else { 0.0 };
            let left = if j > 0 { sat.get(i, j - 1) } else { 0.0 };
            let diag = if i > 0 && j > 0 {
                sat.get(i - 1, j - 1)
            } else {
                0.0
            };
            let tol = VERIFY_ULPS * f64::EPSILON * mag;
            if !close(sat.get(i, j) - up - left + diag, a, tol) {
                return false;
            }
        }
    }
    true
}

/// Half-open probe: one tiny `w × w` SAT on the device, checked for launch
/// failure *and* result validity. Cheap (a `w × w` grid is one block, one
/// wavefront) but exercises the full launch → kernel → readback path.
pub(crate) fn canary_ok(dev: &Device) -> bool {
    let w = dev.width();
    let image = Matrix::from_fn(w, w, |i, j| (i * 3 + j + 1) as f64);
    let epoch = dev.fault_epoch();
    let sat = compute_sat(dev, SatAlgorithm::OneR1W, &image);
    dev.fault_epoch() == epoch && verify_sat(&image, &sat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_core::seq::sat_reference;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig {
            breaker_cooldown: Duration::from_millis(5),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new(&cfg());
        let t0 = Instant::now();
        assert_eq!(b.poll(t0).0, Disposition::Use);
        assert_eq!(b.on_failure(t0), None);
        assert_eq!(b.on_failure(t0), None);
        assert_eq!(b.on_failure(t0), Some(BreakerState::Open));
        assert!(b.is_open());
        assert_eq!(b.poll(t0).0, Disposition::Degrade);
        // Cooldown elapsed: half-open probe.
        let later = t0 + Duration::from_millis(6);
        assert_eq!(
            b.poll(later),
            (Disposition::Probe, Some(BreakerState::HalfOpen))
        );
        assert_eq!(b.poll(later), (Disposition::Probe, None));
        // Failed canary re-opens; a later successful one closes.
        assert_eq!(b.on_failure(later), Some(BreakerState::Open));
        let again = later + Duration::from_millis(6);
        assert_eq!(b.poll(again).0, Disposition::Probe);
        assert_eq!(b.on_success(), Some(BreakerState::Closed));
        assert_eq!(b.poll(again).0, Disposition::Use);
    }

    #[test]
    fn breaker_success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(&cfg());
        let t = Instant::now();
        b.on_failure(t);
        b.on_failure(t);
        assert_eq!(b.on_success(), None);
        // The streak restarted: two more failures do not open it.
        b.on_failure(t);
        b.on_failure(t);
        assert!(!b.is_open());
        assert_eq!(b.on_failure(t), Some(BreakerState::Open));
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let c = cfg();
        let d1 = backoff_delay(&c, 1, 9);
        let d2 = backoff_delay(&c, 2, 9);
        let d9 = backoff_delay(&c, 9, 9);
        assert_eq!(d1, backoff_delay(&c, 1, 9), "deterministic");
        assert!(d1 >= c.base_backoff / 2 && d1 < c.base_backoff);
        assert!(d2 > d1, "exponential growth");
        assert!(d9 <= c.max_backoff, "capped");
        assert!(d9 >= c.max_backoff / 2, "jitter keeps at least half");
        assert_ne!(
            backoff_delay(&c, 1, 1),
            backoff_delay(&c, 1, 2),
            "salt decorrelates"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64, ..Default::default()
        })]

        /// The documented ceiling is a hard one: for every attempt number
        /// (including the degenerate 0) and any salt, the post-jitter delay
        /// never exceeds `max_backoff`, and jitter never eats more than
        /// half of the (capped) exponential term.
        #[test]
        fn backoff_is_capped_post_jitter_for_all_attempts(
            attempt in 0u32..=64,
            salt in 0u64..1_000,
            base_us in 1u64..10_000,
            max_us in 1u64..10_000,
        ) {
            let c = ResilienceConfig {
                base_backoff: Duration::from_micros(base_us),
                max_backoff: Duration::from_micros(max_us),
                ..ResilienceConfig::default()
            };
            let d = backoff_delay(&c, attempt, salt);
            proptest::prop_assert!(
                d <= c.max_backoff,
                "attempt {} slept {:?} past the {:?} cap", attempt, d, c.max_backoff
            );
            let exp = attempt.saturating_sub(1).min(20);
            let raw = c.base_backoff.saturating_mul(1u32 << exp).min(c.max_backoff);
            proptest::prop_assert!(
                d + Duration::from_nanos(1) >= raw / 2,
                "attempt {} slept {:?}, below half of {:?}", attempt, d, raw
            );
        }
    }

    #[test]
    fn verify_accepts_valid_sats_and_rejects_corruption() {
        for (rows, cols) in [(1usize, 1usize), (5, 3), (8, 8), (13, 7)] {
            let image = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) % 29) as f64 - 14.0);
            let sat = sat_reference(&image);
            assert!(verify_sat(&image, &sat), "{rows}x{cols}");
            // Corrupt each word in turn the way fault injection does
            // (exponent-bit flip): every single corruption must be caught.
            for i in 0..rows {
                for j in 0..cols {
                    let mut bad = sat.clone();
                    let v = bad.get(i, j);
                    let flipped = f64::from_bits(v.to_bits() ^ (0x40u64 << 56));
                    bad.set(i, j, flipped);
                    if flipped != v {
                        assert!(!verify_sat(&image, &bad), "missed corruption at {i},{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn verify_rejects_shape_mismatch_and_accepts_empty() {
        let image = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let sat = sat_reference(&image);
        assert!(verify_sat(&image, &sat));
        let wrong: Matrix<f64> = Matrix::zeros(3, 4);
        assert!(!verify_sat(&image, &wrong));
        let empty: Matrix<f64> = Matrix::zeros(0, 0);
        assert!(verify_sat(&empty, &empty));
    }

    #[test]
    fn verify_accepts_reference_sats_of_fractional_images() {
        // Pixels uniform in [0, 255): at 512² and above the SAT words reach
        // 10⁷–10⁸, where honest rounding is far above 1e-9 of a pixel.
        for (rows, cols) in [
            (512, 512),
            (1024, 1024),
            (1080, 1920),
            (1079, 1917),
            (333, 2048),
            (1, 1920),
            (1080, 1),
        ] {
            let image = Matrix::from_fn(rows, cols, |i, j| {
                let h = (i * 1920 + j).wrapping_mul(2_654_435_761) % 1_000_003;
                h as f64 * (255.0 / 1_000_003.0)
            });
            assert!(verify_sat(&image, &sat_reference(&image)), "{rows}x{cols}");
        }
    }

    #[test]
    fn verify_accepts_device_sats_of_signed_fractional_images() {
        // Zero-mean pixels: the fringes 1R1W and 2R1W add are much larger
        // than the SAT words they produce, and so is their rounding. At
        // this size it reaches 19–23 ulps of `|s| + |up| + |left| + |diag|`.
        use gpu_exec::DeviceOptions;
        use hmm_model::MachineConfig;
        let dev = Device::new(DeviceOptions::new(MachineConfig::with_width(32)).workers(2));
        let image = Matrix::from_fn(512, 512, |i, j| {
            let h = (i * 1920 + j).wrapping_mul(2_654_435_761) % 1_000_003;
            h as f64 * (255.0 / 1_000_003.0) - 127.5
        });
        for alg in SatAlgorithm::ALL {
            let sat = compute_sat(&dev, alg, &image);
            assert!(verify_sat(&image, &sat), "{alg:?}");
        }
    }

    #[test]
    fn verify_tolerates_float_reassociation() {
        // Sums accumulated in a different association order drift by ulps
        // of the words they produce.
        let image = Matrix::from_fn(16, 16, |i, j| ((i * 7 + j) % 5) as f64 * 0.1 + 0.01);
        let sat = sat_reference(&image);
        let mut nudged = sat.clone();
        for i in 0..16 {
            for j in 0..16 {
                let v = nudged.get(i, j);
                nudged.set(i, j, v * (1.0 + f64::EPSILON));
            }
        }
        assert!(verify_sat(&image, &nudged));
    }
}
