//! Deterministic fault injection for the virtual device.
//!
//! A [`FaultPlan`] attached to [`DeviceOptions`](crate::DeviceOptions)
//! makes the device misbehave the way real GPUs do — aborted launches,
//! per-block stragglers, silent buffer-write corruption and transient
//! device-loss windows — while staying **reproducible**: every fault
//! decision is a pure function of `(seed, launch index, block id)` through
//! a splitmix64 stream, never of wall-clock time or thread interleaving.
//! The same plan on the same program therefore yields the same fault/event
//! sequence and the same (possibly corrupted) memory contents, which is
//! what makes chaos runs debuggable and the recovery layer testable.
//!
//! Fault classes:
//!
//! * **Launch abort** — with probability `launch_abort_p` a launch fails:
//!   a deterministic subset of its blocks never runs, so the launch's
//!   writes are partial. The failure is *detectable*: it increments
//!   [`Device::fault_epoch`](crate::Device::fault_epoch), the virtual
//!   analogue of a CUDA launch error code.
//! * **Device loss** — while the [`LossWindow`] is active every launch
//!   fails completely (no block runs) and is marked `lost` in the trace.
//!   Also detectable via the fault epoch.
//! * **Straggler** — with probability `straggler_p` a block sleeps
//!   `straggler_delay` before running. Values are unaffected; only timing.
//! * **Corruption** — with probability `corrupt_p` per launch, one element
//!   store of one victim block has a high bit of its byte representation
//!   flipped *after* the kernel produced the correct value. **Silent**: the
//!   fault epoch does not move; only result verification can catch it.
//!   Intended for numeric element types (the bit flip lands in an `f64`
//!   exponent / integer high byte); do not inject corruption into buffers
//!   of types with invalid bit patterns.

use std::time::{Duration, Instant};

use obs::FaultClass;

/// When the transient device-loss window is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LossWindow {
    /// No device loss.
    #[default]
    None,
    /// Launch-indexed window: launches `start .. start + count` (indices
    /// since device construction) are lost. Fully deterministic — the
    /// variant to use in tests.
    Launches {
        /// First lost launch index.
        start: u64,
        /// Number of consecutive lost launches.
        count: u64,
    },
    /// Wall-clock window: starting with launch index `start_after_launch`,
    /// the device is lost for `duration` of real time (the clock starts at
    /// the first launch at or past the index). Models "the card fell off
    /// the bus for 50 ms" in chaos benchmarks.
    Wall {
        /// Launch index that triggers the window.
        start_after_launch: u64,
        /// How long the device stays lost.
        duration: Duration,
    },
}

/// A seeded, deterministic fault schedule for one device.
///
/// Built with [`FaultPlan::new`] plus builder methods; all probabilities
/// default to zero and the loss window to [`LossWindow::None`], so
/// `FaultPlan::new(seed)` is an *empty* plan that injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the splitmix64 decision stream.
    pub seed: u64,
    /// Probability that a launch aborts (a deterministic subset of blocks
    /// is skipped).
    pub launch_abort_p: f64,
    /// Per-block probability of a straggler delay.
    pub straggler_p: f64,
    /// How long a straggler block sleeps before running.
    pub straggler_delay: Duration,
    /// Per-launch probability that one element store of one victim block
    /// is silently corrupted.
    pub corrupt_p: f64,
    /// Transient device-loss window.
    pub loss: LossWindow,
}

/// One injected fault, as recorded in the device's event log
/// ([`Device::take_fault_events`](crate::Device::take_fault_events)).
///
/// Events are logged by the launching thread in a canonical order (launch
/// failure first, then stragglers by ascending block id, then corruption),
/// so the log is identical across runs of the same plan and program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A launch aborted: `skipped` of its blocks never ran.
    LaunchAborted {
        /// Launch index since device construction.
        launch: u64,
        /// Blocks that were skipped.
        skipped: u64,
    },
    /// A launch fell entirely into the device-loss window; no block ran.
    DeviceLost {
        /// Launch index since device construction.
        launch: u64,
    },
    /// A block slept `straggler_delay` before running.
    Straggler {
        /// Launch index since device construction.
        launch: u64,
        /// The delayed block.
        block: u64,
    },
    /// One element store of this block was silently corrupted.
    Corrupted {
        /// Launch index since device construction.
        launch: u64,
        /// The victim block.
        block: u64,
    },
}

impl FaultEvent {
    /// Launch index the event belongs to.
    pub fn launch(&self) -> u64 {
        match *self {
            FaultEvent::LaunchAborted { launch, .. }
            | FaultEvent::DeviceLost { launch }
            | FaultEvent::Straggler { launch, .. }
            | FaultEvent::Corrupted { launch, .. } => launch,
        }
    }

    /// The event's fault class: its one spelling, shared by
    /// [`kind`](Self::kind), the `gpu_fault_injections{kind=…}` labels and
    /// the flight recorder's `fault_injected` events.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultEvent::LaunchAborted { .. } => FaultClass::LaunchAbort,
            FaultEvent::DeviceLost { .. } => FaultClass::DeviceLoss,
            FaultEvent::Straggler { .. } => FaultClass::Straggler,
            FaultEvent::Corrupted { .. } => FaultClass::Corruption,
        }
    }

    /// Stable kebab-case name (the class's name).
    pub fn kind(&self) -> &'static str {
        self.class().name()
    }
}

/// Decision salts: distinct sub-streams per fault class so e.g. the abort
/// draw of launch 7 never correlates with its corruption draw.
const SALT_ABORT: u64 = 0xA10;
const SALT_SKIP: u64 = 0x51B;
const SALT_STRAGGLE: u64 = 0x57A;
const SALT_CORRUPT: u64 = 0xC04;
const SALT_VICTIM: u64 = 0x71C;
const SALT_NTH: u64 = 0x9E7;

/// How many element stores into the victim block's write stream the
/// corrupted store may be (`nth ∈ [0, CORRUPT_NTH)`): small enough that a
/// `w × w` tile write always covers it, so armed corruptions usually land.
const CORRUPT_NTH: u64 = 16;

impl FaultPlan {
    /// An empty plan (nothing injected) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            launch_abort_p: 0.0,
            straggler_p: 0.0,
            straggler_delay: Duration::from_micros(100),
            corrupt_p: 0.0,
            loss: LossWindow::None,
        }
    }

    /// Set the launch-abort probability.
    pub fn launch_abort_p(mut self, p: f64) -> Self {
        self.launch_abort_p = p;
        self
    }

    /// Set the per-block straggler probability and delay.
    pub fn straggler(mut self, p: f64, delay: Duration) -> Self {
        self.straggler_p = p;
        self.straggler_delay = delay;
        self
    }

    /// Set the per-launch silent-corruption probability.
    pub fn corrupt_p(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    /// Set the device-loss window.
    pub fn loss(mut self, window: LossWindow) -> Self {
        self.loss = window;
        self
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.launch_abort_p <= 0.0
            && self.straggler_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.loss == LossWindow::None
    }

    #[inline]
    fn draw(&self, launch: u64, block: u64, salt: u64) -> u64 {
        // splitmix64 over the combined key; each component is first
        // diffused so neighbouring launches/blocks decorrelate.
        let mut z = self
            .seed
            .wrapping_add(mix(launch.wrapping_add(salt)))
            .wrapping_add(mix(block ^ (salt << 32)));
        z = mix(z);
        z
    }

    #[inline]
    fn chance(&self, p: f64, draw: u64) -> bool {
        // Top 53 bits → uniform in [0, 1).
        p > 0.0 && (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Whether `launch` aborts (independent of the loss window).
    pub(crate) fn launch_aborts(&self, launch: u64) -> bool {
        self.chance(self.launch_abort_p, self.draw(launch, 0, SALT_ABORT))
    }

    /// Whether `block` of an *aborted* launch is skipped (about half are).
    pub(crate) fn skips_block(&self, launch: u64, block: u64) -> bool {
        self.draw(launch, block, SALT_SKIP) & 1 == 0
    }

    /// Whether `block` of `launch` straggles.
    pub(crate) fn straggles(&self, launch: u64, block: u64) -> bool {
        self.chance(self.straggler_p, self.draw(launch, block, SALT_STRAGGLE))
    }

    /// The corruption target of `launch`, if any: `(victim block, nth
    /// element store of that block)`.
    pub(crate) fn corruption(&self, launch: u64, grid: usize) -> Option<(usize, u64)> {
        if grid == 0 || !self.chance(self.corrupt_p, self.draw(launch, 0, SALT_CORRUPT)) {
            return None;
        }
        let victim = (self.draw(launch, 0, SALT_VICTIM) % grid as u64) as usize;
        let nth = self.draw(launch, 0, SALT_NTH) % CORRUPT_NTH;
        Some((victim, nth))
    }

    /// Whether `launch` falls into the loss window. `loss_started` is the
    /// device's wall-window state (set at the first triggering launch);
    /// launches serialize, so this runs under the launch gate.
    pub(crate) fn launch_lost(&self, launch: u64, loss_started: &mut Option<Instant>) -> bool {
        match self.loss {
            LossWindow::None => false,
            LossWindow::Launches { start, count } => {
                // Saturating: `count: u64::MAX` expresses permanent loss.
                launch >= start && launch < start.saturating_add(count)
            }
            LossWindow::Wall {
                start_after_launch,
                duration,
            } => {
                if launch < start_after_launch {
                    return false;
                }
                let started = *loss_started.get_or_insert_with(Instant::now);
                started.elapsed() < duration
            }
        }
    }
}

/// splitmix64 finalizer.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flip bit 6 of the value's highest byte: for little-endian `f64` that is
/// an exponent bit (the deviation is enormous, never lost in rounding), for
/// integers a high bit of the magnitude.
pub(crate) fn corrupt_value<T: Copy>(mut v: T) -> T {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return v;
    }
    // SAFETY: `T: Copy` and we stay inside the value's own bytes. The
    // flipped pattern must be valid for `T` — guaranteed for the numeric
    // types fault plans are documented for.
    unsafe {
        let bytes = std::slice::from_raw_parts_mut(std::ptr::from_mut(&mut v).cast::<u8>(), size);
        bytes[size - 1] ^= 0x40;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_decides_nothing() {
        let p = FaultPlan::new(7);
        assert!(p.is_empty());
        for l in 0..64 {
            assert!(!p.launch_aborts(l));
            assert!(!p.straggles(l, 3));
            assert!(p.corruption(l, 16).is_none());
            assert!(!p.launch_lost(l, &mut None));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).launch_abort_p(0.5).corrupt_p(0.5);
        let b = FaultPlan::new(2).launch_abort_p(0.5).corrupt_p(0.5);
        let aborts_a: Vec<bool> = (0..256).map(|l| a.launch_aborts(l)).collect();
        let aborts_a2: Vec<bool> = (0..256).map(|l| a.launch_aborts(l)).collect();
        let aborts_b: Vec<bool> = (0..256).map(|l| b.launch_aborts(l)).collect();
        assert_eq!(aborts_a, aborts_a2);
        assert_ne!(aborts_a, aborts_b);
        let hits = aborts_a.iter().filter(|&&x| x).count();
        assert!((64..192).contains(&hits), "p=0.5 draw wildly off: {hits}");
    }

    #[test]
    fn launch_loss_windows() {
        let p = FaultPlan::new(0).loss(LossWindow::Launches { start: 3, count: 2 });
        let mut none = None;
        assert!(!p.launch_lost(2, &mut none));
        assert!(p.launch_lost(3, &mut none));
        assert!(p.launch_lost(4, &mut none));
        assert!(!p.launch_lost(5, &mut none));

        let p = FaultPlan::new(0).loss(LossWindow::Wall {
            start_after_launch: 1,
            duration: Duration::from_millis(20),
        });
        let mut started = None;
        assert!(!p.launch_lost(0, &mut started));
        assert!(started.is_none());
        assert!(p.launch_lost(1, &mut started), "window just opened");
        assert!(started.is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(!p.launch_lost(9, &mut started), "window elapsed");
    }

    #[test]
    fn corrupt_value_changes_numbers_detectably() {
        let x = 1234.5f64;
        let y: f64 = corrupt_value(x);
        assert_ne!(x, y);
        // The flip lands in the exponent: relative deviation is enormous,
        // never lost in rounding noise.
        assert!(
            (x - y).abs() / x.abs() > 0.5,
            "exponent flip must be large: {y}"
        );
        assert_eq!(corrupt_value(corrupt_value(x)), x, "involution");
        let i: i64 = corrupt_value(1i64);
        assert_ne!(i, 1);
    }

    #[test]
    fn corruption_target_is_in_grid() {
        let p = FaultPlan::new(9).corrupt_p(1.0);
        for l in 0..64 {
            let (victim, nth) = p.corruption(l, 5).expect("p=1");
            assert!(victim < 5);
            assert!(nth < CORRUPT_NTH);
        }
        assert!(p.corruption(0, 0).is_none(), "empty grid");
    }
}
