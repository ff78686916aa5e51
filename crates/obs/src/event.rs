//! The typed event: one [`Event`] per observed fact.
//!
//! A layer reports a fact (an admission, a rejection, a breaker
//! transition, a drift alert) by building one `Event` and handing it to
//! [`Obs::emit`](crate::Obs::emit). The variant carries the fact's payload
//! as named, typed fields. The `events!` table below is the only place a
//! kind's name, ring code and field list are spelled. The flight ring packs
//! the fields into fixed words, the Chrome trace renders them as an
//! instant's args, bundles and `/debug/flight` render them as named JSON
//! fields, and [`flight::validate`](crate::flight::validate) checks each
//! kind's fields against the same table.

use std::fmt;
use std::slice::{Iter, IterMut};

use crate::json::JsonValue;
use crate::span::ArgValue;

/// Payload words one packed event may use: the widest kind,
/// `drift_alert`, takes four label words plus two numbers.
pub(crate) const FIELD_WORDS: usize = 6;

/// A field type: how it packs into ring words, renders and validates.
trait Field: Sized {
    fn pack(&self, out: &mut IterMut<'_, u64>);
    fn unpack(words: &mut Iter<'_, u64>) -> Option<Self>;
    fn value(&self) -> ArgValue;
    /// Whether a bundle's JSON value is well-formed for this field.
    fn check(v: &JsonValue) -> bool;
}

fn put(out: &mut IterMut<'_, u64>, word: u64) {
    *out.next().expect("FIELD_WORDS fits every kind") = word;
}

impl Field for u64 {
    fn pack(&self, out: &mut IterMut<'_, u64>) {
        put(out, *self);
    }
    fn unpack(words: &mut Iter<'_, u64>) -> Option<u64> {
        words.next().copied()
    }
    fn value(&self) -> ArgValue {
        ArgValue::U64(*self)
    }
    fn check(v: &JsonValue) -> bool {
        v.as_f64().is_some()
    }
}

impl Field for bool {
    fn pack(&self, out: &mut IterMut<'_, u64>) {
        put(out, u64::from(*self));
    }
    fn unpack(words: &mut Iter<'_, u64>) -> Option<bool> {
        let word = *words.next()?;
        (word <= 1).then_some(word == 1)
    }
    fn value(&self) -> ArgValue {
        ArgValue::Bool(*self)
    }
    fn check(v: &JsonValue) -> bool {
        v.as_bool().is_some()
    }
}

/// A closed set of named values, packed as its index and rendered as its
/// name.
macro_rules! names {
    ($(#[$doc:meta])* $ty:ident { $($(#[$vdoc:meta])* $v:ident = $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vdoc])* $v,)*
        }

        impl $ty {
            /// Every value, in packing order.
            pub const ALL: &'static [$ty] = &[$($ty::$v),*];

            /// Stable name, used in bundles, trace args and metric labels.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$v => $name,)*
                }
            }
        }

        impl Field for $ty {
            fn pack(&self, out: &mut IterMut<'_, u64>) {
                put(out, *self as u64);
            }
            fn unpack(words: &mut Iter<'_, u64>) -> Option<$ty> {
                words.next().and_then(|&w| $ty::ALL.get(w as usize).copied())
            }
            fn value(&self) -> ArgValue {
                ArgValue::from(self.name())
            }
            fn check(v: &JsonValue) -> bool {
                v.as_str().is_some_and(|s| $ty::ALL.iter().any(|x| x.name() == s))
            }
        }
    };
}

names! {
    /// Why the service turned a request away. The names are the
    /// `sat_service_rejected_total{reason=…}` label values.
    RejectReason {
        /// The queue stayed full past the request's deadline.
        QueueFull = "queue_full",
        /// Submitted after shutdown began.
        Shutdown = "shutdown",
        /// Malformed (an empty matrix).
        Invalid = "invalid",
        /// The deadline expired while the request was queued.
        Deadline = "deadline",
        /// Still queued when the service shut down.
        ShutdownDrain = "shutdown_drain",
    }
}

names! {
    /// A circuit breaker's state. The names are the
    /// `sat_service_breaker_transitions_total{to=…}` label values and the
    /// `/healthz` breaker field.
    BreakerState {
        /// Healthy: the device takes work.
        Closed = "closed",
        /// Tripped: the device sits out until its cooldown elapses.
        Open = "open",
        /// Cooled down: one canary probe decides.
        HalfOpen = "half_open",
    }
}

names! {
    /// An injected device fault's class. The names are the fault-event
    /// kinds; the `gpu_fault_injections{kind=…}` labels spell them with
    /// `_` for `-`.
    FaultClass {
        /// A launch aborted, skipping some of its blocks.
        LaunchAbort = "launch-abort",
        /// A launch fell into the device-loss window; no block ran.
        DeviceLoss = "device-loss",
        /// A block started late.
        Straggler = "straggler",
        /// One element store was silently corrupted.
        Corruption = "corruption",
    }
}

/// A short inline label (a conformance cell such as `1R1W/64x64`),
/// stored in four ring words so an event carrying it stays fixed-size and
/// allocation-free. [`Label::new`] keeps the longest prefix of at most
/// [`Label::CAPACITY`] bytes that ends on a character boundary and
/// contains no NUL.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Label([u8; Label::CAPACITY]);

impl Label {
    /// Bytes a label holds.
    pub const CAPACITY: usize = 32;

    /// The label of `s`, truncated to fit (see the type docs).
    pub fn new(s: &str) -> Label {
        let s = s.split('\0').next().unwrap_or("");
        let mut end = s.len().min(Self::CAPACITY);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; Self::CAPACITY];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        Label(bytes)
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        let text = self.0.split(|&b| b == 0).next().unwrap_or_default();
        std::str::from_utf8(text).unwrap_or_default()
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Field for Label {
    fn pack(&self, out: &mut IterMut<'_, u64>) {
        for chunk in self.0.chunks_exact(8) {
            put(out, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
    }
    fn unpack(words: &mut Iter<'_, u64>) -> Option<Label> {
        let mut bytes = [0u8; Self::CAPACITY];
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&words.next()?.to_le_bytes());
        }
        // Only the canonical encoding (valid UTF-8, zero padding) decodes.
        let label = Label(bytes);
        (Label::new(label.as_str()) == label).then_some(label)
    }
    fn value(&self) -> ArgValue {
        ArgValue::from(self.as_str())
    }
    fn check(v: &JsonValue) -> bool {
        v.as_str().is_some_and(|s| s.len() <= Self::CAPACITY)
    }
}

/// A kind's field names with their JSON checks, for [`Event::KINDS`].
type FieldChecks = &'static [(&'static str, fn(&JsonValue) -> bool)];

macro_rules! events {
    ($($(#[$doc:meta])* $variant:ident = $code:literal $name:literal { $($field:ident: $ty:ty),* })*) => {
        /// One observed fact with its payload as named fields, emitted once
        /// through [`Obs::emit`](crate::Obs::emit). Each variant's docs
        /// describe its fields.
        #[allow(missing_docs)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($field: $ty),* },)*
        }

        impl Event {
            /// Every kind's name and fields, in code order: the schema
            /// [`crate::flight::validate`] checks bundles against.
            pub(crate) const KINDS: &'static [(&'static str, FieldChecks)] = &[
                $(($name, &[$((stringify!($field), <$ty as Field>::check)),*]),)*
            ];

            /// Stable lower-snake name: the bundle `kind` and the Chrome
            /// instant's name.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $name,)*
                }
            }

            /// The fields as `(name, value)` pairs, in declaration order:
            /// the Chrome instant's args and the bundle's JSON members.
            pub(crate) fn args(&self) -> Vec<(&'static str, ArgValue)> {
                match self {
                    $(Event::$variant { $($field),* } => vec![$((stringify!($field), $field.value())),*],)*
                }
            }

            /// The ring code and the packed field words.
            pub(crate) fn pack(&self) -> (u64, [u64; FIELD_WORDS]) {
                let mut words = [0; FIELD_WORDS];
                let out = &mut words.iter_mut();
                let code = match self {
                    $(Event::$variant { $($field),* } => {
                        $($field.pack(out);)*
                        $code
                    })*
                };
                (code, words)
            }

            /// The event a ring code and its words encode (`None` for an
            /// unknown code or a malformed field).
            pub(crate) fn unpack(code: u64, words: &[u64]) -> Option<Event> {
                let words = &mut words.iter();
                Some(match code {
                    $($code => Event::$variant { $($field: <$ty as Field>::unpack(words)?),* },)*
                    _ => return None,
                })
            }
        }
    };
}

events! {
    /// A request was admitted: `request` is the id minted at admission,
    /// `rows` × `cols` the image shape.
    Admit = 1 "admit" { request: u64, rows: u64, cols: u64 }
    /// A request was turned away; `request` is 0 when it was rejected
    /// before an id was minted.
    Reject = 2 "reject" { request: u64, reason: RejectReason }
    /// Same-shape requests formed dispatch number `batch` of `width`
    /// requests, `request` the first.
    BatchFormed = 3 "batch_formed" { request: u64, batch: u64, width: u64 }
    /// A device launch (index `launch` since construction) of `grid` blocks
    /// began; `request` is the first request it computes (0 when none).
    /// No trace instant: the `launch` span covers it.
    LaunchBegin = 4 "launch_begin" { request: u64, launch: u64, grid: u64 }
    /// A device launch ended; `failed` when an injected fault aborted or
    /// lost it. No trace instant: the `launch` span covers it.
    LaunchEnd = 5 "launch_end" { request: u64, launch: u64, failed: bool }
    /// A device fault of `class` was injected into launch `launch`.
    FaultInjected = 6 "fault_injected" { launch: u64, class: FaultClass }
    /// The device's circuit breaker moved `to` a new state during
    /// `request`'s dispatch.
    BreakerTransition = 7 "breaker_transition" { request: u64, to: BreakerState }
    /// `request`'s result from dispatch attempt `attempt` (1-based) failed
    /// SAT verification.
    VerifyFailure = 8 "verify_failure" { request: u64, attempt: u64 }
    /// A persistent launch-once 1R1W run with `residents` resident blocks
    /// failed and fell back to one launch for each of its `stages`
    /// anti-diagonals.
    HandoffStall = 9 "handoff_stall" { stages: u64, residents: u64 }
    /// SLO error-budget burn reached the post-mortem threshold after the
    /// batch led by `request`; both rates in parts per million
    /// (1 000 000 = spending the budget exactly).
    SloBurn = 10 "slo_burn" { request: u64, burn_ppm: u64, threshold_ppm: u64 }
    /// The device's breaker opened mid-dispatch of `request`: the device is
    /// lost (at fault epoch `fault_epoch`) until a canary re-closes it.
    DeviceLost = 11 "device_lost" { request: u64, fault_epoch: u64 }
    /// The conformance observatory latched a drift alert on `cell` (the
    /// `/debug/conformance` label): measured over baseline τ is `ratio_ppm`
    /// parts per million after `samples` cell samples.
    DriftAlert = 12 "drift_alert" { cell: Label, ratio_ppm: u64, samples: u64 }
    /// An attempt at `request`'s dispatch failed on the device, its
    /// `streak`-th consecutive failure.
    AttemptFailed = 13 "attempt_failed" { request: u64, streak: u64 }
    /// A half-open breaker's canary probe of the device ran; `ok` when it
    /// passed.
    Canary = 14 "canary" { ok: bool }
    /// `request` completed on the sequential CPU path instead of a device.
    Degraded = 15 "degraded" { request: u64 }
    /// Dispatch number `batch` answered all `width` of its requests,
    /// `request` the first.
    Complete = 16 "complete" { request: u64, batch: u64, width: u64 }
    /// A post-mortem bundle was dumped for a trigger naming `request` (0
    /// when not request-scoped); `bundles` counts the bundles dumped so
    /// far, as `/healthz` reports them.
    Postmortem = 17 "postmortem" { request: u64, bundles: u64 }
}
