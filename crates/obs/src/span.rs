//! Structured spans on two clocks.
//!
//! An [`Obs`] handle collects begin/end events with parent ids and
//! process/thread attribution and serializes them as Chrome trace-event
//! JSON ([`Obs::trace_json`]). Events live on one of two *processes* in the
//! trace: [`Track::WALL_PID`] is the wall clock (microseconds since the
//! handle was created) and [`Track::SIM_PID`] is the simulated HMM clock
//! (one time unit rendered as one microsecond), so a real execution and its
//! `hmm-sim` replay overlay in a single Perfetto window.
//!
//! A disabled handle ([`Obs::disabled`]) is a `None`: every call is one
//! branch and a return — no clock read, no allocation, no lock.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::chrome;
use crate::event::Event;
use crate::flight::{FlightEvent, FlightRecorder};
use crate::registry::Registry;

/// Where an event lives in the trace: Chrome's process/thread pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Track {
    /// Trace process id. Processes separate *clocks* here, not OS processes.
    pub pid: u32,
    /// Trace thread id — the lane inside the clock (device stream, block,
    /// request lane, simulator window row).
    pub tid: u32,
}

impl Track {
    /// The wall-clock process.
    pub const WALL_PID: u32 = 1;
    /// The simulated-clock process (HMM time units).
    pub const SIM_PID: u32 = 2;

    /// A wall-clock lane.
    pub fn wall(tid: u32) -> Track {
        Track {
            pid: Self::WALL_PID,
            tid,
        }
    }

    /// A simulated-clock lane.
    pub fn sim(tid: u32) -> Track {
        Track {
            pid: Self::SIM_PID,
            tid,
        }
    }
}

/// Identifier of a recorded span, used to parent later events to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A span/instant argument value (rendered into the event's `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Which point of a flow arrow an event marks (Chrome trace `ph` values
/// `"s"`, `"t"` and `"f"`). Events sharing a flow id form one arrow chain
/// in Perfetto; the chain's id is the request id here, so a request can be
/// followed across processes and threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// The arrow's origin (`ph: "s"`).
    Start,
    /// An intermediate hop (`ph: "t"`).
    Step,
    /// The arrow's terminus (`ph: "f"`).
    End,
}

/// How a recorded event renders in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RecordKind {
    /// A complete span (`ph: "X"`) with a duration.
    Complete {
        /// Duration in the track's clock units.
        dur: f64,
    },
    /// An instant event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`): args are the series values.
    Counter,
    /// A flow point (`ph: "s"/"t"/"f"`). For flow events the [`Record::id`]
    /// field *is* the flow id (the request id), not a span-bookkeeping id —
    /// Perfetto binds arrows by that top-level `id`.
    Flow(FlowPhase),
}

/// One recorded trace event (crate-internal; serialized by [`chrome`]).
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub name: Cow<'static, str>,
    pub track: Track,
    pub id: u64,
    pub parent: Option<u64>,
    /// Timestamp in the track's clock (µs on wall, time units on sim).
    pub ts: f64,
    pub kind: RecordKind,
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    t0: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<Record>>,
    flight: FlightRecorder,
}

/// The observability handle: a cheaply clonable recorder of spans and home
/// of the metric [`Registry`], or a no-op shell when disabled.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// An enabled handle with a fresh registry.
    pub fn new() -> Obs {
        Self::with_registry(Registry::new())
    }

    /// An enabled handle recording into an existing registry (layers that
    /// share a registry expose one merged snapshot).
    pub fn with_registry(registry: Registry) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry,
                t0: Instant::now(),
                next_id: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                flight: FlightRecorder::new(crate::flight::DEFAULT_CAPACITY),
            })),
        }
    }

    /// The no-op handle: every recording call is a single branch.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The handle's registry (`None` when disabled).
    pub fn registry(&self) -> Option<Registry> {
        self.inner.as_ref().map(|i| i.registry.clone())
    }

    fn wall_us(inner: &ObsInner, at: Instant) -> f64 {
        at.saturating_duration_since(inner.t0).as_secs_f64() * 1e6
    }

    fn push(inner: &ObsInner, ev: Record) {
        inner.events.lock().expect("obs event lock").push(ev);
    }

    fn alloc_id(inner: &ObsInner) -> u64 {
        inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a wall-clock span ending when the guard drops.
    pub fn span(&self, track: Track, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        self.span_child(track, name, None)
    }

    /// Start a wall-clock span parented to `parent`.
    pub fn span_child(
        &self,
        track: Track,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
    ) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => SpanGuard {
                inner: Some(Arc::clone(inner)),
                track,
                name: name.into(),
                id: Self::alloc_id(inner),
                parent,
                start: Instant::now(),
                args: Vec::new(),
            },
        }
    }

    /// Record a counter sample (`ph: "C"`) at an explicit timestamp in the
    /// track's clock units (µs on wall, time units on sim). Counter events
    /// render as value-over-time tracks in Perfetto — one series per
    /// `(key, value)` pair — which is how modeled-vs-measured cost per
    /// phase is drawn next to the spans it annotates.
    pub fn counter_event(
        &self,
        track: Track,
        name: impl Into<Cow<'static, str>>,
        ts: f64,
        values: &[(&'static str, f64)],
    ) {
        if let Some(inner) = &self.inner {
            Self::push(
                inner,
                Record {
                    name: name.into(),
                    track,
                    id: Self::alloc_id(inner),
                    parent: None,
                    ts,
                    kind: RecordKind::Counter,
                    args: values.iter().map(|&(k, v)| (k, ArgValue::F64(v))).collect(),
                },
            );
        }
    }

    /// Record a flow point at an explicit timestamp in the track's clock
    /// units (µs on wall, time units on sim). `flow` is the arrow chain's
    /// id — the request id, here — shared by every point of the chain.
    ///
    /// Flow points must land *inside* a slice on the same track for
    /// Perfetto to anchor the arrow to it, which is why the timestamp is
    /// explicit: layers that retro-emit spans place the flow point at the
    /// span's midpoint.
    pub fn flow_at(
        &self,
        track: Track,
        name: impl Into<Cow<'static, str>>,
        phase: FlowPhase,
        flow: u64,
        ts: f64,
    ) {
        if let Some(inner) = &self.inner {
            Self::push(
                inner,
                Record {
                    name: name.into(),
                    track,
                    id: flow,
                    parent: None,
                    ts,
                    kind: RecordKind::Flow(phase),
                    args: Vec::new(),
                },
            );
        }
    }

    /// Record a flow point at a wall-clock instant ([`Self::flow_at`] with
    /// the instant translated to this handle's wall microseconds).
    pub fn flow_wall(
        &self,
        track: Track,
        name: impl Into<Cow<'static, str>>,
        phase: FlowPhase,
        flow: u64,
        at: Instant,
    ) {
        if let Some(inner) = &self.inner {
            let ts = Self::wall_us(inner, at);
            self.flow_at(track, name, phase, flow, ts);
        }
    }

    /// Emit one fact: one flight-ring slot plus, for every kind but
    /// launch begin/end (the `launch` span covers those), a Chrome instant
    /// on wall lane 0 whose args are the event's fields. Disabled, this is
    /// one branch: no clock read, no allocation. The ring write itself
    /// never allocates.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            let ts = Self::wall_us(inner, Instant::now());
            inner.flight.record(ts, &event);
            if !matches!(event, Event::LaunchBegin { .. } | Event::LaunchEnd { .. }) {
                Self::push(
                    inner,
                    Record {
                        name: Cow::Borrowed(event.name()),
                        track: Track::wall(0),
                        id: Self::alloc_id(inner),
                        parent: None,
                        ts,
                        kind: RecordKind::Instant,
                        args: event.args(),
                    },
                );
            }
        }
    }

    /// The flight recorder's surviving recent events, oldest first (empty
    /// when disabled).
    pub fn flight_recent(&self) -> Vec<FlightEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.flight.recent(),
        }
    }

    /// Run `f` over the recorded events (`None` when disabled). Used by
    /// [`crate::profile`] to reconstruct per-launch attribution from spans.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[Record]) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&inner.events.lock().expect("obs event lock")))
    }

    /// Record a completed wall-clock span from explicit instants (layers
    /// that already hold timestamps — e.g. a batcher attributing queue time
    /// per request — emit retroactively). Returns the span's id.
    pub fn wall_span_at(
        &self,
        track: Track,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let ts = Self::wall_us(inner, start);
        let dur = (Self::wall_us(inner, end) - ts).max(0.0);
        let id = Self::alloc_id(inner);
        Self::push(
            inner,
            Record {
                name: name.into(),
                track: Track {
                    pid: Track::WALL_PID,
                    tid: track.tid,
                },
                id,
                parent: parent.map(|p| p.0),
                ts,
                kind: RecordKind::Complete { dur },
                args,
            },
        );
        Some(SpanId(id))
    }

    /// Record a span on the **simulated clock** covering
    /// `[start_units, end_units]` of HMM time. Returns the span's id.
    pub fn sim_span(
        &self,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        start_units: u64,
        end_units: u64,
        parent: Option<SpanId>,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let id = Self::alloc_id(inner);
        Self::push(
            inner,
            Record {
                name: name.into(),
                track: Track::sim(tid),
                id,
                parent: parent.map(|p| p.0),
                ts: start_units as f64,
                kind: RecordKind::Complete {
                    dur: end_units.saturating_sub(start_units) as f64,
                },
                args,
            },
        );
        Some(SpanId(id))
    }

    /// Number of events recorded so far (0 when disabled).
    pub fn event_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.events.lock().expect("obs event lock").len(),
        }
    }

    /// Serialize everything recorded so far as Chrome trace-event JSON
    /// (an object with a `traceEvents` array, loadable in Perfetto or
    /// `chrome://tracing`). A disabled handle yields an empty trace.
    pub fn trace_json(&self) -> String {
        match &self.inner {
            None => chrome::serialize(&[]),
            Some(inner) => chrome::serialize(&inner.events.lock().expect("obs event lock")),
        }
    }
}

/// Guard of an in-progress span; records the complete event on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<ObsInner>>,
    track: Track,
    name: Cow<'static, str>,
    id: u64,
    parent: Option<SpanId>,
    start: Instant,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        // A dummy timestamp: never read, but `Instant` has no cheap zero.
        // `Instant::now` here would defeat the no-op path, so noop guards
        // share one lazily initialised instant.
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        SpanGuard {
            inner: None,
            track: Track::wall(0),
            name: Cow::Borrowed(""),
            id: 0,
            parent: None,
            start: *EPOCH.get_or_init(Instant::now),
            args: Vec::new(),
        }
    }

    /// This span's id, for parenting children (`None` when disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|_| SpanId(self.id))
    }

    /// Attach an argument (no-op when disabled).
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if self.inner.is_some() {
            self.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ts = Obs::wall_us(&inner, self.start);
            let dur = (Obs::wall_us(&inner, Instant::now()) - ts).max(0.0);
            Obs::push(
                &inner,
                Record {
                    name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                    track: self.track,
                    id: self.id,
                    parent: self.parent.map(|p| p.0),
                    ts,
                    kind: RecordKind::Complete { dur },
                    args: std::mem::take(&mut self.args),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        {
            let mut s = obs.span(Track::wall(0), "x");
            assert!(s.id().is_none());
            s.arg("k", ArgValue::U64(1));
        }
        obs.flow_at(Track::wall(0), "request", FlowPhase::Start, 7, 1.0);
        obs.emit(Event::Admit {
            request: 7,
            rows: 1,
            cols: 1,
        });
        assert_eq!(obs.event_count(), 0);
        assert!(obs.flight_recent().is_empty());
        assert_eq!(obs.trace_json(), chrome::serialize(&[]));
    }

    #[test]
    fn flow_points_share_the_flow_id() {
        let obs = Obs::new();
        obs.flow_at(Track::wall(1), "request", FlowPhase::Start, 42, 5.0);
        obs.flow_at(Track::wall(2), "request", FlowPhase::Step, 42, 10.0);
        obs.flow_at(Track::wall(3), "request", FlowPhase::End, 42, 15.0);
        let json = obs.trace_json();
        let stats = chrome::validate(&json).unwrap();
        assert_eq!(stats.flows, 3);
        let v = crate::json::JsonValue::parse(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        for ph in ["s", "t", "f"] {
            let e = events
                .iter()
                .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .unwrap_or_else(|| panic!("no {ph} flow point"));
            assert_eq!(e.get("id").unwrap().as_f64(), Some(42.0));
            assert_eq!(e.get("name").unwrap().as_str(), Some("request"));
        }
    }

    #[test]
    fn spans_nest_via_parent_ids() {
        let obs = Obs::new();
        let parent_id;
        {
            let parent = obs.span(Track::wall(0), "outer");
            parent_id = parent.id().unwrap();
            let child = obs.span_child(Track::wall(0), "inner", parent.id());
            assert_ne!(child.id().unwrap(), parent_id);
            drop(child);
        }
        assert_eq!(obs.event_count(), 2);
        let json = obs.trace_json();
        let v = crate::json::JsonValue::parse(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("inner"))
            .unwrap();
        assert_eq!(
            inner.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(parent_id.0 as f64)
        );
    }

    #[test]
    fn sim_spans_land_on_the_sim_process() {
        let obs = Obs::new();
        let id = obs
            .sim_span(3, "window", 10, 25, None, vec![("blocks", 4u64.into())])
            .unwrap();
        assert!(id.0 > 0);
        let json = obs.trace_json();
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":15"));
    }

    #[test]
    fn retro_wall_spans_use_caller_timestamps() {
        let obs = Obs::new();
        let start = Instant::now();
        let end = start + std::time::Duration::from_millis(2);
        obs.wall_span_at(Track::wall(7), "queued", start, end, None, Vec::new())
            .unwrap();
        let json = obs.trace_json();
        let v = crate::json::JsonValue::parse(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let e = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("queued"))
            .unwrap();
        let dur = e.get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 2000.0).abs() < 1.0, "dur={dur}µs");
    }

    #[test]
    fn timestamps_predating_the_handle_saturate_to_zero() {
        let start = Instant::now();
        let obs = Obs::new();
        let id = obs.wall_span_at(
            Track::wall(0),
            "early",
            start,
            Instant::now(),
            None,
            Vec::new(),
        );
        assert!(id.is_some());
        // ts clamps to 0 rather than panicking or going negative.
        let json = obs.trace_json();
        assert!(chrome::validate(&json).is_ok());
    }

    /// The issue's overhead budget: recording disabled must be a no-op fast
    /// path. One million disabled span open/close cycles must stay far from
    /// anything that reads a clock, locks, or allocates per call (budget is
    /// generous for debug builds; a real clock read alone would bust it).
    #[test]
    fn disabled_path_is_cheap() {
        let obs = Obs::disabled();
        let iters = 1_000_000u32;
        let t = Instant::now();
        for _ in 0..iters {
            let s = obs.span(Track::wall(0), "noop");
            drop(s);
        }
        let per_op = t.elapsed().as_nanos() as f64 / iters as f64;
        assert!(
            per_op < 1000.0,
            "disabled span path costs {per_op:.0} ns/op — no-op fast path regressed"
        );
        assert_eq!(obs.event_count(), 0);
        // Flight-recorder event recording shares the budget: disabled it is
        // the same single branch, with no clock read and no ring write.
        let t = Instant::now();
        for i in 0..iters {
            obs.emit(Event::Admit {
                request: i as u64,
                rows: 1,
                cols: 1,
            });
        }
        let per_op = t.elapsed().as_nanos() as f64 / iters as f64;
        assert!(
            per_op < 1000.0,
            "disabled flight path costs {per_op:.0} ns/op — no-op fast path regressed"
        );
        assert!(obs.flight_recent().is_empty());
    }
}
