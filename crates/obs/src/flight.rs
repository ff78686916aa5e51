//! The black-box flight recorder and post-mortem bundles.
//!
//! A `FlightRecorder` is a fixed-capacity ring of typed [`Event`]s —
//! admissions, rejections, batch formation, launch begin/end, injected
//! faults, breaker transitions, verification failures, handoff stalls, SLO
//! burn, shard loss and drift alerts — recorded from every layer through
//! [`crate::Obs::emit`]. Recording is lock-free and allocation-free (one
//! atomic ticket plus a fixed number of atomic word stores), so it is safe
//! on hot paths and inside panic handling; once the ring is full, new
//! events overwrite the oldest.
//!
//! On a trigger (breaker open, verification failure, a panic via
//! [`install_panic_hook`], or an SLO-burn threshold) [`dump`] writes a
//! schema-versioned post-mortem bundle: the surviving ring events with their
//! named fields, a metric registry snapshot, the last launch's trace slice
//! and the triggering request's flow — everything needed to reconstruct
//! "what was the system doing just before it went wrong" without a live
//! debugger. [`validate`] checks a bundle structurally the way
//! [`crate::chrome::validate`] checks a trace, and checks each event's
//! fields against its kind's entry in the event table.
//!
//! ## Ring without locks, without `unsafe`
//!
//! Each slot is a validity tag plus fixed payload words: the timestamp,
//! the kind code and the event's packed fields. A writer claims a ticket
//! (`head.fetch_add`), clears the slot's tag, writes the payload, then
//! publishes `ticket + 1` as the tag with release ordering. A reader knows
//! which ticket *should* occupy each slot (the ring is a pure function of
//! `head`), reads the tag before and after the payload, and keeps the slot
//! only when both reads equal the expected tag — a per-slot seqlock where
//! the sequence number doubles as the lap count, so a slot mid-overwrite or
//! from a stale lap is simply skipped rather than returned torn.

use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::chrome;
use crate::event::{Event, FIELD_WORDS};
use crate::json::{self, JsonValue};
use crate::span::{ArgValue, Obs, Record, RecordKind};

/// Schema identifier stamped into (and required from) every bundle.
/// v4 renders each event's payload as named, typed fields (v3 carried two
/// untyped words `a`/`b`).
pub const SCHEMA: &str = "sat-hmm/flight/v4";

/// Default ring capacity: enough for the last few hundred requests' worth
/// of lifecycle events while keeping the recorder under 96 KiB.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (the writer's ticket) — strictly increasing
    /// across the whole recorder lifetime, so gaps reveal overwritten
    /// history.
    pub seq: u64,
    /// Wall-clock microseconds since the owning [`Obs`] was created.
    pub ts_us: f64,
    /// What happened.
    pub event: Event,
}

/// Payload words per slot: timestamp, kind code, packed fields.
const PAYLOAD: usize = 2 + FIELD_WORDS;

/// A slot: validity tag + payload words. The tag holds `ticket + 1` when
/// the slot's contents are complete (0 = empty or mid-write).
struct Slot {
    tag: AtomicU64,
    payload: [AtomicU64; PAYLOAD],
}

/// The fixed-capacity lock-free ring. Owned by an enabled [`Obs`]; not
/// exposed directly — record through [`Obs::emit`], read through
/// [`Obs::flight_recent`].
pub(crate) struct FlightRecorder {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    tag: AtomicU64::new(0),
                    payload: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    pub(crate) fn record(&self, ts_us: f64, event: &Event) {
        let (code, words) = event.pack();
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Clear the tag *before* touching the payload. The acquire half of
        // the swap keeps the payload stores below from being hoisted above
        // the invalidation, so a reader can never pair fresh payload with
        // the previous lap's valid tag.
        slot.tag.swap(0, Ordering::AcqRel);
        let head = [ts_us.to_bits(), code];
        for (cell, word) in slot.payload.iter().zip(head.iter().chain(&words)) {
            cell.store(*word, Ordering::Relaxed);
        }
        // Publish: the release store orders every payload store before the
        // tag becomes visible. `+ 1` keeps ticket 0 distinguishable from
        // the empty tag.
        slot.tag.store(ticket + 1, Ordering::Release);
    }

    /// Snapshot the surviving events, oldest first. Slots being overwritten
    /// while we read are skipped (their tag no longer matches the expected
    /// ticket), so the result is always a set of *complete* events.
    pub(crate) fn recent(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket % cap) as usize];
            if slot.tag.load(Ordering::Acquire) != ticket + 1 {
                continue;
            }
            let words: [u64; PAYLOAD] =
                std::array::from_fn(|i| slot.payload[i].load(Ordering::Relaxed));
            // Seqlock re-check: the acquire fence keeps the payload loads
            // above from sinking below the second tag read. An unchanged
            // tag proves no writer touched the slot in between.
            fence(Ordering::Acquire);
            if slot.tag.load(Ordering::Relaxed) != ticket + 1 {
                continue;
            }
            let Some(event) = Event::unpack(words[1], &words[2..]) else {
                continue;
            };
            out.push(FlightEvent {
                seq: ticket,
                ts_us: f64::from_bits(words[0]),
                event,
            });
        }
        out
    }
}

/// A JSON array of objects, one per row of `(key, value)` members.
fn objects(rows: impl Iterator<Item = Vec<(&'static str, ArgValue)>>) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        json::write_object(&mut out, row.iter().map(|(k, v)| (*k, v)));
    }
    out.push(']');
    out
}

/// Render flight events as a JSON array (the `/debug/flight` endpoint body
/// and the bundle's `events` field): `seq`, `ts_us` and `kind`, then the
/// kind's named fields.
pub fn events_json(events: &[FlightEvent]) -> String {
    objects(events.iter().map(|e| {
        let head = [("seq", e.seq.into()), ("ts_us", e.ts_us.into())];
        let kind = ("kind", e.event.name().into());
        head.into_iter()
            .chain([kind])
            .chain(e.event.args())
            .collect()
    }))
}

/// Why a bundle was dumped.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Machine-readable reason: `breaker_open`, `verify_failure`, `panic`
    /// or `slo_burn`.
    pub reason: String,
    /// The triggering request's id (0 when the trigger is not
    /// request-scoped, e.g. a panic).
    pub request: u64,
    /// Free-form human detail.
    pub detail: String,
}

fn registry_json(obs: &Obs) -> String {
    let snap = obs.registry().map(|r| r.snapshot()).unwrap_or_default();
    let counters = snap
        .counters
        .iter()
        .map(|c| vec![("name", c.name.as_str().into()), ("total", c.total.into())]);
    let gauges = snap
        .gauges
        .iter()
        .map(|g| vec![("name", g.name.as_str().into()), ("value", g.value.into())]);
    let histograms = snap.histograms.iter().map(|h| {
        let stats = [
            ("count", h.count.into()),
            ("sum", h.sum.into()),
            ("max", h.max.into()),
        ];
        [("name", h.name.as_str().into())]
            .into_iter()
            .chain(stats)
            .collect()
    });
    format!(
        "{{\"counters\":{},\"gauges\":{},\"histograms\":{}}}",
        objects(counters),
        objects(gauges),
        objects(histograms)
    )
}

/// The last `launch` span plus everything parented (transitively) under
/// it. Flow points are excluded up front: their `id` is a *request* id
/// from a different namespace than span ids, so letting them into the
/// ancestor fixpoint could alias a span.
fn last_launch_slice(events: &[Record]) -> Vec<Record> {
    let spans: Vec<&Record> = events
        .iter()
        .filter(|e| !matches!(e.kind, RecordKind::Flow(_)))
        .collect();
    let launch = spans
        .iter()
        .rev()
        .find(|e| e.name == "launch" && matches!(e.kind, RecordKind::Complete { .. }));
    let Some(launch) = launch else {
        return Vec::new();
    };
    let mut keep: std::collections::HashSet<u64> = std::collections::HashSet::new();
    keep.insert(launch.id);
    // Parent links always point at earlier-allocated ids but events may be
    // recorded out of order (guards drop after their children); iterate to
    // a fixpoint over the whole list.
    loop {
        let before = keep.len();
        for e in &spans {
            if let Some(p) = e.parent {
                if keep.contains(&p) {
                    keep.insert(e.id);
                }
            }
        }
        if keep.len() == before {
            break;
        }
    }
    spans
        .into_iter()
        .filter(|e| keep.contains(&e.id))
        .cloned()
        .collect()
}

/// Every trace event belonging to `request`: its flow points (flow id =
/// request id) and any span/instant carrying a `request` arg equal to it.
fn request_flow_slice(events: &[Record], request: u64) -> Vec<Record> {
    if request == 0 {
        return Vec::new();
    }
    events
        .iter()
        .filter(|e| match e.kind {
            RecordKind::Flow(_) => e.id == request,
            _ => e
                .args
                .iter()
                .any(|(k, v)| *k == "request" && *v == ArgValue::U64(request)),
        })
        .cloned()
        .collect()
}

/// Compose a post-mortem bundle for `obs` as a JSON string (see [`SCHEMA`]
/// for the layout contract enforced by [`validate`]).
pub fn bundle(obs: &Obs, trigger: &Trigger) -> String {
    let events = obs.flight_recent();
    let (trace_slice, request_flow) = obs
        .with_events(|evs| {
            (
                chrome::serialize_slice(&last_launch_slice(evs)),
                chrome::serialize_slice(&request_flow_slice(evs, trigger.request)),
            )
        })
        .unwrap_or_else(|| ("[]".to_string(), "[]".to_string()));
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":");
    json::escape_into(&mut out, SCHEMA);
    out.push_str(",\"trigger\":{\"reason\":");
    json::escape_into(&mut out, &trigger.reason);
    out.push_str(&format!(",\"request\":{},\"detail\":", trigger.request));
    json::escape_into(&mut out, &trigger.detail);
    out.push_str("},\"events\":");
    out.push_str(&events_json(&events));
    out.push_str(",\"registry\":");
    out.push_str(&registry_json(obs));
    out.push_str(",\"trace_slice\":");
    out.push_str(&trace_slice);
    out.push_str(",\"request_flow\":");
    out.push_str(&request_flow);
    out.push('}');
    out
}

/// Process-wide dump counter: keeps bundle filenames unique without a
/// clock (and readable in creation order).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Compose and write a post-mortem bundle to
/// `dir/postmortem-<prefix>-<seq>-<reason>.json`, creating `dir` if
/// needed. Returns the written path.
pub fn dump(obs: &Obs, dir: &Path, prefix: &str, trigger: &Trigger) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "postmortem-{}-{seq:03}-{}.json",
        sanitize(prefix),
        sanitize(&trigger.reason)
    ));
    std::fs::write(&path, bundle(obs, trigger))?;
    Ok(path)
}

/// Install a panic hook that dumps a post-mortem bundle (reason `panic`)
/// before delegating to the previous hook. The handle is cloned into the
/// hook; the hook stays installed for the life of the process (or until
/// `std::panic::take_hook`).
pub fn install_panic_hook(obs: Obs, dir: PathBuf, prefix: String) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let trigger = Trigger {
            reason: "panic".to_string(),
            request: 0,
            detail: info.to_string(),
        };
        let _ = dump(&obs, &dir, &prefix, &trigger);
        previous(info);
    }));
}

/// Tallies returned by [`validate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Flight-recorder events in the bundle.
    pub events: usize,
    /// Trace events in the last-launch slice.
    pub trace_slice: usize,
    /// Trace events in the triggering request's flow.
    pub request_flow: usize,
}

/// Check that `text` is a well-formed post-mortem bundle: correct schema
/// tag, a trigger with reason/request/detail, flight events with known
/// kinds, every named field of their kind well-formed, and increasing
/// sequence numbers, a registry snapshot, and embedded trace slices that
/// pass the Chrome trace-event checks. A request-scoped trigger must come with a non-empty
/// `request_flow` — the bundle's whole point is linking the trigger to its
/// request's event chain.
pub fn validate(text: &str) -> Result<FlightStats, String> {
    let v = JsonValue::parse(text)?;
    let schema = v.require("bundle", "schema", JsonValue::as_str)?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
    }
    let trigger = v.get("trigger").ok_or("bundle lacks \"trigger\"")?;
    trigger.require("trigger", "reason", JsonValue::as_str)?;
    trigger.require("trigger", "detail", JsonValue::as_str)?;
    let trig_request = trigger.require("trigger", "request", JsonValue::as_f64)?;

    let events = v.require("bundle", "events", JsonValue::as_array)?;
    let mut last_seq = -1.0f64;
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("event {i}");
        let seq = e.require(&ctx, "seq", JsonValue::as_f64)?;
        if seq <= last_seq {
            return Err(format!("event {i}: seq {seq} not increasing"));
        }
        last_seq = seq;
        e.require(&ctx, "ts_us", JsonValue::as_f64)?;
        let kind = e.require(&ctx, "kind", JsonValue::as_str)?;
        let Some((_, fields)) = Event::KINDS.iter().find(|(name, _)| *name == kind) else {
            return Err(format!("event {i}: unknown kind {kind:?}"));
        };
        let ctx = format!("event {i} ({kind})");
        for (field, check) in fields.iter() {
            e.require(&ctx, field, |v| check(v).then_some(()))?;
        }
    }

    let registry = v.get("registry").ok_or("bundle lacks \"registry\"")?;
    for key in ["counters", "gauges", "histograms"] {
        registry.require("registry", key, JsonValue::as_array)?;
    }

    let trace_slice = v.require("bundle", "trace_slice", JsonValue::as_array)?;
    let slice_stats =
        chrome::validate_events(trace_slice).map_err(|e| format!("trace_slice invalid: {e}"))?;
    let request_flow = v.require("bundle", "request_flow", JsonValue::as_array)?;
    let flow_stats =
        chrome::validate_events(request_flow).map_err(|e| format!("request_flow invalid: {e}"))?;
    if trig_request > 0.0 && request_flow.is_empty() {
        return Err(format!(
            "trigger names request {trig_request} but request_flow is empty"
        ));
    }
    Ok(FlightStats {
        events: events.len(),
        trace_slice: slice_stats.events,
        request_flow: flow_stats.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BreakerState, FaultClass, Label, RejectReason};
    use crate::span::{FlowPhase, Track};

    fn admit(request: u64, rows: u64, cols: u64) -> Event {
        Event::Admit {
            request,
            rows,
            cols,
        }
    }

    #[test]
    fn ring_survives_wrap_and_keeps_order() {
        let r = FlightRecorder::new(8);
        for i in 0..20u64 {
            r.record(i as f64, &admit(i, i * 2, i * 3));
        }
        let events = r.recent();
        assert_eq!(events.len(), 8, "exactly one ring of survivors");
        // Oldest overwritten: the survivors are tickets 12..20 in order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        for e in &events {
            assert_eq!(e.event, admit(e.seq, e.seq * 2, e.seq * 3));
        }
    }

    #[test]
    fn concurrent_writers_never_tear() {
        // Each write's payload is a function of one value; any torn read
        // mixes two writes and breaks the relation. A small ring forces
        // constant wrapping.
        let r = FlightRecorder::new(16);
        let stop_flag = AtomicU64::new(0);
        let begin = |v: u64| Event::LaunchBegin {
            request: v,
            launch: v ^ 0xdead,
            grid: !v,
        };
        std::thread::scope(|s| {
            let reader = &r;
            let stop = &stop_flag;
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..5000u64 {
                        let v = t * 5000 + i;
                        r.record(v as f64, &begin(v));
                    }
                });
            }
            s.spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    for e in reader.recent() {
                        let v = e.ts_us as u64;
                        assert_eq!(e.event, begin(v), "torn slot: {e:?}");
                    }
                }
            });
            // Let the reader overlap the writers for a while, then stop it
            // (the scope joins everything on exit).
            std::thread::sleep(std::time::Duration::from_millis(20));
            stop.store(1, Ordering::Relaxed);
        });
        let final_events = r.recent();
        assert_eq!(final_events.len(), 16);
        for e in &final_events {
            assert_eq!(e.event, begin(e.ts_us as u64));
        }
    }

    /// One event of every kind, with `big` choosing maximal field values
    /// (`u64::MAX`, `true`, the last name, a full-length label) or minimal
    /// ones (zero, `false`, the first name, an empty label).
    fn every_kind(big: bool) -> Vec<Event> {
        let n = if big { u64::MAX } else { 0 };
        let cell = Label::new(if big {
            "(1+r^2)R1W/65536x65536@s123456789"
        } else {
            ""
        });
        let pick = |all: &[RejectReason]| all[if big { all.len() - 1 } else { 0 }];
        let to = if big {
            BreakerState::HalfOpen
        } else {
            BreakerState::Closed
        };
        let class = if big {
            FaultClass::Corruption
        } else {
            FaultClass::LaunchAbort
        };
        vec![
            admit(n, n, n),
            Event::Reject {
                request: n,
                reason: pick(RejectReason::ALL),
            },
            Event::BatchFormed {
                request: n,
                batch: n,
                width: n,
            },
            Event::LaunchBegin {
                request: n,
                launch: n,
                grid: n,
            },
            Event::LaunchEnd {
                request: n,
                launch: n,
                failed: big,
            },
            Event::FaultInjected { launch: n, class },
            Event::BreakerTransition {
                request: n,
                shard: n,
                to,
            },
            Event::VerifyFailure {
                request: n,
                attempt: n,
            },
            Event::HandoffStall {
                stages: n,
                residents: n,
            },
            Event::SloBurn {
                request: n,
                burn_ppm: n,
                threshold_ppm: n,
            },
            Event::DeviceLost {
                request: n,
                shard: n,
                fault_epoch: n,
            },
            Event::ShardFailover {
                request: n,
                shard: n,
                queued_tasks: n,
            },
            Event::DriftAlert {
                cell,
                shard: n,
                ratio_ppm: n,
                samples: n,
            },
            Event::AttemptFailed {
                request: n,
                shard: n,
                streak: n,
            },
            Event::Canary { shard: n, ok: big },
            Event::Degraded { request: n },
            Event::Complete {
                request: n,
                batch: n,
                width: n,
            },
            Event::Postmortem {
                request: n,
                bundles: n,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_the_ring_and_the_bundle() {
        let names: Vec<&str> = every_kind(true).iter().map(Event::name).collect();
        let table: Vec<&str> = Event::KINDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, table, "the test covers every kind, in code order");
        assert_eq!(
            every_kind(true)[12],
            Event::DriftAlert {
                cell: Label::new("(1+r^2)R1W/65536x65536@s12345678"),
                shard: u64::MAX,
                ratio_ppm: u64::MAX,
                samples: u64::MAX,
            },
            "the longest label keeps exactly Label::CAPACITY bytes"
        );
        for big in [true, false] {
            let sent = every_kind(big);
            let r = FlightRecorder::new(64);
            for (i, e) in sent.iter().enumerate() {
                r.record(i as f64, e);
            }
            let got: Vec<Event> = r.recent().into_iter().map(|e| e.event).collect();
            assert_eq!(got, sent);

            let obs = Obs::new();
            sent.iter().for_each(|&e| obs.emit(e));
            let trigger = Trigger {
                reason: "panic".to_string(),
                request: 0,
                detail: String::new(),
            };
            let text = bundle(&obs, &trigger);
            assert!(text.contains("sat-hmm/flight/v4"), "{text}");
            let stats = validate(&text).unwrap_or_else(|e| panic!("invalid bundle: {e}\n{text}"));
            assert_eq!(stats.events, sent.len());
            let v = JsonValue::parse(&text).unwrap();
            let drift = &v.get("events").unwrap().as_array().unwrap()[12];
            let Event::DriftAlert { cell, .. } = sent[12] else {
                unreachable!("kind 13 is drift_alert")
            };
            assert_eq!(drift.get("cell").unwrap().as_str(), Some(cell.as_str()));
        }
    }

    #[test]
    fn labels_truncate_on_a_char_boundary() {
        let long = "a".repeat(Label::CAPACITY + 8);
        assert_eq!(Label::new(&long).as_str(), &long[..Label::CAPACITY]);
        // A two-byte character straddling the capacity is dropped whole.
        let straddle = format!("{}é", "a".repeat(Label::CAPACITY - 1));
        assert_eq!(
            Label::new(&straddle).as_str(),
            &straddle[..Label::CAPACITY - 1]
        );
        assert_eq!(Label::new("1R1W/64x64\0junk").as_str(), "1R1W/64x64");
    }

    #[test]
    fn bundle_round_trips_through_validate() {
        let obs = Obs::new();
        let reg = obs.registry().unwrap();
        reg.counter("gpu_launches").add(3);
        reg.gauge("queue_depth").set(2.0);
        // A launch span with a child block span, and request-scoped events.
        let t0 = std::time::Instant::now();
        let launch = obs.wall_span_at(
            Track::wall(0),
            "launch",
            t0,
            t0 + std::time::Duration::from_micros(50),
            None,
            vec![("launch", 0u64.into())],
        );
        obs.wall_span_at(
            Track::wall(1),
            "block",
            t0,
            t0 + std::time::Duration::from_micros(10),
            launch,
            Vec::new(),
        );
        obs.flow_at(Track::wall(2), "request", FlowPhase::Start, 7, 1.0);
        obs.emit(admit(7, 4, 4));
        obs.emit(Event::BreakerTransition {
            request: 7,
            shard: 0,
            to: BreakerState::Open,
        });

        let trigger = Trigger {
            reason: "breaker_open".to_string(),
            request: 7,
            detail: "3 consecutive launch failures".to_string(),
        };
        let text = bundle(&obs, &trigger);
        let stats = validate(&text).unwrap_or_else(|e| panic!("invalid bundle: {e}\n{text}"));
        assert_eq!(stats.events, 2);
        assert_eq!(stats.trace_slice, 2, "launch + child block");
        assert_eq!(
            stats.request_flow, 3,
            "the emitted admit and breaker instants + the flow point"
        );
        assert!(text
            .contains("\"kind\":\"breaker_transition\",\"request\":7,\"shard\":0,\"to\":\"open\""));
    }

    #[test]
    fn fleet_kinds_round_trip_through_bundle() {
        let obs = Obs::new();
        obs.emit(Event::DeviceLost {
            request: 9,
            shard: 2,
            fault_epoch: 41,
        });
        obs.emit(Event::ShardFailover {
            request: 9,
            shard: 2,
            queued_tasks: 3,
        });
        let trigger = Trigger {
            reason: "shard_failover".to_string(),
            request: 9,
            detail: "shard 2 lost; 3 tasks left for the survivors".to_string(),
        };
        let text = bundle(&obs, &trigger);
        assert!(text.contains("\"device_lost\""), "{text}");
        assert!(text.contains("\"shard_failover\""), "{text}");
        assert!(text.contains("sat-hmm/flight/v4"), "{text}");
        let stats = validate(&text).unwrap_or_else(|e| panic!("invalid bundle: {e}\n{text}"));
        assert_eq!(stats.events, 2);
    }

    #[test]
    fn ring_wrap_preserves_drift_alert_events() {
        // A DriftAlert recorded before a flood of lifecycle events must
        // survive as long as it is within the last ring-capacity tickets,
        // and its fields (cell, shard, τ ratio ppm, cell samples) must
        // round-trip through the bundle.
        let drift_alert = Event::DriftAlert {
            cell: Label::new("1R1W/64x64@s1"),
            shard: 1,
            ratio_ppm: 4_200_000,
            samples: 37,
        };
        let r = FlightRecorder::new(8);
        for i in 0..3u64 {
            r.record(i as f64, &admit(i + 1, 0, 0)); // overwritten
        }
        for i in 0..6u64 {
            let end = Event::LaunchEnd {
                request: i + 4,
                launch: i,
                failed: false,
            };
            r.record((i + 3) as f64, &end);
        }
        r.record(9.0, &drift_alert);
        let burn = Event::SloBurn {
            request: 9,
            burn_ppm: 1_500_000,
            threshold_ppm: 1_000_000,
        };
        r.record(10.0, &burn);
        let events = r.recent();
        assert_eq!(events.len(), 8, "exactly one ring of survivors");
        assert!(
            events
                .iter()
                .all(|e| !matches!(e.event, Event::Admit { .. })),
            "oldest events must be overwritten: {events:?}"
        );
        let drift = events
            .iter()
            .find_map(|e| match e.event {
                Event::DriftAlert {
                    ratio_ppm, samples, ..
                } => Some((ratio_ppm, samples)),
                _ => None,
            })
            .expect("drift alert survives the wrap");
        assert_eq!(drift.0, 4_200_000);
        assert_eq!(drift.1, 37);

        let obs = Obs::new();
        obs.emit(drift_alert);
        let text = bundle(
            &obs,
            &Trigger {
                reason: "drift".to_string(),
                request: 0,
                detail: "sustained model drift".to_string(),
            },
        );
        assert!(
            text.contains("\"kind\":\"drift_alert\",\"cell\":\"1R1W/64x64@s1\",\"shard\":1"),
            "{text}"
        );
        let stats = validate(&text).unwrap_or_else(|e| panic!("invalid bundle: {e}\n{text}"));
        assert_eq!(stats.events, 1);
    }

    #[test]
    fn validate_rejects_structural_breakage() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"schema\":\"wrong\"}").is_err());
        let no_flow = format!(
            "{{\"schema\":\"{SCHEMA}\",\
             \"trigger\":{{\"reason\":\"breaker_open\",\"request\":5,\"detail\":\"\"}},\
             \"events\":[],\"registry\":{{\"counters\":[],\"gauges\":[],\"histograms\":[]}},\
             \"trace_slice\":[],\"request_flow\":[]}}"
        );
        let err = validate(&no_flow).unwrap_err();
        assert!(err.contains("request_flow"), "{err}");
        let with_event = |event: &str| {
            format!(
                "{{\"schema\":\"{SCHEMA}\",\
                 \"trigger\":{{\"reason\":\"panic\",\"request\":0,\"detail\":\"\"}},\
                 \"events\":[{{\"seq\":0,\"ts_us\":1,{event}}}],\
                 \"registry\":{{\"counters\":[],\"gauges\":[],\"histograms\":[]}},\
                 \"trace_slice\":[],\"request_flow\":[]}}"
            )
        };
        let ok = with_event("\"kind\":\"reject\",\"request\":0,\"reason\":\"deadline\"");
        validate(&ok).unwrap_or_else(|e| panic!("{e}"));
        let bad_kind = with_event("\"kind\":\"nope\",\"request\":0,\"a\":0,\"b\":0");
        assert!(validate(&bad_kind).unwrap_err().contains("unknown kind"));
        let v3_words = with_event("\"kind\":\"reject\",\"request\":0,\"a\":4,\"b\":0");
        let err = validate(&v3_words).unwrap_err();
        assert!(err.contains("lacks required key \"reason\""), "{err}");
        let bad_reason = with_event("\"kind\":\"reject\",\"request\":0,\"reason\":\"bored\"");
        let err = validate(&bad_reason).unwrap_err();
        assert!(err.contains("\"reason\" is malformed"), "{err}");
    }

    #[test]
    fn dump_writes_a_validating_file() {
        let obs = Obs::new();
        obs.emit(Event::VerifyFailure {
            request: 3,
            attempt: 1,
        });
        let dir = std::env::temp_dir().join(format!("obs-flight-dump-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let trigger = Trigger {
            reason: "verify_failure".to_string(),
            request: 3,
            detail: "checksum mismatch".to_string(),
        };
        let path = dump(&obs, &dir, "test", &trigger).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(name.starts_with("postmortem-test-"), "{name}");
        assert!(name.ends_with("-verify_failure.json"), "{name}");
        let text = std::fs::read_to_string(&path).unwrap();
        validate(&text).unwrap_or_else(|e| panic!("invalid dumped bundle: {e}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_hook_dumps_before_delegating() {
        let obs = Obs::new();
        obs.emit(Event::LaunchBegin {
            request: 0,
            launch: 4,
            grid: 16,
        });
        let dir = std::env::temp_dir().join(format!("obs-panic-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        install_panic_hook(obs, dir.clone(), "hooked".to_string());
        let result = std::panic::catch_unwind(|| panic!("boom"));
        // Restore the default hook before asserting, so a failing assert
        // below does not re-enter the dump path.
        let _ = std::panic::take_hook();
        assert!(result.is_err());
        let mut bundles: Vec<_> = std::fs::read_dir(&dir)
            .expect("dump dir exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        bundles.sort();
        assert!(!bundles.is_empty(), "panic produced no bundle");
        let text = std::fs::read_to_string(&bundles[0]).unwrap();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(
            v.get("trigger").unwrap().get("reason").unwrap().as_str(),
            Some("panic")
        );
        validate(&text).unwrap_or_else(|e| panic!("invalid panic bundle: {e}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
