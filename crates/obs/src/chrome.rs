//! Chrome trace-event serialization and validation.
//!
//! The [trace-event format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! is the JSON Perfetto and `chrome://tracing` load: an object whose
//! `traceEvents` array holds one object per event, with `ph` (phase),
//! `ts` (timestamp, µs), `pid`/`tid` and `name`. We emit complete events
//! (`ph: "X"`, with `dur`), instant events (`ph: "i"`), counter samples
//! (`ph: "C"`, whose args are the series values Perfetto draws as
//! value-over-time tracks) and process-name metadata (`ph: "M"`) naming
//! the two clocks.

use std::fmt::Write as _;

use crate::json::{escape_into, finite, write_object, JsonValue};
use crate::span::{ArgValue, FlowPhase, Record, RecordKind, Track};

/// Tallies returned by [`validate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, including metadata.
    pub events: usize,
    /// Complete (`"X"`) events.
    pub complete: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Counter (`"C"`) events.
    pub counters: usize,
    /// Metadata (`"M"`) events.
    pub metadata: usize,
    /// Flow points (`"s"`, `"t"`, `"f"`).
    pub flows: usize,
}

/// Span and instant args lead with the record's `id` and `parent`.
fn write_args(out: &mut String, ev: &Record) {
    let (id, parent) = (ArgValue::U64(ev.id), ev.parent.map(ArgValue::U64));
    let head = [("id", Some(&id)), ("parent", parent.as_ref())];
    let head = head.into_iter().filter_map(|(k, v)| Some((k, v?)));
    out.push_str(",\"args\":");
    write_object(out, head.chain(ev.args.iter().map(|(k, v)| (*k, v))));
}

/// Counter events carry *only* the series values: an injected `id` key
/// would render as a bogus series in the Perfetto counter track.
fn write_counter_args(out: &mut String, ev: &Record) {
    out.push_str(",\"args\":");
    write_object(out, ev.args.iter().map(|(k, v)| (*k, v)));
}

fn write_event(out: &mut String, ev: &Record) {
    out.push_str("{\"name\":");
    escape_into(out, &ev.name);
    let _ = write!(
        out,
        ",\"pid\":{},\"tid\":{},\"ts\":{}",
        ev.track.pid,
        ev.track.tid,
        finite(ev.ts)
    );
    match ev.kind {
        RecordKind::Complete { dur } => {
            let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", finite(dur));
            write_args(out, ev);
        }
        RecordKind::Instant => {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            write_args(out, ev);
        }
        RecordKind::Counter => {
            out.push_str(",\"ph\":\"C\"");
            write_counter_args(out, ev);
        }
        RecordKind::Flow(phase) => {
            // For flow points `ev.id` is the flow id (the request id):
            // Perfetto binds the arrow chain by this top-level `id`, and
            // `bp:"e"` anchors each point to its *enclosing* slice rather
            // than the next slice on the thread.
            let ph = match phase {
                FlowPhase::Start => "s",
                FlowPhase::Step => "t",
                FlowPhase::End => "f",
            };
            let _ = write!(
                out,
                ",\"ph\":\"{ph}\",\"cat\":\"request\",\"id\":{},\"bp\":\"e\"",
                ev.id
            );
            write_counter_args(out, ev);
        }
    }
    out.push('}');
}

/// Serialize `events` as a bare JSON array (no metadata, no `traceEvents`
/// wrapper) — the shape [`crate::flight`] embeds inside post-mortem
/// bundles, still accepted by [`validate`].
pub(crate) fn serialize_slice(events: &[Record]) -> String {
    let mut out = String::with_capacity(2 + events.len() * 96);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, ev);
    }
    out.push(']');
    out
}

/// Serialize `events` (plus clock-naming metadata) as a Chrome trace JSON
/// object: `{"traceEvents":[…]}`.
pub(crate) fn serialize(events: &[Record]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, (pid, label)) in [
        (Track::WALL_PID, "wall clock"),
        (Track::SIM_PID, "simulated HMM clock (1 unit = 1us)"),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0,\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for ev in events {
        out.push(',');
        write_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

/// Check that `text` is valid Chrome trace-event JSON: it parses, events
/// are found under a top-level array or a `traceEvents` key, and every
/// event carries the required `name`, `ph`, `ts`, `pid`, `tid` (complete
/// events additionally `dur`; flow points additionally `id`). Returns
/// per-phase tallies.
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let v = JsonValue::parse(text)?;
    let events = match &v {
        JsonValue::Array(a) => a,
        JsonValue::Object(_) => v
            .get("traceEvents")
            .ok_or("top-level object lacks \"traceEvents\"")?
            .as_array()
            .ok_or("\"traceEvents\" is not an array")?,
        _ => return Err("top level is neither an array nor an object".to_string()),
    };
    validate_events(events)
}

/// The per-event validation core, over an already parsed event array.
/// [`crate::flight::validate`] reuses it on the trace slices a post-mortem
/// bundle embeds.
pub(crate) fn validate_events(events: &[JsonValue]) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("event {i}");
        let num = |key| ev.require(&ctx, key, JsonValue::as_f64);
        let ph = ev.require(&ctx, "ph", JsonValue::as_str)?;
        ev.require(&ctx, "name", JsonValue::as_str)?;
        for key in ["ts", "pid", "tid"] {
            num(key)?;
        }
        stats.events += 1;
        match ph {
            "X" => {
                num("dur")?;
                stats.complete += 1;
            }
            "i" | "I" => stats.instants += 1,
            "C" => {
                ev.require(&ctx, "args", Some)?;
                stats.counters += 1;
            }
            "M" => stats.metadata += 1,
            "s" | "t" | "f" => {
                num("id")?;
                stats.flows += 1;
            }
            _ => {}
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Obs, SpanId};

    #[test]
    fn empty_trace_is_valid_and_names_both_clocks() {
        let json = serialize(&[]);
        let stats = validate(&json).unwrap();
        assert_eq!(stats.metadata, 2);
        assert_eq!(stats.complete, 0);
        assert!(json.contains("wall clock"));
        assert!(json.contains("simulated HMM clock"));
    }

    #[test]
    fn serialized_events_round_trip_through_the_validator() {
        let events = vec![
            Record {
                name: "launch \"x\"\n".into(), // escaping exercise
                track: Track::wall(0),
                id: 1,
                parent: None,
                ts: 0.5,
                kind: RecordKind::Complete { dur: 10.0 },
                args: vec![
                    ("grid", ArgValue::U64(64)),
                    ("ratio", ArgValue::F64(0.25)),
                    ("algo", ArgValue::Str("1R1W".to_string())),
                ],
            },
            Record {
                name: "admit".into(),
                track: Track::wall(3),
                id: 2,
                parent: Some(1),
                ts: 1.0,
                kind: RecordKind::Instant,
                args: Vec::new(),
            },
        ];
        let json = serialize(&events);
        let stats = validate(&json).unwrap();
        assert_eq!(stats.events, 4); // 2 metadata + 2 events
        assert_eq!(stats.complete, 1);
        assert_eq!(stats.instants, 1);
        let v = JsonValue::parse(&json).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs[2].get("name").unwrap().as_str(), Some("launch \"x\"\n"));
        assert_eq!(
            evs[2].get("args").unwrap().get("algo").unwrap().as_str(),
            Some("1R1W")
        );
        assert_eq!(
            evs[3].get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn non_finite_values_degrade_to_zero_not_invalid_json() {
        let events = vec![Record {
            name: "bad".into(),
            track: Track::wall(0),
            id: 1,
            parent: None,
            ts: f64::NAN,
            kind: RecordKind::Complete { dur: f64::INFINITY },
            args: vec![("x", ArgValue::F64(f64::NEG_INFINITY))],
        }];
        let json = serialize(&events);
        validate(&json).unwrap();
    }

    #[test]
    fn validator_rejects_missing_required_keys() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"other\":1}").is_err());
        let missing_ts = "[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"dur\":1}]";
        let err = validate(missing_ts).unwrap_err();
        assert!(err.contains("ts"), "{err}");
        let missing_dur = "[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0}]";
        assert!(validate(missing_dur).is_err());
        // A bare array of well-formed events is accepted.
        let ok = "[{\"name\":\"x\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0}]";
        assert_eq!(validate(ok).unwrap().instants, 1);
    }

    #[test]
    fn flow_points_require_an_id() {
        let missing = "[{\"name\":\"request\",\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":0}]";
        let err = validate(missing).unwrap_err();
        assert!(err.contains("id"), "{err}");
        let ok = "[{\"name\":\"request\",\"ph\":\"f\",\"pid\":1,\"tid\":0,\"ts\":0,\"id\":9}]";
        assert_eq!(validate(ok).unwrap().flows, 1);
    }

    #[test]
    fn obs_output_is_schema_valid() {
        let obs = Obs::new();
        {
            let _s = obs.span(Track::wall(0), "outer");
        }
        obs.sim_span(0, "w0", 0, 9, Some(SpanId(1)), Vec::new());
        obs.emit(crate::Event::Degraded { request: 3 });
        let stats = validate(&obs.trace_json()).unwrap();
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.metadata, 2);
    }

    #[test]
    fn counter_events_carry_only_series_values() {
        let obs = Obs::new();
        obs.counter_event(
            Track::wall(0),
            "cost",
            12.0,
            &[("modeled", 5.0), ("measured", 7.5)],
        );
        let json = obs.trace_json();
        let stats = validate(&json).unwrap();
        assert_eq!(stats.counters, 1);
        let v = JsonValue::parse(&json).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let c = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .unwrap();
        let args = c.get("args").unwrap();
        assert_eq!(args.get("modeled").unwrap().as_f64(), Some(5.0));
        assert_eq!(args.get("measured").unwrap().as_f64(), Some(7.5));
        // No injected span-bookkeeping key: it would render as a series.
        assert!(args.get("id").is_none());
    }
}
