//! Request-scoped observability integration tests: terminal `request`
//! spans on every early-exit path, the flow chain, the telemetry HTTP
//! listener, and post-mortem dumping.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gpu_exec::{FaultPlan, LossWindow};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::Matrix;
use sat_service::{
    PostmortemConfig, ResilienceConfig, Service, ServiceConfig, ServiceError, SloConfig,
    TelemetryConfig,
};

fn image(seed: usize) -> Matrix<f64> {
    Matrix::from_fn(16, 16, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

/// Every `request` span in the trace as `(request_id, status)`.
fn request_spans(json: &str) -> Vec<(u64, String)> {
    let parsed = obs::json::JsonValue::parse(json).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("request")
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        })
        .map(|e| {
            let args = e.get("args").expect("request spans carry args");
            (
                args.get("request").unwrap().as_f64().unwrap() as u64,
                args.get("status").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// Flow points in the trace as `(phase, flow_id)`.
fn flow_points(json: &str) -> Vec<(String, u64)> {
    let parsed = obs::json::JsonValue::parse(json).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    events
        .iter()
        .filter_map(|e| {
            let ph = e.get("ph")?.as_str()?;
            if !matches!(ph, "s" | "t" | "f") {
                return None;
            }
            Some((ph.to_string(), e.get("id")?.as_f64()? as u64))
        })
        .collect()
}

#[test]
fn deadline_expiry_closes_the_request_span_with_terminal_status() {
    let obs = obs::Obs::new();
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(0),
        // Nothing dispatches on its own: the only exit is the deadline.
        max_linger: Duration::from_secs(3600),
        observer: obs.clone(),
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let err = service
        .client()
        .submit(
            image(0),
            SatAlgorithm::OneR1W,
            Some(Duration::from_millis(40)),
        )
        .expect_err("deadline must expire while queued");
    assert_eq!(err, ServiceError::DeadlineExceeded);
    let stats = service.shutdown();
    assert_eq!(stats.rejected_deadline, 1);

    let json = obs.trace_json();
    obs::chrome::validate(&json).expect("valid trace");
    let spans = request_spans(&json);
    assert_eq!(spans.len(), 1, "exactly one request span: {spans:?}");
    let (id, status) = &spans[0];
    assert!(*id > 0);
    assert_eq!(status, "deadline_expired");
    // The flow chain still has both endpoints even though the request
    // never reached a device.
    let flows = flow_points(&json);
    assert!(flows.contains(&("s".to_string(), *id)), "{flows:?}");
    assert!(flows.contains(&("f".to_string(), *id)), "{flows:?}");
    // And the flight recorder saw the admission and the rejection.
    let flight = obs.flight_recent();
    assert!(flight
        .iter()
        .any(|e| matches!(e.event, obs::Event::Admit { request, .. } if request == *id)));
    assert!(flight
        .iter()
        .any(|e| matches!(e.event, obs::Event::Reject { request, .. } if request == *id)));
}

#[test]
fn shutdown_drain_closes_every_queued_request_span() {
    let obs = obs::Obs::new();
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(0),
        max_linger: Duration::from_secs(3600),
        max_batch: 64,
        observer: obs.clone(),
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let mut handles = Vec::new();
    for t in 0..3usize {
        let client = service.client();
        handles.push(std::thread::spawn(move || {
            client.submit(image(t), SatAlgorithm::OneR1W, None)
        }));
    }
    while service.stats().submitted < 3 {
        std::thread::yield_now();
    }
    let stats = service.shutdown();
    for h in handles {
        assert_eq!(h.join().unwrap().err(), Some(ServiceError::Shutdown));
    }
    assert_eq!(stats.rejected_shutdown_drain, 3);

    let json = obs.trace_json();
    obs::chrome::validate(&json).expect("valid trace");
    let spans = request_spans(&json);
    assert_eq!(spans.len(), 3, "{spans:?}");
    assert!(spans.iter().all(|(_, s)| s == "shutdown_drain"));
    let flows = flow_points(&json);
    for (id, _) in &spans {
        assert!(flows.contains(&("s".to_string(), *id)));
        assert!(flows.contains(&("f".to_string(), *id)));
    }
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("telemetry listener up");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let code: u16 = resp
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

#[test]
fn telemetry_listener_serves_metrics_health_and_flight() {
    let obs = obs::Obs::new();
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(0),
        max_linger: Duration::from_micros(200),
        observer: obs.clone(),
        telemetry: TelemetryConfig {
            listen: Some("127.0.0.1:0".to_string()),
        },
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let addr = service.telemetry_addr().expect("listener configured");
    service
        .client()
        .submit(image(1), SatAlgorithm::OneR1W, None)
        .expect("accepted");

    // /metrics serves exactly the bytes of metrics_text, exemplar included.
    let (code, body) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_eq!(body, service.metrics_text(), "byte-identical exposition");
    assert!(body.contains("sat_service_completed_total 1"));
    assert!(body.contains(" # {request_id=\""), "exemplar present");

    // /healthz reflects breaker + queue state as JSON.
    let (code, health) = http_get(addr, "/healthz");
    assert_eq!(code, 200);
    let v = obs::json::JsonValue::parse(&health).expect("health is JSON");
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("breaker").unwrap().as_str(), Some("closed"));
    assert_eq!(v.get("queue_depth").unwrap().as_f64(), Some(0.0));
    assert_eq!(v.get("shutting_down").unwrap().as_bool(), Some(false));

    // /debug/flight returns the recorder's recent structured events.
    let (code, flight) = http_get(addr, "/debug/flight");
    assert_eq!(code, 200);
    let v = obs::json::JsonValue::parse(&flight).expect("flight is JSON");
    let events = v.get("events").unwrap().as_array().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(|k| k.as_str()) == Some("admit")),
        "{flight}"
    );

    let (code, _) = http_get(addr, "/nope");
    assert_eq!(code, 404);

    // Graceful shutdown: the listener is joined and the port closed.
    service.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed with the service"
    );
}

#[test]
fn shutdown_with_open_breaker_fails_queued_requests_fast_and_closes_telemetry() {
    // A dead device opens the breaker; the cooldown is far away, so a
    // canary probe is pending but cannot run. Shutdown must not wait for
    // it: requests still queued drain immediately with `Shutdown`, and
    // the telemetry port closes with the service.
    let plan = FaultPlan::new(4).loss(LossWindow::Launches {
        start: 0,
        count: u64::MAX,
    });
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        max_batch: 4,
        // Partial batches never linger out: requests that don't fill a
        // batch stay queued until shutdown drains them.
        max_linger: Duration::from_secs(3600),
        fault_plan: Some(plan),
        resilience: ResilienceConfig {
            breaker_cooldown: Duration::from_secs(600),
            ..ResilienceConfig::default()
        },
        telemetry: TelemetryConfig {
            listen: Some("127.0.0.1:0".to_string()),
        },
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let addr = service.telemetry_addr().expect("listener configured");

    // A full batch dispatches at once, trips the breaker on the dead
    // device, and completes on the CPU path.
    let mut full_batch = Vec::new();
    for t in 0..4usize {
        let client = service.client();
        full_batch.push(std::thread::spawn(move || {
            client.submit(image(t), SatAlgorithm::OneR1W, None)
        }));
    }
    for h in full_batch {
        h.join().unwrap().expect("degraded requests still complete");
    }
    assert!(service.stats().breaker_opened >= 1, "breaker must be open");

    // Two more requests can't fill a batch: they sit in the queue while
    // the breaker is open and the canary probe is pending.
    let mut queued = Vec::new();
    for t in 4..6usize {
        let client = service.client();
        queued.push(std::thread::spawn(move || {
            client.submit(image(t), SatAlgorithm::OneR1W, None)
        }));
    }
    while service.stats().submitted < 6 {
        std::thread::yield_now();
    }

    let stats = service.shutdown();
    for h in queued {
        assert_eq!(h.join().unwrap().err(), Some(ServiceError::Shutdown));
    }
    assert_eq!(stats.rejected_shutdown_drain, 2);
    assert_eq!(stats.completed, 4);
    assert_eq!(
        stats.canary_probes, 0,
        "the pending probe never ran: {stats:?}"
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "telemetry port closed with the service"
    );
}

#[test]
fn breaker_open_dumps_exactly_one_validating_postmortem_bundle() {
    let dir = std::env::temp_dir().join(format!("sat-postmortem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let obs = obs::Obs::new();
    let plan = FaultPlan::new(9).loss(LossWindow::Wall {
        start_after_launch: 0,
        duration: Duration::from_millis(50),
    });
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        max_batch: 4,
        max_linger: Duration::from_micros(200),
        observer: obs.clone(),
        fault_plan: Some(plan),
        resilience: ResilienceConfig {
            breaker_cooldown: Duration::from_millis(10),
            ..ResilienceConfig::default()
        },
        postmortem: PostmortemConfig {
            dir: Some(dir.clone()),
            prefix: "lifecycle".to_string(),
            max_bundles: 1,
            ..PostmortemConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let client = service.client();
    for k in 0..4usize {
        client
            .submit(image(k), SatAlgorithm::OneR1W, None)
            .expect("self-healing service never errors");
    }
    let stats = service.shutdown();
    assert!(stats.breaker_opened >= 1, "loss must open the breaker");

    let bundles: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("postmortem-lifecycle-")
        })
        .collect();
    assert_eq!(
        bundles.len(),
        1,
        "max_bundles = 1 caps dumping even if the breaker re-opens"
    );
    let text = std::fs::read_to_string(bundles[0].path()).unwrap();
    let fstats = obs::flight::validate(&text).expect("bundle validates");
    assert!(fstats.events > 0, "bundle holds flight events");
    assert!(
        fstats.request_flow > 0,
        "bundle holds the triggering request's event chain"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The typed fields say what they hold: one dispatch of three requests
/// forms batch 1 of width 3, completes it, and its `slo_burn` event reads
/// the burn rate the SLO gauge exposes, in parts per million.
#[test]
fn batch_and_burn_events_carry_what_their_fields_name() {
    let obs = obs::Obs::new();
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(0),
        max_batch: 3,
        max_linger: Duration::from_secs(5),
        observer: obs.clone(),
        // Every request misses a 1 ns target: burn = 1 / 0.5 = 2.
        slo: SloConfig {
            target: Duration::from_nanos(1),
            error_budget: 0.5,
        },
        postmortem: PostmortemConfig {
            burn_threshold: Some(1.5),
            ..PostmortemConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    std::thread::scope(|s| {
        for k in 0..3usize {
            let client = service.client();
            s.spawn(move || client.submit(image(k), SatAlgorithm::OneR1W, None));
        }
    });
    let text = service.metrics_text();
    let gauge: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("sat_service_slo_error_budget_burn "))
        .expect("burn gauge exposed")
        .parse()
        .unwrap();
    let stats = service.shutdown();
    assert_eq!(stats.batch_width_hist.get(3), Some(&1), "{stats:?}");

    let flight = obs.flight_recent();
    let formed: Vec<(u64, u64)> = flight
        .iter()
        .filter_map(|e| match e.event {
            obs::Event::BatchFormed { batch, width, .. } => Some((batch, width)),
            _ => None,
        })
        .collect();
    assert_eq!(formed, vec![(1, 3)], "batch number, then dispatch width");
    assert!(flight.iter().any(|e| matches!(
        e.event,
        obs::Event::Complete {
            batch: 1,
            width: 3,
            ..
        }
    )));
    let burns: Vec<(u64, u64)> = flight
        .iter()
        .filter_map(|e| match e.event {
            obs::Event::SloBurn {
                burn_ppm,
                threshold_ppm,
                ..
            } => Some((burn_ppm, threshold_ppm)),
            _ => None,
        })
        .collect();
    assert_eq!(burns.len(), 1, "{burns:?}");
    assert_eq!(burns[0].1, 1_500_000, "threshold 1.5 in ppm");
    assert_eq!(burns[0].0, (gauge * 1e6) as u64, "burn {gauge} in ppm");
}
