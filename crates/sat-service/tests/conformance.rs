//! Model-conformance observatory, end to end: a fault-free service's
//! online fit converges to the configured machine with zero drift alerts,
//! and a fleet with one chronically slow shard raises a localized
//! shard-relative drift alert that reaches the flight recorder, the
//! post-mortem directory, and `/debug/conformance`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gpu_exec::FaultPlan;
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::Matrix;
use sat_service::{PostmortemConfig, Service, ServiceConfig, TelemetryConfig};

fn image(seed: usize) -> Matrix<f64> {
    Matrix::from_fn(16, 16, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

fn base_config() -> ServiceConfig {
    ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_micros(200),
        default_deadline: Duration::from_secs(30),
        observer: obs::Obs::new(),
        ..ServiceConfig::default()
    }
}

/// Minimal HTTP GET against the telemetry listener; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("telemetry listener up");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

#[test]
fn fault_free_service_converges_to_the_configured_machine() {
    let service = Service::start(base_config());
    let client = service.client();
    for k in 0..24usize {
        client
            .submit(image(k), SatAlgorithm::OneR1W, None)
            .expect("accepted");
    }
    let fit = service.conformance().fit();
    assert!(fit.samples >= 24, "{fit:?}");
    assert!(fit.converged, "the online fit must converge: {fit:?}");
    // The fitted parameters recover the configured machine: width 4 and
    // Λ = latency + barrier_overhead = 100, within the default tolerance
    // the check.sh gate also uses.
    let machine = MachineConfig::with_width(4);
    assert!(
        fit.matches(machine.width as u64, machine.window_overhead(), 0.1),
        "fitted (w, Λ) = ({}, {}) vs configured ({}, {})",
        fit.width,
        fit.window_overhead,
        machine.width,
        machine.window_overhead()
    );
    assert_eq!(
        service.conformance().alerts().len(),
        0,
        "a fault-free run never drifts"
    );
    // The observatory's gauges and histograms ride the shared registry.
    let text = service.metrics_text();
    for family in [
        "sat_service_model_samples_total",
        "sat_service_model_fitted_width",
        "sat_service_model_fitted_window_overhead",
        "sat_service_model_fit_converged 1",
        "sat_service_model_tau_ns",
        "sat_service_model_residual_relative",
        "sat_service_model_drift_alerts_total 0",
    ] {
        assert!(text.contains(family), "scrape is missing {family}:\n{text}");
    }
    // The report carries the contract fields and buckets the traffic under
    // its (algorithm, shape) cell.
    let report = service.conformance_report();
    assert!(
        report.contains("\"schema\":\"sat-hmm/conformance/v1\""),
        "{report}"
    );
    assert!(report.contains("\"1R1W/16x16\""), "{report}");
    assert!(report.contains("\"drifted\":false"), "{report}");
    service.shutdown();
}

#[test]
fn chronically_slow_shard_raises_a_localized_drift_alert() {
    // Shard 2 of 4 straggles on every launch from launch 0 — its own
    // baseline absorbs the slowness, so only the shard-relative channel
    // (own baseline vs sibling-median) can catch it.
    let dir = std::env::temp_dir().join(format!(
        "sat-conformance-drift-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let slow = FaultPlan::new(9).straggler(1.0, Duration::from_millis(1));
    let mut cfg = ServiceConfig {
        shards: 4,
        shard_fault_plans: vec![None, None, Some(slow), None],
        postmortem: PostmortemConfig {
            dir: Some(dir.clone()),
            max_bundles: 2,
            ..PostmortemConfig::default()
        },
        telemetry: TelemetryConfig {
            listen: Some("127.0.0.1:0".to_string()),
        },
        ..base_config()
    };
    // Short baselines so every shard's cell freezes its baseline quickly,
    // and drift bands widened well past scheduler noise: concurrent test
    // processes can slow a healthy shard a few-fold, but the injected
    // 1 ms-per-launch straggler sits at ≥20× its siblings — only a
    // chronic ≥6× asymmetry may alert here.
    let mut ccfg = obs::ConformanceConfig::for_machine(0, 0);
    ccfg.baseline_samples = 6;
    ccfg.drift_slack = 8.0;
    ccfg.shard_relative_band = 5.0;
    cfg.conformance = Some(ccfg);
    let service = Service::start(cfg);
    let addr = service.telemetry_addr().expect("listener configured");
    let client = service.client();
    for k in 0..48usize {
        client
            .submit(image(k), SatAlgorithm::OneR1W, None)
            .expect("accepted");
        if !service.conformance().alerts().is_empty() && k >= 8 {
            break;
        }
    }
    let alerts = service.conformance().alerts();
    assert!(!alerts.is_empty(), "the slow shard must be caught");
    assert!(
        alerts.iter().all(|a| a.cell.ends_with("@s2")),
        "only shard 2 drifted: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.channel == "shard_relative"),
        "chronic slowness is the relative channel's case: {alerts:?}"
    );

    // The report names the offending cell, over HTTP and programmatically.
    let report = http_get(addr, "/debug/conformance");
    assert_eq!(report, service.conformance_report());
    assert!(
        report.contains("\"schema\":\"sat-hmm/conformance/v1\""),
        "{report}"
    );
    assert!(report.contains("@s2"), "{report}");
    assert!(report.contains("\"drifted\":true"), "{report}");
    assert!(
        report.contains("\"channel\":\"shard_relative\""),
        "{report}"
    );

    // The alert reached the flight recorder as a v4 drift_alert event
    // naming the cell and the shard…
    let flight = http_get(addr, "/debug/flight");
    assert!(
        flight.contains("\"schema\":\"sat-hmm/flight/v4\""),
        "{flight}"
    );
    assert!(flight.contains("\"kind\":\"drift_alert\""), "{flight}");
    assert!(flight.contains("@s2\",\"shard\":2,"), "{flight}");

    service.shutdown();

    // …and a drift-triggered post-mortem bundle was dumped and validates.
    let bundles: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!bundles.is_empty(), "drift must dump a bundle in {dir:?}");
    let drift_bundle = bundles
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .find(|text| text.contains("\"reason\":\"drift\""))
        .expect("one bundle carries the drift trigger");
    let stats = obs::flight::validate(&drift_bundle).expect("bundle validates");
    assert!(stats.events > 0);
    std::fs::remove_dir_all(&dir).ok();
}
