//! Integration tests: concurrent mixed-shape traffic, deadlines,
//! backpressure, graceful drain, and batching efficiency.

use std::time::Duration;

use gpu_exec::{Device, DeviceOptions};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{compute_sat, Matrix};
use sat_service::{Service, ServiceConfig, ServiceError};

fn small_config() -> ServiceConfig {
    ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        queue_capacity: 64,
        max_batch: 8,
        max_linger: Duration::from_millis(2),
        default_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    }
}

fn image(rows: usize, cols: usize, seed: usize) -> Matrix<f64> {
    // Integer-valued so every summation order is exact.
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

#[test]
fn concurrent_mixed_shapes_match_compute_sat() {
    let service = Service::start(small_config());
    // Independent verification device, same machine model.
    let verify = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
    let shapes = [(16usize, 16usize), (8, 24), (5, 7), (32, 16)];
    let algorithms = [
        SatAlgorithm::OneR1W,
        SatAlgorithm::OneR1W,
        SatAlgorithm::OneR1W,
        SatAlgorithm::TwoR1W,
        SatAlgorithm::HybridR1W,
    ];
    std::thread::scope(|s| {
        for t in 0..12usize {
            let client = service.client();
            s.spawn(move || {
                for k in 0..5usize {
                    let (rows, cols) = shapes[(t + k) % shapes.len()];
                    let alg = algorithms[(t * 5 + k) % algorithms.len()];
                    let img = image(rows, cols, t * 100 + k);
                    let table = client.submit(img, alg, None).expect("accepted");
                    assert_eq!(table.sat().rows(), rows);
                    assert_eq!(table.sat().cols(), cols);
                }
            });
        }
    });
    // Re-verify a sample against compute_sat bit-for-bit (the per-thread
    // shape/result assertions above ran inside the scope).
    let client = service.client();
    for t in 0..4usize {
        let (rows, cols) = shapes[t % shapes.len()];
        let img = image(rows, cols, t);
        let got = client
            .submit(img.clone(), SatAlgorithm::OneR1W, None)
            .expect("accepted");
        let want = compute_sat(&verify, SatAlgorithm::OneR1W, &img);
        assert_eq!(got.sat().as_slice(), want.as_slice(), "bit-equal");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 12 * 5 + 4);
    assert_eq!(stats.submitted, stats.completed);
    assert_eq!(stats.rejected_deadline, 0);
}

#[test]
fn every_result_is_bit_equal_under_batching() {
    // Force wide batches: long linger, many same-shape requests in flight.
    let mut cfg = small_config();
    cfg.max_linger = Duration::from_millis(50);
    cfg.max_batch = 8;
    let service = Service::start(cfg);
    let verify = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
    std::thread::scope(|s| {
        for t in 0..16usize {
            let client = service.client();
            let verify = &verify;
            s.spawn(move || {
                let img = image(16, 16, t);
                let got = client
                    .submit(img.clone(), SatAlgorithm::OneR1W, None)
                    .expect("accepted");
                let want = compute_sat(verify, SatAlgorithm::OneR1W, &img);
                assert_eq!(got.sat().as_slice(), want.as_slice(), "thread {t}");
            });
        }
    });
    let stats = service.shutdown();
    assert_eq!(stats.completed, 16);
    // 16 same-shape requests through width-8 batches: at least some fusing
    // must have happened (exact widths depend on thread timing).
    assert!(
        stats.mean_batch_width() > 1.0,
        "expected fusing, widths {:?}",
        stats.batch_width_hist
    );
    assert!(stats.launches_saved() > 0);
}

#[test]
fn full_batches_dispatch_without_waiting_for_linger() {
    // With linger far above the test budget, only the batch-full condition
    // can dispatch; 8 submitters of the same shape must form one batch.
    let mut cfg = small_config();
    cfg.max_linger = Duration::from_secs(3600);
    cfg.max_batch = 8;
    let service = Service::start(cfg);
    std::thread::scope(|s| {
        for t in 0..8usize {
            let client = service.client();
            s.spawn(move || {
                client
                    .submit(image(16, 16, t), SatAlgorithm::OneR1W, None)
                    .expect("accepted");
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.batches, 1, "widths {:?}", stats.batch_width_hist);
    assert_eq!(stats.batch_width_hist[8], 1);
    // 16×16 at w = 4: m = 4, so 2m − 1 = 7 launches for the whole batch
    // instead of 8 × 7.
    assert_eq!(stats.launches_issued, 7);
    assert_eq!(stats.launches_unbatched_equiv, 56);
    assert_eq!(stats.launch_reduction(), 8.0);
    assert_eq!(stats.barrier_windows_saved(), 48 - 6);
    service.shutdown();
}

#[test]
fn zero_deadline_requests_are_rejected_not_wedged() {
    let mut cfg = small_config();
    cfg.max_linger = Duration::from_millis(100);
    let service = Service::start(cfg);
    let client = service.client();
    let err = client
        .submit(image(16, 16, 0), SatAlgorithm::OneR1W, Some(Duration::ZERO))
        .expect_err("deadline already expired");
    assert_eq!(err, ServiceError::DeadlineExceeded);
    // The service keeps serving afterwards.
    client
        .submit(image(16, 16, 1), SatAlgorithm::OneR1W, None)
        .expect("still serving");
    let stats = service.shutdown();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn backpressure_rejects_when_queue_stays_full() {
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(0),
        queue_capacity: 1,
        max_batch: 64,
        // Lingering occupant: holds the single queue slot for the whole test.
        max_linger: Duration::from_secs(3600),
        default_deadline: Duration::from_secs(3600),
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let occupant = service.client();
    let handle =
        std::thread::spawn(move || occupant.submit(image(16, 16, 0), SatAlgorithm::OneR1W, None));
    // Wait for the occupant to be admitted.
    while service.stats().submitted == 0 {
        std::thread::yield_now();
    }
    let err = service
        .client()
        .submit(
            image(16, 16, 1),
            SatAlgorithm::OneR1W,
            Some(Duration::from_millis(20)),
        )
        .expect_err("queue is full");
    assert_eq!(err, ServiceError::QueueFull);
    // Shutdown fails the still-queued occupant fast with the distinct
    // drain-time reason instead of computing it or letting it time out.
    let stats = service.shutdown();
    assert_eq!(handle.join().unwrap().err(), Some(ServiceError::Shutdown));
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.rejected_shutdown_drain, 1);
}

#[test]
fn shutdown_fails_queued_requests_fast() {
    let mut cfg = small_config();
    cfg.max_linger = Duration::from_secs(3600); // nothing dispatches on its own
    cfg.max_batch = 64;
    let service = Service::start(cfg);
    let mut handles = Vec::new();
    for t in 0..6usize {
        let client = service.client();
        handles.push(std::thread::spawn(move || {
            client.submit(image(16, 16, t), SatAlgorithm::OneR1W, None)
        }));
    }
    while service.stats().submitted < 6 {
        std::thread::yield_now();
    }
    let stats = service.shutdown();
    for h in handles {
        // Fail-fast drain: a distinct rejection, not a deadline timeout
        // (their deadlines were 30 s out) and not a computed result.
        assert_eq!(h.join().unwrap().err(), Some(ServiceError::Shutdown));
    }
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.rejected_shutdown_drain, 6);
    assert_eq!(stats.rejected_deadline, 0);
    assert_eq!(stats.batches, 0);
}

#[test]
fn submissions_after_shutdown_are_rejected() {
    let service = Service::start(small_config());
    let client = service.client();
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 0);
    let err = client
        .submit(image(8, 8, 0), SatAlgorithm::OneR1W, None)
        .expect_err("service is gone");
    assert_eq!(err, ServiceError::ShuttingDown);
}

#[test]
fn empty_matrices_are_rejected_before_queueing() {
    let service = Service::start(small_config());
    let err = service
        .client()
        .submit(Matrix::zeros(0, 5), SatAlgorithm::OneR1W, None)
        .expect_err("empty matrix");
    assert!(matches!(err, ServiceError::InvalidRequest(_)));
    let stats = service.shutdown();
    assert_eq!(stats.rejected_invalid, 1);
    assert_eq!(stats.submitted, 0);
}

#[test]
fn observed_service_exposes_metrics_text_and_lifecycle_spans() {
    let obs = obs::Obs::new();
    let mut cfg = small_config();
    cfg.observer = obs.clone();
    let service = Service::start(cfg);
    let client = service.client();
    for t in 0..3usize {
        client
            .submit(image(16, 16, t), SatAlgorithm::OneR1W, None)
            .expect("accepted");
    }
    let err = client
        .submit(Matrix::zeros(0, 1), SatAlgorithm::OneR1W, None)
        .expect_err("invalid");
    assert!(matches!(err, ServiceError::InvalidRequest(_)));

    // Prometheus-style exposition from the client handle: serving-layer
    // counters and the shared device's gpu_* family in one scrape.
    let text = client.metrics_text();
    assert!(text.contains("# TYPE sat_service_submitted_total counter"));
    assert!(text.contains("sat_service_submitted_total 3"));
    // Latency buckets carry OpenMetrics exemplars naming a request id.
    assert!(
        text.contains(" # {request_id=\""),
        "request histogram buckets carry exemplars"
    );
    assert!(text.contains("sat_service_completed_total 3"));
    assert!(text.contains("sat_service_rejected_total{reason=\"invalid\"} 1"));
    assert!(text.contains("# TYPE sat_service_stage_latency_seconds histogram"));
    assert!(text.contains("# TYPE gpu_launches counter"));
    let launches_line = text
        .lines()
        .find(|l| l.starts_with("gpu_launches "))
        .expect("device counters share the registry");
    let launches: u64 = launches_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(launches >= 7, "16x16 at w=4 needs 2m-1=7 launches");

    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);

    // The trace holds the full request lifecycle on the wall clock and is
    // valid Chrome trace-event JSON.
    let json = obs.trace_json();
    let trace_stats = obs::chrome::validate(&json).expect("valid chrome trace");
    let parsed = obs::json::JsonValue::parse(&json).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let named = |want: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(want))
            .count()
    };
    assert_eq!(named("admit"), 3);
    assert_eq!(named("queue"), 3);
    assert!(named("batch") >= 1);
    assert!(named("launch") >= 7, "device spans share the trace");
    assert!(named("complete") >= 1);
    // Request-scoped chain: every completed request closed a terminal
    // `request` span with status "ok" and contributed flow points
    // (start + dispatch step + per-launch steps + end).
    let ok_spans = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("request")
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("args")
                    .and_then(|a| a.get("status"))
                    .and_then(|s| s.as_str())
                    == Some("ok")
        })
        .count();
    assert_eq!(ok_spans, 3, "one terminal request span per completion");
    assert!(
        trace_stats.flows >= 9,
        "flow chain per request, got {}",
        trace_stats.flows
    );
}

/// `sat_service_batches_total{cause="<cause>"}` read from a scrape.
fn batches_by_cause(text: &str, cause: &str) -> u64 {
    let prefix = format!("sat_service_batches_total{{cause=\"{cause}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no {prefix}in\n{text}"))
        .parse()
        .unwrap()
}

#[test]
fn closed_loop_clients_never_wait_out_the_window() {
    // A window far above the test budget: only "full", "unbatchable" and
    // "every client seen is waiting" can dispatch.
    let mut cfg = small_config();
    cfg.max_linger = Duration::from_secs(3600);
    let service = Service::start(cfg);
    let verify = Device::new(DeviceOptions::new(MachineConfig::with_width(4)).workers(0));
    let (first, second) = (service.client(), service.client());
    let run = |client: sat_service::Client, c: usize| {
        let verify = &verify;
        move || {
            for k in 0..40usize {
                let img = image(16, 16, c * 100 + k);
                let got = client
                    .submit(img.clone(), SatAlgorithm::OneR1W, None)
                    .expect("accepted");
                let want = compute_sat(verify, SatAlgorithm::OneR1W, &img);
                assert_eq!(got.sat().as_slice(), want.as_slice(), "client {c} #{k}");
            }
        }
    };
    std::thread::scope(|s| {
        // The first client's first request waits in the fixed window of a
        // service that has answered nothing yet. The 2R1W warm-up is
        // admitted beside it and answered at once, so the service has seen
        // two clients by the time the second client starts; the two then
        // stay in step. (A client one request ahead would leave its
        // partner's last request alone: a departed client, which costs up
        // to the window.)
        s.spawn(run(first, 0));
        while service.stats().submitted == 0 {
            std::thread::yield_now();
        }
        service
            .client()
            .submit(image(16, 16, 999), SatAlgorithm::TwoR1W, None)
            .expect("unbatchable warm-up dispatches at once");
        s.spawn(run(second, 1));
    });
    let text = service.metrics_text();
    let stats = service.shutdown();
    assert_eq!(stats.completed, 81);
    assert_eq!(
        stats.batch_width_hist.get(2),
        Some(&40),
        "fusing survives: {:?}",
        stats.batch_width_hist
    );
    assert!(batches_by_cause(&text, "all_waiting") > 0, "{text}");
    assert_eq!(batches_by_cause(&text, "lingered"), 0);
    assert_eq!(batches_by_cause(&text, "unbatchable"), 1);
    assert_eq!(stats.batches, stats.batch_width_hist.iter().sum::<u64>());
}

#[test]
fn a_departed_client_costs_at_most_the_window() {
    let linger = Duration::from_millis(20);
    let mut cfg = small_config();
    cfg.max_linger = linger;
    let service = Service::start(cfg);
    let (stays, leaves) = (service.client(), service.client());
    let submit = |client: &sat_service::Client, seed: usize| {
        let t = std::time::Instant::now();
        client
            .submit(image(16, 16, seed), SatAlgorithm::OneR1W, None)
            .expect("accepted");
        t.elapsed()
    };
    std::thread::scope(|s| {
        let gone = s.spawn(|| {
            for k in 0..30usize {
                submit(&leaves, k);
            }
        });
        for k in 0..30usize {
            submit(&stays, 100 + k);
        }
        gone.join().unwrap();
    });
    // The other client stopped but kept its handle: until the population
    // estimate decays, each request may wait out the window, and no longer.
    let alone: Vec<Duration> = (0..64usize).map(|k| submit(&stays, 200 + k)).collect();
    let slack = Duration::from_millis(500);
    for (k, took) in alone.iter().enumerate() {
        assert!(*took < linger + slack, "request {k} took {took:?}");
    }
    let mut tail = alone[alone.len() - 16..].to_vec();
    tail.sort();
    assert!(
        tail[tail.len() / 2] < linger / 2,
        "median after the estimate decayed: {:?}",
        tail[tail.len() / 2]
    );
    let stats = service.shutdown();
    assert_eq!(stats.completed, 124);
}
