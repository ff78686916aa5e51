//! Chaos tests: the service must survive every injected fault class with
//! bit-exact results — retrying, tripping the breaker, and degrading to
//! the CPU path rather than erroring.

use std::time::Duration;

use gpu_exec::{FaultPlan, LossWindow};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{seq::sat_reference, Matrix};
use sat_service::{ResilienceConfig, Service, ServiceConfig};

fn image(seed: usize) -> Matrix<f64> {
    // Integer-valued so GPU, batched, and CPU paths all sum exactly and
    // results are bit-comparable across paths.
    Matrix::from_fn(16, 16, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

fn chaos_config(plan: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_micros(200),
        default_deadline: Duration::from_secs(30),
        fault_plan: Some(plan),
        resilience: ResilienceConfig {
            breaker_cooldown: Duration::from_millis(10),
            ..ResilienceConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Submit `count` requests sequentially and assert every reply is the
/// bit-exact reference SAT.
fn submit_and_check(service: &Service, count: usize) {
    let client = service.client();
    for k in 0..count {
        let img = image(k);
        let got = client
            .submit(img.clone(), SatAlgorithm::OneR1W, None)
            .expect("self-healing service never errors");
        let want = sat_reference(&img);
        assert_eq!(got.sat().as_slice(), want.as_slice(), "request {k}");
    }
}

#[test]
fn launch_aborts_are_retried_to_bit_exact_results() {
    let service = Service::start(chaos_config(FaultPlan::new(42).launch_abort_p(0.5)));
    submit_and_check(&service, 8);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8);
    assert!(stats.attempts_failed > 0, "seed 42 must abort something");
    assert!(
        stats.retries > 0 || stats.degraded > 0,
        "failed attempts were either retried or degraded: {stats:?}"
    );
}

#[test]
fn silent_corruption_is_caught_by_verification_and_healed() {
    let service = Service::start(chaos_config(FaultPlan::new(7).corrupt_p(0.1)));
    submit_and_check(&service, 8);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8);
    assert!(
        stats.verify_fail > 0,
        "corruption at p=0.1 must trip verification: {stats:?}"
    );
    assert!(
        stats.verify_pass > 0,
        "clean attempts also verified: {stats:?}"
    );
}

#[test]
fn device_loss_opens_breaker_degrades_then_canary_recloses() {
    let plan = FaultPlan::new(9).loss(LossWindow::Wall {
        start_after_launch: 0,
        duration: Duration::from_millis(50),
    });
    let service = Service::start(chaos_config(plan));
    // Phase 1: inside the loss window every launch fails; the breaker
    // opens and requests complete on the CPU path.
    submit_and_check(&service, 4);
    let mid = service.stats();
    assert!(
        mid.breaker_opened >= 1,
        "loss must trip the breaker: {mid:?}"
    );
    // The first open is always mid-dispatch, which loses the device.
    assert!(mid.devices_lost >= 1, "{mid:?}");
    assert!(mid.degraded >= 1, "open breaker degrades to CPU: {mid:?}");
    assert_eq!(mid.completed, 4, "degraded requests still complete");

    // Phase 2: after the window and the cooldown, a half-open canary finds
    // the device healthy and re-closes the breaker.
    std::thread::sleep(Duration::from_millis(80));
    submit_and_check(&service, 4);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8);
    assert!(stats.canary_probes >= 1, "{stats:?}");
    assert!(stats.breaker_closed >= 1, "canary re-closed: {stats:?}");
}

#[test]
fn fault_free_config_never_pays_for_verification() {
    // VerifyMode::Auto with no fault plan: the whole resilience layer must
    // stay off the hot path — no verification sweeps, no breaker churn,
    // no degradation.
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        max_linger: Duration::from_micros(200),
        observer: obs::Obs::disabled(),
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    submit_and_check(&service, 8);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.verify_pass + stats.verify_fail, 0, "no sweeps ran");
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.canary_probes, 0);
    assert_eq!(
        stats.breaker_opened + stats.breaker_half_open + stats.breaker_closed,
        0
    );
    assert_eq!(stats.attempts_failed, 0);
    assert_eq!(stats.attempts_ok, stats.batches);
}

#[test]
fn always_mode_verifies_clean_traffic_and_passes() {
    let cfg = ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(0),
        observer: obs::Obs::disabled(),
        resilience: ResilienceConfig {
            verify: sat_service::VerifyMode::Always,
            ..ResilienceConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    submit_and_check(&service, 4);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.verify_pass, 4);
    assert_eq!(stats.verify_fail, 0);
}

#[test]
fn always_mode_accepts_honest_fractional_results() {
    // Fractional pixels make every path round: the verification bound must
    // follow the magnitude of the SAT words it checks, not of the pixel.
    let cfg = ServiceConfig {
        default_deadline: Duration::from_secs(60),
        observer: obs::Obs::disabled(),
        resilience: ResilienceConfig {
            verify: sat_service::VerifyMode::Always,
            ..ResilienceConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Service::start(cfg);
    let client = service.client();
    let n = 512;
    for (k, alg) in [
        SatAlgorithm::OneR1W,
        SatAlgorithm::TwoR1W,
        SatAlgorithm::OneR1W,
    ]
    .into_iter()
    .enumerate()
    {
        let img = Matrix::from_fn(n, n, |i, j| {
            ((i * 7919 + j * 104_729 + k * 31) % 25_500) as f64 / 100.0 + 0.003
        });
        let got = client.submit(img.clone(), alg, None).expect("served");
        assert!(
            got.sat().max_abs_diff(&sat_reference(&img)) < 1e-3,
            "{alg:?} request {k}"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.verify_fail, 0, "{stats:?}");
    assert_eq!(stats.degraded, 0, "{stats:?}");
    assert_eq!(stats.verify_pass, 3, "{stats:?}");
}

#[test]
fn combined_fault_schedule_stays_bit_exact() {
    // Every class at once — the acceptance-gate shape.
    let plan = FaultPlan::new(1)
        .launch_abort_p(0.05)
        .corrupt_p(0.02)
        .straggler(0.05, Duration::from_micros(10))
        .loss(LossWindow::Launches {
            start: 20,
            count: 3,
        });
    let service = Service::start(chaos_config(plan));
    submit_and_check(&service, 24);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.rejected_deadline, 0);
}
