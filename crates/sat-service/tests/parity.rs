//! One execution path: a seeded request mix answers every request
//! bit-exactly, fault-free and under launch aborts, and every batched 1R1W
//! dispatch is fused into a single `m_r + m_c − 1`-launch wavefront.

use std::time::Duration;

use gpu_exec::FaultPlan;
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{seq::sat_reference, Matrix};
use sat_service::{ResilienceConfig, Service, ServiceConfig, ServiceStats, VerifyMode};

const W: usize = 4;

/// The mix: square and ragged 1R1W (both batchable) and unbatchable 2R1W.
/// At `w = 4` both 1R1W shapes pad to grids with `m_r + m_c − 1 = 31`.
const KINDS: [(usize, usize, SatAlgorithm); 3] = [
    (64, 64, SatAlgorithm::OneR1W),
    (48, 80, SatAlgorithm::OneR1W),
    (64, 64, SatAlgorithm::TwoR1W),
];
const WAVEFRONT_LAUNCHES: u64 = 31;

const CLIENTS: usize = 3;
const REQUESTS: usize = 8;

fn image(rows: usize, cols: usize, seed: usize) -> Matrix<f64> {
    // Integer-valued so fused, whole-image and CPU paths all sum
    // exactly and results are bit-comparable across paths.
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

/// The `k`-th request of client `c`: a seeded draw from [`KINDS`].
fn request(c: usize, k: usize) -> (Matrix<f64>, SatAlgorithm) {
    let seed = c * REQUESTS + k;
    let draw = (seed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
    let (rows, cols, algorithm) = KINDS[match draw {
        0..=4 => 0,
        5 | 6 => 1,
        _ => 2,
    }];
    (image(rows, cols, seed), algorithm)
}

/// Run the mix through a service and check every reply against the
/// reference.
fn run_mix(fault_plan: Option<FaultPlan>, observer: obs::Obs) -> ServiceStats {
    let service = Service::start(ServiceConfig {
        machine: MachineConfig::with_width(W),
        device_workers: Some(2),
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_millis(2),
        default_deadline: Duration::from_secs(30),
        fault_plan,
        resilience: ResilienceConfig {
            breaker_cooldown: Duration::from_millis(10),
            // Verification carries the closed-form launch check, which
            // must hold on the ragged shape too.
            verify: VerifyMode::Always,
            ..ResilienceConfig::default()
        },
        observer,
        ..ServiceConfig::default()
    });
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = service.client();
            s.spawn(move || {
                for k in 0..REQUESTS {
                    let (img, algorithm) = request(c, k);
                    let got = client
                        .submit(img.clone(), algorithm, None)
                        .expect("every request is answered");
                    let want = sat_reference(&img);
                    assert_eq!(
                        got.sat().as_slice(),
                        want.as_slice(),
                        "client {c} request {k}"
                    );
                }
            });
        }
    });
    let stats = service.shutdown();
    assert_eq!(stats.completed, (CLIENTS * REQUESTS) as u64, "{stats:?}");
    stats
}

/// `(algo, launches)` of every `batch` span in a trace.
fn batch_spans(json: &str) -> Vec<(String, u64)> {
    let parsed = obs::json::JsonValue::parse(json).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("batch"))
        .map(|e| {
            let args = e.get("args").expect("batch spans carry args");
            (
                args.get("algo").unwrap().as_str().unwrap().to_string(),
                args.get("launches").unwrap().as_f64().unwrap() as u64,
            )
        })
        .collect()
}

#[test]
fn the_mix_is_answered_bit_exactly() {
    let obs = obs::Obs::new();
    let stats = run_mix(None, obs.clone());
    // Verified fault-free traffic: no closed-form check may misfire on the
    // fused wavefront.
    assert_eq!(stats.degraded, 0, "{stats:?}");
    assert_eq!(stats.attempts_failed, 0, "{stats:?}");
    assert_eq!(stats.verify_fail, 0, "{stats:?}");
    // Every 1R1W dispatch, of any width, is one wavefront of
    // `m_r + m_c − 1` launches.
    let spans = batch_spans(&obs.trace_json());
    let fused: Vec<u64> = spans
        .iter()
        .filter(|(algo, _)| algo == "1R1W")
        .map(|&(_, launches)| launches)
        .collect();
    assert!(!fused.is_empty());
    assert!(
        fused.iter().all(|&l| l == WAVEFRONT_LAUNCHES),
        "fused dispatch launches {fused:?}"
    );
}

#[test]
fn the_mix_survives_launch_aborts_bit_exactly() {
    let stats = run_mix(
        Some(FaultPlan::new(42).launch_abort_p(0.02)),
        obs::Obs::disabled(),
    );
    assert!(stats.attempts_failed > 0, "aborts must fire: {stats:?}");
    assert!(
        stats.retries > 0 || stats.degraded > 0,
        "failed attempts were retried or degraded: {stats:?}"
    );
}
