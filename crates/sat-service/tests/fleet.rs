//! Fleet-mode chaos tests: a multi-device service shards each SAT across
//! independent fault domains, and losing shards must never cost a bit of
//! accuracy — work reshards onto survivors, and the CPU path is reached
//! only when every fault domain is gone.

use std::time::Duration;

use gpu_exec::{FaultPlan, LossWindow};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{seq::sat_reference, Matrix};
use sat_service::{ResilienceConfig, Service, ServiceConfig};

fn image(seed: usize) -> Matrix<f64> {
    // Integer-valued so banded fleet, whole-image, and CPU paths all sum
    // exactly and results are bit-comparable across paths.
    Matrix::from_fn(16, 16, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

fn fleet_config(shards: usize, plans: Vec<Option<FaultPlan>>) -> ServiceConfig {
    ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_micros(200),
        default_deadline: Duration::from_secs(30),
        shards,
        shard_fault_plans: plans,
        resilience: ResilienceConfig {
            breaker_cooldown: Duration::from_millis(10),
            ..ResilienceConfig::default()
        },
        observer: obs::Obs::new(),
        ..ServiceConfig::default()
    }
}

/// Submit `count` requests sequentially and assert every reply is the
/// bit-exact reference SAT.
fn submit_and_check(service: &Service, count: usize, algorithm: SatAlgorithm) {
    let client = service.client();
    for k in 0..count {
        let img = image(k);
        let got = client
            .submit(img.clone(), algorithm, None)
            .expect("fleet service never errors");
        let want = sat_reference(&img);
        assert_eq!(got.sat().as_slice(), want.as_slice(), "request {k}");
    }
}

#[test]
fn fault_free_fleet_is_bit_exact_and_accounts_per_shard_launches() {
    let service = Service::start(fleet_config(4, Vec::new()));
    submit_and_check(&service, 8, SatAlgorithm::OneR1W);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.attempts_failed, 0);
    assert_eq!(stats.shard_failovers, 0);
    assert_eq!(stats.shards_lost, 0);
    // Every image decomposes into per-band tasks: D-1 column-sum bands,
    // one margin exchange, D band wavefronts.
    assert!(stats.attempts_ok >= 8 * (4 - 1 + 1 + 4) as u64, "{stats:?}");
    // The per-shard launch counters account for exactly what the fleet
    // issued, and at least one shard did real work.
    assert_eq!(stats.shard_launches.len(), 4, "{stats:?}");
    let spread: u64 = stats.shard_launches.iter().sum();
    assert_eq!(spread, stats.launches_issued, "{stats:?}");
    assert!(spread > 0);
}

#[test]
fn losing_one_shard_reshards_onto_survivors_without_degrading() {
    // The acceptance-gate shape: one of four fault domains dies mid-run
    // and every admitted request still completes bit-exactly with zero
    // CPU degradation. The healthy shards straggle (every launch sleeps),
    // which on a single-core host forces the scheduler to hand the CPU —
    // and therefore queue pops — to every worker, so the dead shard is
    // guaranteed to sample tasks and trip its breaker.
    let slow = || Some(FaultPlan::new(3).straggler(1.0, Duration::from_micros(200)));
    let dead = FaultPlan::new(5).loss(LossWindow::Launches {
        start: 0,
        count: u64::MAX,
    });
    let service = Service::start(fleet_config(4, vec![slow(), slow(), Some(dead), slow()]));
    submit_and_check(&service, 6, SatAlgorithm::OneR1W);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.degraded, 0, "survivors absorb the work: {stats:?}");
    assert!(stats.shards_lost >= 1, "{stats:?}");
    assert!(
        stats.shard_failovers >= 1,
        "queued bands must reshard: {stats:?}"
    );
    // Opening the breaker takes a full failure streak on the dying shard.
    assert!(stats.attempts_failed >= 3, "{stats:?}");
    assert!(stats.breaker_opened >= 1, "{stats:?}");
}

#[test]
fn losing_every_shard_degrades_to_cpu_and_still_answers() {
    let dead = || {
        Some(FaultPlan::new(11).loss(LossWindow::Launches {
            start: 0,
            count: u64::MAX,
        }))
    };
    let service = Service::start(fleet_config(2, vec![dead(), dead()]));
    submit_and_check(&service, 3, SatAlgorithm::OneR1W);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.degraded, 3, "no healthy shard left: {stats:?}");
    assert!(stats.shards_lost >= 2, "{stats:?}");
}

#[test]
fn straggler_shard_slows_nothing_to_a_failure() {
    // A straggler is latency, not loss: the work-stealing queue routes
    // around it and nothing degrades or reshards.
    let slow = FaultPlan::new(3).straggler(1.0, Duration::from_micros(200));
    let service = Service::start(fleet_config(4, vec![None, Some(slow), None, None]));
    submit_and_check(&service, 6, SatAlgorithm::OneR1W);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.degraded, 0, "{stats:?}");
    assert_eq!(stats.shards_lost, 0, "{stats:?}");
    assert_eq!(stats.attempts_failed, 0, "{stats:?}");
}

#[test]
fn non_banded_algorithms_run_whole_image_on_the_fleet() {
    // Only 1R1W has the banded decomposition; everything else runs whole
    // images on one shard — still fleet-scheduled, still bit-exact.
    let service = Service::start(fleet_config(2, Vec::new()));
    submit_and_check(&service, 4, SatAlgorithm::FourR4W);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.attempts_ok, 4, "one whole-image task per request");
}

#[test]
fn fleet_flight_events_record_loss_and_failover() {
    let obs = obs::Obs::new();
    let slow = || Some(FaultPlan::new(3).straggler(1.0, Duration::from_micros(200)));
    let dead = FaultPlan::new(5).loss(LossWindow::Launches {
        start: 0,
        count: u64::MAX,
    });
    let cfg = ServiceConfig {
        observer: obs.clone(),
        ..fleet_config(4, vec![slow(), slow(), Some(dead), slow()])
    };
    let service = Service::start(cfg);
    submit_and_check(&service, 6, SatAlgorithm::OneR1W);
    service.shutdown();
    let flight = obs.flight_recent();
    let lost: Vec<u64> = flight
        .iter()
        .filter_map(|e| match e.event {
            obs::Event::DeviceLost { shard, .. } => Some(shard),
            _ => None,
        })
        .collect();
    assert!(!lost.is_empty(), "device loss reaches the flight recorder");
    assert!(
        lost.iter().all(|&shard| shard == 2),
        "the lost shard is shard 2: {lost:?}"
    );
    assert!(
        flight
            .iter()
            .any(|e| matches!(e.event, obs::Event::ShardFailover { shard: 2, .. })),
        "failover event names the shard that died"
    );
    // The count includes the handed-back task.
    assert!(flight.iter().all(|e| !matches!(
        e.event,
        obs::Event::ShardFailover {
            queued_tasks: 0,
            ..
        }
    )));
}
