//! Acceptance test: the per-phase cost attribution report reconstructed
//! from a traced 1R1W execution matches `GlobalCost::exact_counts`
//! **exactly** — every coalesced op, stride op and barrier step the closed
//! forms predict is attributed to some launch, and the recomputed modeled
//! cost equals the analytic global access cost.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use obs::profile::attribution_from_trace;
use obs::Obs;
use sat_core::par;

fn run_1r1w_traced(cfg: MachineConfig, n: usize) -> Obs {
    let obs = Obs::new();
    let dev = Device::new(DeviceOptions::new(cfg).workers(0).observer(obs.clone()));
    let a = GlobalBuffer::from_vec(
        (0..n * n)
            .map(|k| ((k * 2654435761) % 256) as f64)
            .collect(),
    );
    let s = GlobalBuffer::filled(0.0f64, n * n);
    par::sat_1r1w(&dev, &a, &s, n, n);
    obs
}

#[test]
fn one_r1w_attribution_matches_exact_counts() {
    for (w, n) in [(4usize, 32usize), (8, 64), (32, 128)] {
        let cfg = MachineConfig::with_width(w);
        let obs = run_1r1w_traced(cfg, n);
        let report = attribution_from_trace(&obs, &cfg);
        let exact = GlobalCost::new(cfg)
            .exact_counts(SatAlgorithm::OneR1W, n, n)
            .expect("1R1W has closed forms");
        let total = report.total();

        // One attribution row per launch; 1R1W issues 2m − 1 launches
        // separated by 2m − 2 barrier steps.
        let m = (n / w) as u64;
        assert_eq!(report.rows.len() as u64, 2 * m - 1, "w={w} n={n}");
        assert_eq!(total.coalesced_ops, exact.coalesced_ops(), "w={w} n={n}");
        assert_eq!(total.stride_ops, exact.stride_ops(), "w={w} n={n}");
        assert_eq!(report.barrier_steps(), exact.barrier_steps, "w={w} n={n}");

        // The report's recomputed modeled cost is the paper's
        // C/w + S + Λ(B+1) on the same counters.
        let expected_cost = exact.coalesced_ops() as f64 / w as f64
            + exact.stride_ops() as f64
            + cfg.window_overhead() as f64 * (exact.barrier_steps + 1) as f64;
        assert!(
            (total.modeled_cost - expected_cost).abs() < 1e-9,
            "w={w} n={n}: {} vs {expected_cost}",
            total.modeled_cost
        );

        // Every row carries a non-negative measured wall time.
        for row in &report.rows {
            assert!(row.wall_us >= 0.0);
        }
    }
}

#[test]
fn attribution_of_untraced_run_is_empty() {
    let obs = Obs::disabled();
    let report = attribution_from_trace(&obs, &MachineConfig::with_width(32).latency(512));
    assert!(report.rows.is_empty());
    assert_eq!(report.total().modeled_cost, 0.0);
}
