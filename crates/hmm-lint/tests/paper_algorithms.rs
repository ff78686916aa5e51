//! The positive half of the analyzer's contract: every algorithm of the
//! paper is lint-clean — structurally (no bank conflicts, no barrier
//! races, no reads of reset shared state) on *arbitrary* shapes and
//! widths, and against its full Table I budget on aligned sizes.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_lint::{analyze, analyze_run, KernelContract, LintReport};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use proptest::prelude::*;
use sat_core::{compute_sat, compute_sat_hybrid, par, Matrix};

fn tracing_device(cfg: MachineConfig) -> Device {
    Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true))
}

fn workload(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| ((3 * i + 5 * j) % 7) as f64)
}

/// Run `alg` for real at size `n` (as the bench harness does) and lint it
/// against its own Table I contract.
fn lint_algorithm(cfg: MachineConfig, alg: SatAlgorithm, n: usize) -> LintReport {
    let dev = tracing_device(cfg);
    let a = GlobalBuffer::from_vec(workload(n).into_vec());
    let r = GlobalCost::new(cfg).optimal_r(n);
    par::sat(&dev, alg, r, &a, n, n);
    let counters = dev.stats();
    let trace = dev.take_trace();
    analyze(
        &trace,
        &counters,
        &cfg,
        &KernelContract::for_algorithm(alg, n, cfg),
    )
}

#[test]
fn every_algorithm_meets_its_table_one_contract() {
    let cfg = MachineConfig::with_width(16);
    for alg in SatAlgorithm::ALL {
        let report = lint_algorithm(cfg, alg, 128);
        assert!(
            report.is_clean(),
            "{} not clean:\n{}",
            alg.name(),
            report.render()
        );
    }
}

#[test]
fn analyze_run_places_findings_on_the_simulated_clock() {
    let cfg = MachineConfig::with_width(8).latency(16);
    let dev = tracing_device(cfg);
    let n = 64;
    let a = workload(n);
    let buf = GlobalBuffer::from_vec(a.into_vec());
    let s = GlobalBuffer::filled(0.0f64, n * n);
    par::sat_1r1w(&dev, &buf, &s, n, n);
    let counters = dev.stats();
    let trace = dev.take_trace();
    let contract = KernelContract::for_algorithm(SatAlgorithm::OneR1W, n, cfg);
    let run = analyze_run(&trace, &counters, &cfg, &contract);
    assert!(run.report.is_clean(), "{}", run.report.render());
    assert_eq!(run.windows.len(), run.report.launches);
    assert!(run.simulated_time > 0);
    // Windows tile the clock in order and end at the simulated total.
    for pair in run.windows.windows(2) {
        assert!(pair[0].end <= pair[1].start);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Full Table I contract on aligned sizes: any width, any latency, any
    /// DMM count — the measured counters must track the closed forms.
    #[test]
    fn table_one_contracts_hold_on_random_machines(
        wi in 0usize..3,
        m in 2usize..=6,
        latency in 1u64..200,
        d in 1usize..16,
    ) {
        let w = [4usize, 8, 16][wi];
        let n = w * m;
        let cfg = MachineConfig::with_width(w).latency(latency).num_dmms(d);
        for alg in SatAlgorithm::ALL {
            let report = lint_algorithm(cfg, alg, n);
            prop_assert!(
                report.is_clean(),
                "{} w={w} n={n} L={latency} d={d}:\n{}",
                alg.name(),
                report.render()
            );
        }
    }

    /// Structural rules on arbitrary (unaligned, non-square) shapes: no
    /// bank conflicts, no barrier races, no reads of reset shared state.
    #[test]
    fn structural_rules_hold_on_arbitrary_shapes(
        rows in 1usize..=40,
        cols in 1usize..=40,
        w in 3usize..=8,
        num in 0usize..=4,
    ) {
        let a = Matrix::from_fn(rows, cols, |i, j| ((7 * i + 3 * j) % 5) as i64);
        let cfg = MachineConfig::with_width(w);
        for alg in SatAlgorithm::ALL {
            let dev = tracing_device(cfg);
            if alg == SatAlgorithm::HybridR1W {
                compute_sat_hybrid(&dev, &a, num as f64 / 4.0);
            } else {
                compute_sat(&dev, alg, &a);
            }
            let counters = dev.stats();
            let trace = dev.take_trace();
            let report = analyze(
                &trace,
                &counters,
                &cfg,
                &KernelContract::unconstrained(alg.name()),
            );
            prop_assert!(
                report.is_clean(),
                "{} w={w} {rows}x{cols}:\n{}",
                alg.name(),
                report.render()
            );
        }
    }
}
