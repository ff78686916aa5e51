//! Table I, measured: the closed-form operation counts and barrier steps of
//! every SAT algorithm against real executions on the virtual GPU.

use gpu_exec::{Device, DeviceOptions};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_core::{compute_sat, Matrix};

const W: usize = 16;
const N: usize = 256;

fn run(alg: SatAlgorithm) -> (hmm_model::cost::CostCounters, GlobalCost) {
    let cfg = MachineConfig::with_width(W);
    let dev = Device::new(DeviceOptions::new(cfg).workers(1));
    let a = Matrix::from_fn(N, N, |i, j| ((i + 2 * j) % 17) as i64);
    dev.reset_stats();
    let _ = compute_sat(&dev, alg, &a);
    (dev.stats(), GlobalCost::new(cfg))
}

/// Measured value must be within `tol` (relative) of predicted.
fn close(measured: f64, predicted: f64, tol: f64, what: &str) {
    if predicted == 0.0 {
        assert!(
            measured <= tol * (N * N) as f64,
            "{what}: predicted 0, measured {measured}"
        );
        return;
    }
    let ratio = measured / predicted;
    assert!(
        ((1.0 - tol)..(1.0 + tol)).contains(&ratio),
        "{what}: measured {measured} vs predicted {predicted} (ratio {ratio:.3})"
    );
}

#[test]
fn table1_counts_match_formulas() {
    for alg in SatAlgorithm::ALL {
        let (s, gc) = run(alg);
        let row = gc.table_one_row(alg, N);
        // Leading-term formulas: allow 12% slack for the O(n²/w²) terms the
        // paper (and the table) drop.
        close(
            s.coalesced_reads as f64,
            row.coalesced_reads,
            0.12,
            &format!("{alg:?} coalesced reads"),
        );
        close(
            s.coalesced_writes as f64,
            row.coalesced_writes,
            0.12,
            &format!("{alg:?} coalesced writes"),
        );
        close(
            s.stride_reads as f64,
            row.stride_reads,
            0.12,
            &format!("{alg:?} stride reads"),
        );
        close(
            s.stride_writes as f64,
            row.stride_writes,
            0.12,
            &format!("{alg:?} stride writes"),
        );
    }
}

#[test]
fn table1_barrier_steps() {
    let m = N / W;
    let expect: &[(SatAlgorithm, u64)] = &[
        (SatAlgorithm::TwoR2W, 1),
        (SatAlgorithm::FourR4W, 3),
        (SatAlgorithm::FourR1W, (2 * N - 2) as u64),
        (SatAlgorithm::TwoR1W, 2), // k = 0 at this size
        (SatAlgorithm::OneR1W, (2 * m - 2) as u64),
    ];
    for &(alg, want) in expect {
        let (s, _) = run(alg);
        assert_eq!(s.barrier_steps, want, "{alg:?}");
    }
    // The hybrid sits strictly between its parents.
    let (s, _) = run(SatAlgorithm::HybridR1W);
    assert!(s.barrier_steps < (2 * m - 2) as u64);
    assert!(s.barrier_steps > 2);
}

#[test]
fn table1_cost_ordering_at_large_n() {
    // The table's punchline, evaluated at n = 16K on the calibrated
    // profile: 1R1W < 2R1W < 4R4W < 2R2W < 4R1W, and the hybrid (optimal r)
    // beats them all.
    let gc = GlobalCost::new(MachineConfig::gtx780ti());
    let n = 16 * 1024;
    let one = gc.one_r1w(n);
    let two = gc.two_r1w(n);
    let four4 = gc.four_r4w(n);
    let two2 = gc.two_r2w(n);
    let four1 = gc.four_r1w(n);
    let hybrid = gc.hybrid(n, gc.optimal_r(n));
    assert!(hybrid <= one);
    assert!(one < two, "1R1W {one} < 2R1W {two}");
    assert!(two < four4, "2R1W {two} < 4R4W {four4}");
    assert!(four4 < two2, "4R4W {four4} < 2R2W {two2}");
    assert!(two2 < four1, "2R2W {two2} < 4R1W {four1}");
}

#[test]
fn measured_cost_matches_closed_form_within_slack() {
    // The analytic Table I cost evaluated from measured counters should be
    // close to the closed form for the "wide" algorithms (the closed forms
    // drop small terms; the wavefront algorithms' latency terms depend on
    // m, which matches exactly, so include them too).
    let cfg = MachineConfig::with_width(W);
    let gc = GlobalCost::new(cfg);
    for alg in [
        SatAlgorithm::TwoR2W,
        SatAlgorithm::FourR4W,
        SatAlgorithm::TwoR1W,
        SatAlgorithm::OneR1W,
    ] {
        let (s, _) = run(alg);
        let measured = s.global_cost(&cfg);
        let predicted = gc.cost(alg, N);
        let ratio = measured / predicted;
        assert!(
            (0.85..1.25).contains(&ratio),
            "{alg:?}: measured {measured:.0} vs predicted {predicted:.0}"
        );
    }
}

#[test]
fn one_r1w_counts_match_exact_closed_form() {
    // Beyond the leading-term slack above: 1R1W has an *exact* closed form
    // on the padded `rows × cols` grid, and a real execution must
    // reproduce every column of it (including barrier steps) — on the
    // block-aligned square of the other tests, and on the ragged, 1×n and
    // n×1 shapes `compute_sat` admits by padding. This is the same
    // equality the `satprof --check` gate and the service's closed-form
    // launch check enforce.
    let (s, gc) = run(SatAlgorithm::OneR1W);
    let exact = gc
        .exact_counts(SatAlgorithm::OneR1W, N, N)
        .expect("N is a multiple of W");
    assert!(
        exact.matches(&s),
        "measured {s:?} diverges from exact closed form {exact:?}"
    );
    let w = 4;
    let cfg = MachineConfig::with_width(w);
    let dev = Device::new(DeviceOptions::new(cfg).workers(1));
    for (rows, cols) in [(16, 16), (48, 80), (1, 64), (64, 1), (13, 30), (8, 24)] {
        let a = Matrix::from_fn(rows, cols, |i, j| ((i + 2 * j) % 17) as i64);
        dev.reset_stats();
        let _ = compute_sat(&dev, SatAlgorithm::OneR1W, &a);
        let s = dev.stats();
        let exact = GlobalCost::new(cfg)
            .exact_counts(
                SatAlgorithm::OneR1W,
                rows.next_multiple_of(w),
                cols.next_multiple_of(w),
            )
            .expect("padded sides are multiples of w");
        assert!(
            exact.matches(&s),
            "{rows}x{cols}: measured {s:?} diverges from exact closed form {exact:?}"
        );
    }
}
