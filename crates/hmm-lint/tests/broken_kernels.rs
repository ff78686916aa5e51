//! The negative half of the analyzer's contract: deliberately broken
//! kernels trigger exactly the diagnostic they were built to trigger.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer, TileLayout};
use hmm_lint::{analyze, KernelContract, LintReport, Rule, Severity};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{par, Matrix};

const W: usize = 8;

fn cfg() -> MachineConfig {
    MachineConfig::with_width(W)
}

fn tracing_device() -> Device {
    Device::new(DeviceOptions::new(cfg()).workers(0).record_trace(true))
}

fn lint(dev: &Device, contract: &KernelContract) -> LintReport {
    let counters = dev.stats();
    let trace = dev.take_trace();
    analyze(&trace, &counters, &cfg(), contract)
}

/// A 1R1W-style kernel that writes its output with stride `w` — every lane
/// in its own address group — under a fully-coalesced contract.
#[test]
fn strided_write_blows_a_coalesced_budget() {
    let dev = tracing_device();
    let buf = GlobalBuffer::filled(0.0f64, W * W);
    dev.launch(1, |ctx| {
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_strided(0, W, &vals, ctx.rec());
    });
    let report = lint(&dev, &KernelContract::fully_coalesced("strided-writer"));
    assert!(report.has(Rule::Uncoalesced), "{}", report.render());
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    // The finding pinpoints the offending transaction.
    assert_eq!((d.launch, d.block, d.op), (Some(0), Some(0), Some(0)));
    assert!(d.message.contains("stride fraction"), "{}", d.message);
    // The same kernel is fine under an unconstrained contract.
    let dev = tracing_device();
    dev.launch(1, |ctx| {
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_strided(0, W, &vals, ctx.rec());
    });
    assert!(lint(&dev, &KernelContract::unconstrained("any")).is_clean());
}

/// A column access through a row-major tile serialises on one bank; the
/// diagonal arrangement (Lemma 1) exists to avoid exactly this.
#[test]
fn row_major_column_access_is_a_bank_conflict() {
    let dev = tracing_device();
    dev.launch(1, |ctx| {
        let mut t = ctx.shared_tile::<f64>(TileLayout::RowMajor);
        let vals = [1.0; W];
        t.write_col(0, &vals, ctx.rec());
    });
    let report = lint(&dev, &KernelContract::unconstrained("row-major-tile"));
    assert_eq!(report.count(Rule::BankConflict), 1, "{}", report.render());
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("column 0"), "{}", d.message);
    // The identical kernel on a diagonal tile is conflict-free.
    let dev = tracing_device();
    dev.launch(1, |ctx| {
        let mut t = ctx.shared_tile::<f64>(TileLayout::Diagonal);
        let vals = [1.0; W];
        t.write_col(0, &vals, ctx.rec());
    });
    assert!(lint(&dev, &KernelContract::unconstrained("diagonal-tile")).is_clean());
}

/// Two blocks of one launch exchange data through global memory — a fused
/// kernel missing the barrier in between.
#[test]
fn fused_launch_without_barrier_is_a_race() {
    let dev = tracing_device();
    let buf = GlobalBuffer::filled(0.0f64, 2 * W);
    dev.launch(2, |ctx| {
        let b = ctx.block_id();
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        let mut got = [0.0; W];
        g.write_contig(b * W, &vals, ctx.rec());
        // Reads the *other* block's freshly written half: needs a barrier.
        g.read_contig((1 - b) * W, &mut got, ctx.rec());
    });
    let report = lint(&dev, &KernelContract::unconstrained("fused-no-barrier"));
    assert_eq!(report.count(Rule::BarrierRace), 2, "{}", report.render());
    assert!(report.diagnostics[0].message.contains("same launch window"));

    // The fixed kernel — same accesses, barrier (= second launch) between
    // the writes and the cross-block reads — is clean.
    let dev = tracing_device();
    dev.launch(2, |ctx| {
        let b = ctx.block_id();
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_contig(b * W, &vals, ctx.rec());
    });
    dev.launch(2, |ctx| {
        let b = ctx.block_id();
        let g = ctx.view(&buf);
        let mut got = [0.0; W];
        g.read_contig((1 - b) * W, &mut got, ctx.rec());
    });
    assert!(lint(&dev, &KernelContract::unconstrained("fixed")).is_clean());
}

/// Two blocks writing the same words is a race even without any read.
#[test]
fn overlapping_writes_are_a_race() {
    let dev = tracing_device();
    let buf = GlobalBuffer::filled(0.0f64, W);
    dev.launch(2, |ctx| {
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_contig(0, &vals, ctx.rec());
    });
    let report = lint(&dev, &KernelContract::unconstrained("overlapping-writes"));
    assert!(report.has(Rule::BarrierRace), "{}", report.render());
    assert!(report.diagnostics[0].message.contains("both write"));
}

/// Reading a tile that was never warp-written in the launch window: the
/// barrier reset the shared memory, so the read sees zeroes.
#[test]
fn reading_reset_shared_state_is_flagged() {
    let dev = tracing_device();
    dev.launch(1, |ctx| {
        let t = ctx.shared_tile::<f64>(TileLayout::Diagonal);
        let mut got = [0.0; W];
        t.read_row(0, &mut got, ctx.rec());
    });
    let report = lint(&dev, &KernelContract::unconstrained("reads-reset-tile"));
    assert_eq!(report.count(Rule::SharedReset), 1, "{}", report.render());
    // A stale-read is suspicious, not necessarily wrong: Warning severity.
    assert_eq!(report.diagnostics[0].severity, Severity::Warning);
    assert!(!report.is_clean());
    assert!(report.is_error_free());

    // Writing the tile anywhere in the same window (even *after* the read,
    // as recursive in-tile passes do) silences the rule.
    let dev = tracing_device();
    dev.launch(1, |ctx| {
        let mut t = ctx.shared_tile::<f64>(TileLayout::Diagonal);
        let mut got = [0.0; W];
        t.read_row(0, &mut got, ctx.rec());
        t.write_row(0, &got, ctx.rec());
    });
    assert!(lint(&dev, &KernelContract::unconstrained("tile-rw")).is_clean());
}

/// A correct kernel held to the wrong closed form: 2R2W measured against
/// the 4R4W row of Table I diverges in C, S and B.
#[test]
fn wrong_table_row_is_a_cost_divergence() {
    let n = 64;
    let dev = tracing_device();
    let a = Matrix::from_fn(n, n, |i, j| (i + j) as f64);
    let buf = GlobalBuffer::from_vec(a.into_vec());
    par::sat_2r2w(&dev, &buf, n, n);
    let report = lint(
        &dev,
        &KernelContract::for_algorithm(SatAlgorithm::FourR4W, n, cfg()),
    );
    assert!(report.has(Rule::CostDivergence), "{}", report.render());
    assert!(!report.is_error_free());
    // … and against its own row it is clean.
    let dev = tracing_device();
    let a = Matrix::from_fn(n, n, |i, j| (i + j) as f64);
    let buf = GlobalBuffer::from_vec(a.into_vec());
    par::sat_2r2w(&dev, &buf, n, n);
    let report = lint(
        &dev,
        &KernelContract::for_algorithm(SatAlgorithm::TwoR2W, n, cfg()),
    );
    assert!(report.is_clean(), "{}", report.render());
}

/// A launch marked lost must show no global writes. The real device skips
/// every block of a lost launch, so the violation has to be hand-crafted:
/// flip `lost` on a trace that did write, exactly what a buggy harness
/// that "recovers" by trusting partial output would produce.
#[test]
fn writes_in_a_lost_launch_break_the_recovery_contract() {
    use gpu_exec::{FaultPlan, LossWindow};

    let dev = tracing_device();
    let buf = GlobalBuffer::filled(0.0f64, 2 * W);
    dev.launch(2, |ctx| {
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_contig(ctx.block_id() * W, &vals, ctx.rec());
    });
    let counters = dev.stats();
    let mut trace = dev.take_trace();
    trace.launches[0].lost = true;
    let report = analyze(
        &trace,
        &counters,
        &cfg(),
        &KernelContract::unconstrained("lying-lost-launch"),
    );
    assert_eq!(report.count(Rule::WriteAfterLoss), 2, "{}", report.render());
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("marked lost"), "{}", d.message);
    assert_eq!((d.launch, d.block), (Some(0), Some(0)));

    // An honest device honours the contract: during an injected loss
    // window every block is skipped, so the lost launch traces no writes
    // and the rule stays silent.
    let dev = Device::new(
        DeviceOptions::new(cfg())
            .workers(0)
            .record_trace(true)
            .fault_plan(FaultPlan::new(3).loss(LossWindow::Launches { start: 0, count: 1 })),
    );
    dev.launch(2, |ctx| {
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_contig(ctx.block_id() * W, &vals, ctx.rec());
    });
    let counters = dev.stats();
    let trace = dev.take_trace();
    assert!(trace.launches[0].lost, "the window covers launch 0");
    let report = analyze(
        &trace,
        &counters,
        &cfg(),
        &KernelContract::unconstrained("honest-lost-launch"),
    );
    assert!(!report.has(Rule::WriteAfterLoss), "{}", report.render());
}

/// Reports serialize to JSON for `satlint --json` and tooling on top.
#[test]
fn reports_serialize_to_json() {
    let dev = tracing_device();
    let buf = GlobalBuffer::filled(0.0f64, W * W);
    dev.launch(1, |ctx| {
        let g = ctx.view(&buf);
        let vals = [1.0; W];
        g.write_strided(0, W, &vals, ctx.rec());
    });
    let report = lint(&dev, &KernelContract::fully_coalesced("strided-writer"));
    let json = obs::json::to_string(&report);
    assert!(json.contains("\"kernel\""), "{json}");
    assert!(json.contains("Uncoalesced"), "{json}");
    assert!(json.contains("\"suppressed\""), "{json}");
}

/// A kernel violating one rule hundreds of times stays readable: findings
/// beyond the per-rule cap are counted, not printed.
#[test]
fn mass_violations_are_capped() {
    let dev = tracing_device();
    dev.launch(1, |ctx| {
        let mut t = ctx.shared_tile::<f64>(TileLayout::RowMajor);
        let vals = [1.0; W];
        for _ in 0..4 {
            for j in 0..W {
                t.write_col(j, &vals, ctx.rec());
            }
        }
    });
    let report = lint(&dev, &KernelContract::unconstrained("conflict-storm"));
    assert_eq!(report.count(Rule::BankConflict), hmm_lint::MAX_PER_RULE);
    assert_eq!(
        report.suppressed,
        4 * W - hmm_lint::MAX_PER_RULE,
        "{}",
        report.render()
    );
    assert!(report.render().contains("suppressed"));
}
