//! `satlint` — run the hmm-lint analyzer over every paper algorithm.
//!
//! Executes all six SAT kernels (2R2W, 4R4W, 4R1W, 2R1W, 1R1W, hybrid) and
//! persistent-block 1R1W on a tracing device across a grid of machine
//! configurations, holds each run to its contract (Table I; for the
//! persistent path, 1R1W's data movement plus flag words and no barrier
//! steps), and prints a compiler-style report. Exits nonzero when any
//! kernel violates its contract, so the suite can serve as a regression
//! gate.
//!
//! ```text
//! cargo run --release -p sat-bench --bin satlint -- [--n 256] [--json PATH]
//!     [--races] [--schedules K] [--seed S] [--fixtures]
//! ```
//!
//! * `--races` — print a summary of the schedule-generalizing race rules
//!   (`schedule-race`, `handoff-before-ready`) after the suite; the rules
//!   themselves always run as part of the analysis.
//! * `--schedules K` — additionally re-run every cell under `K` distinct
//!   block schedules (forward, reverse, adversarial, shuffled) and diff the
//!   outputs bit-exactly; any divergence marks the cell dirty.
//! * `--seed S` — seed for the explored schedule permutations (default 42).
//! * `--fixtures` — instead of the paper suite, run the deliberately-broken
//!   fixtures (and their fixed twins) through the analyzer *and* the
//!   schedule explorer, and check the two agree on every variant. Exits
//!   nonzero **by design** (broken fixtures must be flagged): exit 1 means
//!   the self-test passed with findings, exit 2 means the detectors
//!   disagreed somewhere.

use std::process::ExitCode;

use gpu_exec::replay::{fingerprint_f64, replay_schedules};
use gpu_exec::{Device, DeviceOptions};
use hmm_lint::fixtures::{run_fixture, Fixture};
use hmm_lint::{analyze_run, KernelContract, Rule, RunAnalysis, SCHEMA_VERSION};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_bench::{maybe_write_json, parsed_flag, workload, Path};
use sat_core::{compute_sat_batch, Matrix};

obs::json::record! {
    /// One analyzed (config, algorithm, size) cell, for `--json`.
    struct SatlintRecord {
        schema_version: u32,
        config: String,
        width: usize,
        latency: u64,
        n: usize,
        algorithm: String,
        clean: bool,
        /// Block schedules explored by replay (1 = the recorded run only).
        schedules: usize,
        /// Explored schedules whose output diverged from the reference run.
        divergent: usize,
        analysis: RunAnalysis,
    }
}

/// The machine grid: the paper's width, a narrower machine, and a
/// low-latency one — enough to exercise width-dependent budgets.
fn machine_grid() -> Vec<(String, MachineConfig)> {
    vec![
        (
            "w=32 L=100 d=15 (paper)".to_string(),
            MachineConfig::with_width(32),
        ),
        ("w=16 L=100 d=15".to_string(), MachineConfig::with_width(16)),
        (
            "w=16 L=8 d=4".to_string(),
            MachineConfig::with_width(16).latency(8).num_dmms(4),
        ),
    ]
}

/// Extra workers on a `--schedules` replay device. Staged paths replay
/// sequentially; persistent 1R1W's residents must run concurrently for
/// reverse / adversarial / shuffled resident interleavings to happen.
fn replay_workers(path: Path) -> usize {
    match path {
        Path::Persistent => 3,
        Path::Alg(_) => 0,
    }
}

/// Race-family findings in one analysis, for the `--races` summary.
fn race_counts(analysis: &RunAnalysis) -> (usize, usize) {
    (
        analysis.report.count(Rule::ScheduleRace),
        analysis.report.count(Rule::HandoffBeforeReady),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = parsed_flag(&args, "--n", 256);
    let batch: usize = parsed_flag(&args, "--batch", 0);
    let schedules: usize = parsed_flag(&args, "--schedules", 0);
    let seed: u64 = parsed_flag(&args, "--seed", 42);
    let verbose = args.iter().any(|a| a == "--verbose");
    let races = args.iter().any(|a| a == "--races");

    if args.iter().any(|a| a == "--fixtures") {
        return run_fixture_suite(schedules.max(4), seed, &args);
    }

    // The raw block kernels (unlike `compute_sat`, which pads) require the
    // matrix side to be a multiple of the machine width.
    if let Some((label, cfg)) = machine_grid()
        .into_iter()
        .find(|(_, cfg)| n == 0 || n % cfg.width != 0)
    {
        eprintln!(
            "satlint: --n {n} is not a positive multiple of w = {} (machine {label}); \
             pick a multiple of 32",
            cfg.width
        );
        return ExitCode::FAILURE;
    }

    let mut records = Vec::new();
    let mut dirty = 0usize;
    let mut race_findings = (0usize, 0usize);
    println!(
        "satlint: {} paths × {} machines, n = {n}",
        Path::ALL.len(),
        machine_grid().len()
    );
    println!();
    for (label, cfg) in machine_grid() {
        println!("== machine {label} ==");
        let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
        for path in Path::ALL {
            let counters = path.run(&dev, n).counters;
            let trace = dev.take_trace();
            let contract = path.contract(n, cfg);
            let analysis = analyze_run(&trace, &counters, &cfg, &contract);
            if !analysis.report.is_clean() {
                dirty += 1;
            }
            let (sr, hbr) = race_counts(&analysis);
            race_findings.0 += sr;
            race_findings.1 += hbr;
            print!("{}", analysis.report.render());
            if verbose {
                for w in &analysis.windows {
                    println!(
                        "    window {}: t = [{}, {}], {} blocks, {} UMM + {} DMM stages",
                        w.index, w.start, w.end, w.blocks, w.global_stages, w.shared_stages
                    );
                }
            }
            let mut explored = 1;
            let mut divergent = 0;
            if schedules > 0 {
                let replay = replay_schedules(schedules, seed, |order| {
                    let opts = DeviceOptions::new(cfg).workers(replay_workers(path));
                    fingerprint_f64(&path.run(&Device::new(opts.order(order)), n).output)
                });
                explored = replay.schedules();
                divergent = replay.divergent.len();
                if divergent > 0 {
                    dirty += 1;
                    println!(
                        "  replay: {divergent} of {explored} schedules diverge \
                         bit-exactly from the forward run"
                    );
                } else {
                    println!("  replay: {explored} schedules bit-exact");
                }
            }
            records.push(SatlintRecord {
                schema_version: SCHEMA_VERSION,
                config: label.clone(),
                width: cfg.width,
                latency: cfg.latency,
                n,
                algorithm: path.name().to_string(),
                clean: analysis.report.is_clean() && divergent == 0,
                schedules: explored,
                divergent,
                analysis,
            });
        }
        println!();
    }
    // `--batch B`: additionally lint the fused batched 1R1W launch sequence
    // the serving layer issues (`sat-service` → `compute_sat_batch`, each
    // image's SAT computed over its own padded buffer in place), holding
    // it to the single-image 1R1W structural rules and stride budget — the
    // batch fuses stages across images, so it must stay exactly as
    // coalesced, conflict-free and race-free as one image's wavefront.
    if batch > 0 {
        for (label, cfg) in machine_grid() {
            println!("== machine {label}, batched 1R1W x{batch} ==");
            let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
            let images: Vec<Matrix<f64>> = (0..batch)
                .map(|k| workload(n).map(|v| v + k as f64))
                .collect();
            dev.reset_stats();
            compute_sat_batch(&dev, &images);
            let counters = dev.stats();
            let trace = dev.take_trace();
            // Structural rules plus 1R1W's stride budget; the Table I
            // C/S/B row is per-image, so counter divergence is skipped.
            let mut contract = KernelContract::for_algorithm(SatAlgorithm::OneR1W, n, cfg);
            contract.name = format!("1R1W-batch{batch}");
            contract.expected = None;
            let analysis = analyze_run(&trace, &counters, &cfg, &contract);
            if !analysis.report.is_clean() {
                dirty += 1;
            }
            let (sr, hbr) = race_counts(&analysis);
            race_findings.0 += sr;
            race_findings.1 += hbr;
            print!("{}", analysis.report.render());
            records.push(SatlintRecord {
                schema_version: SCHEMA_VERSION,
                config: label.clone(),
                width: cfg.width,
                latency: cfg.latency,
                n,
                algorithm: format!("1R1W-batch{batch}"),
                clean: analysis.report.is_clean(),
                schedules: 1,
                divergent: 0,
                analysis,
            });
            println!();
        }
    }
    maybe_write_json(&args, &records);
    if races {
        println!(
            "satlint: race analysis: {} schedule-race, {} handoff-before-ready \
             finding(s) across {} runs",
            race_findings.0,
            race_findings.1,
            records.len()
        );
    }
    if dirty == 0 {
        println!("satlint: all {} runs clean", records.len());
        ExitCode::SUCCESS
    } else {
        println!("satlint: {dirty} of {} runs have findings", records.len());
        ExitCode::FAILURE
    }
}

/// `--fixtures`: the analyzer↔explorer agreement self-test.
///
/// Every deliberately-broken fixture must be flagged by the static
/// happens-before analysis *and* diverge under adversarial replay; every
/// fixed twin must be clean under both. Exit 1 (findings present, detectors
/// agree — the expected outcome), exit 2 (the detectors disagree — a bug in
/// one of them), exit 0 is impossible unless the fixtures stop being broken.
fn run_fixture_suite(k: usize, seed: u64, args: &[String]) -> ExitCode {
    let cfg = MachineConfig::with_width(8);
    let mut records = Vec::new();
    let mut dirty = 0usize;
    let mut disagreements = 0usize;
    println!(
        "satlint: {} fixtures × broken/fixed, {} schedules each (seed {seed})",
        Fixture::ALL.len(),
        k
    );
    println!();
    for fixture in Fixture::ALL {
        for broken in [true, false] {
            let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
            run_fixture(&dev, fixture, broken);
            let counters = dev.stats();
            let trace = dev.take_trace();
            let contract = fixture.contract(broken);
            let analysis = analyze_run(&trace, &counters, &cfg, &contract);
            let statically_dirty = !analysis.report.is_clean();
            let replay = replay_schedules(k, seed, |order| {
                let rdev = Device::new(DeviceOptions::new(cfg).workers(0).order(order));
                run_fixture(&rdev, fixture, broken)
            });
            let divergent = replay.divergent.len();
            print!("{}", analysis.report.render());
            println!(
                "  replay: {} schedules, {divergent} divergent",
                replay.schedules()
            );
            if statically_dirty != (divergent > 0) {
                disagreements += 1;
                eprintln!(
                    "satlint: DETECTOR DISAGREEMENT on {}: analyzer dirty={statically_dirty}, \
                     replay divergent={divergent}",
                    contract.name
                );
            }
            if statically_dirty {
                dirty += 1;
            }
            records.push(SatlintRecord {
                schema_version: SCHEMA_VERSION,
                config: "w=8 L=100 d=15 (fixture rig)".to_string(),
                width: cfg.width,
                latency: cfg.latency,
                n: 0,
                algorithm: contract.name.clone(),
                clean: !statically_dirty && divergent == 0,
                schedules: replay.schedules(),
                divergent,
                analysis,
            });
            println!();
        }
    }
    maybe_write_json(args, &records);
    if disagreements > 0 {
        println!(
            "satlint: {disagreements} disagreement(s) between analyzer and replay — \
             one of the detectors is broken"
        );
        return ExitCode::from(2);
    }
    println!(
        "satlint: analyzer and replay agree on all {} fixture runs \
         ({dirty} broken variants flagged, as designed)",
        records.len()
    );
    // Findings are the *expected* outcome here: a gate wiring `--fixtures`
    // must assert a nonzero exit.
    ExitCode::FAILURE
}
