//! benchdiff — the gated benchmark trajectory: measure every algorithm at
//! fixed sizes, write a canonical `BENCH_perf.json`, append the run to a
//! committed `BENCH_history.jsonl`, and **fail** when the current tree
//! regresses against the committed baseline.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin benchdiff            # compare
//! cargo run --release -p sat-bench --bin benchdiff -- --write # re-baseline
//! ```
//!
//! Flags:
//!
//! * `--sizes LIST` — comma-separated matrix sides (default `128,256`);
//! * `--width W` — machine width (default 32);
//! * `--runs K` — timing repetitions per cell; the median is kept
//!   (default 5);
//! * `--baseline PATH` — baseline to compare against (default
//!   `BENCH_perf.json`);
//! * `--history PATH` — history file `--write` appends to (default
//!   `BENCH_history.jsonl`);
//! * `--tolerance F` — relative band for the calibration-normalized wall
//!   clock (default 0.6, i.e. ±60%);
//! * `--write` — rewrite the baseline from this run and append a history
//!   record instead of comparing;
//! * `--inject-slowdown ALGO:FACTOR` — scale the measured wall clock of
//!   one algorithm (test hook for the wall gate itself); under
//!   `--conformance` it additionally runs that algorithm's cell through a
//!   real per-launch straggler so the drift detector sees the slowdown;
//! * `--conformance` — after the measurement table, replay every cell with
//!   a live [`obs::Conformance`] tracker attached and print its report:
//!   the online (w, Λ) fit must converge to the configured machine within
//!   the tracker's tolerance (the fit regresses counter-derived model
//!   units, so this is deterministic), and a fault-free pass must raise
//!   **zero** drift alerts. With `--inject-slowdown ALGO:FACTOR` the pass
//!   must instead trip **exactly one** `cusum` drift alert on the injected
//!   algorithm's cell, emit the matching flight-recorder event, and dump
//!   one post-mortem bundle (into `--conformance-dir`) that passes
//!   [`obs::flight::validate`] and whose `drift_alert` event names the
//!   injected cell and shard 0 — exiting nonzero on any other outcome;
//! * `--conformance-dir DIR` — where the injected-drift bundle goes
//!   (default `.`);
//! * `--validate-history PATH` — parse a history file and check its
//!   invariants (schema tag, strictly increasing `seq`, non-decreasing
//!   `unix_ms`), then exit.
//!
//! ## Tolerance policy
//!
//! Deterministic metrics — coalesced ops, stride ops, barrier steps and
//! the modeled cost `C/w + S + Λ(B+1)` they imply — are compared
//! **exactly**: any drift is a semantic change, not noise. Wall clock is
//! noisy and host-dependent, so each cell's median-of-`K` is divided by a
//! fixed CPU calibration loop timed in the same process, and only that
//! normalized ratio is compared, within `--tolerance`.
//!
//! Besides the `SatAlgorithm` cells, two named execution-mode cells run
//! at every size: `1R1W-persist` (persistent blocks, one launch total)
//! and `1R1W-fleet4` (the serving layer's banded decomposition on a real
//! four-device fleet; its deterministic columns are checked against the
//! closed-form banded model and its `modeled(u)` column is the fleet
//! *critical-path* cost).

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpu_exec::{Device, DeviceFleet, DeviceOptions, FaultPlan, FleetOptions, LaunchContext};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use obs::json::JsonValue;
use obs::Obs;
use sat_bench::{
    bench_device, flag_value, parsed_flag, run_fleet_banded, run_persistent, run_real, Run,
};

const PERF_SCHEMA: &str = "sat-hmm/bench-perf/v1";
const HISTORY_SCHEMA: &str = "sat-hmm/bench-history/v1";
/// The persistent-block 1R1W cell name (a named execution mode of 1R1W,
/// not a `SatAlgorithm` variant).
const PERSIST_NAME: &str = "1R1W-persist";
/// The banded-fleet 1R1W cell name: the same decomposition the serving
/// layer shards, run on a real four-device fleet.
const FLEET_NAME: &str = "1R1W-fleet4";
const FLEET_SHARDS: usize = 4;

obs::json::record! {
    /// The canonical perf snapshot (`BENCH_perf.json`).
    struct PerfFile {
        schema: String,
        width: usize,
        runs: usize,
        /// Median seconds of the fixed calibration loop on the generating host.
        calibration_seconds: f64,
        host: Host,
        entries: Vec<PerfEntry>,
    }

    struct Host {
        os: String,
        arch: String,
        cpus: usize,
    }

    /// One (algorithm, n) cell of the benchmark matrix.
    #[derive(Clone)]
    struct PerfEntry {
        algorithm: String,
        n: usize,
        /// Deterministic transaction counters from the measured run.
        coalesced_ops: u64,
        stride_ops: u64,
        barrier_steps: u64,
        /// The paper's global access cost on those counters, in time units.
        modeled_cost_units: f64,
        /// Per-phase attribution totals reconstructed from the launch trace
        /// (`obs::profile::attribution_from_trace`); `launches` is the row
        /// count, `modeled_cost_units` the report's recomputed total.
        attribution: Attribution,
        wall: WallStats,
    }

    #[derive(Clone)]
    struct Attribution {
        launches: usize,
        modeled_cost_units: f64,
    }

    #[derive(Clone)]
    struct WallStats {
        runs: usize,
        median_seconds: f64,
        min_seconds: f64,
        max_seconds: f64,
        /// `median_seconds` divided by the host's calibration median — the
        /// only wall metric the gate compares.
        normalized: f64,
    }

    /// One appended line of `BENCH_history.jsonl`.
    struct HistoryRecord {
        schema: String,
        /// Strictly increasing per file; `--validate-history` enforces it.
        seq: u64,
        unix_ms: u64,
        commit: String,
        width: usize,
        calibration_seconds: f64,
        entries: Vec<HistoryEntry>,
    }

    struct HistoryEntry {
        algorithm: String,
        n: usize,
        normalized_wall: f64,
        modeled_cost_units: f64,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(path) = flag_value(&args, "--validate-history") {
        return validate_history(&path);
    }

    let sizes: Vec<usize> = flag_value(&args, "--sizes")
        .unwrap_or_else(|| "128,256".to_string())
        .split(',')
        .map(|s| s.trim().parse().unwrap_or(0))
        .collect();
    let width: usize = parsed_flag(&args, "--width", 32);
    let runs: usize = parsed_flag(&args, "--runs", 5).max(1);
    let baseline_path = flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_perf.json".into());
    let history_path =
        flag_value(&args, "--history").unwrap_or_else(|| "BENCH_history.jsonl".into());
    let tolerance: f64 = parsed_flag(&args, "--tolerance", 0.6);
    let write = args.iter().any(|a| a == "--write");
    let conformance = args.iter().any(|a| a == "--conformance");
    let conformance_dir = flag_value(&args, "--conformance-dir").unwrap_or_else(|| ".".into());
    let inject = match flag_value(&args, "--inject-slowdown").map(|s| parse_injection(&s)) {
        Some(Err(e)) => {
            eprintln!("error: --inject-slowdown: {e}");
            return ExitCode::from(2);
        }
        Some(Ok(pair)) => Some(pair),
        None => None,
    };
    if sizes.iter().any(|&n| n == 0 || n % width != 0) {
        eprintln!("error: --sizes must be positive multiples of --width {width}");
        return ExitCode::from(2);
    }

    let calibration_seconds = calibrate();
    println!(
        "benchdiff — w = {width}, sizes {sizes:?}, {runs} runs/cell, calibration {:.4} s",
        calibration_seconds
    );

    let cfg = MachineConfig::with_width(width);
    let mut entries = Vec::new();
    println!(
        "{:<11} {:>6} | {:>12} {:>9} {:>9} | {:>12} | {:>12} {:>8}",
        "algorithm", "n", "coalesced", "stride", "barriers", "modeled(u)", "wall med(s)", "norm"
    );
    let record = |mut e: PerfEntry, entries: &mut Vec<PerfEntry>| {
        if let Some((ref name, factor)) = inject {
            if e.algorithm.eq_ignore_ascii_case(name) {
                e.wall.median_seconds *= factor;
                e.wall.min_seconds *= factor;
                e.wall.max_seconds *= factor;
                e.wall.normalized *= factor;
            }
        }
        println!(
            "{:<11} {:>6} | {:>12} {:>9} {:>9} | {:>12.1} | {:>12.6} {:>8.3}",
            e.algorithm,
            e.n,
            e.coalesced_ops,
            e.stride_ops,
            e.barrier_steps,
            e.modeled_cost_units,
            e.wall.median_seconds,
            e.wall.normalized
        );
        entries.push(e);
    };
    for &n in &sizes {
        for alg in SatAlgorithm::ALL {
            record(
                measure_cell(cfg, alg, n, runs, calibration_seconds),
                &mut entries,
            );
        }
        record(
            measure_persistent_cell(cfg, n, runs, calibration_seconds),
            &mut entries,
        );
        record(
            measure_fleet_cell(cfg, n, runs, calibration_seconds),
            &mut entries,
        );
    }

    // The persistent gate: at every benchmarked size, the persistent cell's
    // modeled barrier term `Λ·(B + 1)` must be *strictly* below
    // launch-per-stage 1R1W's — that term is the whole point of the mode.
    let lam = cfg.window_overhead() as f64;
    let mut barrier_failures = Vec::new();
    for &n in &sizes {
        let staged = entries
            .iter()
            .find(|e| e.algorithm == SatAlgorithm::OneR1W.name() && e.n == n)
            .expect("1R1W is always measured");
        let pers = entries
            .iter()
            .find(|e| e.algorithm == PERSIST_NAME && e.n == n)
            .expect("the persistent cell is always measured");
        let staged_term = lam * (staged.barrier_steps + 1) as f64;
        let pers_term = lam * (pers.barrier_steps + 1) as f64;
        if pers_term < staged_term {
            println!(
                "persistent barrier term at n = {n}: {pers_term:.0} u vs staged {staged_term:.0} u \
                 ({:.1}x cheaper)",
                staged_term / pers_term
            );
        } else {
            barrier_failures.push(format!(
                "n = {n}: persistent barrier term {pers_term:.0} u is not strictly below \
                 staged 1R1W's {staged_term:.0} u"
            ));
        }
    }
    if !barrier_failures.is_empty() {
        for f in &barrier_failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "benchdiff: FAIL ({} persistent barrier-term violation(s))",
            barrier_failures.len()
        );
        return ExitCode::FAILURE;
    }

    if conformance && !conformance_pass(cfg, &sizes, inject.as_ref(), Path::new(&conformance_dir)) {
        eprintln!("benchdiff: FAIL (model conformance)");
        return ExitCode::FAILURE;
    }

    let perf = PerfFile {
        schema: PERF_SCHEMA.to_string(),
        width,
        runs,
        calibration_seconds,
        host: Host {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
        },
        entries,
    };

    if write {
        return write_baseline(&perf, &baseline_path, &history_path);
    }
    compare(&perf, &baseline_path, tolerance)
}

/// Parse `ALGO:FACTOR` (e.g. `1r1w:2.0`).
fn parse_injection(s: &str) -> Result<(String, f64), String> {
    let (name, factor) = s
        .split_once(':')
        .ok_or_else(|| format!("expected ALGO:FACTOR, got {s:?}"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|_| format!("unparsable factor {factor:?}"))?;
    if !name.eq_ignore_ascii_case(PERSIST_NAME)
        && !name.eq_ignore_ascii_case(FLEET_NAME)
        && SatAlgorithm::ALL
            .iter()
            .all(|a| !a.name().eq_ignore_ascii_case(name))
    {
        return Err(format!("unknown algorithm {name:?}"));
    }
    Ok((name.to_string(), factor))
}

/// The canonical cell name `--inject-slowdown`'s (case-insensitive)
/// algorithm refers to, so the injected run lands in the same conformance
/// cell phase A baselined.
fn canonical_name(name: &str) -> Option<String> {
    if name.eq_ignore_ascii_case(PERSIST_NAME) {
        return Some(PERSIST_NAME.to_string());
    }
    SatAlgorithm::ALL
        .iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .map(|a| a.name().to_string())
}

/// The `--conformance` pass. Phase A replays every (algorithm, n) cell —
/// plus the persistent mode — on tracker-attached devices until each cell
/// has a frozen τ baseline and a healthy post-baseline EWMA, which also
/// feeds the online (w, Λ) fit. Phase B (only with `--inject-slowdown`)
/// reruns the injected algorithm's cell behind a real per-launch straggler
/// sized from the measured healthy launch wall — floored at 50 µs/launch so
/// the detector's signal sits far above scheduler noise — and must trip
/// exactly one `cusum` drift alert, whose flight event then rides the
/// dumped post-mortem bundle.
fn conformance_pass(
    cfg: MachineConfig,
    sizes: &[usize],
    inject: Option<&(String, f64)>,
    dir: &Path,
) -> bool {
    let injected_cell_name = match inject {
        Some((name, _)) => match canonical_name(name) {
            Some(c) => Some(c),
            None => {
                eprintln!(
                    "conformance: --inject-slowdown {name:?} is not a conformance cell \
                     (fleet cells are not covered)"
                );
                return false;
            }
        },
        None => None,
    };

    let obs = Obs::new();
    let registry = obs.registry().expect("enabled observer has a registry");
    let mut ccfg = obs::ConformanceConfig::for_machine(cfg.width as u64, cfg.window_overhead());
    // Short baselines freeze every cell quickly; the widened slack keeps
    // the onset channel quiet under scheduler noise (a loaded host can
    // stretch a healthy launch a few-fold) while the injected straggler
    // below sits at ≥20× and still trips within a handful of launches.
    ccfg.baseline_samples = 8;
    ccfg.drift_slack = 4.0;
    let tracker = obs::Conformance::with_registry(ccfg, &registry, "sat_service_");
    let gc = GlobalCost::new(cfg);

    type Runner<'a> = Box<dyn Fn(&Device) + 'a>;
    let cells_for = |n: usize| -> Vec<(String, Runner)> {
        let mut cells: Vec<(String, Runner)> = Vec::new();
        for alg in SatAlgorithm::ALL {
            if alg == SatAlgorithm::FourR1W && n > 1024 {
                continue;
            }
            let r = if alg == SatAlgorithm::HybridR1W {
                gc.optimal_r(n)
            } else {
                0.0
            };
            cells.push((
                alg.name().to_string(),
                Box::new(move |d: &Device| {
                    run_real(d, alg, r, n);
                }),
            ));
        }
        cells.push((
            PERSIST_NAME.to_string(),
            Box::new(move |d: &Device| {
                run_persistent(d, n);
            }),
        ));
        cells
    };

    // Phase A: healthy replays until every cell's baseline froze and a
    // post-baseline EWMA exists. Also measures the injected cell's healthy
    // per-launch wall, to size the phase-B straggler.
    let mut injected_launch_secs = f64::INFINITY;
    for &n in sizes {
        for (name, run) in cells_for(n) {
            let label = obs::conformance::cell_label(&name, n, n);
            let dev = Device::new(
                DeviceOptions::new(cfg)
                    .workers(0)
                    .observer(obs.clone())
                    .conformance(tracker.clone()),
            );
            dev.set_launch_context(Some(LaunchContext {
                cell: Some(label.clone()),
                ..LaunchContext::default()
            }));
            for _ in 0..20 {
                let launches_before = dev.launches();
                let tick = Instant::now();
                run(&dev);
                let secs = tick.elapsed().as_secs_f64();
                let launches = dev.launches() - launches_before;
                if injected_cell_name.as_deref() == Some(name.as_str()) && launches > 0 {
                    injected_launch_secs = injected_launch_secs.min(secs / launches as f64);
                }
                let samples = tracker
                    .cells()
                    .iter()
                    .find(|c| c.cell == label)
                    .map_or(0, |c| c.samples);
                if samples >= 16 {
                    break;
                }
            }
        }
    }

    // Phase B: the injected slowdown, as a real straggler on every launch.
    if let Some((_, factor)) = inject {
        let name = injected_cell_name.as_deref().expect("resolved above");
        let n = sizes[0];
        let label = obs::conformance::cell_label(name, n, n);
        let extra = (injected_launch_secs * (factor - 1.0)).max(50e-6);
        let plan = FaultPlan::new(7).straggler(1.0, Duration::from_secs_f64(extra));
        let dev = Device::new(
            DeviceOptions::new(cfg)
                .workers(0)
                .observer(obs.clone())
                .conformance(tracker.clone())
                .fault_plan(plan),
        );
        dev.set_launch_context(Some(LaunchContext {
            cell: Some(label.clone()),
            ..LaunchContext::default()
        }));
        let (_, run) = cells_for(n)
            .into_iter()
            .find(|(c, _)| c == name)
            .expect("the injected cell is always replayed");
        for _ in 0..10 {
            run(&dev);
            if tracker.alert_count() > 0 {
                break;
            }
        }
        println!(
            "conformance: injected {:.1}x slowdown on {label} \
             ({:.1} µs straggler per launch)",
            factor,
            extra * 1e6
        );
    }

    // The report, fit cross-check, and the drift-alert contract.
    let fit = tracker.fit();
    let tol = tracker.config().fit_tolerance;
    println!(
        "conformance: fitted w {:.3} / Λ {:.2} vs configured {} / {} \
         (rms {:.4}, {} samples, converged {})",
        fit.width,
        fit.window_overhead,
        cfg.width,
        cfg.window_overhead(),
        fit.residual_rms,
        fit.samples,
        fit.converged
    );
    let alerts = tracker.alerts();
    for a in &alerts {
        println!(
            "conformance: drift alert — {} via {} (τ ratio {:.2} over {} samples)",
            a.cell, a.channel, a.ratio, a.samples
        );
    }
    let mut ok = true;
    // The fit regresses counter-derived model units, so wall-time
    // injection leaves it untouched: it must recover the machine in both
    // modes.
    if !fit.matches(cfg.width as u64, cfg.window_overhead(), tol) {
        eprintln!(
            "conformance: online fit does not recover the configured machine \
             (w {:.3} vs {}, Λ {:.2} vs {}, tol {tol})",
            fit.width,
            cfg.width,
            fit.window_overhead,
            cfg.window_overhead()
        );
        ok = false;
    }
    match inject {
        None => {
            if !alerts.is_empty() {
                eprintln!(
                    "conformance: a fault-free pass raised {} drift alert(s)",
                    alerts.len()
                );
                ok = false;
            }
        }
        Some(_) => {
            let name = injected_cell_name.as_deref().expect("resolved above");
            let expected = obs::conformance::cell_label(name, sizes[0], sizes[0]);
            if alerts.len() != 1 || alerts[0].channel != "cusum" || alerts[0].cell != expected {
                eprintln!(
                    "conformance: injected slowdown must trip exactly one cusum alert \
                     on {expected} (got {alerts:?})"
                );
                return false;
            }
            // The alert's flight event rides a dumped bundle, which must
            // round-trip the validator and, alone, name the drifting cell
            // (the label `/debug/conformance` shows) and its shard.
            let trigger = obs::flight::Trigger {
                reason: "drift".to_string(),
                request: 0,
                detail: format!(
                    "injected drift: {} via {} (τ ratio {:.2})",
                    alerts[0].cell, alerts[0].channel, alerts[0].ratio
                ),
            };
            match obs::flight::dump(&obs, dir, "conformance-drift", &trigger) {
                Ok(path) => {
                    let checked = std::fs::read_to_string(&path)
                        .map_err(|e| e.to_string())
                        .and_then(|text| {
                            let stats = obs::flight::validate(&text)?;
                            let names_cell = |e: &JsonValue| {
                                let field = |k| e.get(k).and_then(JsonValue::as_str);
                                field("kind") == Some("drift_alert")
                                    && field("cell") == Some(expected.as_str())
                                    && e.get("shard").and_then(JsonValue::as_f64) == Some(0.0)
                            };
                            let events = JsonValue::parse(&text)?;
                            let events = events.get("events").and_then(JsonValue::as_array);
                            if !events.is_some_and(|evs| evs.iter().any(names_cell)) {
                                return Err(format!("no drift_alert event names {expected}"));
                            }
                            Ok(stats)
                        });
                    match checked {
                        Ok(stats) => println!(
                            "conformance: drift bundle {} validates ({} events); \
                             drift_alert names {expected} on shard 0",
                            path.display(),
                            stats.events
                        ),
                        Err(e) => {
                            eprintln!("conformance: drift bundle {} invalid: {e}", path.display());
                            ok = false;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("conformance: cannot dump drift bundle into {dir:?}: {e}");
                    ok = false;
                }
            }
        }
    }
    ok
}

/// Median seconds of a fixed, allocation-free integer loop. Dividing the
/// measured wall clocks by this folds away absolute host speed, so a
/// baseline generated on one machine gates runs on another.
fn calibrate() -> f64 {
    let spin = || {
        let start = Instant::now();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..1 << 24 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    };
    let mut t: Vec<f64> = (0..5).map(|_| spin()).collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Measure one cell: `runs` timed executions on a bare sequential device
/// (median wall), one traced execution for the attribution totals.
fn measure_cell(
    cfg: MachineConfig,
    alg: SatAlgorithm,
    n: usize,
    runs: usize,
    calibration: f64,
) -> PerfEntry {
    let gc = GlobalCost::new(cfg);
    let r = if alg == SatAlgorithm::HybridR1W {
        gc.optimal_r(n)
    } else {
        0.0
    };
    measure_named_cell(cfg, alg.name(), n, runs, calibration, &|dev| {
        run_real(dev, alg, r, n)
    })
}

/// Measure the persistent-block 1R1W cell — same harness, different driver.
fn measure_persistent_cell(
    cfg: MachineConfig,
    n: usize,
    runs: usize,
    calibration: f64,
) -> PerfEntry {
    measure_named_cell(cfg, PERSIST_NAME, n, runs, calibration, &|dev| {
        run_persistent(dev, n)
    })
}

/// Measure the banded-fleet 1R1W cell: the serving layer's shard
/// decomposition on a real four-device fleet. The deterministic columns
/// come from the closed-form banded model — merged device counters must
/// reproduce its coalesced/stride totals exactly, and the fleet must
/// issue exactly `total_launches()` kernel launches. `barrier_steps`
/// stores the launch-normalized total (launches − 1): per-device barrier
/// counters partition the work differently than a single device would,
/// so launch counts are the comparable quantity. `modeled_cost_units` is
/// the *critical-path* cost — the quantity the fleet actually buys down.
fn measure_fleet_cell(cfg: MachineConfig, n: usize, runs: usize, calibration: f64) -> PerfEntry {
    let model = GlobalCost::new(cfg)
        .banded_1r1w_exact_counts(n, n, FLEET_SHARDS)
        .expect("benchmarked sizes are width-aligned");
    let expect = model.total();

    let fleet = DeviceFleet::new(FleetOptions::new(
        DeviceOptions::new(cfg).workers(0),
        FLEET_SHARDS,
    ));
    let mut walls = Vec::with_capacity(runs);
    let mut measured = None;
    for _ in 0..runs {
        let (stats, secs, launches) = run_fleet_banded(&fleet, n);
        walls.push(secs);
        measured = Some((stats, launches));
    }
    let (stats, launches) = measured.expect("runs >= 1");
    walls.sort_by(f64::total_cmp);
    let median = walls[walls.len() / 2];

    assert_eq!(
        stats.coalesced_reads + stats.coalesced_writes,
        expect.coalesced_reads + expect.coalesced_writes,
        "{FLEET_NAME} n={n}: merged coalesced ops diverge from the banded model"
    );
    assert_eq!(
        stats.stride_reads + stats.stride_writes,
        expect.stride_reads + expect.stride_writes,
        "{FLEET_NAME} n={n}: merged stride ops diverge from the banded model"
    );
    assert_eq!(
        launches,
        model.total_launches(),
        "{FLEET_NAME} n={n}: fleet launch count diverges from the banded model"
    );

    // One traced execution with every device reporting into a single
    // recorder; the trace-side attribution must agree with the devices'
    // own counters (two independent observation paths).
    let obs = Obs::new();
    let traced = DeviceFleet::new(FleetOptions::new(
        DeviceOptions::new(cfg).workers(0).observer(obs.clone()),
        FLEET_SHARDS,
    ));
    run_fleet_banded(&traced, n);
    let report = obs::profile::attribution_from_trace(&obs, &cfg);
    let total = report.total();
    assert_eq!(
        total.coalesced_ops,
        stats.coalesced_reads + stats.coalesced_writes,
        "{FLEET_NAME} n={n}: attribution and device counters diverged"
    );

    PerfEntry {
        algorithm: FLEET_NAME.to_string(),
        n,
        coalesced_ops: stats.coalesced_reads + stats.coalesced_writes,
        stride_ops: stats.stride_reads + stats.stride_writes,
        barrier_steps: expect.barrier_steps,
        modeled_cost_units: model.critical_path_cost(&cfg),
        attribution: Attribution {
            launches: report.rows.len(),
            modeled_cost_units: total.modeled_cost,
        },
        wall: WallStats {
            runs,
            median_seconds: median,
            min_seconds: walls[0],
            max_seconds: *walls.last().unwrap(),
            normalized: median / calibration,
        },
    }
}

/// The shared cell harness behind [`measure_cell`] /
/// [`measure_persistent_cell`]: `runs` timed executions (median wall), one
/// traced execution for the attribution totals, which must agree with the
/// device's own counters (two independent observation paths).
fn measure_named_cell(
    cfg: MachineConfig,
    name: &str,
    n: usize,
    runs: usize,
    calibration: f64,
    run: &dyn Fn(&Device) -> Run,
) -> PerfEntry {
    let dev = bench_device(cfg);
    let mut walls = Vec::with_capacity(runs);
    let mut stats = None;
    for _ in 0..runs {
        let r = run(&dev);
        walls.push(r.seconds);
        stats = Some(r.counters);
    }
    let stats = stats.expect("runs >= 1");
    walls.sort_by(f64::total_cmp);
    let median = walls[walls.len() / 2];

    let obs = Obs::new();
    let traced = Device::new(DeviceOptions::new(cfg).workers(0).observer(obs.clone()));
    run(&traced);
    let report = obs::profile::attribution_from_trace(&obs, &cfg);
    let total = report.total();
    assert_eq!(
        total.coalesced_ops,
        stats.coalesced_reads + stats.coalesced_writes,
        "{name} n={n}: attribution and device counters diverged"
    );

    PerfEntry {
        algorithm: name.to_string(),
        n,
        coalesced_ops: stats.coalesced_reads + stats.coalesced_writes,
        stride_ops: stats.stride_reads + stats.stride_writes,
        barrier_steps: stats.barrier_steps,
        modeled_cost_units: stats.global_cost(&cfg),
        attribution: Attribution {
            launches: report.rows.len(),
            modeled_cost_units: total.modeled_cost,
        },
        wall: WallStats {
            runs,
            median_seconds: median,
            min_seconds: walls[0],
            max_seconds: *walls.last().unwrap(),
            normalized: median / calibration,
        },
    }
}

fn write_baseline(perf: &PerfFile, baseline_path: &str, history_path: &str) -> ExitCode {
    let json = obs::json::to_string_pretty(perf);
    if let Err(e) = std::fs::write(baseline_path, json + "\n") {
        eprintln!("error: writing {baseline_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {baseline_path} ({} entries)", perf.entries.len());

    let next_seq = match last_history_seq(history_path) {
        Ok(seq) => seq + 1,
        Err(e) => {
            eprintln!("error: {history_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = HistoryRecord {
        schema: HISTORY_SCHEMA.to_string(),
        seq: next_seq,
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        commit: current_commit(),
        width: perf.width,
        calibration_seconds: perf.calibration_seconds,
        entries: perf
            .entries
            .iter()
            .map(|e| HistoryEntry {
                algorithm: e.algorithm.clone(),
                n: e.n,
                normalized_wall: e.wall.normalized,
                modeled_cost_units: e.modeled_cost_units,
            })
            .collect(),
    };
    let line = obs::json::to_string(&record);
    let mut contents = std::fs::read_to_string(history_path).unwrap_or_default();
    if !contents.is_empty() && !contents.ends_with('\n') {
        contents.push('\n');
    }
    contents.push_str(&line);
    contents.push('\n');
    if let Err(e) = std::fs::write(history_path, contents) {
        eprintln!("error: appending to {history_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("appended seq {next_seq} to {history_path}");
    ExitCode::SUCCESS
}

/// Largest `seq` already in the history file (0 when absent/empty).
fn last_history_seq(path: &str) -> Result<u64, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(0);
    };
    let mut last = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let seq = v
            .get("seq")
            .and_then(|s| s.as_f64())
            .ok_or_else(|| format!("line {}: missing seq", i + 1))? as u64;
        last = last.max(seq);
    }
    Ok(last)
}

/// `BENCH_COMMIT` env override, else `git rev-parse --short HEAD`, else
/// `"unknown"` — the history stays appendable outside a git checkout.
fn current_commit() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compare the fresh measurement against the committed baseline. Exits
/// nonzero naming every regressed metric.
fn compare(perf: &PerfFile, baseline_path: &str, tolerance: f64) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading baseline {baseline_path}: {e} (generate one with --write)");
            return ExitCode::FAILURE;
        }
    };
    let base = match JsonValue::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: baseline {baseline_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if base.get("schema").and_then(|s| s.as_str()) != Some(PERF_SCHEMA) {
        eprintln!("error: baseline {baseline_path} lacks schema {PERF_SCHEMA:?}");
        return ExitCode::FAILURE;
    }
    let base_width = base.get("width").and_then(|w| w.as_f64()).unwrap_or(0.0) as usize;
    if base_width != perf.width {
        eprintln!(
            "error: baseline width {base_width} != current width {} (re-baseline with --write)",
            perf.width
        );
        return ExitCode::FAILURE;
    }
    let empty: [JsonValue; 0] = [];
    let base_entries = base
        .get("entries")
        .and_then(|e| e.as_array())
        .unwrap_or(&empty);

    println!(
        "\ncomparing {} cells against {baseline_path} (wall tolerance ±{:.0}%)",
        perf.entries.len(),
        tolerance * 100.0
    );
    let mut failures = Vec::new();
    for e in &perf.entries {
        let Some(b) = base_entries.iter().find(|b| {
            b.get("algorithm").and_then(|a| a.as_str()) == Some(e.algorithm.as_str())
                && b.get("n").and_then(|n| n.as_f64()) == Some(e.n as f64)
        }) else {
            failures.push(format!(
                "{} n={}: no baseline entry (add it with --write)",
                e.algorithm, e.n
            ));
            continue;
        };
        let num = |key: &str| b.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        // Deterministic metrics: exact.
        for (metric, cur, basev) in [
            (
                "coalesced_ops",
                e.coalesced_ops as f64,
                num("coalesced_ops"),
            ),
            ("stride_ops", e.stride_ops as f64, num("stride_ops")),
            (
                "barrier_steps",
                e.barrier_steps as f64,
                num("barrier_steps"),
            ),
            (
                "modeled_cost_units",
                e.modeled_cost_units,
                num("modeled_cost_units"),
            ),
        ] {
            if cur != basev {
                failures.push(format!(
                    "REGRESSION {} n={}: {metric} {cur} vs baseline {basev} (deterministic metric must match exactly)",
                    e.algorithm, e.n
                ));
            }
        }
        // Wall clock: normalized ratio within the tolerance band.
        let base_norm = b
            .get("wall")
            .and_then(|w| w.get("normalized"))
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN);
        let cur_norm = e.wall.normalized;
        // A NaN baseline must fail the gate, so test for being *within*
        // the band and negate the boolean.
        let within = (cur_norm - base_norm).abs() <= tolerance * base_norm;
        if !within {
            failures.push(format!(
                "REGRESSION {} n={}: normalized_wall {cur_norm:.3} vs baseline {base_norm:.3} ({:+.1}% outside ±{:.0}%)",
                e.algorithm,
                e.n,
                (cur_norm / base_norm - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }

    if failures.is_empty() {
        println!("benchdiff: OK — no regressions");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!("benchdiff: FAIL ({} regressed metric(s))", failures.len());
        ExitCode::FAILURE
    }
}

/// `--validate-history`: every line parses, carries the history schema,
/// `seq` strictly increases and `unix_ms` never decreases.
fn validate_history(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut prev_seq: Option<u64> = None;
    let mut prev_ms: Option<u64> = None;
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = match JsonValue::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {path}:{lineno}: invalid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        if v.get("schema").and_then(|s| s.as_str()) != Some(HISTORY_SCHEMA) {
            eprintln!("error: {path}:{lineno}: schema is not {HISTORY_SCHEMA:?}");
            return ExitCode::FAILURE;
        }
        let (Some(seq), Some(ms)) = (
            v.get("seq").and_then(JsonValue::as_u64),
            v.get("unix_ms").and_then(JsonValue::as_u64),
        ) else {
            eprintln!("error: {path}:{lineno}: seq / unix_ms missing or not an unsigned integer");
            return ExitCode::FAILURE;
        };
        if v.get("commit").and_then(|c| c.as_str()).is_none() {
            eprintln!("error: {path}:{lineno}: missing commit");
            return ExitCode::FAILURE;
        }
        if prev_seq.is_some_and(|p| seq <= p) {
            eprintln!(
                "error: {path}:{lineno}: seq {seq} does not increase (previous {})",
                prev_seq.unwrap()
            );
            return ExitCode::FAILURE;
        }
        if prev_ms.is_some_and(|p| ms < p) {
            eprintln!(
                "error: {path}:{lineno}: unix_ms {ms} went backwards (previous {})",
                prev_ms.unwrap()
            );
            return ExitCode::FAILURE;
        }
        prev_seq = Some(seq);
        prev_ms = Some(ms);
        records += 1;
    }
    println!("{path}: ok — {records} record(s), monotone seq and timestamps");
    ExitCode::SUCCESS
}
