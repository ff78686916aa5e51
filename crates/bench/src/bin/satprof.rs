//! satprof — profile SAT algorithm executions (or a serving-layer burst)
//! into a Perfetto-loadable Chrome trace plus a per-algorithm counter
//! report checked against the paper's closed forms.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin satprof -- --algo 1r1w --n 1024
//! open https://ui.perfetto.dev  # and load trace.json
//! ```
//!
//! Flags:
//!
//! * `--algo NAME|all` — which algorithm(s) to profile (default `1r1w`):
//!   a paper algorithm, `1r1w-persist` (persistent-block 1R1W), or `all`
//!   (the six algorithms, then persistent 1R1W);
//! * `--n SIZE` — square matrix side (default 1024);
//! * `--width W` — machine width (default 32);
//! * `--trace PATH` — where to write the Chrome trace (default
//!   `trace.json`); the file is re-parsed and schema-validated after
//!   writing;
//! * `--sim` — additionally replay each run through the discrete-event
//!   machine and export its timeline on the simulated clock (trace
//!   process 2), overlaying model time next to wall time;
//! * `--burst K` — instead of bare algorithm runs, push `K` requests
//!   through a `sat-service` instance sharing the same observer, then
//!   print its Prometheus exposition; the burst's trace goes through the
//!   same `chrome::validate` schema gate as the single-algo path, and the
//!   exposition must carry the request-latency histogram series;
//! * `--phases` — print each algorithm's per-launch cost attribution
//!   table (`obs::profile`); the attribution counter tracks land in the
//!   trace regardless, so Perfetto overlays modeled-vs-measured cost;
//! * `--check` — verify measured C/S/B counters against `hmm_model`'s
//!   closed forms (exact equality for 1R1W and persistent 1R1W on
//!   block-aligned sizes, the Table I leading terms within 25% otherwise)
//!   **and** that the trace-reconstructed attribution totals agree with
//!   the device's own counters, exiting nonzero on any mismatch;
//! * `--conformance` — attach a live [`obs::Conformance`] tracker to every
//!   profiled device and print its report afterwards: the online (w, Λ)
//!   estimate recovered from the profiled launches cross-checked against
//!   the configured machine and the offline closed forms, per-cell
//!   residual statistics, and any drift alerts. Combined with `--check`
//!   the online fit must converge and match the configured machine within
//!   the tracker's tolerance (the fit regresses counter-derived model
//!   units, so this gate is deterministic; wall-clock drift alerts are
//!   reported but not gated).
//!
//! Recording overhead: the observer's disabled path is a no-op (no clock
//! reads, no allocation — asserted by `obs`'s `disabled_path_is_cheap`
//! benchmark test), so the instrumented binaries pay nothing unless a
//! trace was requested.

use std::process::ExitCode;
use std::time::Duration;

use gpu_exec::{Device, DeviceOptions, LaunchContext};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use hmm_sim::{export_sim_timeline, trace_and_simulate};
use obs::profile::{attribution_from_trace, PhaseReport};
use obs::{ArgValue, Obs, Registry, Track};
use sat_bench::{flag_value, parsed_flag, workload, Path};
use sat_service::{Service, ServiceConfig};

/// Sum of the device's registry counters relevant to the C/S/B check.
fn device_counter_totals(reg: &Registry) -> (u64, u64) {
    let snap = reg.snapshot();
    let total = |name: &str| snap.counter(name).map_or(0, |c| c.total);
    (total("gpu_coalesced_ops"), total("gpu_stride_ops"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let algo_flag = flag_value(&args, "--algo").unwrap_or_else(|| "1r1w".to_string());
    let n: usize = parsed_flag(&args, "--n", 1024);
    let width: usize = parsed_flag(&args, "--width", 32);
    let trace_path = flag_value(&args, "--trace").unwrap_or_else(|| "trace.json".to_string());
    let burst: usize = parsed_flag(&args, "--burst", 0);
    let check = args.iter().any(|a| a == "--check");
    let sim = args.iter().any(|a| a == "--sim");
    let phases = args.iter().any(|a| a == "--phases");
    let conformance = args.iter().any(|a| a == "--conformance");

    let paths: Vec<Path> = if algo_flag.eq_ignore_ascii_case("all") {
        Path::ALL.to_vec()
    } else {
        match algo_flag.parse() {
            Ok(p) => vec![p],
            Err(_) => {
                eprintln!(
                    "error: --algo got unknown algorithm {algo_flag:?} \
                     (expected one of {}, hybrid, 1r1w-persist or all)",
                    SatAlgorithm::ALL.map(|a| a.name()).join(", ")
                );
                return ExitCode::from(2);
            }
        }
    };

    // Bare runs drive the raw kernels, which (unlike the padding
    // `compute_sat` path the `--burst` service uses) require block-aligned
    // sides; fail cleanly instead of panicking mid-kernel.
    if burst == 0 && (n == 0 || n % width != 0) {
        eprintln!("error: --n {n} must be a positive multiple of --width {width}");
        return ExitCode::from(2);
    }

    // 2R1W recurses on its block-sum matrix, which only shrinks for w ≥ 2;
    // the hybrid's cost model prices that recursion too.
    let recursing = paths
        .iter()
        .find(|p| matches!(p, Path::Alg(SatAlgorithm::TwoR1W | SatAlgorithm::HybridR1W)));
    if let Some(path) = recursing {
        if width < 2 && n > 1 {
            eprintln!(
                "error: {} needs --width 2 or more, got {width} \
                 (2R1W's recursion needs w ≥ 2)",
                path.name()
            );
            return ExitCode::from(2);
        }
    }

    let cfg = MachineConfig::with_width(width);
    let gc = GlobalCost::new(cfg);
    let obs = Obs::new();
    let registry = obs.registry().expect("enabled observer has a registry");
    // One shared tracker across every profiled device, so the online fit
    // regresses over all algorithms' launches at once (varied (C, S, B)
    // conditions the least-squares system far better than one shape).
    let tracker = conformance.then(|| {
        obs::Conformance::with_registry(
            obs::ConformanceConfig::for_machine(cfg.width as u64, cfg.window_overhead()),
            &registry,
            "sat_service_",
        )
    });
    let mut failed = false;

    if burst > 0 {
        failed |= !run_burst(&obs, cfg, n, burst);
    } else {
        println!("satprof — machine w = {width}, matrix {n} x {n}");
        println!(
            "{:<11} | {:>13} {:>13} | {:>11} {:>11} | {:>9} {:>9} | check",
            "algorithm",
            "coal meas",
            "coal pred",
            "stride meas",
            "stride pred",
            "barr meas",
            "barr pred"
        );
        for path in paths {
            if !path.runs_at(n) {
                println!("{:<11} | skipped (2n-1 launches prohibitive)", path.name());
                continue;
            }
            failed |= !profile_path(
                &obs,
                &registry,
                &gc,
                cfg,
                path,
                n,
                check,
                sim,
                phases,
                tracker.as_ref(),
            );
        }
    }

    if let Some(t) = &tracker {
        failed |= !report_conformance(t, cfg, check);
    }

    let json = obs.trace_json();
    if let Err(e) = std::fs::write(&trace_path, &json) {
        eprintln!("error: writing {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    match obs::chrome::validate(&json) {
        Ok(stats) => println!(
            "\nwrote {trace_path}: {} events ({} complete spans, {} instants, {} counter samples) — load it at ui.perfetto.dev",
            stats.events, stats.complete, stats.instants, stats.counters
        ),
        Err(e) => {
            eprintln!("error: {trace_path} failed trace-schema validation: {e}");
            failed = true;
        }
    }

    if failed {
        eprintln!("satprof: CHECK FAILED");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Profile one path on a fresh observed device; returns `false` when
/// `check` was requested and the counters diverge from the closed forms.
#[allow(clippy::too_many_arguments)]
fn profile_path(
    obs: &Obs,
    registry: &Registry,
    gc: &GlobalCost,
    cfg: MachineConfig,
    path: Path,
    n: usize,
    check: bool,
    sim: bool,
    phases: bool,
    tracker: Option<&obs::Conformance>,
) -> bool {
    let name = path.name();
    let mut opts = DeviceOptions::new(cfg).workers(0).observer(obs.clone());
    if let Some(t) = tracker {
        opts = opts.conformance(t.clone());
    }
    let dev = Device::new(opts);
    dev.set_launch_context(Some(LaunchContext {
        cell: Some(obs::conformance::cell_label(name, n, n)),
        ..LaunchContext::default()
    }));
    let (coal_before, stride_before) = device_counter_totals(registry);
    // The trace is shared across algorithms; remember how many launch rows
    // it already holds so this algorithm's attribution covers only its own.
    let rows_before = attribution_from_trace(obs, &cfg).rows.len();
    let mut guard = obs.span(Track::wall(0), name);
    guard.arg("n", ArgValue::from(n));
    let stats = path.run(&dev, n).counters;
    drop(guard);

    // The registry's cumulative device counters must agree with the
    // device's own statistics — the two observation paths cross-check.
    let (coal_after, stride_after) = device_counter_totals(registry);
    let coal_meas = coal_after - coal_before;
    let stride_meas = stride_after - stride_before;
    assert_eq!(
        coal_meas,
        stats.coalesced_reads + stats.coalesced_writes,
        "registry and device stats diverged (coalesced)"
    );
    assert_eq!(
        stride_meas,
        stats.stride_reads + stats.stride_writes,
        "registry and device stats diverged (stride)"
    );

    // Per-launch cost attribution, reconstructed from the launch spans this
    // path just appended to the trace (the persistent launch's span is
    // named "launch" too). The counter tracks go back into the same trace
    // so Perfetto overlays modeled cost next to wall time.
    let attribution = PhaseReport {
        model: cfg,
        rows: attribution_from_trace(obs, &cfg).rows[rows_before..].to_vec(),
    };
    attribution.export_counter_tracks(obs);
    if phases {
        println!(
            "\nper-launch attribution — {name}:\n{}",
            attribution.to_table()
        );
    }
    let at = attribution.total();
    let attr_ok = at.coalesced_ops == coal_meas
        && at.stride_ops == stride_meas
        && attribution.barrier_steps() == stats.barrier_steps;
    if !attr_ok {
        eprintln!(
            "{name}: attribution totals diverge from device counters \
             (C {} vs {}, S {} vs {}, B {} vs {})",
            at.coalesced_ops,
            coal_meas,
            at.stride_ops,
            stride_meas,
            attribution.barrier_steps(),
            stats.barrier_steps
        );
    }

    if sim {
        let run = trace_and_simulate(cfg, |d| {
            path.run(d, n);
        });
        export_sim_timeline(obs, &run.sim, name);
    }

    // Closed forms: exact where one is known (1R1W and persistent 1R1W on
    // block-aligned squares; `matches` also pins B = launches − 1, so the
    // persistent path must have been one launch), Table I leading terms
    // otherwise.
    let ok = if let Some(exact) = path.exact_counts(gc, n) {
        let ok = exact.matches(&stats);
        print_row(
            name,
            coal_meas,
            exact.coalesced_ops(),
            stride_meas,
            exact.stride_ops(),
            stats.barrier_steps,
            exact.barrier_steps,
            if ok { "exact" } else { "MISMATCH" },
        );
        ok
    } else {
        let Path::Alg(alg) = path else {
            unreachable!("persistent 1R1W has a closed form on every size satprof accepts")
        };
        let row = gc.table_one_row(alg, n);
        let coal_pred = row.coalesced_reads + row.coalesced_writes;
        let stride_pred = row.stride_reads + row.stride_writes;
        // 25% relative slack plus an additive O(n) term: the closed forms
        // are leading terms and drop fringe work (e.g. 4R1W's column pass
        // touches a handful of coalesced words its 0-term ignores).
        let within = |meas: u64, pred: f64| (meas as f64 - pred).abs() <= pred * 0.25 + n as f64;
        let ok = within(coal_meas, coal_pred)
            && within(stride_meas, stride_pred)
            && within(stats.barrier_steps, row.barrier_steps);
        print_row(
            name,
            coal_meas,
            coal_pred.round() as u64,
            stride_meas,
            stride_pred.round() as u64,
            stats.barrier_steps,
            row.barrier_steps.round() as u64,
            if ok { "~25%" } else { "MISMATCH" },
        );
        ok
    };
    !check || (ok && attr_ok)
}

/// Print the online estimator's view of the profiled launches and
/// cross-check it against the configured machine. With `check`, the fit
/// must converge and recover (w, Λ) within the tracker's tolerance — a
/// deterministic gate, since the estimator regresses counter-derived model
/// units. Wall-clock drift alerts are printed but never gated here: a
/// loaded profiling host legitimately wobbles τ.
fn report_conformance(tracker: &obs::Conformance, cfg: MachineConfig, check: bool) -> bool {
    let fit = tracker.fit();
    let tol = obs::conformance::FIT_TOLERANCE;
    println!(
        "\nmodel conformance — online fit over {} profiled launches:",
        fit.samples
    );
    println!(
        "  fitted w {:.3} / Λ {:.2} vs configured {} / {} (rms {:.4}, converged {})",
        fit.width,
        fit.window_overhead,
        cfg.width,
        cfg.window_overhead(),
        fit.residual_rms,
        fit.converged
    );
    println!(
        "  {:<24} | {:>8} | {:>12} | {:>12} | drifted",
        "cell", "samples", "tau ns/unit", "resid (rel)"
    );
    for cell in tracker.cells() {
        println!(
            "  {:<24} | {:>8} | {:>12.3} | {:>12.5} | {}",
            cell.cell,
            cell.samples,
            cell.ewma_tau * 1e9,
            cell.mean_abs_residual,
            cell.drifted
        );
    }
    for alert in tracker.alerts() {
        println!(
            "  drift alert: {} (τ ratio {:.2} over {} samples)",
            alert.cell, alert.ratio, alert.samples
        );
    }
    let ok = fit.matches(cfg.width as u64, cfg.window_overhead(), tol);
    if check && !ok {
        eprintln!(
            "conformance: online fit does not recover the configured machine \
             (w {:.3} vs {}, Λ {:.2} vs {}, tol {tol})",
            fit.width,
            cfg.width,
            fit.window_overhead,
            cfg.window_overhead()
        );
    }
    !check || ok
}

#[allow(clippy::too_many_arguments)]
fn print_row(
    name: &str,
    coal_meas: u64,
    coal_pred: u64,
    stride_meas: u64,
    stride_pred: u64,
    barr_meas: u64,
    barr_pred: u64,
    verdict: &str,
) {
    println!(
        "{:<11} | {:>13} {:>13} | {:>11} {:>11} | {:>9} {:>9} | {}",
        name, coal_meas, coal_pred, stride_meas, stride_pred, barr_meas, barr_pred, verdict
    );
}

/// Push `burst` same-shape 1R1W requests through a service sharing `obs`,
/// then print its Prometheus exposition. Returns `false` when the burst
/// produced no trace events or the exposition lacks the request-latency
/// histogram series (`_bucket`/`_sum`/`_count`) — the caller then also
/// schema-validates the written trace, exactly like the single-algo path.
fn run_burst(obs: &Obs, machine: MachineConfig, n: usize, burst: usize) -> bool {
    println!("satprof — burst of {burst} requests ({n} x {n}, 1R1W) through sat-service");
    let service = Service::start(ServiceConfig {
        machine,
        max_linger: Duration::from_millis(2),
        observer: obs.clone(),
        ..ServiceConfig::default()
    });
    std::thread::scope(|s| {
        for t in 0..4usize {
            let client = service.client();
            s.spawn(move || {
                for k in 0..burst.div_ceil(4) {
                    if t * burst.div_ceil(4) + k >= burst {
                        break;
                    }
                    let img = workload(n);
                    let _ = client.submit(img, SatAlgorithm::OneR1W, None);
                }
            });
        }
    });
    let text = service.metrics_text();
    println!("\n{text}");
    let stats = service.shutdown();
    println!(
        "completed {} requests in {} batches (mean width {:.2}, {} launches saved)",
        stats.completed,
        stats.batches,
        stats.mean_batch_width(),
        stats.launches_saved()
    );
    let mut ok = true;
    for series in [
        "sat_service_request_latency_seconds_bucket{le=",
        "sat_service_request_latency_seconds_sum",
        "sat_service_request_latency_seconds_count",
    ] {
        if !text.contains(series) {
            eprintln!("error: burst exposition is missing {series}…");
            ok = false;
        }
    }
    if obs.event_count() == 0 {
        eprintln!("error: burst produced no trace events");
        ok = false;
    }
    ok
}
