//! `chaosgen` — drive the serving layer through a schedule of injected
//! fault scenarios and record whether self-healing held the line.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin chaosgen -- \
//!     [--threads 4] [--requests 16] [--n 32] [--width 4] [--seed 7] \
//!     [--slo-ms 250] [--scenarios abort,corrupt,loss,combined] \
//!     [--json BENCH_chaos.json] [--postmortem-dir results] \
//!     [--metrics-snapshot metrics.prom]
//! ```
//!
//! Each scenario starts a fresh `sat-service` over a chaos device with one
//! fault class armed (`combined` arms them all), then pushes the same
//! loadgen-style workload through it: `--threads` client threads each
//! submitting `--requests` SAT requests of an `--n × --n` integer-valued
//! matrix. Every response is checked **bit-equal** against the sequential
//! CPU reference, so a scenario passes only if retry, verification, the
//! circuit breaker and CPU degradation together healed every injected
//! fault. The per-scenario record holds SLO attainment at `--slo-ms`,
//! the resilience counters (attempts, retries, degradations, breaker
//! transitions, canaries) and the injection counts the device reported on
//! the shared `obs` registry. Single-device loss windows are
//! launch-indexed (`LossWindow::Launches`), so every scenario injects the
//! same schedule regardless of host speed.
//!
//! With `--postmortem-dir DIR` each scenario's service is armed to dump at
//! most one flight-recorder post-mortem bundle into DIR (named
//! `postmortem-<scenario>-…`); a breaker-opening scenario must then emit
//! exactly one bundle that passes [`obs::flight::validate`]. With
//! `--metrics-snapshot PATH` the final scenario's Prometheus exposition is
//! written to PATH and strict-parsed against the shared metric-family
//! allow-list ([`sat_bench::known_metric_families`]); an unknown family in
//! the snapshot fails the run.
//!
//! Exits nonzero on any rejected request or result mismatch, and — for
//! scenarios with a device-loss window — when the breaker never opened or
//! no request completed on the degraded CPU path. `scripts/check.sh` runs
//! the abort+corruption scenarios as the chaos smoke gate.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpu_exec::{FaultPlan, LossWindow};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_bench::{flag_value, parsed_flag};
use sat_core::{seq::sat_reference, Matrix};
use sat_service::{PostmortemConfig, Service, ServiceConfig, ServiceStats};

obs::json::record! {
    /// One scenario's outcome in `BENCH_chaos.json`.
    struct ScenarioRecord {
        name: String,
        wall_seconds: f64,
        completed: u64,
        rejected: u64,
        mismatches: u64,
        slo_attainment: f64,
        p50_ms: f64,
        p95_ms: f64,
        p99_ms: f64,
        attempts_ok: u64,
        attempts_failed: u64,
        retries: u64,
        degraded: u64,
        verify_pass: u64,
        verify_fail: u64,
        breaker_opened: u64,
        breaker_half_open: u64,
        breaker_closed: u64,
        canary_probes: u64,
        injected_aborts: u64,
        injected_losses: u64,
        injected_stragglers: u64,
        injected_corruptions: u64,
        /// Post-mortem bundles this scenario dumped (0 unless
        /// `--postmortem-dir` was given; capped at 1 per scenario).
        postmortem_bundles: u64,
    }

    /// The record `BENCH_chaos.json` holds.
    struct ChaosRecord {
        threads: usize,
        requests_per_thread: usize,
        n: usize,
        width: usize,
        seed: u64,
        slo_ms: f64,
        scenarios: Vec<ScenarioRecord>,
    }
}

/// The fault plan of scenario `name`: the default schedule from the
/// acceptance gate is abort p=0.05, corruption p=0.02, a launch-indexed
/// device-loss window (launches 5..35, identical on every host);
/// `combined` arms all of them plus a mild straggler.
fn plan_for(name: &str, seed: u64) -> Option<FaultPlan> {
    let loss = LossWindow::Launches {
        start: 5,
        count: 30,
    };
    match name {
        "abort" => Some(FaultPlan::new(seed).launch_abort_p(0.05)),
        "corrupt" => Some(FaultPlan::new(seed).corrupt_p(0.02)),
        "loss" => Some(FaultPlan::new(seed).loss(loss)),
        "combined" => Some(
            FaultPlan::new(seed)
                .launch_abort_p(0.05)
                .corrupt_p(0.02)
                .straggler(0.01, Duration::from_micros(5))
                .loss(loss),
        ),
        _ => None,
    }
}

/// Whether the scenario injects a loss window, i.e. must show breaker +
/// degradation activity.
fn has_loss(name: &str) -> bool {
    matches!(name, "loss" | "combined")
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted_ms.len() as f64).ceil() as usize).max(1) - 1;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &str,
    fault_plan: FaultPlan,
    threads: usize,
    requests: usize,
    machine: MachineConfig,
    pool: &[(Matrix<f64>, Matrix<f64>)],
    slo_ms: f64,
    postmortem_dir: Option<&std::path::Path>,
) -> (ScenarioRecord, String) {
    let observer = obs::Obs::new();
    let registry = observer.registry().expect("enabled observer");
    let postmortem = match postmortem_dir {
        Some(dir) => PostmortemConfig {
            dir: Some(dir.to_path_buf()),
            prefix: name.to_string(),
            max_bundles: 1,
            ..PostmortemConfig::default()
        },
        None => PostmortemConfig::default(),
    };
    let service = Service::start(ServiceConfig {
        machine,
        device_workers: None,
        queue_capacity: (threads * 4).max(64),
        max_batch: 8,
        max_linger: Duration::from_micros(200),
        default_deadline: Duration::from_secs(60),
        observer,
        fault_plan: Some(fault_plan),
        postmortem,
        ..ServiceConfig::default()
    });

    let mismatches = Mutex::new(0u64);
    let rejected = Mutex::new(0u64);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let client = service.client();
            let (mismatches, rejected, latencies) = (&mismatches, &rejected, &latencies);
            s.spawn(move || {
                let mut mine = Vec::with_capacity(requests);
                for k in 0..requests {
                    let tick = Instant::now();
                    let (img, want) = &pool[(t * requests + k) % pool.len()];
                    match client.submit(img.clone(), SatAlgorithm::OneR1W, None) {
                        Ok(table) => {
                            mine.push(tick.elapsed().as_secs_f64() * 1e3);
                            if table.sat().as_slice() != want.as_slice() {
                                *mismatches.lock().unwrap() += 1;
                            }
                        }
                        Err(_) => *rejected.lock().unwrap() += 1,
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let metrics_text = service.metrics_text();
    let stats: ServiceStats = service.shutdown();
    let postmortem_bundles = postmortem_dir.map_or(0, |dir| bundles_for(dir, name).len() as u64);

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_by(|a, b| a.total_cmp(b));
    let within_slo = lat.iter().filter(|&&ms| ms <= slo_ms).count();
    let snap = registry.snapshot();
    let injected = |kind: &str| {
        snap.counter(&format!("gpu_fault_injections{{kind=\"{kind}\"}}"))
            .map_or(0, |c| c.total)
    };

    let rejected = rejected.into_inner().unwrap();
    let mismatches = mismatches.into_inner().unwrap();
    let record = ScenarioRecord {
        name: name.to_string(),
        wall_seconds: wall,
        completed: stats.completed,
        rejected,
        mismatches,
        slo_attainment: if lat.is_empty() {
            0.0
        } else {
            within_slo as f64 / lat.len() as f64
        },
        p50_ms: percentile(&lat, 50.0),
        p95_ms: percentile(&lat, 95.0),
        p99_ms: percentile(&lat, 99.0),
        attempts_ok: stats.attempts_ok,
        attempts_failed: stats.attempts_failed,
        retries: stats.retries,
        degraded: stats.degraded,
        verify_pass: stats.verify_pass,
        verify_fail: stats.verify_fail,
        breaker_opened: stats.breaker_opened,
        breaker_half_open: stats.breaker_half_open,
        breaker_closed: stats.breaker_closed,
        canary_probes: stats.canary_probes,
        injected_aborts: injected("launch_abort"),
        injected_losses: injected("device_loss"),
        injected_stragglers: injected("straggler"),
        injected_corruptions: injected("corruption"),
        postmortem_bundles,
    };
    (record, metrics_text)
}

/// The post-mortem bundles scenario `name` dumped into `dir`, sorted.
fn bundles_for(dir: &std::path::Path, name: &str) -> Vec<std::path::PathBuf> {
    let prefix = format!("postmortem-{name}-");
    let mut found: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: usize = parsed_flag(&args, "--threads", 4);
    let requests: usize = parsed_flag(&args, "--requests", 16);
    let n: usize = parsed_flag(&args, "--n", 32);
    let width: usize = parsed_flag(&args, "--width", 4);
    let seed: u64 = parsed_flag(&args, "--seed", 7);
    let slo_ms: f64 = parsed_flag(&args, "--slo-ms", 250.0);
    let scenarios =
        flag_value(&args, "--scenarios").unwrap_or_else(|| "abort,corrupt,loss,combined".into());
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_chaos.json".into());
    let postmortem_dir = flag_value(&args, "--postmortem-dir").map(std::path::PathBuf::from);
    let snapshot_path = flag_value(&args, "--metrics-snapshot");

    let machine = MachineConfig::with_width(width);
    // Integer-valued images sum exactly on every path, so GPU, batched and
    // degraded-CPU results are all bit-identical to the reference.
    let pool: Vec<(Matrix<f64>, Matrix<f64>)> = (0..8usize)
        .map(|k| {
            let img = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7 + k * 13) % 29) as f64 - 14.0);
            let want = sat_reference(&img);
            (img, want)
        })
        .collect();

    println!(
        "chaosgen: {threads} threads x {requests} requests, {n}x{n}, w = {width}, \
         seed {seed}, scenarios [{scenarios}]"
    );
    let mut records = Vec::new();
    let mut failed = false;
    let mut last_metrics = String::new();
    for name in scenarios
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let Some(plan) = plan_for(name, seed) else {
            eprintln!("chaosgen: unknown scenario '{name}' (abort, corrupt, loss, combined)");
            return ExitCode::FAILURE;
        };
        let (rec, metrics_text) = run_scenario(
            name,
            plan,
            threads,
            requests,
            machine,
            &pool,
            slo_ms,
            postmortem_dir.as_deref(),
        );
        last_metrics = metrics_text;
        let expected = (threads * requests) as u64;
        println!(
            "  {name}: {}/{expected} bit-exact, slo {:.1}% at {slo_ms} ms, \
             attempts {}+{} failed, retries {}, degraded {}, verify {}p/{}f, \
             breaker o{}/h{}/c{}, injected a{} l{} s{} c{}, postmortems {}",
            rec.completed - rec.mismatches,
            rec.slo_attainment * 100.0,
            rec.attempts_ok,
            rec.attempts_failed,
            rec.retries,
            rec.degraded,
            rec.verify_pass,
            rec.verify_fail,
            rec.breaker_opened,
            rec.breaker_half_open,
            rec.breaker_closed,
            rec.injected_aborts,
            rec.injected_losses,
            rec.injected_stragglers,
            rec.injected_corruptions,
            rec.postmortem_bundles,
        );
        if rec.rejected > 0 || rec.mismatches > 0 || rec.completed != expected {
            eprintln!(
                "  {name}: FAILED — {} rejected, {} mismatches, {} completed of {expected}",
                rec.rejected, rec.mismatches, rec.completed
            );
            failed = true;
        }
        if has_loss(name) && (rec.breaker_opened == 0 || rec.degraded == 0) {
            eprintln!(
                "  {name}: FAILED — loss window must open the breaker (opened {}) and \
                 degrade at least one request (degraded {})",
                rec.breaker_opened, rec.degraded
            );
            failed = true;
        }
        // A breaker-opening scenario armed for dumping must emit exactly one
        // bundle, and that bundle must be schema-valid with the triggering
        // request's event chain inside.
        if let Some(dir) = &postmortem_dir {
            if has_loss(name) {
                let bundles = bundles_for(dir, name);
                if bundles.len() != 1 {
                    eprintln!(
                        "  {name}: FAILED — expected exactly one post-mortem bundle, found {}",
                        bundles.len()
                    );
                    failed = true;
                }
                for path in &bundles {
                    let checked = std::fs::read_to_string(path)
                        .map_err(|e| e.to_string())
                        .and_then(|text| obs::flight::validate(&text));
                    match checked {
                        Ok(fstats) if fstats.request_flow == 0 => {
                            eprintln!(
                                "  {name}: FAILED — bundle {} lacks the triggering \
                                 request's event chain",
                                path.display()
                            );
                            failed = true;
                        }
                        Ok(fstats) => println!(
                            "  {name}: post-mortem {} validates ({} events, {} request-scoped)",
                            path.display(),
                            fstats.events,
                            fstats.request_flow
                        ),
                        Err(e) => {
                            eprintln!("  {name}: FAILED — bundle {} invalid: {e}", path.display());
                            failed = true;
                        }
                    }
                }
            }
        }
        records.push(rec);
    }

    let record = ChaosRecord {
        threads,
        requests_per_thread: requests,
        n,
        width,
        seed,
        slo_ms,
        scenarios: records,
    };
    let json = obs::json::to_string_pretty(&record);
    if let Err(e) = std::fs::write(&json_path, json + "\n") {
        eprintln!("chaosgen: cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {json_path}");

    if let Some(path) = &snapshot_path {
        if let Err(e) = std::fs::write(path, &last_metrics) {
            eprintln!("chaosgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        // Strict-parse the snapshot we just wrote: every metric family must
        // be on the shared allow-list, so a renamed or novel family fails
        // the chaos gate instead of silently dropping off dashboards.
        let unknown = sat_bench::unknown_families(&last_metrics);
        if !unknown.is_empty() {
            eprintln!(
                "chaosgen: FAILED — snapshot {path} has unknown metric families: {}",
                unknown.join(", ")
            );
            return ExitCode::FAILURE;
        }
        println!("wrote {path} (metrics snapshot, final scenario, strict parse ok)");
    }

    if failed {
        eprintln!("chaosgen: FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
