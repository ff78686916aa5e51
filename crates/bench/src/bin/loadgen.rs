//! `loadgen` — drive the `sat-service` batch-forming serving layer with
//! many client threads and record its serving profile.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin loadgen -- \
//!     [--threads 16] [--requests 64] [--n 64] [--width 32] [--rate 0] \
//!     [--max-batch 16] [--linger-us 500] [--mixed] [--check-conformance] \
//!     [--json BENCH_service.json] [--trace trace.json] \
//!     [--metrics-snapshot metrics.prom]
//! ```
//!
//! Each of `--threads` client threads submits `--requests` SAT requests of
//! an `--n × --n` matrix (with `--mixed`, shapes alternate so the batch
//! former must segregate groups), optionally throttled to `--rate`
//! requests/second per thread. Every response is verified **bit-equal**
//! against `sat_core::compute_sat` on an independent device. The summary —
//! throughput, p50/p95/p99 latency, mean batch width, and kernel launches
//! issued vs. what per-request execution would have cost — is printed and
//! always written as one JSON object (default `BENCH_service.json`).
//!
//! With `--trace PATH` the run is observed: the Chrome trace is written to
//! PATH, validated with [`obs::chrome::validate`], and required to contain
//! at least one complete request flow chain (admit → batch → launch →
//! complete linked by flow arrows). With `--metrics-snapshot PATH` the
//! final Prometheus exposition (exemplars included) is written to PATH and
//! parsed *strictly*: any metric family missing from
//! [`sat_bench::known_metric_families`] fails the run.
//!
//! With `--check-conformance` the run additionally gates on the model
//! observatory: the online (w, Λ) fit must converge to the configured
//! machine within its tolerance and the run must raise zero drift alerts
//! — the fault-free conformance gate in `scripts/check.sh`.
//!
//! Exits nonzero on any result mismatch, rejected request, trace
//! validation failure, or conformance-gate failure, so it doubles as the
//! serving-layer smoke gate in `scripts/check.sh`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gpu_exec::{Device, DeviceOptions};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_bench::{flag_value, parsed_flag, unknown_families};
use sat_core::{compute_sat, Matrix};
use sat_service::{LatencySummary, Service, ServiceConfig, ServiceStats};

obs::json::record! {
    /// The record `BENCH_service.json` holds.
    struct ServingRecord {
        threads: usize,
        requests_per_thread: usize,
        n: usize,
        width: usize,
        mixed_shapes: bool,
        rate_per_thread: f64,
        max_batch: usize,
        linger_us: u64,
        wall_seconds: f64,
        throughput_rps: f64,
        p50_ms: f64,
        p95_ms: f64,
        p99_ms: f64,
        mean_latency_ms: f64,
        queue_p99_ms: f64,
        mean_batch_width: f64,
        batch_width_hist: Vec<u64>,
        launches_issued: u64,
        launches_unbatched_equiv: u64,
        launch_reduction: f64,
        barrier_windows_saved: u64,
        completed: u64,
        rejected: u64,
        mismatches: u64,
        /// Online model-conformance fit at the end of the run.
        model_fit_converged: bool,
        model_fitted_width: f64,
        model_fitted_window_overhead: f64,
        model_residual_rms: f64,
        /// Drift alerts the observatory raised during the run.
        model_drift_alerts: u64,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: usize = parsed_flag(&args, "--threads", 16);
    let requests: usize = parsed_flag(&args, "--requests", 64);
    let n: usize = parsed_flag(&args, "--n", 64);
    let width: usize = parsed_flag(&args, "--width", 32);
    let rate: f64 = parsed_flag(&args, "--rate", 0.0);
    let max_batch: usize = parsed_flag(&args, "--max-batch", 16);
    let linger_us: u64 = parsed_flag(&args, "--linger-us", 500);
    let mixed = args.iter().any(|a| a == "--mixed");
    let check_conformance = args.iter().any(|a| a == "--check-conformance");
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_service.json".into());
    let trace_path = flag_value(&args, "--trace");
    let snapshot_path = flag_value(&args, "--metrics-snapshot");

    let machine = MachineConfig::with_width(width);
    // Request pool: a few distinct images with their expected SATs,
    // precomputed on an independent verification device.
    let verify_dev = Device::new(DeviceOptions::new(machine).workers(0).record_stats(false));
    let shapes: Vec<(usize, usize)> = if mixed {
        vec![(n, n), (n / 2, n), (n, n / 2), (n / 2, n / 2)]
    } else {
        vec![(n, n)]
    };
    let pool: Vec<(Matrix<f64>, Matrix<f64>)> = (0..8usize)
        .map(|k| {
            let (rows, cols) = shapes[k % shapes.len()];
            let img = Matrix::from_fn(rows.max(1), cols.max(1), |i, j| {
                ((i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503) ^ k) % 256) as f64
            });
            let want = compute_sat(&verify_dev, SatAlgorithm::OneR1W, &img);
            (img, want)
        })
        .collect();

    // Tracing is opt-in: an observed run pays for span/flow recording, an
    // unobserved one keeps the serving profile honest.
    let observer = if trace_path.is_some() {
        obs::Obs::new()
    } else {
        obs::Obs::disabled()
    };
    let service = Service::start(ServiceConfig {
        machine,
        device_workers: None,
        queue_capacity: (threads * 4).max(64),
        max_batch,
        max_linger: Duration::from_micros(linger_us),
        default_deadline: Duration::from_secs(60),
        observer: observer.clone(),
        ..ServiceConfig::default()
    });

    println!(
        "loadgen: {threads} threads x {requests} requests, {n}x{n} (mixed: {mixed}), \
         w = {width}, max batch {max_batch}, linger {linger_us} us"
    );
    let mismatches = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    // Every client starts at once, so the first batch does not linger out
    // while later threads are still being spawned.
    let start = Barrier::new(threads + 1);
    let started = std::thread::scope(|s| {
        for t in 0..threads {
            let client = service.client();
            let pool = &pool;
            let mismatches = &mismatches;
            let rejected = &rejected;
            let start = &start;
            s.spawn(move || {
                start.wait();
                let interval = if rate > 0.0 {
                    Some(Duration::from_secs_f64(1.0 / rate))
                } else {
                    None
                };
                for k in 0..requests {
                    let tick = Instant::now();
                    let (img, want) = &pool[(t * requests + k) % pool.len()];
                    match client.submit(img.clone(), SatAlgorithm::OneR1W, None) {
                        Ok(table) => {
                            if table.sat().as_slice() != want.as_slice() {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(iv) = interval {
                        let used = tick.elapsed();
                        if used < iv {
                            std::thread::sleep(iv - used);
                        }
                    }
                }
            });
        }
        start.wait();
        Instant::now()
    });
    let wall = started.elapsed().as_secs_f64();
    let metrics_snapshot = snapshot_path.as_ref().map(|_| service.metrics_text());
    let fit = service.conformance().fit();
    let drift_alerts = service.conformance().alerts();
    let stats: ServiceStats = service.shutdown();

    let record = ServingRecord {
        threads,
        requests_per_thread: requests,
        n,
        width,
        mixed_shapes: mixed,
        rate_per_thread: rate,
        max_batch,
        linger_us,
        wall_seconds: wall,
        throughput_rps: stats.completed as f64 / wall,
        p50_ms: stats.total_latency.p50_ms,
        p95_ms: stats.total_latency.p95_ms,
        p99_ms: stats.total_latency.p99_ms,
        mean_latency_ms: stats.total_latency.mean_ms,
        queue_p99_ms: stats.queue_latency.p99_ms,
        mean_batch_width: stats.mean_batch_width(),
        batch_width_hist: stats.batch_width_hist.clone(),
        launches_issued: stats.launches_issued,
        launches_unbatched_equiv: stats.launches_unbatched_equiv,
        launch_reduction: stats.launch_reduction(),
        barrier_windows_saved: stats.barrier_windows_saved(),
        completed: stats.completed,
        rejected: rejected.load(Ordering::Relaxed),
        mismatches: mismatches.load(Ordering::Relaxed),
        model_fit_converged: fit.converged,
        model_fitted_width: fit.width,
        model_fitted_window_overhead: fit.window_overhead,
        model_residual_rms: fit.residual_rms,
        model_drift_alerts: drift_alerts.len() as u64,
    };

    println!();
    print_summary(&record, &stats.total_latency);
    let json = obs::json::to_string_pretty(&record);
    if let Err(e) = std::fs::write(&json_path, json + "\n") {
        eprintln!("loadgen: cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {json_path}");

    if let (Some(path), Some(text)) = (&snapshot_path, &metrics_snapshot) {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        // Strict parse: a family the allow-list does not know about means
        // a metric was registered without updating the scrape schema.
        let unknown = unknown_families(text);
        if !unknown.is_empty() {
            eprintln!("loadgen: FAILED — snapshot has unknown metric families: {unknown:?}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} (metrics snapshot, strict parse ok)");
    }
    if let Some(path) = &trace_path {
        let json = observer.trace_json();
        if let Err(e) = obs::chrome::validate(&json) {
            eprintln!("loadgen: FAILED — trace does not validate: {e}");
            return ExitCode::FAILURE;
        }
        match trace_links_request_chain(&json) {
            Ok(id) => println!("trace links request {id} admit -> batch -> launch -> complete"),
            Err(e) => {
                eprintln!("loadgen: FAILED — {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} (chrome trace)");
    }

    if record.mismatches > 0 || record.rejected > 0 {
        eprintln!(
            "loadgen: FAILED — {} mismatches, {} rejections",
            record.mismatches, record.rejected
        );
        return ExitCode::FAILURE;
    }
    if check_conformance {
        let tol = obs::conformance::FIT_TOLERANCE;
        println!(
            "conformance: fitted w {:.3} / Λ {:.2} vs configured {} / {} \
             (rms {:.4}, {} samples, converged {}), {} drift alert(s)",
            fit.width,
            fit.window_overhead,
            machine.width,
            machine.window_overhead(),
            fit.residual_rms,
            fit.samples,
            fit.converged,
            drift_alerts.len()
        );
        if !fit.converged || !fit.matches(machine.width as u64, machine.window_overhead(), tol) {
            eprintln!(
                "loadgen: FAILED — online fit does not recover the configured machine \
                 within tolerance {tol}"
            );
            return ExitCode::FAILURE;
        }
        if !drift_alerts.is_empty() {
            eprintln!("loadgen: FAILED — fault-free run raised drift alerts: {drift_alerts:?}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Require at least one request id whose flow arrows span the whole chain:
/// a Start at admission, Steps through batch dispatch and device launch,
/// and an End at completion. Returns one qualifying request id.
fn trace_links_request_chain(json: &str) -> Result<u64, String> {
    let parsed = obs::json::JsonValue::parse(json).map_err(|e| format!("trace parse: {e}"))?;
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "trace has no traceEvents array".to_string())?;
    // id -> (saw Start, Step count, saw End)
    let mut chains: std::collections::HashMap<u64, (bool, usize, bool)> =
        std::collections::HashMap::new();
    for e in events {
        let Some(ph) = e.get("ph").and_then(|p| p.as_str()) else {
            continue;
        };
        if !matches!(ph, "s" | "t" | "f") {
            continue;
        }
        let Some(id) = e.get("id").and_then(|i| i.as_f64()) else {
            continue;
        };
        let entry = chains.entry(id as u64).or_default();
        match ph {
            "s" => entry.0 = true,
            "t" => entry.1 += 1,
            _ => entry.2 = true,
        }
    }
    chains
        .iter()
        .filter(|(_, (start, steps, end))| *start && *steps >= 2 && *end)
        .map(|(id, _)| *id)
        .max()
        .ok_or_else(|| {
            "no request id carries a complete admit -> batch -> launch -> complete flow chain"
                .to_string()
        })
}

fn print_summary(r: &ServingRecord, total: &LatencySummary) {
    println!(
        "served {} requests in {:.3} s  ->  {:.0} req/s",
        r.completed, r.wall_seconds, r.throughput_rps
    );
    println!(
        "latency (ms): mean {:.3}  p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}",
        total.mean_ms, total.p50_ms, total.p95_ms, total.p99_ms, total.max_ms
    );
    println!(
        "batches: mean width {:.2}, histogram {:?}",
        r.mean_batch_width, r.batch_width_hist
    );
    println!(
        "launches: {} issued vs {} per-request equivalent  ->  {:.1}x fewer \
         ({} barrier windows saved)",
        r.launches_issued, r.launches_unbatched_equiv, r.launch_reduction, r.barrier_windows_saved
    );
}
