//! Per-launch anatomy of a SAT algorithm: trace one execution, replay it
//! through the discrete-event machine, and print each kernel launch with
//! its block count, traffic, pipeline stages, simulated time and latency-
//! hiding efficiency.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin inspect -- --alg 1r1w --n 256 [--w 16] [--latency 64]
//! ```
//!
//! `--alg` takes any paper algorithm name (any case, or `hybrid`, run at
//! r = 0.5), `1r1w-mirror` or `kogge-stone`.
//!
//! The efficiency column makes the paper's §VII argument visible launch by
//! launch: wide launches run at ≈ 1 stage/time-unit, while the wavefront's
//! one-block corner stages crawl at 1/L.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use hmm_sim::AsyncHmm;
use sat_bench::{flag_value, parsed_flag, workload};
use sat_core::par;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = parsed_flag(&args, "--n", 256);
    let w: usize = parsed_flag(&args, "--w", 16);
    let latency: u64 = parsed_flag(&args, "--latency", 64);
    let alg = flag_value(&args, "--alg").unwrap_or_else(|| "1r1w".to_string());

    let cfg = MachineConfig::with_width(w).latency(latency).num_dmms(16);
    let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
    let a = GlobalBuffer::from_vec(workload(n).into_vec());
    let scratch = || GlobalBuffer::filled(0.0f64, n * n);
    match alg.as_str() {
        "1r1w-mirror" => par::sat_1r1w_mirror(&dev, &a, &scratch(), n, n),
        "kogge-stone" => par::sat_kogge_stone(&dev, &a, &scratch(), n, n),
        name => match name.parse::<SatAlgorithm>() {
            Ok(paper) => par::sat(&dev, paper, 0.5, &a, n, n),
            Err(e) => {
                eprintln!("inspect: --alg: {e}");
                std::process::exit(1);
            }
        },
    }
    let trace = dev.take_trace();
    let sim = AsyncHmm::new(cfg);
    let report = sim.simulate(&trace);

    println!(
        "{alg} on {n}x{n}, w = {w}, L = {latency}: {} launches, simulated {} time units\n",
        trace.launches.len(),
        report.total_time
    );
    println!(
        "{:>7} {:>8} {:>10} {:>10} {:>10} {:>12} {:>11}",
        "launch", "blocks", "glob.ops", "glob.stg", "shr.stg", "time units", "efficiency"
    );
    let show_all = trace.launches.len() <= 40;
    for (k, (lt, timing)) in trace.launches.iter().zip(&report.per_launch).enumerate() {
        // Collapse long wavefronts: show the first/last few and extremes.
        if !show_all && k > 5 && k + 5 < trace.launches.len() && k % 16 != 0 {
            continue;
        }
        let ops: u64 = lt.blocks.iter().flatten().map(|o| o.ops as u64).sum();
        let eff = timing.global_stages as f64 / timing.time.max(1) as f64;
        println!(
            "{:>7} {:>8} {:>10} {:>10} {:>10} {:>12} {:>10.2}",
            k, timing.blocks, ops, timing.global_stages, timing.shared_stages, timing.time, eff
        );
    }
    if !show_all {
        println!("(middle launches elided; every 16th shown)");
    }
    let busy = report.busy_time();
    println!(
        "\ntotal: busy {} + {} launches x overhead {} = {} time units",
        busy,
        trace.launches.len(),
        cfg.barrier_overhead,
        report.total_time
    );
    let worst = report
        .per_launch
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| t.time)
        .expect("at least one launch");
    println!(
        "slowest launch: #{} ({} blocks, {} time units)",
        worst.0, worst.1.blocks, worst.1.time
    );
}
