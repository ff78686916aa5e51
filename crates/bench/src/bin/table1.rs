//! Regenerate **Table I**: global/shared memory access operations, barrier
//! synchronisation steps and the global memory access cost per SAT
//! algorithm — the paper's closed forms next to counters measured from real
//! executions on the virtual GPU.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin table1 [-- --n 1024] [--json t1.jsonl]
//! ```

use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_bench::{bench_device, maybe_write_json, parsed_flag, run_real, units_to_ms, AlgoRecord};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = parsed_flag(&args, "--n", 1024);
    let cfg = MachineConfig::gtx780ti();
    let gc = GlobalCost::new(cfg);
    let dev = bench_device(cfg);

    println!("TABLE I — memory access operations and global memory access cost");
    println!(
        "machine: w = {}, Λ = {} time units/window; matrix: {n} x {n}\n",
        cfg.width,
        cfg.window_overhead()
    );
    println!(
        "{:<11} | {:>13} {:>13} | {:>13} {:>13} | {:>10} | {:>14} {:>14}",
        "algorithm",
        "coal.R meas",
        "coal.R pred",
        "str.R meas",
        "str.R pred",
        "barriers",
        "cost meas",
        "cost pred"
    );
    println!("{}", "-".repeat(126));

    let mut records: Vec<AlgoRecord> = Vec::new();
    for alg in SatAlgorithm::ALL {
        let r = if alg == SatAlgorithm::HybridR1W {
            gc.optimal_r(n)
        } else {
            0.0
        };
        let row = gc.table_one_row(alg, n);
        if alg == SatAlgorithm::FourR1W && n > 1024 {
            println!(
                "{:<11} | {:>13} {:>13.0} | {:>13} {:>13.0} | {:>10.0} | {:>14} {:>14.0}",
                alg.name(),
                "—",
                row.coalesced_reads,
                "—",
                row.stride_reads,
                row.barrier_steps,
                "—",
                row.cost
            );
            continue;
        }
        let run = run_real(&dev, alg, r, n);
        let s = run.counters;
        let cost = s.global_cost(&cfg);
        println!(
            "{:<11} | {:>13} {:>13.0} | {:>13} {:>13.0} | {:>10} | {:>14.0} {:>14.0}",
            alg.name(),
            s.coalesced_reads,
            row.coalesced_reads,
            s.stride_reads,
            row.stride_reads,
            s.barrier_steps,
            cost,
            row.cost
        );
        records.push(AlgoRecord {
            algorithm: alg.name().to_string(),
            n,
            measured: true,
            cost_units: cost,
            cost_ms: units_to_ms(cost),
            reads_per_elt: s.reads_per_element(n),
            writes_per_elt: s.writes_per_element(n),
            barriers: s.barrier_steps as f64,
            hybrid_r: r,
            host_seconds: Some(run.seconds),
        });
    }

    println!("\nper-element traffic (measured):");
    println!(
        "{:<11} {:>8} {:>8} {:>12} {:>12}",
        "algorithm", "R/elt", "W/elt", "shared R/elt", "shared W/elt"
    );
    for alg in SatAlgorithm::ALL {
        if alg == SatAlgorithm::FourR1W && n > 1024 {
            continue;
        }
        let r = if alg == SatAlgorithm::HybridR1W {
            gc.optimal_r(n)
        } else {
            0.0
        };
        let s = run_real(&dev, alg, r, n).counters;
        let n2 = (n * n) as f64;
        println!(
            "{:<11} {:>8.3} {:>8.3} {:>12.3} {:>12.3}",
            alg.name(),
            s.reads_per_element(n),
            s.writes_per_element(n),
            s.shared_reads as f64 / n2,
            s.shared_writes as f64 / n2,
        );
    }
    maybe_write_json(&args, &records);
}
