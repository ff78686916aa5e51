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
use sat_bench::{bench_device, maybe_write_json, parsed_flag, AlgoRecord, Path};

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
    let mut measured = Vec::new();
    for alg in SatAlgorithm::ALL {
        let row = gc.table_one_row(alg, n);
        let path = Path::Alg(alg);
        if !path.runs_at(n) {
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
        let run = path.run(&dev, n);
        let s = run.counters;
        println!(
            "{:<11} | {:>13} {:>13.0} | {:>13} {:>13.0} | {:>10} | {:>14.0} {:>14.0}",
            alg.name(),
            s.coalesced_reads,
            row.coalesced_reads,
            s.stride_reads,
            row.stride_reads,
            s.barrier_steps,
            s.global_cost(&cfg),
            row.cost
        );
        records.push(AlgoRecord::measured(&dev, alg, n, &run));
        measured.push((alg, s));
    }

    println!("\nper-element traffic (measured):");
    println!(
        "{:<11} {:>8} {:>8} {:>12} {:>12}",
        "algorithm", "R/elt", "W/elt", "shared R/elt", "shared W/elt"
    );
    for (alg, s) in measured {
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
