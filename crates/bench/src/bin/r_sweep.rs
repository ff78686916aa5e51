//! Sweep the hybrid ratio `r` (Figure 12 / the `(1+r²)R1W` and `r` rows of
//! Table II): for each size, evaluate the hybrid's cost over all admissible
//! ratios, report the minimiser, and (for small sizes) confirm with
//! measured executions.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin r_sweep [-- --measure-n 1024] [--json r.jsonl]
//! ```

use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_bench::{
    bench_device, maybe_write_json, parsed_flag, run_real, size_label, table2_sizes, units_to_ms,
};

obs::json::record! {
    struct SweepRecord {
        n: usize,
        r: f64,
        cost_units: f64,
        measured: bool,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let measure_n: usize = parsed_flag(&args, "--measure-n", 1024);
    let cfg = MachineConfig::gtx780ti();
    let gc = GlobalCost::new(cfg);
    let mut records = Vec::new();

    println!("HYBRID RATIO SWEEP — cost(r) per size (model), best r per size\n");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "n", "best r", "cost(0)=1R1W", "cost(best)", "cost(1)", "gain vs 1R1W"
    );
    for n in table2_sizes() {
        let r = gc.optimal_r(n);
        let c0 = gc.hybrid(n, 0.0);
        let cb = gc.hybrid(n, r);
        let c1 = gc.hybrid(n, 1.0);
        println!(
            "{:<6} {:>10.4} {:>12.0} {:>12.0} {:>12.0} {:>13.1}%",
            size_label(n),
            r,
            c0,
            cb,
            c1,
            100.0 * (c0 - cb) / c0
        );
        for rr in gc
            .admissible_ratios(n)
            .iter()
            .step_by((n / cfg.width / 16).max(1))
        {
            records.push(SweepRecord {
                n,
                r: *rr,
                cost_units: gc.hybrid(n, *rr),
                measured: false,
            });
        }
    }

    // Measured confirmation at one size: run the hybrid for every admissible
    // r and compare the measured-cost minimiser with the model's.
    let n = measure_n;
    let m = n / cfg.width;
    let dev = bench_device(cfg);
    println!("\nmeasured sweep at n = {n} (all {m} admissible ratios):");
    println!("{:>8} {:>14} {:>12}", "r", "cost (units)", "cost (ms)");
    let mut best = (f64::INFINITY, 0.0);
    for k in 0..=m {
        let r = k as f64 / m as f64;
        let s = run_real(&dev, SatAlgorithm::HybridR1W, r, n).counters;
        let cost = s.global_cost(&cfg);
        if cost < best.0 {
            best = (cost, r);
        }
        if k % (m / 16).max(1) == 0 || k == m {
            println!("{:>8.4} {:>14.0} {:>12.3}", r, cost, units_to_ms(cost));
        }
        records.push(SweepRecord {
            n,
            r,
            cost_units: cost,
            measured: true,
        });
    }
    println!(
        "\nmeasured best r = {:.4} (cost {:.0}); model best r = {:.4}",
        best.1,
        best.0,
        gc.optimal_r(n)
    );
    maybe_write_json(&args, &records);
}
