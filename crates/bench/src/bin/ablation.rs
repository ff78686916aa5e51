//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **diagonal vs row-major** shared-memory arrangement (Lemma 1):
//!    bank-conflict stages of the block transpose and of the in-shared SAT;
//! 2. **latency sensitivity**: cost of each algorithm as `Λ` varies
//!    (the wavefront algorithms degrade linearly, the block ones barely);
//! 3. **width sensitivity**: cost at `w ∈ {16, 32, 64}`;
//! 4. **2R1W recursion depth**: barrier count with and without recursion.
//!
//! ```sh
//! cargo run --release -p sat-bench --bin ablation [-- --n 1024]
//! ```

use gpu_exec::{GlobalBuffer, TileLayout};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_bench::{bench_device, parsed_flag, run_real, workload};
use sat_core::par::{sat_1r1w, sat_1r1w_mirror};
use sat_core::transpose::transpose_with_layout;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = parsed_flag(&args, "--n", 1024);

    // 1. Diagonal arrangement ablation.
    println!("ABLATION 1 — diagonal vs row-major shared tiles (transpose of {n} x {n}, w = 32)");
    println!(
        "{:>12} {:>16} {:>18}",
        "layout", "shared stages", "conflict factor"
    );
    let mut base = 0u64;
    for layout in [TileLayout::Diagonal, TileLayout::RowMajor] {
        let cfg = MachineConfig::with_width(32);
        let dev = bench_device(cfg);
        let src = GlobalBuffer::from_vec(workload(n).into_vec());
        let dst = GlobalBuffer::filled(0.0f64, n * n);
        dev.reset_stats();
        transpose_with_layout(&dev, &src, &dst, n, n, layout);
        let stages = dev.stats().shared_stages;
        if base == 0 {
            base = stages;
        }
        println!(
            "{:>12} {:>16} {:>17.1}x",
            format!("{layout:?}"),
            stages,
            stages as f64 / base as f64
        );
    }

    // 2. Latency sensitivity (cost model, which Table I validated).
    println!("\nABLATION 2 — window overhead Λ sensitivity at n = {n} (cost in time units)");
    print!("{:<12}", "algorithm");
    let lambdas = [100u64, 400, 1600, 3300, 6400];
    for l in lambdas {
        print!("{:>12}", format!("Λ={l}"));
    }
    println!();
    for alg in SatAlgorithm::ALL {
        print!("{:<12}", alg.name());
        for l in lambdas {
            let cfg = MachineConfig::with_width(32).latency(l);
            let gc = GlobalCost::new(cfg);
            print!("{:>12.0}", gc.cost(alg, n));
        }
        println!();
    }
    println!("(4R1W and 1R1W scale with Λ; the block algorithms barely move — why the crossover shifts with Λ)");

    // 3. Width sensitivity.
    println!("\nABLATION 3 — width w sensitivity at n = {n} (cost in time units)");
    print!("{:<12}", "algorithm");
    let widths = [16usize, 32, 64];
    for w in widths {
        print!("{:>12}", format!("w={w}"));
    }
    println!();
    for alg in SatAlgorithm::ALL {
        print!("{:<12}", alg.name());
        for w in widths {
            let cfg = MachineConfig::with_width(w).latency(3300);
            let gc = GlobalCost::new(cfg);
            print!("{:>12.0}", gc.cost(alg, n));
        }
        println!();
    }

    // 4. 2R1W recursion depth (measured barrier counts).
    println!("\nABLATION 4 — 2R1W recursion (measured barrier steps)");
    println!("{:>8} {:>6} {:>8} {:>10}", "n", "w", "depth k", "barriers");
    for (w, nn) in [(32usize, 1024usize), (32, 2048), (8, 1024), (8, 2048)] {
        let cfg = MachineConfig::with_width(w);
        let gc = GlobalCost::new(cfg);
        let dev = bench_device(cfg);
        let s = run_real(&dev, SatAlgorithm::TwoR1W, 0.0, nn).counters;
        println!(
            "{:>8} {:>6} {:>8} {:>10}",
            nn,
            w,
            gc.recursion_depth(nn),
            s.barrier_steps
        );
    }
    println!(
        "(k = 0 ⇒ 2 barriers; each recursion level adds one fused prefix+pad launch and its own 3)"
    );

    // 5. 1R1W left-fringe strategy: stride column reads vs coalesced mirror.
    println!("\nABLATION 5 — 1R1W left fringe: stride column read vs transposed mirror (n = {n})");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>14}",
        "variant", "stride ops", "coalesced ops", "cost (units)", "Δcost"
    );
    let cfg = MachineConfig::gtx780ti();
    let mut base_cost = 0.0;
    for (name, mirror) in [("plain", false), ("mirror", true)] {
        let dev = bench_device(cfg);
        let a = GlobalBuffer::from_vec(workload(n).into_vec());
        let s = GlobalBuffer::filled(0.0f64, n * n);
        dev.reset_stats();
        if mirror {
            sat_1r1w_mirror(&dev, &a, &s, n, n);
        } else {
            sat_1r1w(&dev, &a, &s, n, n);
        }
        let st = dev.stats();
        let cost = st.global_cost(&cfg);
        if base_cost == 0.0 {
            base_cost = cost;
        }
        println!(
            "{:>10} {:>12} {:>14} {:>14.0} {:>13.2}%",
            name,
            st.stride_ops(),
            st.coalesced_ops(),
            cost,
            100.0 * (cost - base_cost) / base_cost
        );
    }
    println!("(the mirror trades w stride reads per block for w+... coalesced writes: cheaper whenever w > 2)");
}
