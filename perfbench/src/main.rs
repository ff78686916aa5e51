//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sat-hd-frame|paper-mix-256|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! seconds, checks every output bit for bit against `seq::sat_reference`,
//! prints a facts line and, last, one JSON result line. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ledger. Exits nonzero
//! when any operation failed or when the corruption self-test shows the
//! checker cannot fail. See `perfbench/README.md`.

mod host;
mod library;
mod paths;
mod report;
mod serve;

use std::process::ExitCode;

use library::OpSet;
use report::Facts;

/// Set-ups per run, one for each slice of the window; `setup_s` is their
/// median.
pub const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["sat-hd-frame", "paper-mix-256", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "sat-hd-frame" => library::run(&args, &OpSet::hd_frames(args.seed), 2),
        "paper-mix-256" => library::run(&args, &OpSet::paper_mix(args.seed), 6),
        _ => serve::run(&args),
    };
    host_facts(&args, &mut out.facts);
    let selftest_flagged = out.selftest_error_rate > 0.0;
    out.facts
        .num("selftest_error_rate", out.selftest_error_rate);
    out.facts.num(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let correct = out.attempted > 0 && out.failed == 0 && selftest_flagged;
    println!("{{\"facts\": {}}}", out.facts.to_json());
    println!("{}", report::result_line(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed; corruption self-test flagged {}",
            out.failed, out.attempted, selftest_flagged
        );
        ExitCode::FAILURE
    }
}

fn host_facts(args: &Args, facts: &mut Facts) {
    facts.text("workload", &args.workload);
    facts.int("seed", args.seed);
    facts.num("seconds", args.seconds);
    facts.int("trace", args.trace as u64);
    facts.text("commit", &host::commit());
    facts.int("nproc", host::nproc() as u64);
    for (level, size) in host::caches() {
        facts.text(&format!("{level}_size"), &size);
    }
}
