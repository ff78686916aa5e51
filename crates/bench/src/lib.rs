//! # sat-bench — harness regenerating every table and figure of the paper
//!
//! Binaries (run with `cargo run --release -p sat-bench --bin <name>`):
//!
//! * `table1` — Table I: per-algorithm access counts, barrier steps and
//!   global memory access cost — predicted closed forms next to counters
//!   measured from real executions;
//! * `table2` — Table II: running time per algorithm for 1K…18K matrices
//!   (measured counters up to a configurable size, the validated analytic
//!   model beyond), plus the best hybrid ratio per size and the CPU
//!   baselines with their speed-up factors;
//! * `r_sweep` — the hybrid's cost as a function of `r` (Figure 12 /
//!   Table II bottom rows);
//! * `fig4_pipeline` — the Figure 4 worked pipeline examples and the
//!   latency-hiding curves behind Figure 5's timing chart;
//! * `ablation` — design-choice ablations: diagonal vs row-major shared
//!   tiles, latency sensitivity, width sensitivity, 2R1W recursion depth.
//!
//! All binaries print human-readable tables and (with `--json PATH`) write
//! machine-readable records used to regenerate `EXPERIMENTS.md`.
//!
//! The measurement tools (`satprof`, `satlint`, `benchdiff`, `table1`)
//! enumerate what they measure through [`Path`], which holds every
//! per-path fact: name, size cap, driver call, closed form and lint
//! contract.

use std::time::Instant;

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_lint::KernelContract;
use hmm_model::cost::{CostCounters, ExactCounts, GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_core::{par, seq, Matrix};

/// Nanoseconds per HMM time unit (one coalesced 32-word transaction).
///
/// Calibrated so the model's 1R1W cost at 18K × 18K lands on the paper's
/// measured 53.8 ms on the GTX 780 Ti (≈ 2 ns per 32-word read+write
/// round trip at effective bandwidth). Only used to express costs in
/// milliseconds; rankings and crossovers are unit-free.
pub const NS_PER_UNIT: f64 = 2.0;

/// Convert a cost in HMM time units to milliseconds.
pub fn units_to_ms(units: f64) -> f64 {
    units * NS_PER_UNIT * 1e-6
}

obs::json::record! {
    /// One (algorithm, size) measurement.
    #[derive(Debug, Clone)]
    pub struct AlgoRecord {
        /// Algorithm name as in the paper.
        pub algorithm: String,
        /// Matrix side `n`.
        pub n: usize,
        /// Whether counters come from a real execution (vs the closed form).
        pub measured: bool,
        /// Global memory access cost in time units.
        pub cost_units: f64,
        /// The cost expressed in milliseconds ([`NS_PER_UNIT`]).
        pub cost_ms: f64,
        /// Reads per element.
        pub reads_per_elt: f64,
        /// Writes per element.
        pub writes_per_elt: f64,
        /// Barrier synchronisation steps.
        pub barriers: f64,
        /// Hybrid ratio used (0 for the other algorithms).
        pub hybrid_r: f64,
        /// Host wall-clock of the real execution, if any (seconds).
        pub host_seconds: Option<f64>,
    }
}

/// Deterministic workload: integer-valued `f64` image (exact arithmetic).
pub fn workload(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        ((i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % 256) as f64
    })
}

/// One real execution: the device's counters, the host wall-clock of
/// buffer construction plus the driver (seconds), and the SAT it produced.
pub struct Run {
    /// Counters of this run alone (the device is reset first).
    pub counters: CostCounters,
    /// Host wall-clock of building the buffers and running the driver;
    /// reading the output back is not timed.
    pub seconds: f64,
    /// The SAT, row-major `n × n`.
    pub output: Vec<f64>,
}

/// Run one algorithm for real on a device through [`par::sat`] with hybrid
/// ratio `r` (ignored by the other algorithms). The caller supplies fresh
/// input each call.
pub fn run_real(dev: &Device, alg: SatAlgorithm, r: f64, n: usize) -> Run {
    timed(dev, n, |buf| {
        par::sat(dev, alg, r, &buf, n, n);
        buf
    })
}

/// Reset `dev`'s stats, then time building the input buffer and `driver`,
/// which returns the SAT buffer.
fn timed(
    dev: &Device,
    n: usize,
    driver: impl FnOnce(GlobalBuffer<f64>) -> GlobalBuffer<f64>,
) -> Run {
    let a = workload(n);
    dev.reset_stats();
    let start = Instant::now();
    let s = driver(GlobalBuffer::from_vec(a.into_vec()));
    let seconds = start.elapsed().as_secs_f64();
    Run {
        counters: dev.stats(),
        seconds,
        output: s.into_vec(),
    }
}

/// Largest side at which the tools run 4R1W: its `2n − 1` launches are
/// prohibitive beyond.
const FOUR_R1W_MAX_N: usize = 1024;

/// One measured execution path: a paper algorithm, or the persistent-block
/// 1R1W driver, which moves 1R1W's data in a single launch with flagged
/// handoffs instead of launch barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// A paper algorithm through [`par::sat`].
    Alg(SatAlgorithm),
    /// Persistent-block 1R1W (`par::sat_1r1w_persistent`).
    Persistent,
}

impl Path {
    /// The six algorithms of Table I, then persistent 1R1W.
    pub const ALL: [Path; 7] = [
        Path::Alg(SatAlgorithm::TwoR2W),
        Path::Alg(SatAlgorithm::FourR4W),
        Path::Alg(SatAlgorithm::FourR1W),
        Path::Alg(SatAlgorithm::TwoR1W),
        Path::Alg(SatAlgorithm::OneR1W),
        Path::Alg(SatAlgorithm::HybridR1W),
        Path::Persistent,
    ];

    /// The cell name: the paper's name, or `1R1W-persist`.
    pub fn name(self) -> &'static str {
        match self {
            Path::Alg(alg) => alg.name(),
            Path::Persistent => "1R1W-persist",
        }
    }

    /// Whether the tools run this path at side `n` (4R1W is capped at
    /// n = 1024).
    pub fn runs_at(self, n: usize) -> bool {
        self != Path::Alg(SatAlgorithm::FourR1W) || n <= FOUR_R1W_MAX_N
    }

    /// The hybrid ratio the path runs with on `cfg` at side `n`: the
    /// model-optimal `r` for the hybrid, 0 otherwise.
    pub fn hybrid_r(self, cfg: MachineConfig, n: usize) -> f64 {
        match self {
            Path::Alg(SatAlgorithm::HybridR1W) => GlobalCost::new(cfg).optimal_r(n),
            _ => 0.0,
        }
    }

    /// Run the path for real on `dev` at side `n`.
    pub fn run(self, dev: &Device, n: usize) -> Run {
        match self {
            Path::Alg(alg) => run_real(dev, alg, self.hybrid_r(*dev.config(), n), n),
            Path::Persistent => timed(dev, n, |buf| {
                let s = GlobalBuffer::filled(0.0f64, n * n);
                par::sat_1r1w_persistent(dev, &buf, &s, n, n);
                s
            }),
        }
    }

    /// The transaction-exact closed form at side `n`, where one is known.
    pub fn exact_counts(self, gc: &GlobalCost, n: usize) -> Option<ExactCounts> {
        match self {
            Path::Alg(alg) => gc.exact_counts(alg, n, n),
            Path::Persistent => gc.persistent_1r1w_exact_counts(n),
        }
    }

    /// The hmm-lint contract a run at side `n` on `cfg` is held to.
    pub fn contract(self, n: usize, cfg: MachineConfig) -> KernelContract {
        match self {
            Path::Alg(alg) => KernelContract::for_algorithm(alg, n, cfg),
            Path::Persistent => KernelContract::for_persistent_1r1w(n, cfg),
        }
    }
}

impl std::str::FromStr for Path {
    type Err = String;

    /// `1r1w-persist` in any case, else a [`SatAlgorithm`] name.
    fn from_str(s: &str) -> Result<Self, String> {
        if s.eq_ignore_ascii_case(Path::Persistent.name()) {
            return Ok(Path::Persistent);
        }
        s.parse().map(Path::Alg)
    }
}

impl AlgoRecord {
    /// The record of `run`, a measured run of `alg` at side `n` on `dev`,
    /// priced on the device's machine; its `hybrid_r` is the one
    /// [`Path::run`] chose there.
    pub fn measured(dev: &Device, alg: SatAlgorithm, n: usize, run: &Run) -> AlgoRecord {
        let cfg = *dev.config();
        let s = &run.counters;
        let cost = s.global_cost(&cfg);
        AlgoRecord {
            algorithm: alg.name().to_string(),
            n,
            measured: true,
            cost_units: cost,
            cost_ms: units_to_ms(cost),
            reads_per_elt: s.reads_per_element(n),
            writes_per_elt: s.writes_per_element(n),
            barriers: s.barrier_steps as f64,
            hybrid_r: Path::Alg(alg).hybrid_r(cfg, n),
            host_seconds: Some(run.seconds),
        }
    }
}

/// Produce the record for `(alg, n)` on `dev`'s machine: measured when
/// `n ≤ measured_max` and [`Path::runs_at`] allows it, closed-form
/// otherwise.
pub fn record_for(dev: &Device, alg: SatAlgorithm, n: usize, measured_max: usize) -> AlgoRecord {
    let path = Path::Alg(alg);
    if n <= measured_max && path.runs_at(n) {
        AlgoRecord::measured(dev, alg, n, &path.run(dev, n))
    } else {
        let cfg = *dev.config();
        let row = GlobalCost::new(cfg).table_one_row(alg, n);
        let n2 = (n * n) as f64;
        AlgoRecord {
            algorithm: alg.name().to_string(),
            n,
            measured: false,
            cost_units: row.cost,
            cost_ms: units_to_ms(row.cost),
            reads_per_elt: (row.coalesced_reads + row.stride_reads) / n2,
            writes_per_elt: (row.coalesced_writes + row.stride_writes) / n2,
            barriers: row.barrier_steps,
            hybrid_r: path.hybrid_r(cfg, n),
            host_seconds: None,
        }
    }
}

/// Wall-clock one CPU baseline (seconds) at size `n`.
pub fn cpu_baseline_seconds(alg: CpuBaseline, n: usize) -> f64 {
    let mut a = workload(n);
    let start = Instant::now();
    match alg {
        CpuBaseline::TwoR2W => seq::sat_2r2w_cpu(&mut a),
        CpuBaseline::FourR1W => seq::sat_4r1w_cpu(&mut a),
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(a.get(n - 1, n - 1));
    secs
}

/// The two sequential baselines of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuBaseline {
    /// Two raster-order prefix-sum passes.
    TwoR2W,
    /// One Formula-(1) pass (the paper's fastest CPU algorithm).
    FourR1W,
}

impl CpuBaseline {
    /// Name as printed in Table II.
    pub fn name(&self) -> &'static str {
        match self {
            CpuBaseline::TwoR2W => "2R2W(CPU)",
            CpuBaseline::FourR1W => "4R1W(CPU)",
        }
    }
}

/// A statistics-recording device with the given profile for measured runs.
pub fn bench_device(cfg: MachineConfig) -> Device {
    Device::new(DeviceOptions::new(cfg).workers(0))
}

/// Parse `--flag value`-style options from `args`, returning the value.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse `--flag value` into `T`, falling back to `default` when the flag
/// is absent.
///
/// Unlike the old `flag_value(..).and_then(|s| s.parse().ok()).unwrap_or(d)`
/// pattern, a present-but-unparsable value (`--measured-max foo`) or a flag
/// missing its value is an **error**: the offending value is printed and
/// the process exits nonzero. A benchmark that silently substitutes its
/// default produces plausible-looking but wrong records.
pub fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default;
    };
    match args.get(i + 1) {
        None => {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        }
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!(
                "error: {flag} got unparsable value {s:?} (expected {})",
                std::any::type_name::<T>()
            );
            std::process::exit(2);
        }),
    }
}

/// The paper's Table II sizes: 1K…8K in 1K steps, then 10K…18K in 2K steps.
pub fn table2_sizes() -> Vec<usize> {
    let mut v: Vec<usize> = (1..=8).map(|k| k * 1024).collect();
    v.extend((5..=9).map(|k| 2 * k * 1024));
    v
}

/// Human-readable size label (e.g. 2048 → "2K").
pub fn size_label(n: usize) -> String {
    if n % 1024 == 0 {
        format!("{}K", n / 1024)
    } else {
        n.to_string()
    }
}

/// Every metric family the stack is allowed to expose, with label sets
/// and histogram-series suffixes (`_bucket`/`_sum`/`_count`) stripped.
///
/// This is the scrape *schema*: `loadgen --metrics-snapshot` and
/// `chaosgen --metrics-snapshot` run [`unknown_families`] over the
/// snapshot they write and exit nonzero on any name missing here. The
/// list is [`sat_service::metric_families`], derived from the constants
/// each registration site uses, so a family registered by hand without
/// such a constant still fails the check.
pub fn known_metric_families() -> Vec<String> {
    sat_service::metric_families()
}

/// Metric families appearing in a Prometheus-style text exposition that
/// are **not** in [`known_metric_families`], in first-seen order. Empty
/// means the snapshot parses strictly.
pub fn unknown_families(text: &str) -> Vec<String> {
    let known = known_metric_families();
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(name) = line.split(['{', ' ']).next().filter(|n| !n.is_empty()) else {
            continue;
        };
        // Histogram series expose as `<family>_bucket/_sum/_count`.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        let known_as = |n: &str| known.iter().any(|k| k == n);
        if !known_as(name) && !known_as(base) && !out.iter().any(|o| o == name) {
            out.push(name.to_string());
        }
    }
    out
}

/// Write records as JSON lines if `--json PATH` was given; an unwritable
/// path is reported on stderr and exits 2, like a bad flag value.
pub fn maybe_write_json<T: obs::json::ToJson>(args: &[String], records: &[T]) {
    if let Some(path) = flag_value(args, "--json") {
        let mut out = String::new();
        for r in records {
            out.push_str(&obs::json::to_string(r));
            out.push('\n');
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("error: cannot write JSON output to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {} records to {path}", records.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper() {
        let s = table2_sizes();
        assert_eq!(s.len(), 13);
        assert_eq!(s[0], 1024);
        assert_eq!(*s.last().unwrap(), 18 * 1024);
        assert_eq!(size_label(10 * 1024), "10K");
        assert_eq!(size_label(100), "100");
    }

    #[test]
    fn record_measured_and_analytic_agree_roughly() {
        let cfg = MachineConfig::with_width(16);
        let dev = bench_device(cfg);
        let n = 256;
        for alg in [SatAlgorithm::TwoR1W, SatAlgorithm::OneR1W] {
            let m = record_for(&dev, alg, n, usize::MAX);
            let a = record_for(&dev, alg, n, 0);
            assert!(m.measured);
            assert!(!a.measured);
            let ratio = m.cost_units / a.cost_units;
            assert!((0.8..1.25).contains(&ratio), "{alg:?}: {ratio}");
        }
    }

    #[test]
    fn paths_parse_from_their_names() {
        for path in Path::ALL {
            assert_eq!(path.name().to_lowercase().parse::<Path>(), Ok(path));
        }
        assert_eq!(
            "hybrid".parse::<Path>(),
            Ok(Path::Alg(SatAlgorithm::HybridR1W))
        );
        assert!("9r9w".parse::<Path>().is_err());
    }

    #[test]
    fn cpu_baselines_run() {
        for b in [CpuBaseline::TwoR2W, CpuBaseline::FourR1W] {
            assert!(cpu_baseline_seconds(b, 128) >= 0.0);
        }
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--json", "out.json", "--sizes", "1,2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--json").as_deref(), Some("out.json"));
        assert_eq!(flag_value(&args, "--sizes").as_deref(), Some("1,2"));
        assert_eq!(flag_value(&args, "--nope"), None);
    }

    #[test]
    fn a_live_scrape_parses_strictly_and_unknown_keys_are_caught() {
        // A real observed service's scrape must contain only allow-listed
        // families — this is the test that fails when someone registers a
        // new metric without extending `known_metric_families`.
        let service = sat_service::Service::start(sat_service::ServiceConfig {
            machine: MachineConfig::with_width(4),
            device_workers: Some(0),
            observer: obs::Obs::new(),
            ..sat_service::ServiceConfig::default()
        });
        let client = service.client();
        for k in 0..3usize {
            client
                .submit(workload(8 + 4 * k), SatAlgorithm::OneR1W, None)
                .expect("accepted");
        }
        let text = service.metrics_text();
        assert!(text.contains("sat_service_model_samples_total"));
        assert_eq!(
            unknown_families(&text),
            Vec::<String>::new(),
            "scrape contains families missing from known_metric_families()"
        );
        service.shutdown();
        // And the strict parser actually rejects a novel key.
        let doctored = "# TYPE sat_service_novel_gauge gauge\n\
                        sat_service_novel_gauge 1\n\
                        sat_service_submitted_total 3\n";
        assert_eq!(unknown_families(doctored), vec!["sat_service_novel_gauge"]);
    }

    #[test]
    fn parsed_flag_happy_paths() {
        // The error paths exit the process; they are covered end-to-end by
        // the `bad_flags_cli` integration test against the real binaries.
        let args: Vec<String> = ["--n", "128", "--rate", "2.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parsed_flag(&args, "--n", 64usize), 128);
        assert_eq!(parsed_flag(&args, "--rate", 0.0f64), 2.5);
        assert_eq!(parsed_flag(&args, "--absent", 7u32), 7);
    }
}
