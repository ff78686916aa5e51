//! Result lines, sample statistics and the seeded input generator.

use std::fmt::Write as _;

/// One named measurement of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Descriptive facts printed beside the result so a number can be read
/// later: host, seed, shapes, sample counts. Values are JSON fragments.
#[derive(Default)]
pub struct Facts(Vec<(String, String)>);

impl Facts {
    pub fn num(&mut self, key: &str, v: f64) {
        self.0.push((key.to_string(), json_num(v)));
    }
    pub fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.to_string(), v.to_string()));
    }
    pub fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), json_str(v)));
    }
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What a workload run produced: operations attempted and failed, the
/// metrics of the requested mode, facts, and the share of self-test
/// outputs from a corrupting device that the checker flagged.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub facts: Facts,
    pub selftest_error_rate: f64,
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values cannot be written in JSON; they are a benchmark bug.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    // `+ 0.0` turns an empty float sum's -0.0 into 0.0.
    format!("{:?}", v + 0.0)
}

/// The final result line.
pub fn result_line(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median over the slices of a run's window of `f(slice)`. Each slice
/// measures its own freshly set-up device or service, so neither a burst
/// of host contention shorter than half the window nor the thread and
/// buffer placement of one instance can move the time metrics.
pub fn median_over<T>(slices: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&slices.iter().map(f).collect::<Vec<_>>())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// splitmix64: the seeded stream every workload draws its inputs from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A `rows × cols` image of integer-valued pixels in `0..=255`. Every SAT
/// of such an image is exact in `f64` (sums stay far below 2^53), so all
/// algorithms must agree with the reference bit for bit.
pub fn image(rng: &mut Rng, rows: usize, cols: usize) -> sat_core::Matrix<f64> {
    sat_core::Matrix::from_fn(rows, cols, |_, _| rng.below(256) as f64)
}

/// Bit-for-bit equality of two SATs, shapes included.
pub fn bit_equal(a: &sat_core::Matrix<f64>, b: &sat_core::Matrix<f64>) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
