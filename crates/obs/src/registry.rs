//! The counter/gauge registry: typed handles over atomic cells.
//!
//! Handles ([`Counter`], [`Gauge`]) are obtained once and updated with a
//! single atomic add — the registry's map lock is only taken at
//! registration and snapshot time, never on the hot path.
//!
//! Counters are cumulative and never reset (the Prometheus counter
//! contract). What one launch cost rides on that launch's span args, not
//! on the registry.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{BucketLayout, Histogram, HistogramCell, HistogramSample};

/// A shared metric registry. Cloning is cheap (one `Arc`); all clones see
/// the same metrics.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct CounterCell {
    total: AtomicU64,
}

#[derive(Default)]
struct GaugeCell {
    /// `f64` bits; gauges are set, not accumulated, so a plain store works.
    bits: AtomicU64,
}

/// A monotonically increasing counter. Cheap to clone; an update is one
/// relaxed atomic add.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

/// A gauge: a value that is *set* rather than accumulated (latency
/// percentiles, queue depth, ratios).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

/// One counter's values at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name, possibly with a `{label="value"}` suffix.
    pub name: String,
    /// Cumulative value since registration.
    pub total: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name, possibly with a `{label="value"}` suffix.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// A point-in-time view of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<&CounterSample> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// The gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSample> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Cumulative value since registration.
    pub fn total(&self) -> u64 {
        self.cell.total.load(Ordering::Relaxed)
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Last value set (0.0 initially).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.bits.load(Ordering::Relaxed))
    }
}

/// Valid metric names: Prometheus identifier characters, with an optional
/// literal `{label="value",…}` suffix baked into the name.
fn check_name(name: &str) {
    let base = name.split('{').next().unwrap_or(name);
    assert!(
        !base.is_empty()
            && base
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name {name:?}"
    );
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`. The name may carry a literal
    /// label suffix, e.g. `requests_total{reason="deadline"}`.
    ///
    /// Panics if `name` is already registered as another kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(CounterCell::default())))
        {
            Metric::Counter(c) => {
                check_name(name);
                Counter {
                    cell: Arc::clone(c),
                }
            }
            other => panic!(
                "metric {name:?} is already registered as a {}",
                other.kind()
            ),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// Panics if `name` is already registered as another kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.inner.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(GaugeCell::default())))
        {
            Metric::Gauge(g) => {
                check_name(name);
                Gauge {
                    cell: Arc::clone(g),
                }
            }
            other => panic!(
                "metric {name:?} is already registered as a {}",
                other.kind()
            ),
        }
    }

    /// Get or register the histogram `name` with the default latency
    /// layout ([`BucketLayout::default_latency_seconds`]).
    ///
    /// Panics if `name` is already registered as another kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &BucketLayout::default_latency_seconds())
    }

    /// Get or register the histogram `name` with an explicit bucket layout.
    ///
    /// Panics if `name` is already registered as another kind, or as a
    /// histogram with a *different* layout (merging and quantiles require
    /// identical bounds).
    pub fn histogram_with(&self, name: &str, layout: &BucketLayout) -> Histogram {
        let mut m = self.inner.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::new(layout))))
        {
            Metric::Histogram(h) => {
                check_name(name);
                assert!(
                    h.same_layout(layout),
                    "histogram {name:?} is already registered with a different bucket layout"
                );
                Histogram {
                    cell: Arc::clone(h),
                }
            }
            other => panic!(
                "metric {name:?} is already registered as a {}",
                other.kind()
            ),
        }
    }

    /// Build a metric name with a properly escaped label suffix:
    /// `Registry::labeled("rejected_total", &[("reason", "a\"b")])` yields
    /// `rejected_total{reason="a\"b"}`. Use this instead of formatting the
    /// suffix by hand when label values are not known-clean literals.
    pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
        let mut out = String::from(base);
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            escape_label_value(v, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.inner.metrics.lock().expect("registry lock");
        let mut snap = Snapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name: name.clone(),
                    total: c.total.load(Ordering::Relaxed),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: name.clone(),
                    value: f64::from_bits(g.bits.load(Ordering::Relaxed)),
                }),
                Metric::Histogram(h) => snap.histograms.push(h.sample(name)),
            }
        }
        snap
    }

    /// Prometheus-style text exposition. Each metric family (the name up to
    /// any `{` suffix) gets one `# TYPE` line — tracked **per kind**, so a
    /// gauge family following a counter family of the same name still gets
    /// its line — followed by its samples in name order. Label values are
    /// re-escaped (`\` → `\\`, `"` → `\"`, newline → `\n`) so the output
    /// survives `promtool check metrics`-style validation. Histograms emit
    /// the standard cumulative `_bucket{le="…"}` series plus `_sum` and
    /// `_count`.
    pub fn expose_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        let type_line = |out: &mut String, name: &str, kind: &str, last: &mut String| {
            let family = name.split('{').next().unwrap_or(name);
            if family != last {
                let _ = writeln!(out, "# TYPE {family} {kind}");
                *last = family.to_string();
            }
        };
        let mut last = String::new();
        for c in &snap.counters {
            type_line(&mut out, &c.name, "counter", &mut last);
            let _ = writeln!(out, "{} {}", render_name(&c.name), c.total);
        }
        let mut last = String::new();
        for g in &snap.gauges {
            type_line(&mut out, &g.name, "gauge", &mut last);
            let _ = writeln!(out, "{} {}", render_name(&g.name), g.value);
        }
        let mut last = String::new();
        for h in &snap.histograms {
            type_line(&mut out, &h.name, "histogram", &mut last);
            let rendered = render_name(&h.name);
            let (base, labels) = match rendered.split_once('{') {
                Some((b, rest)) => (b, rest.trim_end_matches('}')),
                None => (rendered.as_str(), ""),
            };
            for (i, (le, cum)) in h.cumulative().into_iter().enumerate() {
                let le = fmt_le(le);
                // OpenMetrics exemplar suffix: the most recent request id
                // and observed value that landed in this bucket, linking a
                // scraped `_bucket` line to a traceable request.
                let exemplar = match h.exemplars.get(i).copied().flatten() {
                    Some((id, v)) => format!(" # {{request_id=\"{id}\"}} {v}"),
                    None => String::new(),
                };
                if labels.is_empty() {
                    let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cum}{exemplar}");
                } else {
                    let _ = writeln!(out, "{base}_bucket{{{labels},le=\"{le}\"}} {cum}{exemplar}");
                }
            }
            let suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let _ = writeln!(out, "{base}_sum{suffix} {}", h.sum);
            let _ = writeln!(out, "{base}_count{suffix} {}", h.count);
        }
        out
    }
}

fn fmt_le(b: f64) -> String {
    if b.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{b}")
    }
}

fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Re-render a registered metric name with label values escaped for the
/// Prometheus text format. Names without a label suffix — and names whose
/// suffix does not parse as `key="value"` pairs — pass through unchanged
/// (registration accepted them, so exposition must not drop them).
fn render_name(raw: &str) -> String {
    let Some(brace) = raw.find('{') else {
        return raw.to_string();
    };
    if !raw.ends_with('}') {
        return raw.to_string();
    }
    let base = &raw[..brace];
    let body = &raw[brace + 1..raw.len() - 1];
    match parse_labels(body) {
        Some(labels) => {
            let pairs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            Registry::labeled(base, &pairs)
        }
        None => raw.to_string(),
    }
}

/// Parse a `key="value",key="value"` label body, decoding any existing
/// `\\`/`\"`/`\n` escapes so re-rendering is idempotent. Returns `None`
/// on malformed input.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].trim().to_string();
        let mut value = String::new();
        let mut end = None;
        let mut chars = rest[eq + 2..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return None,
                },
                '"' => {
                    end = Some(eq + 2 + i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        out.push((key, value));
        rest = &rest[end?..];
        if !rest.is_empty() {
            rest = rest.strip_prefix(',')?;
        }
    }
    Some(out)
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_snapshot() {
        let r = Registry::new();
        let s = r.snapshot();
        assert!(s.counters.is_empty());
        assert!(s.gauges.is_empty());
        assert_eq!(r.expose_text(), "");
    }

    #[test]
    fn single_sample_snapshot() {
        let r = Registry::new();
        let c = r.counter("ops_total");
        c.inc();
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.counter("ops_total").unwrap().total, 1);
        assert!(s.counter("missing").is_none());
    }

    #[test]
    fn clones_share_cells_and_registry() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.clone().counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.total(), 5);
        assert_eq!(r.snapshot().counter("x").unwrap().total, 5);
    }

    #[test]
    fn gauges_set_and_read() {
        let r = Registry::new();
        let g = r.gauge("p99_ms");
        assert_eq!(g.get(), 0.0);
        g.set(12.5);
        assert_eq!(g.get(), 12.5);
        assert_eq!(r.snapshot().gauge("p99_ms").unwrap().value, 12.5);
    }

    #[test]
    fn exposition_groups_label_suffixed_families() {
        let r = Registry::new();
        r.counter("rejected_total{reason=\"deadline\"}").add(2);
        r.counter("rejected_total{reason=\"queue_full\"}").add(1);
        r.gauge("width_mean").set(3.5);
        let text = r.expose_text();
        // One TYPE line for the family, both samples under it, BTreeMap order.
        assert_eq!(text.matches("# TYPE rejected_total counter").count(), 1);
        assert!(text.contains("rejected_total{reason=\"deadline\"} 2\n"));
        assert!(text.contains("rejected_total{reason=\"queue_full\"} 1\n"));
        assert!(text.contains("# TYPE width_mean gauge\nwidth_mean 3.5\n"));
    }

    #[test]
    #[should_panic(expected = "already registered as a gauge")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        let _g = r.gauge("same");
        let _c = r.counter("same");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        let r = Registry::new();
        let _c = r.counter("has space");
    }

    #[test]
    fn histogram_exposition_has_bucket_sum_count() {
        let r = Registry::new();
        let h = r.histogram_with("req_seconds", &BucketLayout::log(1.0, 2.0, 3));
        h.observe(0.5);
        h.observe(3.0);
        h.observe(100.0);
        let text = r.expose_text();
        assert!(text.contains("# TYPE req_seconds histogram"));
        assert!(text.contains("req_seconds_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("req_seconds_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("req_seconds_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("req_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("req_seconds_sum 103.5\n"));
        assert!(text.contains("req_seconds_count 3\n"));
    }

    #[test]
    fn labeled_histogram_merges_le_into_suffix() {
        let r = Registry::new();
        let h = r.histogram_with(
            "stage_seconds{stage=\"queue\"}",
            &BucketLayout::log(1.0, 2.0, 2),
        );
        h.observe(1.5);
        let text = r.expose_text();
        assert!(text.contains("stage_seconds_bucket{stage=\"queue\",le=\"2\"} 1\n"));
        assert!(text.contains("stage_seconds_sum{stage=\"queue\"} 1.5\n"));
        assert!(text.contains("stage_seconds_count{stage=\"queue\"} 1\n"));
        assert_eq!(text.matches("# TYPE stage_seconds histogram").count(), 1);
    }

    #[test]
    fn exemplars_render_in_openmetrics_syntax() {
        let r = Registry::new();
        let h = r.histogram_with("req_seconds", &BucketLayout::log(1.0, 2.0, 3));
        h.observe(0.5); // no exemplar on this bucket
        h.observe_with_exemplar(1.5, 42);
        let text = r.expose_text();
        assert!(
            text.contains("req_seconds_bucket{le=\"2\"} 2 # {request_id=\"42\"} 1.5\n"),
            "got: {text}"
        );
        // Buckets without an exemplar stay plain Prometheus lines.
        assert!(text.contains("req_seconds_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(
            text.contains("req_seconds_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "different bucket layout")]
    fn histogram_layout_conflicts_panic() {
        let r = Registry::new();
        let _a = r.histogram_with("h", &BucketLayout::log(1.0, 2.0, 4));
        let _b = r.histogram_with("h", &BucketLayout::log(1.0, 2.0, 5));
    }

    #[test]
    fn label_values_are_escaped_on_exposition() {
        let r = Registry::new();
        let name = Registry::labeled("weird_total", &[("path", "a\"b\\c")]);
        assert_eq!(name, "weird_total{path=\"a\\\"b\\\\c\"}");
        r.counter(&name).add(7);
        let text = r.expose_text();
        // Escapes survive a round trip through registration + exposition
        // (idempotent: not double-escaped).
        assert!(
            text.contains("weird_total{path=\"a\\\"b\\\\c\"} 7\n"),
            "got: {text}"
        );
    }

    #[test]
    fn type_lines_emitted_per_kind_even_for_shared_family_names() {
        let r = Registry::new();
        // Same family name in two kinds (user error, but exposition must
        // still announce both kinds rather than silently suppressing one).
        r.counter("depth{side=\"in\"}").add(1);
        r.gauge("depth_now").set(2.0);
        let text = r.expose_text();
        assert!(text.contains("# TYPE depth counter"));
        assert!(text.contains("# TYPE depth_now gauge"));
    }

    #[test]
    fn counters_are_thread_safe() {
        let r = Registry::new();
        let c = r.counter("hot");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.total(), 4000);
    }
}
