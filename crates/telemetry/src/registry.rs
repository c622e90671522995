//! Metric exposition: a materialized registry that renders as Prometheus
//! text format or flat JSON.
//!
//! The registry is a *snapshot*, not a live subscription: the instrumented
//! crate reads its static counters at scrape time, pushes the values here,
//! and renders. That keeps this crate free of any registration machinery
//! (and of any dependency), at the cost of the caller enumerating its
//! metrics explicitly — which it must do anyway to document them.

use crate::json;
use crate::json::Json;
use crate::Log2Histogram;

/// The value of a single metric sample.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing total.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A distribution, rendered as Prometheus cumulative buckets.
    Histogram {
        /// `(upper_bound, cumulative_count)` pairs, sorted by bound. The
        /// implicit `+Inf` bucket (== `count`) is appended at render time.
        buckets: Vec<(f64, u64)>,
        /// Total number of observations.
        count: u64,
        /// Sum of all observed values.
        sum: f64,
    },
}

/// One metric sample: family name, help text, optional labels, value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Prometheus family name, e.g. `app_requests_total`.
    pub name: String,
    /// One-line help text emitted as `# HELP`.
    pub help: String,
    /// Label pairs, e.g. `[("mode", "scalar")]`.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// An ordered collection of metric samples with Prometheus-text and JSON
/// renderers.
#[derive(Debug, Clone, Default)]
pub struct TelemetryRegistry {
    metrics: Vec<Metric>,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push a counter sample.
    pub fn counter(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) -> &mut Self {
        self.push(name, help, labels, MetricValue::Counter(value))
    }

    /// Push a gauge sample.
    pub fn gauge(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        self.push(name, help, labels, MetricValue::Gauge(value))
    }

    /// Push a histogram sample from per-bucket (non-cumulative) counts and
    /// their inclusive upper bounds.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds_and_counts: &[(f64, u64)],
        sum: f64,
    ) -> &mut Self {
        let mut cumulative = 0u64;
        let buckets: Vec<(f64, u64)> = bounds_and_counts
            .iter()
            .map(|&(bound, n)| {
                cumulative += n;
                (bound, cumulative)
            })
            .collect();
        self.push(
            name,
            help,
            labels,
            MetricValue::Histogram {
                buckets,
                count: cumulative,
                sum,
            },
        )
    }

    /// Push a histogram sample from a [`Log2Histogram`]'s per-bucket
    /// counts (as returned by [`Log2Histogram::counts`]) and their sum,
    /// with the bucket bounds of [`Log2Histogram::upper_bound`].
    pub fn log2_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counts: &[u64],
        sum: u64,
    ) -> &mut Self {
        let bounds: Vec<(f64, u64)> = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| (Log2Histogram::upper_bound(i) as f64, n))
            .collect();
        self.histogram(name, help, labels, &bounds, sum as f64)
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: MetricValue,
    ) -> &mut Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
        self
    }

    /// The samples, in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Append every sample of `other`, preserving its order after this
    /// registry's own samples. This is how the stack unifies its export:
    /// the core FIB, the engine, the BGP session and the trace recorder
    /// each build their own registry slice, and one scrape merges them
    /// into a single exposition.
    pub fn merge(&mut self, other: TelemetryRegistry) -> &mut Self {
        self.metrics.extend(other.metrics);
        self
    }

    /// Render as Prometheus text exposition format (version 0.0.4).
    /// `# HELP`/`# TYPE` lines are emitted once per family, on the first
    /// sample of that family.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for m in &self.metrics {
            let (name, labels) = (&m.name, label_set(&m.labels, None));
            if !seen.contains(&name.as_str()) {
                seen.push(name);
                let ty = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram { .. } => "histogram",
                };
                out += &format!("# HELP {name} {}\n# TYPE {name} {ty}\n", m.help);
            }
            match &m.value {
                MetricValue::Counter(v) => out += &format!("{name}{labels} {v}\n"),
                MetricValue::Gauge(v) => out += &format!("{name}{labels} {}\n", fmt_f64(*v)),
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                } => {
                    let le = buckets.iter().map(|&(bound, n)| (fmt_f64(bound), n));
                    for (le, n) in le.chain([("+Inf".to_string(), *count)]) {
                        let bucket_labels = label_set(&m.labels, Some(&le));
                        out += &format!("{name}_bucket{bucket_labels} {n}\n");
                    }
                    out += &format!("{name}_sum{labels} {}\n", fmt_f64(*sum));
                    out += &format!("{name}_count{labels} {count}\n");
                }
            }
        }
        out
    }

    /// The samples as one flat JSON object: one key per sample, labels
    /// folded into the key as `name{k=v,...}`; histograms become objects
    /// with `buckets` (upper bound → cumulative count), `count` and `sum`.
    pub fn render_json(&self) -> Json {
        let fields = self.metrics.iter().map(|m| {
            let mut key = m.name.clone();
            if !m.labels.is_empty() {
                let labels: Vec<String> =
                    m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                key = format!("{key}{{{}}}", labels.join(","));
            }
            let value = match &m.value {
                MetricValue::Counter(v) => Json::from(*v),
                MetricValue::Gauge(v) => Json::from(*v),
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                } => json!({
                    "buckets": Json::Object(
                        buckets.iter().map(|&(b, n)| (fmt_f64(b), Json::from(n))).collect()
                    ),
                    "count": *count, "sum": *sum,
                }),
            };
            (key, value)
        });
        Json::Object(fields.collect())
    }
}

/// Format a label set, optionally with an extra `le` label (for histogram
/// buckets). Returns the empty string when there are no labels at all.
fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), prom_escape(v)))
        .chain(le.map(|le| ("le", le.to_string())))
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Format an f64 the way Prometheus expects: integers without a trailing
/// `.0`, everything else via the shortest round-trip representation.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{}", v)
    }
}

/// Escape a Prometheus label value (backslash, double quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}
