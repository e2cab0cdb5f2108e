//! Metric exporters: Prometheus text exposition format and JSON.
//!
//! Both renderers consume the same [`Metric`] list, so the two formats
//! can never drift from each other; the tier-1 gate checks both against
//! the raw counters they were built from. Everything is hand-rolled
//! string building — this crate is std-only by charter.

use crate::histogram::{HistogramSnapshot, BUCKET_COUNT};
use std::fmt::Write as _;

/// The value of one exported metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A full log2 histogram (boxed: it is many times the other variants'
    /// size).
    Histogram(Box<HistogramSnapshot>),
}

/// One exported metric: name, help text, optional labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Prometheus-style metric name (`snake_case`, unit-suffixed).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Label pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

impl Metric {
    /// A counter metric.
    pub fn counter(name: &str, help: &str, value: u64) -> Metric {
        Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: Vec::new(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge metric.
    pub fn gauge(name: &str, help: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: Vec::new(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A histogram metric.
    pub fn histogram(name: &str, help: &str, snapshot: HistogramSnapshot) -> Metric {
        Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: Vec::new(),
            value: MetricValue::Histogram(Box::new(snapshot)),
        }
    }

    /// Adds a label pair (builder style).
    pub fn with_label(mut self, key: &str, value: &str) -> Metric {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    fn label_block(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{{{}}}", inner.join(","))
    }

    /// Label block with one extra pair appended (for histogram `le`).
    fn label_block_with(&self, key: &str, value: &str) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        pairs.push(format!("{key}=\"{value}\""));
        format!("{{{}}}", pairs.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the metric list in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=..}` lines for
/// histograms). Metrics sharing a name (label variants) get one header.
pub fn to_prometheus(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for m in metrics {
        if last_name != Some(m.name.as_str()) {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            last_name = Some(m.name.as_str());
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, m.label_block(), v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, m.label_block(), render_f64(*v));
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for i in 0..BUCKET_COUNT {
                    if h.buckets[i] == 0 {
                        continue; // cumulative semantics allow sparse edges
                    }
                    cumulative += h.buckets[i];
                    let le = HistogramSnapshot::bucket_upper_bound(i).to_string();
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        m.label_block_with("le", &le),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    m.name,
                    m.label_block_with("le", "+Inf"),
                    h.count
                );
                let _ = writeln!(out, "{}_sum{} {}", m.name, m.label_block(), h.sum);
                let _ = writeln!(out, "{}_count{} {}", m.name, m.label_block(), h.count);
            }
        }
    }
    out
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one histogram as a JSON object (`count`, `sum`, `p50`, `p99`,
/// sparse `buckets` with inclusive upper bounds).
fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut buckets = String::new();
    let mut first = true;
    for i in 0..BUCKET_COUNT {
        if h.buckets[i] == 0 {
            continue;
        }
        if !first {
            buckets.push_str(", ");
        }
        first = false;
        let _ = write!(
            buckets,
            "{{\"le\": {}, \"count\": {}}}",
            HistogramSnapshot::bucket_upper_bound(i),
            h.buckets[i]
        );
    }
    format!(
        "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}}",
        h.count,
        h.sum,
        h.quantile(0.50),
        h.quantile(0.99),
        buckets
    )
}

/// Renders the metric list as a JSON document:
/// `{"metrics": [{"name": .., "type": .., "labels": {..}, ..}, ..]}`.
pub fn to_json(metrics: &[Metric]) -> String {
    let mut items: Vec<String> = Vec::with_capacity(metrics.len());
    for m in metrics {
        let labels = if m.labels.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = m
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)))
                .collect();
            format!(", \"labels\": {{{}}}", pairs.join(", "))
        };
        let body = match &m.value {
            MetricValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
            MetricValue::Gauge(v) => {
                format!("\"type\": \"gauge\", \"value\": {}", render_f64(*v))
            }
            MetricValue::Histogram(h) => {
                format!("\"type\": \"histogram\", \"value\": {}", histogram_json(h))
            }
        };
        items.push(format!(
            "    {{\"name\": \"{}\"{labels}, {body}}}",
            escape_json(&m.name)
        ));
    }
    format!("{{\n  \"metrics\": [\n{}\n  ]\n}}\n", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Vec<Metric> {
        let mut h = HistogramSnapshot::default();
        for v in [1u64, 5, 5, 900] {
            h.record(v);
        }
        vec![
            Metric::counter("jobs_total", "Jobs.", 42),
            Metric::counter("cycles_total", "Cycles by class.", 7)
                .with_label("class", "Multiply"),
            Metric::counter("cycles_total", "Cycles by class.", 3).with_label("class", "Div"),
            Metric::gauge("batch_mean", "Mean batch.", 1.5),
            Metric::histogram("wait_ns", "Queue wait.", h),
        ]
    }

    #[test]
    fn prometheus_renders_counters_gauges_and_histograms() {
        let _guard = crate::testutil::flag_guard();
        let text = to_prometheus(&sample_metrics());
        assert!(text.contains("# TYPE jobs_total counter"), "{text}");
        assert!(text.contains("jobs_total 42"), "{text}");
        assert!(text.contains("cycles_total{class=\"Multiply\"} 7"), "{text}");
        assert!(text.contains("cycles_total{class=\"Div\"} 3"), "{text}");
        // One header per name, even with label variants.
        assert_eq!(text.matches("# TYPE cycles_total counter").count(), 1);
        assert!(text.contains("batch_mean 1.5"), "{text}");
        assert!(text.contains("# TYPE wait_ns histogram"), "{text}");
        assert!(text.contains("wait_ns_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("wait_ns_sum 911"), "{text}");
        assert!(text.contains("wait_ns_count 4"), "{text}");
        // Cumulative bucket counts are monotone.
        assert!(text.contains("wait_ns_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("wait_ns_bucket{le=\"7\"} 3"), "{text}");
    }

    #[test]
    fn json_renders_the_same_totals() {
        let _guard = crate::testutil::flag_guard();
        let text = to_json(&sample_metrics());
        assert!(text.contains("\"name\": \"jobs_total\", \"type\": \"counter\", \"value\": 42"));
        assert!(text.contains("\"labels\": {\"class\": \"Multiply\"}"), "{text}");
        assert!(text.contains("\"count\": 4, \"sum\": 911"), "{text}");
        assert!(text.contains("\"le\": 1023, \"count\": 1"), "{text}");
    }

    #[test]
    fn label_and_json_escaping() {
        let m = vec![Metric::counter("x", "h", 1).with_label("k", "a\"b\\c")];
        let prom = to_prometheus(&m);
        assert!(prom.contains("x{k=\"a\\\"b\\\\c\"} 1"), "{prom}");
        let json = to_json(&m);
        assert!(json.contains("\"a\\\"b\\\\c\""), "{json}");
    }
}
