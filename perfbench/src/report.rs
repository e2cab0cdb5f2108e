//! The run header, the metric list and the final JSON line.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A metric's value, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued.
    pub attempted: u64,
    /// Operations rejected, lost in transport or answered wrongly.
    pub failed: u64,
    /// Answers that differed from the oracle (any one fails the run).
    pub mismatches: u64,
    /// Checks other than the oracle's that failed: deterministic counts
    /// that did not repeat, or a ledger that did not add up.
    pub failed_checks: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every answer matched and every other check passed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed_checks.is_empty() && self.attempted > 0
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// A JSON number with every digit Rust prints (non-finite becomes 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark ends its standard output with.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .0
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
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The process high-water resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.metrics.push("latency_p50_us", 12.5, "us");
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
        o.mismatches = 1;
        assert!(!o.correct());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
