//! The run report: metrics by name with unit and sample count, the check
//! tally, and the one-line JSON result that ends standard output.

use std::fmt::Write as _;

use crate::check::{Checks, Digest};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `fraction`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement or count).
    pub samples: usize,
}

/// Everything one run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Check tally of the run's operations.
    pub checks: Checks,
    /// Digest of the run's deterministic outputs (untraced runs).
    pub digest: Option<Digest>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

/// `true` when `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    /// Sets `name` (replacing an earlier value of the same name).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        let m = Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        };
        match self.metrics.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.metrics.push(m),
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The run is correct when it attempted something, no check failed,
    /// and every metric is a finite number with a valid name.
    pub fn correct(&self) -> bool {
        self.checks.attempted() > 0
            && self.checks.failed() == 0
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && valid_name(&m.name))
    }

    /// The JSON result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (name → `{value, unit}`).
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checks.attempted(),
            self.checks.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // A non-finite value has no JSON spelling; `correct` is already
            // false for it, so 0 only keeps the line parseable.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines: notes, check tally, digest, then one line per
    /// metric with unit and sample count.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines = self.notes.clone();
        lines.push(format!(
            "ops: attempted {} failed {}",
            self.checks.attempted(),
            self.checks.failed()
        ));
        for f in self.checks.failures() {
            lines.push(format!("check failed: {f}"));
        }
        if let Some(d) = &self.digest {
            lines.push(format!("digest: {}", d.hex()));
        }
        for m in &self.metrics {
            lines.push(format!(
                "metric {:<34} {:>16.6} {:<9} n={}",
                m.name, m.value, m.unit, m.samples
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("policy.PhoenixCost.plan_ms"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.checks.op("op", Ok(()));
        r.metric("latency_ms", 1.25, "ms", 3);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.checks.op("op", Ok(()));
        r.metric("x_ms", f64::NAN, "ms", 1);
        assert!(!r.correct());
        assert!(r.json_line().contains("\"value\": 0,"));
    }
}
