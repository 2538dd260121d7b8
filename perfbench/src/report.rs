//! Named metrics and the result line.

use crate::stats;

/// Metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    /// Record `name = value unit`. Non-finite values are a bug in the
    /// benchmark, not a measurement.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.rows.push((name.to_string(), value, unit));
    }

    /// Record the `p`-th percentile of `xs` when at least ten samples lie
    /// beyond it; otherwise record the maximum and say so.
    pub fn add_tail(&mut self, name: &str, xs: &[f64], p: f64, unit: &'static str) {
        match stats::tail_percentile(xs, p) {
            Some(v) => self.add(name, v, unit),
            None => {
                let max = xs.iter().copied().fold(0.0, f64::max);
                self.notes.push(format!(
                    "{name}: {} samples leave fewer than 10 beyond p{p}; reporting the maximum",
                    xs.len()
                ));
                self.add(name, max, unit);
            }
        }
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Print every metric as a human-readable line.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit) in &self.rows {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }

    /// The result object: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_full_precision() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.203_456_789_1, "ms");
        m.add_tail("p99", &[1.0, 2.0], 99.0, "ms");
        let line = m.result_line(true, 10, 0);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(v.to_string().contains("1.2034567891"));
        assert_eq!(
            m.get("p99"),
            Some(2.0),
            "too few samples: the maximum is reported"
        );
    }
}
