//! Metric values, the human-readable lines and the final JSON line.

use crate::spec::{Scale, Workload, WORKERS};
use std::collections::BTreeMap;
use tempart_obs::json::{self, Value};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Number of samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric summarising `samples` samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The host facts of a run: cores, workers, mesh cells and domain count.
pub fn host_line(workload: Workload, cells: usize, scale: &Scale) -> String {
    let domains = match workload {
        Workload::SfcRace => format!("{}..={}", scale.sfc_domains.0, scale.sfc_domains.1),
        _ => scale.domains.to_string(),
    };
    format!(
        "host: nproc {}, workers {WORKERS}, cells {cells}, domains {domains}",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    )
}

/// The printed lines of one run: inputs, host facts, every metric with its
/// unit and sample count, then the JSON result as the last line.
pub struct Report {
    /// Human-readable lines.
    pub lines: Vec<String>,
    /// Checks passed (no op and no fidelity check failed).
    pub correct: bool,
    /// Ops (untraced) or fidelity checks (traced) attempted.
    pub attempted: usize,
    /// How many of them failed.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = BTreeMap::from([
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ("value".to_string(), Value::Num(m.value)),
                ]);
                (m.name.to_string(), Value::Obj(entry))
            })
            .collect();
        let top = BTreeMap::from([
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("correct".to_string(), Value::Bool(self.correct)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ]);
        json::write(&Value::Obj(top))
    }

    /// Every line to print, the JSON result last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {} = {} {} (n={})\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}
