//! The repository benchmark: served trust verdicts (`hot-validate`,
//! `wide-compare`, `fleet-mix`) against a release `tangled serve` child,
//! with a traced run that times each layer, the offline study pipeline
//! included. See `README.md` beside this crate for what each workload
//! and metric is for.

pub mod calib;
pub mod check;
pub mod gen;
pub mod layers;
pub mod serve;
pub mod study;
pub mod trace;
pub mod util;
pub mod workload;

use std::collections::BTreeMap;

/// One run's result: the gate, the counts and the metrics.
pub struct Outcome {
    /// Did every checked answer match?
    pub correct: bool,
    /// Requests (or checks) attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics: BTreeMap::new(),
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Share of attempted requests that got a good answer.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// The result line: one JSON object. Values print with every digit
    /// (`{:?}`), which is valid JSON for any finite number; the caller
    /// refuses non-finite metrics before printing.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
