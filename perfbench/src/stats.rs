//! Order statistics and the metric record a workload returns.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; `NaN`
/// for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median by linear interpolation between the two middle values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Largest value; `NaN` for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// One reported metric: its value, unit and how many samples it was
/// computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Unit, as named in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
}

/// Metrics by name, in name order.
#[derive(Debug, Clone, Default)]
pub struct MetricSet(pub BTreeMap<String, Metric>);

impl MetricSet {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }
}

/// Attempted and failed operations of one phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name, e.g. `cold` or `warm`.
    pub name: &'static str,
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error, a non-200 status or failed an
    /// output check.
    pub failed: u64,
}

/// What a workload run returns to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-phase operation accounting.
    pub phases: Vec<Phase>,
    /// Messages of every failed operation or check, in order.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), minus `setup_s` and `peak_rss_mb`, which `main` adds.
    pub metrics: MetricSet,
    /// Per-operation wall times in seconds, by series name, for the
    /// report file.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Records one operation of `phase`: a failure message marks it
    /// failed.
    pub fn record(&mut self, phase: &'static str, failure: Option<String>) {
        let idx = match self.phases.iter().position(|p| p.name == phase) {
            Some(i) => i,
            None => {
                self.phases.push(Phase {
                    name: phase,
                    ..Phase::default()
                });
                self.phases.len() - 1
            }
        };
        self.phases[idx].attempted += 1;
        if let Some(msg) = failure {
            self.phases[idx].failed += 1;
            self.failures.push(format!("{phase}: {msg}"));
        }
    }

    /// Operations attempted over every phase.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations failed over every phase.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// The end-to-end metrics of a workload whose operation is a cold
/// preparation followed by a run on the prepared context.
pub fn put_prepared_runs(m: &mut MetricSet, cold: &[f64], warm: &[f64], node_days: f64) {
    m.put(
        "node_days_per_s",
        node_days / cold.iter().sum::<f64>(),
        "node-days/s",
        cold.len(),
    );
    m.put("cold_s_p50", median(cold), "s", cold.len());
    m.put("warm_p50_us", median(warm) * 1e6, "us", warm.len());
}

/// Relative disagreement of two values, with a floor on the scale.
pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(max(&v), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn outcome_counts_failures_per_phase() {
        let mut o = Outcome::default();
        o.record("cold", None);
        o.record("cold", Some("bad".into()));
        o.record("warm", None);
        assert_eq!((o.attempted(), o.failed()), (3, 1));
        assert_eq!(o.failures, vec!["cold: bad".to_owned()]);
    }
}
