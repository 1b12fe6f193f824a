//! Every metric the benchmark reports, with its unit, and how each
//! per-layer metric is derived from the traced run's spans.
//!
//! These tables mirror `BENCHMARK.json`; the benchmark's tests check
//! that the two agree and that every run emits every metric.

use eh_fleet::TrackerKind;

use crate::stats::{self, MetricSet};
use crate::trace::{durations_s, Span};

/// End-to-end metrics `(name, unit)`, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("node_days_per_s", "node-days/s"),
    ("cold_s_p50", "s"),
    ("warm_p50_us", "us"),
];

/// How a per-layer metric is computed.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median duration of the named spans, in seconds.
    MedianS(&'static str),
    /// Longest duration of the named spans, in seconds.
    MaxS(&'static str),
    /// Median duration of the named spans, in microseconds.
    MedianUs(&'static str),
    /// 99th-percentile duration of the named spans, in microseconds.
    P99Us(&'static str),
    /// Reported by the workload itself (counts and ratios).
    Workload,
    /// Reported by `main` about the traced run itself.
    TracedRun,
}

/// Per-layer metrics other than the per-tracker ones: `(name, unit,
/// source)`.
pub const PER_LAYER: [(&str, &str, Source); 32] = [
    // fleet (fleet_day; fleet.prepare also in the compare_serve probe)
    ("fleet.prepare_s", "s", Source::MedianS("fleet.prepare")),
    (
        "fleet.population_s",
        "s",
        Source::MedianS("fleet.population"),
    ),
    ("env.day_trace_s", "s", Source::MedianS("env.day_trace")),
    ("pv.surface_warm_s", "s", Source::MedianS("pv.surface_warm")),
    ("fleet.shard_s_p50", "s", Source::MedianS("fleet.shard")),
    ("fleet.shard_s_max", "s", Source::MaxS("fleet.shard")),
    ("fleet.merge_s", "s", Source::MedianS("fleet.merge")),
    ("fleet.node_steps", "count", Source::Workload),
    ("fleet.engine_ns_per_node_step", "ns", Source::Workload),
    // trackers / pv (compare_serve, cold)
    ("pv.mpp_us", "us", Source::MedianUs("pv.mpp")),
    ("pv.voc_us", "us", Source::MedianUs("pv.voc")),
    ("serve.compute_s", "s", Source::MedianS("serve.compute")),
    // serve (compare_serve, warm)
    ("serve.parse_us", "us", Source::MedianUs("serve.parse")),
    (
        "serve.canonical_us",
        "us",
        Source::MedianUs("serve.canonical"),
    ),
    (
        "serve.connect_us_p50",
        "us",
        Source::MedianUs("serve.connect"),
    ),
    (
        "serve.metrics_get_us_p50",
        "us",
        Source::MedianUs("op.metrics"),
    ),
    ("serve.warm_p99_us", "us", Source::P99Us("op.warm")),
    ("serve.warm_rps", "1/s", Source::Workload),
    ("serve.cache_hit_ratio", "ratio", Source::Workload),
    ("serve.context_hit_ratio", "ratio", Source::Workload),
    // campaign (campaign_endurance)
    (
        "campaign.prepare_s",
        "s",
        Source::MedianS("campaign.prepare"),
    ),
    ("env.weather_s", "s", Source::MedianS("env.weather")),
    (
        "campaign.epoch_traces_s",
        "s",
        Source::MedianS("campaign.epoch_traces"),
    ),
    ("campaign.node_s_p50", "s", Source::MedianS("campaign.node")),
    ("campaign.node_s_max", "s", Source::MaxS("campaign.node")),
    ("campaign.run_s", "s", Source::MedianS("campaign.run")),
    // the traced run itself
    ("trace.cold_s_p50", "s", Source::MedianS("op.cold")),
    ("trace.spans", "count", Source::TracedRun),
    ("trace.span_cost_ns", "ns", Source::TracedRun),
    ("trace.overhead_frac", "ratio", Source::TracedRun),
    ("trace.failed_frac", "ratio", Source::TracedRun),
    ("trace.wall_s", "s", Source::TracedRun),
];

/// Name of the span around one tracker's fleet run.
pub fn tracker_span(kind: TrackerKind) -> String {
    format!("fleet.tracker.{}", kind.label())
}

/// Every per-layer metric `(name, unit)`, per-tracker ones included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| ((*n).to_owned(), *u))
        .collect();
    for kind in TrackerKind::ALL {
        names.push((format!("{}_s", tracker_span(kind)), "s"));
    }
    names
}

/// Derives every per-layer metric from the spans, taking the values the
/// workload and `main` report from `reported`. A metric whose layer this
/// workload does not exercise reads 0 from 0 samples.
pub fn derive(spans: &[Span], reported: &MetricSet) -> MetricSet {
    let mut out = MetricSet::default();
    let from_spans = |span: &str, scale: f64, stat: fn(&[f64]) -> f64| {
        let d = durations_s(spans, span);
        if d.is_empty() {
            (0.0, 0)
        } else {
            (stat(&d) * scale, d.len())
        }
    };
    for (name, unit, source) in PER_LAYER {
        let (value, samples) = match source {
            Source::MedianS(s) => from_spans(s, 1.0, stats::median),
            Source::MaxS(s) => from_spans(s, 1.0, stats::max),
            Source::MedianUs(s) => from_spans(s, 1e6, stats::median),
            Source::P99Us(s) => from_spans(s, 1e6, |d| stats::percentile(d, 99.0)),
            Source::Workload | Source::TracedRun => reported
                .0
                .get(name)
                .map_or((0.0, 0), |m| (m.value, m.samples)),
        };
        out.put(name, value, unit, samples);
    }
    for kind in TrackerKind::ALL {
        let span = tracker_span(kind);
        let (value, samples) = from_spans(&span, 1.0, stats::median);
        out.put(format!("{span}_s"), value, "s", samples);
    }
    out
}
