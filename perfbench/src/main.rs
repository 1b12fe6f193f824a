//! End-to-end and per-layer benchmark of the PV-MPPT reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_day|compare_serve|campaign_endurance \
//!     --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! ```
//!
//! Each run sets its workload up (timed as `setup_s`, the median over
//! this process and two fresh set-up-only child processes), measures
//! operations for `--seconds`, checks every output outside the timed
//! region, re-runs the pinned first operation of seed 2011 against
//! `golden.json`, records the model's accuracy against the paper, and prints
//! a human-readable summary followed by one JSON result line. With
//! `--trace 1` the run records spans around each layer call and reports
//! per-layer metrics instead of end-to-end ones. The full report (run
//! header, accuracy block, metrics with sample counts, phase
//! accounting) and the trace are written under `--out`
//! (default `perfbench/out`). See `perfbench/README.md`.

mod accuracy;
mod campaign;
mod compare_serve;
mod fleet_day;
mod golden;
mod header;
mod http;
mod layers;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{MetricSet, Outcome};
use trace::Tracer;

/// The seed whose integer outcomes are pinned in `golden.json`.
pub const DEFAULT_SEED: u64 = 2011;

/// Simulation workers (fleet runner, campaign runner, service): one, so
/// an operation's time does not depend on how busy the other CPUs are.
pub const SIM_WORKERS: usize = 1;

/// The benchmark's workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold 1000-node fleet days on the vectorized engine.
    FleetDay,
    /// Cold then cached `/compare` traffic through an in-process server.
    CompareServe,
    /// Two-year endurance campaigns.
    CampaignEndurance,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetDay,
        Workload::CompareServe,
        Workload::CampaignEndurance,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet_day",
            Workload::CompareServe => "compare_serve",
            Workload::CampaignEndurance => "campaign_endurance",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload measured.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Whether spans are recorded and per-layer metrics reported.
    pub trace: bool,
    /// Smoke sizes (the benchmark's own tests).
    pub smoke: bool,
    /// Output directory for reports, traces and service spills.
    pub out: PathBuf,
    /// Host CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
}

impl Run {
    /// The input seed of operation `i`: 0 is the untimed warm-up, 1.. the
    /// timed operations. Distinct for every `(seed, i < 1000)`.
    pub fn op_seed(&self, i: u64) -> u64 {
        self.seed.wrapping_mul(1000).wrapping_add(i)
    }

    /// The full-size run of [`DEFAULT_SEED`] whose first timed
    /// operation (`op_seed(1)`) has its outcomes pinned in `golden.json`.
    /// Every run re-runs that operation, untimed, whatever its own seed.
    pub fn pinned(&self) -> Run {
        Run {
            seed: DEFAULT_SEED,
            smoke: false,
            ..self.clone()
        }
    }

    /// Where this run's report and trace go.
    fn report_path(&self, ext: &str) -> PathBuf {
        self.out.join(format!(
            "{}-seed{}-trace{}.{ext}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        ))
    }
}

struct Args {
    run: Run,
    setup_probe: bool,
}

fn usage() -> String {
    "usage: perfbench --workload fleet_day|compare_serve|campaign_endurance --seed N \
     --seconds S --trace 0|1 [--smoke] [--out DIR]"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut setup_probe = false;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value; {}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}; {}", usage()))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}; {}", usage())),
        }
    }
    Ok(Args {
        run: Run {
            workload: workload.ok_or_else(usage)?,
            seed: seed.ok_or_else(usage)?,
            seconds: seconds.ok_or_else(usage)?,
            trace,
            smoke,
            out,
            nproc: header::nproc(),
        },
        setup_probe,
    })
}

/// Runs set-up only, in a fresh process, and returns its seconds from
/// process start.
fn setup_probe(run: &Run) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        run.workload.name(),
        "--seed",
        &run.seed.to_string(),
        "--seconds",
        &run.seconds.to_string(),
        "--setup-probe",
    ]);
    cmd.arg("--out").arg(&run.out);
    if run.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "set-up probe failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s="))
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("set-up probe printed no setup_s line: {stdout:?}"))
}

/// How many set-up samples `setup_s` is the median of: this process
/// plus fresh child processes, so work moved into process-wide
/// first-use caches is paid in every sample.
const SETUP_SAMPLES: usize = 3;

/// Sets the workload up, measures it and reports. `start` is taken at
/// the top of `main`.
fn drive<P>(
    run: &Run,
    start: Instant,
    setup_only: bool,
    setup: fn(&Run) -> Result<P, String>,
    measure: fn(&Run, P, &Tracer) -> Outcome,
) -> Result<bool, String> {
    let prepared = setup(run)?;
    let setup_s = start.elapsed().as_secs_f64();
    if setup_only {
        println!("setup_s={setup_s}");
        return Ok(true);
    }
    let mut setups = vec![setup_s];
    // Traced runs do not report `setup_s`.
    if !run.trace {
        for _ in 1..SETUP_SAMPLES {
            setups.push(setup_probe(run)?);
        }
    }

    let tracer = Tracer::new(run.trace);
    let span_cost_ns = run.trace.then(trace::calibrate_span_ns);
    let t0 = Instant::now();
    let mut outcome = measure(run, prepared, &tracer);
    let wall_s = t0.elapsed().as_secs_f64();
    // Before the accuracy block, whose threads are not the workload's.
    let peak_rss_mb = header::peak_rss_mb();
    let spans = tracer.spans();
    if run.trace {
        outcome.record("trace", trace::validate(&spans).err());
    }
    let accuracy = accuracy::measure();
    outcome.record("accuracy", accuracy.error().map(str::to_owned));

    let failed_frac = outcome.failed() as f64 / outcome.attempted().max(1) as f64;
    let metrics = if let Some(cost) = span_cost_ns {
        let mut reported = outcome.metrics.clone();
        let n = spans.len();
        reported.put("trace.spans", n as f64, "count", n);
        reported.put("trace.span_cost_ns", cost, "ns", 1);
        reported.put(
            "trace.overhead_frac",
            n as f64 * cost * 1e-9 / wall_s,
            "ratio",
            n,
        );
        reported.put(
            "trace.failed_frac",
            failed_frac,
            "ratio",
            outcome.attempted() as usize,
        );
        reported.put("trace.wall_s", wall_s, "s", 1);
        layers::derive(&spans, &reported)
    } else {
        let mut m = outcome.metrics.clone();
        m.put("setup_s", stats::median(&setups), "s", setups.len());
        m.put("peak_rss_mb", peak_rss_mb, "MB", 1);
        m.put(
            "ok_frac",
            1.0 - failed_frac,
            "ratio",
            outcome.attempted() as usize,
        );
        m
    };
    let expected = if run.trace {
        layers::per_layer_names()
    } else {
        layers::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    for (name, unit) in expected {
        if metrics.0.get(&name).map(|m| m.unit) != Some(unit) {
            outcome.record(
                "report",
                Some(format!("metric {name} [{unit}] not emitted")),
            );
        }
    }

    let correct = outcome.failed() == 0 && outcome.attempted() > 0;
    report(run, &outcome, &metrics, &accuracy, &setups, &spans)?;
    Ok(correct)
}

fn report(
    run: &Run,
    outcome: &Outcome,
    metrics: &MetricSet,
    accuracy: &accuracy::Accuracy,
    setups: &[f64],
    spans: &[trace::Span],
) -> Result<(), String> {
    let head = header::Header::collect(run);
    println!("{}", head.render_text());
    println!("{}", accuracy.render_text());
    for p in &outcome.phases {
        println!(
            "phase {:<8} attempted {:>6}  failed {:>3}  failed_frac {}",
            p.name,
            p.attempted,
            p.failed,
            p.failed as f64 / p.attempted.max(1) as f64
        );
    }
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    println!(
        "{:<34} {:>16} {:<12} {:<20} {:>7}",
        "metric", "value", "unit", "workload", "samples"
    );
    for (name, m) in &metrics.0 {
        println!(
            "{:<34} {:>16.6} {:<12} {:<20} {:>7}",
            name,
            m.value,
            m.unit,
            run.workload.name(),
            m.samples
        );
    }

    std::fs::create_dir_all(&run.out)
        .map_err(|e| format!("creating {}: {e}", run.out.display()))?;
    let metric_json: Vec<String> = metrics
        .0
        .iter()
        .map(|(k, m)| {
            format!(
                "\"{k}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                json_num(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    let phase_json: Vec<String> = outcome
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\":\"{}\",\"attempted\":{},\"failed\":{}}}",
                p.name, p.attempted, p.failed
            )
        })
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    let setup_json: Vec<String> = setups.iter().map(|s| json_num(*s)).collect();
    let sample_json: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, v)| {
            let v: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
            format!("\"{name}\":[{}]", v.join(","))
        })
        .collect();
    let mut doc = format!(
        "{{\"header\":{},\"accuracy\":{},\"phases\":[{}],\"failures\":[{}],\"setup_samples_s\":[{}],\"op_samples\":{{{}}},\"metrics\":{{{}}}",
        head.render_json(),
        accuracy.render_json(),
        phase_json.join(","),
        failures.join(","),
        setup_json.join(","),
        sample_json.join(","),
        metric_json.join(",")
    );
    if run.trace {
        let totals: Vec<String> = trace::totals_by_name(spans)
            .into_iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "\"{name}\":{{\"count\":{n},\"total_s\":{},\"self_s\":{}}}",
                    json_num(total),
                    json_num(own)
                )
            })
            .collect();
        doc.push_str(&format!(",\"span_totals\":{{{}}}", totals.join(",")));
        let path = run.report_path("trace.jsonl");
        std::fs::write(&path, trace::to_json_lines(spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", spans.len(), path.display());
    }
    doc.push_str("}\n");
    let path = run.report_path("json");
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("report -> {}", path.display());

    // The result line: exactly correct / attempted / failed / metrics.
    let result_metrics: Vec<String> = metrics
        .0
        .iter()
        .map(|(k, m)| {
            format!(
                "\"{k}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed() == 0 && outcome.attempted() > 0,
        outcome.attempted(),
        outcome.failed(),
        result_metrics.join(",")
    );
    Ok(())
}

/// A JSON number with every digit; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = &args.run;
    let probe = args.setup_probe;
    let result = match run.workload {
        Workload::FleetDay => drive(run, start, probe, fleet_day::setup, fleet_day::measure),
        Workload::CompareServe => drive(
            run,
            start,
            probe,
            compare_serve::setup,
            compare_serve::measure,
        ),
        Workload::CampaignEndurance => drive(run, start, probe, campaign::setup, campaign::measure),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed (see FAILED lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
