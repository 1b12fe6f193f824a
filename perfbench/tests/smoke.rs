//! The benchmark's own tests: a smoke-sized pass of every workload,
//! untraced and traced. Every metric `BENCHMARK.json` names must be
//! emitted with its unit, every output check must pass, and traced spans
//! must nest with non-negative self time.

use std::path::{Path, PathBuf};
use std::process::Command;

use eh_serve::Json;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke")
}

fn run(workload: &str, trace: bool) -> (Json, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--out")
        .arg(out_dir())
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (Json::parse(last).expect("result line is JSON"), stdout)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    items
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn assert_result(result: &Json, section: &str, what: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared = declared(section);
    assert_eq!(emitted.len(), declared.len(), "{what}: {emitted:?}");
    for (name, unit) in declared {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{what}: {name} not emitted"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
        if section == "end_to_end" {
            assert!(value.unwrap() != 0.0, "{what}: end-to-end {name} reads 0");
        }
    }
}

/// Spans nest: a parent precedes its child, shares its operation and
/// encloses it in time; recorded self time is non-negative.
fn assert_spans_nest(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("span line"))
        .collect();
    assert!(!spans.is_empty(), "{} is empty", path.display());
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect(k);
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id") as usize, i);
        assert!(num(s, "end_ns") >= num(s, "start_ns"));
        assert!(num(s, "self_ns") >= 0.0, "span {i} has negative self time");
        if let Some(p) = s.get("parent").and_then(Json::as_f64) {
            let p = p as usize;
            assert!(p < i, "span {i}'s parent {p} comes later");
            let parent = &spans[p];
            assert_eq!(
                num(parent, "op"),
                num(s, "op"),
                "span {i} leaves its operation"
            );
            assert!(
                num(parent, "start_ns") <= num(s, "start_ns"),
                "span {i} starts early"
            );
            assert!(
                num(parent, "end_ns") >= num(s, "end_ns"),
                "span {i} ends late"
            );
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in workloads() {
        let (result, stdout) = run(&w, false);
        assert_result(&result, "end_to_end", &w);
        assert!(
            stdout.contains("accuracy: pulse_width"),
            "{w}: no accuracy block"
        );
        assert!(stdout.contains("run: "), "{w}: no run header");
        assert!(
            stdout.contains(&format!("golden observed {w}: ")),
            "{w}: the pinned operation was not re-run"
        );
        assert!(stdout.contains("phase golden "), "{w}: no golden phase");
    }
}

#[test]
fn every_traced_workload_emits_every_per_layer_metric_and_nested_spans() {
    for w in workloads() {
        let (result, _) = run(&w, true);
        assert_result(&result, "per_layer", &format!("{w} traced"));
        assert_spans_nest(&out_dir().join(format!("{w}-seed7-trace1.trace.jsonl")));
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("running perfbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
