//! Smoke test of the benchmark itself: every workload at minimal length,
//! untraced and traced, must print every metric `BENCHMARK.json` names with
//! its unit and pass its own output checks; and a deliberately wrong
//! expected output must show up as failed operations.
//!
//! Run it optimised — a debug build fits the transformation zoos far more
//! slowly: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::json::{self, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench lives in the repository").to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(bench: &Value, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("metric has name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark at minimal length and parses its last line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload}: exit {:?}\n{stdout}", output.status);
    let last = stdout.lines().last().expect("perfbench printed a result line");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"));
    let keys: Vec<&str> =
        result.as_object().expect("result is an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{workload}: result keys");
    result
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("{key} is a number"))
}

fn check_workload(workload: &str) {
    let bench = benchmark_json();
    let listed = bench.get("workloads").and_then(Value::as_array).expect("workloads list");
    assert!(
        listed.iter().any(|w| w.get("name").and_then(Value::as_str) == Some(workload)),
        "{workload} is not in BENCHMARK.json"
    );
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace, &[]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload} trace={trace}: outputs wrong"
        );
        assert_eq!(count(&result, "failed"), 0.0);
        assert!(count(&result, "attempted") >= 1.0);
        let printed = result.get("metrics").and_then(Value::as_object).expect("metrics object");
        let expected = metrics(&bench, section);
        assert_eq!(printed.len(), expected.len(), "{workload} trace={trace}: metric count");
        for (name, unit) in expected {
            let m = printed.get(&name).unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{workload}: unit of {name}"
            );
            let value =
                m.get("value").and_then(Value::as_f64).unwrap_or_else(|| panic!("{workload}: {name} value"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            if !trace {
                assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
            }
        }
    }

    // A wrong expected output must count as failed, not be swallowed.
    let result = run(workload, false, &["--inject-wrong-expected"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)), "{workload}: wrong expectation passed");
    let attempted = count(&result, "attempted");
    assert!(attempted >= 1.0);
    assert_eq!(count(&result, "failed"), attempted, "{workload}: every op must fail its check");
}

#[test]
fn cold_study_prints_every_metric_and_counts_failures() {
    check_workload("cold-study");
}

#[test]
fn warm_service_prints_every_metric_and_counts_failures() {
    check_workload("warm-service");
}

#[test]
fn oocore_study_prints_every_metric_and_counts_failures() {
    check_workload("oocore-study");
}
