//! The benchmark's own checks: every workload runs at tiny size, its
//! result line parses and carries exactly the metrics `BENCHMARK.json`
//! declares, the same seed reproduces the same outputs, and bad
//! arguments fail without printing a result.

use rfp_obs::JsonValue;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "inventory_cold",
    "rescan_dense_warm",
    "tracking_stream",
    "volume_3d",
];

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(manifest: &JsonValue, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// Runs one tiny workload; returns its stdout and parsed result line.
fn tiny(workload: &str, seed: u64, trace: bool) -> (String, JsonValue) {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0.2",
        "--trace",
        trace,
    ];
    let out = perfbench(&[&args[..], &["--size", "tiny"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} exited {:?}: {stderr}",
        out.status
    );
    assert!(stderr.is_empty(), "{workload} reported problems: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    let result = JsonValue::parse(&last).unwrap_or_else(|e| panic!("result line parses: {e:?}"));
    (stdout, result)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn manifest_lists_the_four_workloads() {
    let m = manifest();
    let names: Vec<&str> = m
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let m = manifest();
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(&m, key);
            let (_, r) = tiny(workload, 7, trace);
            let keys: Vec<&str> = r
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), Some(&JsonValue::Bool(true)), "{workload}");
            assert!(
                r.get("attempted")
                    .and_then(JsonValue::as_u64)
                    .expect("count")
                    >= 1
            );
            assert_eq!(
                r.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{workload}"
            );
            let metrics = r
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .expect("metrics object");
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, v)| {
                    assert!(valid_name(name), "metric name {name:?}");
                    let value = v.get("value").and_then(JsonValue::as_f64).expect("number");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    let unit = v.get("unit").and_then(JsonValue::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn same_seed_reproduces_outputs_and_accuracy() {
    let m = manifest();
    let accuracy = [
        "estimate_rate",
        "loc_err_p50_cm",
        "loc_err_p90_cm",
        "orient_err_p50_deg",
        "material_acc",
    ];
    assert!(accuracy
        .iter()
        .all(|a| declared(&m, "end_to_end").iter().any(|(n, _)| n == a)));
    for workload in WORKLOADS {
        let runs: Vec<(String, JsonValue)> = (0..2).map(|_| tiny(workload, 11, false)).collect();
        let digests = |stdout: &str| -> Vec<String> {
            stdout
                .lines()
                .filter(|l| l.contains("digest"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            digests(&runs[0].0).len(),
            2,
            "{workload}: reference and corpus digests"
        );
        assert_eq!(digests(&runs[0].0), digests(&runs[1].0), "{workload}");
        for name in accuracy {
            let value = |r: &JsonValue| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|v| v.get("value"))
                    .cloned()
            };
            assert_eq!(value(&runs[0].1), value(&runs[1].1), "{workload} {name}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "volume_3d",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "volume_3d", "--seconds", "1", "--trace", "0"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
