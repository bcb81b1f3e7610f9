//! Runs every workload at the smoke size, untraced and traced, and
//! checks the result line against `BENCHMARK.json`.

use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, which
/// keeps one metric object per line.
fn catalog(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn field(line: &str, key: &str) -> String {
    let at = line.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
    line[at..].split('"').next().expect("closing quote").to_string()
}

/// Runs the benchmark and returns its last stdout line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1.5",
            "--trace",
            trace,
            "--size",
            "smoke",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(workload, trace);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
        assert!(line.contains("\"failed\":0,"), "{line}");
        let metrics = &line[line.find("\"metrics\":").expect("metrics")..];
        let names = catalog(section);
        assert!(!names.is_empty());
        for (name, unit) in &names {
            let entry = format!("\"{name}\":{{\"value\":");
            let at = metrics.find(&entry).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let rest = &metrics[at + entry.len()..];
            let value: f64 = rest.split(',').next().unwrap().parse().expect("numeric value");
            assert!(value.is_finite());
            if section == "end_to_end" {
                assert!(value > 0.0, "{workload}: {name} is {value}");
            }
            let entry = rest.split('}').next().unwrap();
            assert!(entry.contains(&format!("\"unit\":\"{unit}\"")), "{workload}: {name} unit");
        }
        assert_eq!(metrics.matches("\"value\"").count(), names.len(), "{workload}: extra metrics");
    }
}

#[test]
fn frozen_smoke() {
    check("frozen");
}

#[test]
fn churn_smoke() {
    check("churn");
}

#[test]
fn fanout_smoke() {
    check("fanout");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
