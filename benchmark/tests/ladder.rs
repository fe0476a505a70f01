//! The ladder's own checks: it agrees with `BENCHMARK.json`, it notices a
//! wrong answer, and it stays inside its API budget.
//!
//! These run the real binary in `--quick` mode (1/16 of the counts, a
//! handful of seconds per workload); timings from such runs mean nothing
//! and nothing here reads them.

use gem_ladder::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use gem_telemetry::{parse_json, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists.
fn named(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|e| {
            let field = |k| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Runs the ladder binary; returns (exit ok, stdout).
fn ladder(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gem-ladder"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the ladder binary starts");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> Json {
    parse_json(stdout.lines().last().expect("the run printed something"))
        .expect("the last line is the result object")
}

#[test]
fn benchmark_json_and_the_harness_name_the_same_things() {
    let doc = benchmark_json();
    let workloads: Vec<String> = named(&doc, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(named(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(named(&doc, "per_layer"), owned(&PER_LAYER));
    assert!(
        named(&doc, "end_to_end").contains(&("setup_s".into(), "s".into())),
        "the contract requires a setup_s metric in seconds"
    );
}

#[test]
fn a_run_prints_every_metric_of_its_table_with_its_unit_and_no_other() {
    let doc = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout) = ladder(&["--workload", "server_mac", "--quick", "--trace", trace]);
        assert!(ok, "server_mac --trace {trace} failed:\n{stdout}");
        let line = result_line(&stdout);
        let keys: Vec<&str> = line
            .as_object()
            .expect("the result is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let printed: Vec<(String, String)> = line
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics is an object")
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has a value"
                );
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                (name.clone(), unit.to_string())
            })
            .collect();
        let expected = named(&doc, list);
        assert_eq!(printed, expected, "--trace {trace} prints the {list} table");
        for (name, unit) in &expected {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.contains(name.as_str()) && l.trim_end().ends_with(unit.as_str())),
                "{name} is printed by name with its unit {unit}"
            );
        }
    }
}

#[test]
fn the_quick_ladder_runs_every_workload_and_agrees_with_itself() {
    let out = std::env::temp_dir().join(format!("gem-ladder-test-{}.json", std::process::id()));
    let out = out.to_str().expect("temp path is UTF-8");
    let (ok, stdout) = ladder(&["all", "--quick", "--seed", "3", "--out", out]);
    assert!(ok, "the quick ladder failed:\n{stdout}");
    let set = parse_json(&std::fs::read_to_string(out).unwrap()).expect("results file parses");
    let provenance = set.get("provenance").expect("results carry provenance");
    for key in [
        "commit",
        "dirty",
        "rustc",
        "nproc",
        "cpus_allowed",
        "seed",
        "unset_env",
    ] {
        assert!(provenance.get(key).is_some(), "provenance names {key}");
    }
    for workload in WORKLOADS {
        let runs = set
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("runs"))
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{workload} has runs"));
        assert_eq!(runs.len(), 2, "{workload}: one untraced and one traced run");
        for run in runs {
            assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0));
            let detail = run.get("detail").expect("every run carries its detail");
            for key in ["lanes", "cycles", "seed", "output_digest", "cpus_allowed"] {
                assert!(detail.get(key).is_some(), "{workload} detail names {key}");
            }
        }
    }
    let (ok, stdout) = ladder(&["check", out, out]);
    assert!(ok, "a result set must pass against itself:\n{stdout}");
    std::fs::remove_file(out).ok();
}

#[test]
fn a_flipped_reference_bit_fails_the_run() {
    for workload in ["gemmini_compile", "server_mac"] {
        let (ok, stdout) = ladder(&["--workload", workload, "--quick", "--flip-golden"]);
        assert!(!ok, "{workload} must exit non-zero on a mismatch");
        let line = result_line(&stdout);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let failed = line.get("failed").and_then(Json::as_u64).unwrap();
        let attempted = line.get("attempted").and_then(Json::as_u64).unwrap();
        assert!(
            failed > 0 && failed <= attempted,
            "{workload}: {failed}/{attempted}"
        );
    }
}

#[test]
fn harness_sources_stay_inside_the_api_budget() {
    // The knobs the roadmap is about to remove. The ladder measures the
    // default configuration only, so none of them may appear in it.
    const EXCLUDED: [&str; 12] = [
        "set_backend",
        "set_threads",
        "set_exec_mode",
        "set_pruning",
        "ExecBackend",
        "ExecMode",
        "ExecStats",
        "exec_stats",
        "resolved_",
        "GEM_THREADS",
        "GEM_BACKEND",
        "Histogram",
    ];
    let sources = [
        ("main.rs", include_str!("../src/main.rs")),
        ("lib.rs", include_str!("../src/lib.rs")),
        ("check.rs", include_str!("../src/check.rs")),
        ("dut.rs", include_str!("../src/dut.rs")),
        ("layers.rs", include_str!("../src/layers.rs")),
        ("report.rs", include_str!("../src/report.rs")),
        ("serverload.rs", include_str!("../src/serverload.rs")),
        ("simload.rs", include_str!("../src/simload.rs")),
        ("spans.rs", include_str!("../src/spans.rs")),
        ("spec.rs", include_str!("../src/spec.rs")),
    ];
    for (file, text) in sources {
        for word in EXCLUDED {
            assert!(
                !text.contains(word),
                "{file} mentions {word}, which is outside the API budget"
            );
        }
    }
    // stats.rs explains why it exists by naming the type it replaces; it
    // may mention it but not use it.
    assert!(!include_str!("../src/stats.rs").contains("use gem_telemetry"));
}
