//! Runs the benchmark in `--smoke` mode and validates what it prints and
//! writes against `BENCHMARK.json`: the schema, the correctness gate,
//! and that counts depend on the seed and on nothing else.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::PathBuf;
use std::process::Command;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_all(seed: u64, seconds: Option<u64>, tag: &str) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_{tag}.json"));
    let mut command = Command::new(EXE);
    command
        .args(["run", "--smoke", "--seed", &seed.to_string()])
        .arg("--out")
        .arg(&out);
    if let Some(seconds) = seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    let output = command.output().expect("spawn the benchmark");
    assert!(
        output.status.success(),
        "smoke run failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(&std::fs::read_to_string(&out).expect("result file written"))
        .expect("result file parses")
}

fn workloads_of(doc: &Json) -> &[Json] {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
}

fn pairs(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(pairs) => pairs,
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Every count the program makes itself, as `workload/metric → value`.
fn counts(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for workload in workloads_of(doc) {
        let name = workload
            .get("workload")
            .and_then(Json::as_str)
            .expect("name");
        for section in ["end_to_end", "per_layer"] {
            for (metric, value) in pairs(workload.get(section).expect(section)) {
                let unit = value.get("unit").and_then(Json::as_str).expect("unit");
                let exact_ratio = matches!(
                    metric.as_str(),
                    "core.prune.keep_ratio"
                        | "core.planner.lpm_est_log2_err"
                        | "partition.crossing_edge_ratio"
                );
                if matches!(unit, "count" | "bytes") || exact_ratio {
                    let value = value.get("value").and_then(Json::as_f64).expect("value");
                    out.push((format!("{name}/{metric}"), value));
                }
            }
        }
    }
    out
}

#[test]
fn smoke_output_matches_the_contract() {
    let contract = benchmark_json();
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    let workload_names: Vec<String> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();

    let a = run_all(7, None, "a");
    for key in [
        "benchmark",
        "seed",
        "git_commit",
        "nproc",
        "rustc",
        "window_seconds",
    ] {
        assert!(a.get(key).is_some(), "result file lacks {key}");
    }
    let ran: Vec<&str> = workloads_of(&a)
        .iter()
        .map(|w| w.get("workload").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(
        ran, workload_names,
        "workloads run, in BENCHMARK.json order"
    );

    for workload in workloads_of(&a) {
        let name = workload
            .get("workload")
            .and_then(Json::as_str)
            .expect("name");
        for key in [
            "why",
            "data",
            "triples",
            "sites",
            "backend",
            "variant",
            "pacing",
            "clients",
            "window_seconds",
            "queries",
            "formats",
        ] {
            assert!(
                workload.get("config").and_then(|c| c.get(key)).is_some(),
                "{name}: config lacks {key}"
            );
        }
        assert!(
            workload
                .get("samples")
                .and_then(Json::as_f64)
                .expect("samples")
                > 0.0,
            "{name}: no latency samples"
        );
        assert_eq!(
            workload.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        for (section, names) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            let got = pairs(workload.get(section).expect(section));
            for (metric, unit) in names {
                let hits: Vec<_> = got.iter().filter(|(k, _)| k == metric).collect();
                assert_eq!(
                    hits.len(),
                    1,
                    "{name}: {metric} printed {} times",
                    hits.len()
                );
                assert_eq!(
                    hits[0].1.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}: unit of {metric}"
                );
                assert!(
                    hits[0].1.get("value").and_then(Json::as_f64).is_some(),
                    "{name}: {metric} has no value"
                );
            }
            for (metric, value) in got {
                assert!(
                    !metric.is_empty()
                        && metric
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                    "{name}: bad metric name {metric:?}"
                );
                assert!(
                    value
                        .get("unit")
                        .and_then(Json::as_str)
                        .is_some_and(|u| !u.is_empty()),
                    "{name}: {metric} has no unit"
                );
            }
        }
        // Reported beside the contract's metrics (the contract carries
        // failures as `failed`/`attempted`, and admits no metric that is 0).
        let error_rate = workload
            .get("end_to_end")
            .and_then(|m| m.get("error_rate"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(error_rate, Some(0.0), "{name}: error_rate");
        assert!(
            !workload
                .get("trace")
                .and_then(Json::as_arr)
                .expect("trace")
                .is_empty(),
            "{name}: no spans written"
        );
    }

    // Same seed: every count repeats, whatever the window length.
    let b = run_all(7, Some(1), "b");
    assert_eq!(
        counts(&a),
        counts(&b),
        "counts differ between two runs of one seed"
    );
    // Another seed: same names, other data.
    let c = run_all(8, Some(1), "c");
    let (counts_a, counts_c) = (counts(&a), counts(&c));
    let names =
        |counts: &[(String, f64)]| counts.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    assert_eq!(names(&counts_a), names(&counts_c));
    assert_ne!(counts_a, counts_c, "another seed generated the same data");
}

#[test]
fn single_workload_runs_end_with_the_result_line() {
    let contract = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(EXE)
            .args(["run", "--smoke", "--workload", "random_crossing"])
            .args(["--seed", "3", "--seconds", "1", "--trace", trace])
            .output()
            .expect("spawn the benchmark");
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = pairs(&line).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(
            line.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let mut got: Vec<String> = pairs(line.get("metrics").expect("metrics"))
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let mut want: Vec<String> = declared(&contract, section)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "--trace {trace} prints exactly the {section} metrics"
        );
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    let output = Command::new(EXE)
        .args(["run", "--workload", "nope"])
        .output()
        .expect("spawn the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
