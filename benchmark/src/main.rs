//! The benchmark of the gStoreD SPARQL service: four workloads, the
//! end-to-end metrics of an untraced closed-loop window, and a traced
//! per-layer pass. `README.md` beside this package defines every
//! metric and workload; `../BENCHMARK.json` fixes names and bounds.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out FILE]
//! benchmark compare A.json B.json
//! ```

mod json;
mod load;
mod oracle;
mod report;
mod stack;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::Json;
use oracle::Oracle;
use report::{median, percentile, Metric, QueryLatency, WorkloadResult};
use stack::Stack;
use workloads::{workloads, Workload, CLIENTS, WARMUP_ROUNDS};

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 24;
const SMOKE_SECONDS: u64 = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Equal time slices of the window; each metric's spread over them
/// estimates its run-to-run spread (see `report::Metric::spread`).
const SLICES: usize = 5;

const USAGE: &str = "usage:
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  benchmark compare A.json B.json";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    /// `Some(false)`: the untraced window only; `Some(true)`: the traced
    /// pass only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                let seconds: u64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Generate, build, serve and warm up once; the time this takes is one
/// `setup_s` sample.
fn set_up(
    workload: &Workload,
    seed: u64,
) -> Result<(Stack, Vec<workloads::NamedQuery>, f64), String> {
    let started = Instant::now();
    let inputs = workload.generate(seed);
    let stack = Stack::start(workload, inputs.triples);
    load::warm_up(workload, &inputs.queries, stack.addr())?;
    Ok((stack, inputs.queries, started.elapsed().as_secs_f64()))
}

/// The untraced half of a run: repeated set-up, the verification pass,
/// the closed-loop window.
fn run_window(workload: &Workload, seed: u64, seconds: u64, result: &mut WorkloadResult) {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((stack, _)) = live.take() {
            Stack::shutdown(stack);
        }
        match set_up(workload, seed) {
            Ok((stack, queries, took)) => {
                setup_s.push(took);
                live = Some((stack, queries));
            }
            Err(failure) => {
                result.attempted += 1;
                result.failed += 1;
                result.failures.push(failure);
                return;
            }
        }
    }
    let (stack, queries) = live.expect("SETUP_REPEATS is at least 1");
    // The oracle is the benchmark's own cost, so it is not set-up time.
    let oracle = Oracle::build(workload.generate(seed).triples, &queries);

    // Verification pass on the embedded session: every distinct query
    // once, rows against the oracle, and the shipment count.
    let mut shipped = Vec::with_capacity(queries.len());
    for (index, query) in queries.iter().enumerate() {
        result.attempted += 1;
        let outcome = stack
            .session
            .query(&query.text)
            .map_err(|e| e.to_string())
            .and_then(|results| {
                oracle.check_terms(
                    index,
                    results
                        .iter()
                        .map(|sol| sol.iter().map(|(_, term)| term).collect()),
                )?;
                Ok(results.metrics().total_shipped())
            });
        match outcome {
            Ok(bytes) => shipped.push(bytes as f64),
            Err(e) => {
                result.failed += 1;
                result.failures.push(format!("{} embedded: {e}", query.id));
            }
        }
    }

    let window = Duration::from_secs(seconds);
    let stats = load::run_window(workload, &queries, &oracle, stack.addr(), seed, window);
    stack.shutdown();
    let peak_rss = peak_rss_mib();

    result.attempted += stats.attempted;
    result.failed += stats.failed;
    result.failures.extend(stats.failures.iter().cloned());
    result.failures.truncate(8);
    result.samples = stats.latencies_ms.len();

    result.by_query = queries
        .iter()
        .enumerate()
        .map(|(index, query)| {
            let of_query = |values: &[f64]| -> Vec<f64> {
                values
                    .iter()
                    .zip(&stats.query_index)
                    .filter(|(_, q)| **q == index)
                    .map(|(value, _)| *value)
                    .collect()
            };
            let latencies = of_query(&stats.latencies_ms);
            QueryLatency {
                id: query.id.clone(),
                samples: latencies.len(),
                latency_p50_ms: median(&latencies),
                ttfr_p50_ms: median(&of_query(&stats.first_byte_ms)),
            }
        })
        .collect();

    // Each windowed metric over the window's time slices, for its
    // spread estimate.
    let per_slice = |metric: fn(&[f64], &[f64]) -> f64| stats.per_slice(window, SLICES, metric);
    let elapsed_s = stats.elapsed.as_secs_f64();
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
    result.end_to_end = vec![
        Metric::new("latency_p50_ms", median(&stats.latencies_ms), "ms")
            .with_spread(&per_slice(|latency, _| median(latency))),
        Metric::new(
            "latency_p95_ms",
            percentile(&stats.latencies_ms, 0.95),
            "ms",
        )
        .with_spread(&per_slice(|latency, _| percentile(latency, 0.95))),
        Metric::new(
            "throughput_qps",
            stats.latencies_ms.len() as f64 / elapsed_s,
            "1/s",
        )
        .with_spread(&per_slice(|latency, _| latency.len() as f64)),
        Metric::new("ttfr_p50_ms", median(&stats.first_byte_ms), "ms")
            .with_spread(&per_slice(|_, first_byte| median(first_byte))),
        Metric::new("shipped_bytes_per_query", mean(&shipped), "bytes"),
        Metric::new(
            "error_rate",
            result.failed as f64 / result.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("setup_s", median(&setup_s), "s").with_spread(&setup_s),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
    ];
}

fn run_single(workload: &Workload, args: &RunArgs, seconds: u64) -> WorkloadResult {
    let inputs = workload.generate(args.seed);
    let config = Json::obj(vec![
        ("why", Json::str(workload.why)),
        ("data", Json::str(workload.data_label())),
        ("triples", Json::Num(inputs.triples.len() as f64)),
        ("sites", Json::Num(workload.sites as f64)),
        ("partitioner", Json::str("hash")),
        ("backend", Json::str(workload.fleet.label())),
        ("variant", Json::str(workload.variant.label())),
        (
            "pacing",
            Json::str(if workload.paced {
                "slept: 100us per message + bytes at 1 Gbit/s"
            } else {
                "none"
            }),
        ),
        (
            "queries",
            Json::Arr(
                inputs
                    .queries
                    .iter()
                    .map(|q| Json::str(q.id.clone()))
                    .collect(),
            ),
        ),
        (
            "formats",
            Json::Arr(
                workload
                    .formats
                    .iter()
                    .map(|f| Json::str(f.name()))
                    .collect(),
            ),
        ),
        ("clients", Json::Num(CLIENTS as f64)),
        (
            "load",
            Json::str("closed loop, one keep-alive connection per client"),
        ),
        ("warmup_rounds", Json::Num(WARMUP_ROUNDS as f64)),
        ("setup_repeats", Json::Num(SETUP_REPEATS as f64)),
        ("window_seconds", Json::Num(seconds as f64)),
    ]);
    drop(inputs);
    let mut result = WorkloadResult {
        workload: workload.name.to_string(),
        config,
        samples: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        by_query: Vec::new(),
        per_layer: Vec::new(),
        trace: Vec::new(),
        spans_recorded: 0,
    };
    if args.trace != Some(true) {
        run_window(workload, args.seed, seconds, &mut result);
    }
    if args.trace != Some(false) {
        let traced = trace::run_traced(workload, args.seed, Duration::from_secs(seconds));
        result.attempted += traced.attempted;
        result.failed += traced.failures.len() as u64;
        result.failures.extend(traced.failures);
        result.per_layer = traced.per_layer;
        result.trace = traced.trace;
        result.spans_recorded = traced.spans_recorded;
    }
    result
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The self-describing envelope of a result file.
fn document(args: &RunArgs, seconds: u64, workloads: Vec<Json>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("benchmark", Json::str(report::SCHEMA)),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("window_seconds", Json::Num(seconds as f64)),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write_document(path: &Path, doc: &Json) -> Result<(), String> {
    // Depth 4 keeps one metric, and one span, per line.
    std::fs::write(path, doc.to_pretty(4)).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let all = workloads(args.smoke);
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if let Some(name) = &args.workload {
        let workload = all
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let result = run_single(workload, args, seconds);
        result.print_lines();
        if let Some(out) = &args.out {
            write_document(out, &document(args, seconds, vec![result.to_json()]))?;
        }
        // The driver's contract: one JSON object as the last line.
        println!("{}", result.contract_line(args.trace == Some(true)));
        return Ok(result.correct());
    }

    // Every workload in its own child process, so that `peak_rss_mib`
    // is per workload and one workload's threads never outlive it.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    let mut parts = Vec::new();
    for workload in &all {
        let mut child = Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()]);
        if let Some(trace) = args.trace {
            child.args(["--trace", if trace { "1" } else { "0" }]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        let part = args.out.as_ref().map(|out| {
            let mut name = out.as_os_str().to_owned();
            name.push(format!(".{}.part", workload.name));
            PathBuf::from(name)
        });
        if let Some(part) = &part {
            child.arg("--out").arg(part);
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", workload.name))?;
        correct &= status.success();
        if let Some(part) = part {
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
            let doc = Json::parse(&text)?;
            parts.extend(
                doc.get("workloads")
                    .and_then(Json::as_arr)
                    .ok_or("child wrote no workloads")?
                    .iter()
                    .cloned(),
            );
        }
    }
    if let Some(out) = &args.out {
        write_document(out, &document(args, seconds, parts))?;
    }
    Ok(correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `BENCHMARK.json`: in the current directory when run from the repo
/// root, else beside this package's directory.
fn benchmark_json() -> Result<Json, String> {
    let beside = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = if Path::new("BENCHMARK.json").exists() {
        PathBuf::from("BENCHMARK.json")
    } else {
        beside
    };
    read_json(&path.to_string_lossy())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|parsed| run(&parsed)),
        Some("compare") if args.len() == 3 => read_json(&args[1]).and_then(|a| {
            let b = read_json(&args[2])?;
            report::compare(&a, &b, &benchmark_json()?).map(|regressed| !regressed)
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
