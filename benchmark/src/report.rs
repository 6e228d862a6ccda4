//! Metric values, result documents, and the `compare` subcommand.

use crate::json::Json;

/// Schema tag of the result files.
pub const SCHEMA: &str = "gstored-benchmark/v1";

/// End-to-end metrics that are counts made by the program: they repeat
/// exactly for the same seed, so `compare` demands equality.
pub const EXACT_END_TO_END: &[&str] = &["shipped_bytes_per_query", "error_rate"];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Estimated relative run-to-run spread of this value (0 when the
    /// value is a count or was measured once): the quartile distance of
    /// the same metric over the run's sub-samples, as a share of their
    /// median, scaled down by the square root of their number.
    pub spread: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            // An empty f64 sum is -0.0; print it as 0.
            value: value + 0.0,
            unit,
            spread: 0.0,
        }
    }

    pub fn with_spread(mut self, sub_samples: &[f64]) -> Metric {
        if sub_samples.len() >= 3 {
            self.spread = relative_iqr(sub_samples) / (sub_samples.len() as f64).sqrt();
        }
        self
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartile distance over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` computes (exclusive method) —
/// the spread the driver's acceptance check uses.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * fraction
    };
    let mid = quantile(2);
    if mid == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)) / mid
    }
}

/// One recorded span of the traced run (times in µs since the traced
/// pass began).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The workload query the span belongs to (`setup` for set-up).
    pub query: String,
}

/// One query's share of the window.
pub struct QueryLatency {
    pub id: String,
    pub samples: usize,
    pub latency_p50_ms: f64,
    pub ttfr_p50_ms: f64,
}

/// Everything one workload's run produced.
pub struct WorkloadResult {
    pub workload: String,
    /// Frozen sizes, fleet, variant, pacing, clients, window.
    pub config: Json,
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// The window by query. The mix is multimodal; this shows which
    /// query's mode the overall medians sit in.
    pub by_query: Vec<QueryLatency>,
    pub per_layer: Vec<Metric>,
    pub trace: Vec<Span>,
    /// Spans recorded over all repetitions (`trace` keeps the last
    /// repetition of each query).
    pub spans_recorded: usize,
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                if with_spread && m.spread > 0.0 {
                    fields.push(("spread", Json::Num(m.spread)));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a single-workload run: the driver's contract.
    /// `error_rate` is not among its metrics: the contract admits no
    /// metric that is 0, and carries failures as `failed`/`attempted`.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics: Vec<Metric> = if traced {
            self.per_layer.clone()
        } else {
            self.end_to_end
                .iter()
                .filter(|m| m.name != "error_rate")
                .cloned()
                .collect()
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&metrics, false)),
        ])
        .to_line()
    }

    /// `workload name value unit`, one metric per line.
    pub fn print_lines(&self) {
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let note = if m.name == "latency_p50_ms" {
                format!("  (n={})", self.samples)
            } else {
                String::new()
            };
            println!(
                "{} {} {} {}{}",
                self.workload, m.name, m.value, m.unit, note
            );
        }
        for q in &self.by_query {
            println!(
                "{} by_query.{} latency_p50 {} ms, ttfr_p50 {} ms  (n={})",
                self.workload, q.id, q.latency_p50_ms, q.ttfr_p50_ms, q.samples
            );
        }
        for failure in &self.failures {
            println!("{} FAILED {}", self.workload, failure);
        }
    }

    pub fn to_json(&self) -> Json {
        let trace = self
            .trace
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("query", Json::str(s.query.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload.clone())),
            ("config", self.config.clone()),
            ("samples", Json::Num(self.samples as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", metrics_json(&self.end_to_end, true)),
            (
                "by_query",
                Json::Obj(
                    self.by_query
                        .iter()
                        .map(|q| {
                            let fields = vec![
                                ("samples", Json::Num(q.samples as f64)),
                                ("latency_p50_ms", Json::Num(q.latency_p50_ms)),
                                ("ttfr_p50_ms", Json::Num(q.ttfr_p50_ms)),
                            ];
                            (q.id.clone(), Json::obj(fields))
                        })
                        .collect(),
                ),
            ),
            ("per_layer", metrics_json(&self.per_layer, true)),
            ("spans_recorded", Json::Num(self.spans_recorded as f64)),
            ("trace", Json::Arr(trace)),
        ])
    }
}

/// The regression bounds and directions `BENCHMARK.json` fixes.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_bounds(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric of run B against the same metric of run A (the
/// base). Exact counts must be equal. Otherwise B may be worse than A
/// by at most `bound` of A's value; when the runs' own spread is wider
/// than the bound the measurement cannot tell, and says so.
pub fn judge(bound: &Bound, exact: bool, a: f64, b: f64, spread: f64) -> Verdict {
    if exact {
        return if a == b {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    if spread > bound.bound {
        return Verdict::Unresolved;
    }
    let worse_by = if bound.lower_is_better { b - a } else { a - b };
    if worse_by > bound.bound * a.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn metric_of<'a>(workload: &'a Json, section: &str, name: &str) -> Option<&'a Json> {
    workload.get(section)?.get(name)
}

/// `compare A.json B.json`: every workload × end-to-end metric with
/// both values, B/A and its base, and the verdict; exact per-layer
/// counts are checked for equality too. Returns whether anything
/// regressed.
pub fn compare(a: &Json, b: &Json, benchmark_json: &Json) -> Result<bool, String> {
    let bounds = read_bounds(benchmark_json)?;
    let workloads = |doc: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result file has no workloads")?
            .to_vec())
    };
    let (a_workloads, b_workloads) = (workloads(a)?, workloads(b)?);
    for key in ["seed", "smoke"] {
        if a.get(key) != b.get(key) {
            println!(
                "note: {key} differs ({:?} vs {:?}); exact counts are only comparable for equal seeds",
                a.get(key),
                b.get(key)
            );
        }
    }
    let mut regressed = false;
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>22} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    for wa in &a_workloads {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name}: missing from B");
            regressed = true;
            continue;
        };
        for bound in &bounds {
            let (Some(ma), Some(mb)) = (
                metric_of(wa, "end_to_end", &bound.name),
                metric_of(wb, "end_to_end", &bound.name),
            ) else {
                println!("{name} {}: missing", bound.name);
                regressed = true;
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let spread = |m: &Json| m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
            let (va, vb) = (value(ma), value(mb));
            let exact = EXACT_END_TO_END.contains(&bound.name.as_str());
            let verdict = judge(bound, exact, va, vb, spread(ma).max(spread(mb)));
            regressed |= verdict == Verdict::Regressed;
            let ratio = if va == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4} (of {va:.4} {unit})", vb / va)
            };
            let bound_text = if exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", bound.bound * 100.0)
            };
            println!(
                "{name:<22} {:<26} {va:>14.4} {vb:>14.4} {ratio:>22} {bound_text:>8}  {}",
                bound.name,
                verdict.label()
            );
        }
        // Per-layer counts the program makes itself repeat exactly.
        if let (Some(Json::Obj(la)), Some(lb)) = (wa.get("per_layer"), wb.get("per_layer")) {
            for (metric, ma) in la {
                let is_count = matches!(
                    ma.get("unit").and_then(Json::as_str),
                    Some("count" | "bytes")
                ) || EXACT_PER_LAYER_RATIOS.contains(&metric.as_str());
                if !is_count {
                    continue;
                }
                let va = ma.get("value").and_then(Json::as_f64);
                let vb = lb
                    .get(metric)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if va != vb {
                    println!("{name:<22} {metric:<26} {va:?} vs {vb:?}  exact  regressed");
                    regressed = true;
                }
            }
        }
    }
    Ok(regressed)
}

/// Per-layer ratios computed from counts alone (no clock involved).
pub const EXACT_PER_LAYER_RATIOS: &[&str] = &[
    "core.prune.keep_ratio",
    "core.planner.lpm_est_log2_err",
    "partition.crossing_edge_ratio",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&values) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((relative_iqr(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(percentile(&values, 0.95), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let lower = Bound {
            name: "latency_p50_ms".into(),
            lower_is_better: true,
            bound: 0.05,
        };
        assert_eq!(judge(&lower, false, 100.0, 104.0, 0.01), Verdict::Ok);
        assert_eq!(judge(&lower, false, 100.0, 106.0, 0.01), Verdict::Regressed);
        assert_eq!(judge(&lower, false, 100.0, 60.0, 0.01), Verdict::Ok);
        assert_eq!(
            judge(&lower, false, 100.0, 106.0, 0.08),
            Verdict::Unresolved
        );
        let higher = Bound {
            name: "throughput_qps".into(),
            lower_is_better: false,
            bound: 0.05,
        };
        assert_eq!(judge(&higher, false, 100.0, 94.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(&higher, false, 100.0, 120.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&lower, true, 7.0, 7.0, 0.0), Verdict::Ok);
        assert_eq!(judge(&lower, true, 7.0, 8.0, 0.0), Verdict::Regressed);
    }
}
