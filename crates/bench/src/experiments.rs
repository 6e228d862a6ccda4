//! One function per table/figure of the paper's evaluation.

use std::collections::HashMap;

use gstored_baselines::cliquesquare::CliqueSquareLike;
use gstored_baselines::dream::DreamLike;
use gstored_baselines::s2rdf::S2rdfLike;
use gstored_baselines::s2x::S2xLike;
use gstored_baselines::Baseline;
use gstored_core::engine::{Engine, EngineConfig, QueryOutput, Variant};
use gstored_core::planner::plan_query;
use gstored_core::prepared::PreparedPlan;
use gstored_core::worker::with_in_process_workers;
use gstored_datagen::BenchQuery;
use gstored_partition::{
    cost::partitioning_cost, DistributedGraph, HashPartitioner, MetisLikePartitioner, Partitioner,
    SemanticHashPartitioner,
};
use gstored_rdf::RdfGraph;
use gstored_sparql::{parse_query, QueryGraph};

use crate::datasets::Dataset;
use crate::format::{kib, ms, Table};

/// Parse a benchmark query into its query graph.
pub fn query_graph(q: &BenchQuery) -> QueryGraph {
    QueryGraph::from_query(&parse_query(&q.text).unwrap_or_else(|e| panic!("{}: {e}", q.id)))
        .unwrap_or_else(|e| panic!("{}: {e}", q.id))
}

/// Evaluate a prepared plan once on a fresh in-process fleet, panicking
/// with the query id on an engine error.
pub fn run(engine: &Engine, dist: &DistributedGraph, plan: &PreparedPlan, id: &str) -> QueryOutput {
    with_in_process_workers(dist, |fleet| engine.execute_on(fleet, dist, plan))
        .unwrap_or_else(|e| panic!("{id}: {e}"))
}

/// Prepare a benchmark query against a distributed graph's dictionary:
/// parse, lower, encode and analyze exactly once. The returned plan is
/// reusable across any number of executions (and across engines, e.g.
/// the four variants of Fig. 9).
pub fn prepare(dist: &DistributedGraph, q: &BenchQuery) -> PreparedPlan {
    PreparedPlan::new(query_graph(q), dist.dict()).unwrap_or_else(|e| panic!("{}: {e}", q.id))
}

/// Partition a dataset with the named strategy.
pub fn partition(graph: RdfGraph, strategy: &str, sites: usize) -> DistributedGraph {
    let p: Box<dyn Partitioner> = match strategy {
        "hash" => Box::new(HashPartitioner::new(sites)),
        "semantic" => Box::new(SemanticHashPartitioner::new(sites)),
        "metis" => Box::new(MetisLikePartitioner::new(sites)),
        other => panic!("unknown strategy {other}"),
    };
    DistributedGraph::build(graph, p.as_ref())
}

/// Tables I–III: per-stage evaluation of the full engine on one dataset.
///
/// Columns mirror the paper: candidate time + shipment, LPM time, LEC
/// optimization time + shipment, assembly time, total, LPM count,
/// (crossing) match count.
pub fn table_stage_breakdown(dataset: &Dataset, sites: usize) -> Table {
    let dist = partition(dataset.graph.clone(), "hash", sites);
    let engine = Engine::new(EngineConfig::variant(Variant::Full));
    let mut table = Table::new(
        format!("Stage breakdown on {} (hash, {sites} sites)", dataset.name),
        &[
            "Query",
            "Selective",
            "Cand. time (ms)",
            "Cand. ship (KiB)",
            "LPM time (ms)",
            "LEC time (ms)",
            "LEC ship (KiB)",
            "Assembly time (ms)",
            "Total (ms)",
            "#LPM",
            "#LPM kept",
            "#Crossing",
            "#Matches",
        ],
    );
    for q in &dataset.queries {
        let plan = prepare(&dist, q);
        let out = run(&engine, &dist, &plan, q.id);
        let m = &out.metrics;
        table.row(vec![
            q.id.to_string(),
            if q.expected_selective {
                "yes".into()
            } else {
                "no".into()
            },
            ms(m.candidates.response_time()),
            kib(m.candidates.bytes_shipped),
            ms(m.partial_evaluation.response_time()),
            ms(m.lec_optimization.response_time()),
            kib(m.lec_optimization.bytes_shipped),
            ms(m.assembly.response_time()),
            ms(m.total_time()),
            m.local_partial_matches.to_string(),
            m.surviving_partial_matches.to_string(),
            m.crossing_matches.to_string(),
            m.total_matches().to_string(),
        ]);
    }
    table
}

/// Table IV: `CostPartitioning` of the three strategies on a dataset.
pub fn table_partitioning_costs(datasets: &[&Dataset], sites: usize) -> Table {
    let mut table = Table::new(
        format!("CostPartitioning ({sites} sites)"),
        &["Dataset", "Hash", "Semantic Hash", "METIS-like"],
    );
    for d in datasets {
        let mut cells = vec![d.name.to_string()];
        for strategy in ["hash", "semantic", "metis"] {
            let dist = partition(d.graph.clone(), strategy, sites);
            let report = partitioning_cost(&dist);
            cells.push(format!("{:.3e}", report.cost));
        }
        table.row(cells);
    }
    table
}

/// Warm executions per Fig. 9 cell; the cell reports their median.
const FIG9_RUNS: usize = 5;

/// Fig. 9: response time of the four engine variants on the non-star
/// queries of a dataset, with the variant `Variant::Auto` picks for
/// each query and the crossing share its rule read.
///
/// Each variant runs on one in-process fleet of its own, started once:
/// every cell is warmed with one execution and then reports the median
/// of `FIG9_RUNS` more, so no column pays a cold start the others do
/// not.
pub fn fig_optimizations(dataset: &Dataset, sites: usize) -> Table {
    let dist = partition(dataset.graph.clone(), "hash", sites);
    let mut table = Table::new(
        format!(
            "Optimization variants on {} (ms, median of {FIG9_RUNS} warm runs)",
            dataset.name
        ),
        &[
            "Query",
            "Basic",
            "LA",
            "LO",
            "Full",
            "#Matches",
            "Auto picks",
        ],
    );
    let queries: Vec<&BenchQuery> = dataset.queries.iter().filter(|q| !q.is_star()).collect();
    // One prepared plan serves all four variants and the planner.
    let plans: Vec<PreparedPlan> = queries.iter().map(|q| prepare(&dist, q)).collect();
    let mut rows: Vec<Vec<String>> = queries.iter().map(|q| vec![q.id.to_string()]).collect();
    let mut matches = vec![0u64; queries.len()];
    for variant in Variant::ALL {
        let engine = Engine::with_variant(variant);
        with_in_process_workers(&dist, |fleet| {
            for (i, (q, plan)) in queries.iter().zip(&plans).enumerate() {
                let mut execute = || {
                    let out = engine
                        .execute_on(fleet, &dist, plan)
                        .unwrap_or_else(|e| panic!("{}: {e}", q.id));
                    matches[i] = out.metrics.total_matches();
                    out.metrics.total_time()
                };
                execute();
                let mut times: Vec<_> = (0..FIG9_RUNS).map(|_| execute()).collect();
                times.sort_unstable();
                rows[i].push(ms(times[FIG9_RUNS / 2]));
            }
        });
    }
    for ((mut cells, plan), matches) in rows.into_iter().zip(&plans).zip(matches) {
        cells.push(matches.to_string());
        let decision = plan_query(&dist, plan);
        cells.push(format!(
            "{} (s={:.2})",
            decision.chosen.label(),
            decision.crossing_share
        ));
        table.row(cells);
    }
    table
}

/// Fig. 10: the full engine across the three partitioning strategies.
pub fn fig_partitionings(dataset: &Dataset, sites: usize) -> Table {
    let mut table = Table::new(
        format!(
            "Partitioning strategies on {} (total ms | ship KiB)",
            dataset.name
        ),
        &["Query", "Hash", "Semantic Hash", "METIS-like"],
    );
    let dists: Vec<(&str, DistributedGraph)> = ["hash", "semantic", "metis"]
        .iter()
        .map(|s| (*s, partition(dataset.graph.clone(), s, sites)))
        .collect();
    let engine = Engine::new(EngineConfig::variant(Variant::Full));
    for q in dataset.queries.iter().filter(|q| !q.is_star()) {
        let mut cells = vec![q.id.to_string()];
        for (_, dist) in &dists {
            let plan = prepare(dist, q);
            let out = run(&engine, dist, &plan, q.id);
            cells.push(format!(
                "{} | {}",
                ms(out.metrics.total_time()),
                kib(out.metrics.total_shipped())
            ));
        }
        table.row(cells);
    }
    table
}

/// Fig. 11: scalability — response time as the dataset grows 1x/5x/10x
/// (the paper's 100M/500M/1B ratio), split into star and non-star rows.
pub fn fig_scalability(
    build: impl Fn(usize) -> Dataset,
    base_triples: usize,
    sites: usize,
) -> Table {
    let mut table = Table::new(
        "Scalability on LUBM (total ms)",
        &["Query", "Star?", "1x", "5x", "10x"],
    );
    let scales = [1usize, 5, 10];
    let datasets: Vec<Dataset> = scales.iter().map(|s| build(base_triples * s)).collect();
    let dists: Vec<DistributedGraph> = datasets
        .iter()
        .map(|d| partition(d.graph.clone(), "hash", sites))
        .collect();
    let engine = Engine::new(EngineConfig::variant(Variant::Full));
    for (qi, q) in datasets[0].queries.iter().enumerate() {
        let mut cells = vec![
            q.id.to_string(),
            if q.is_star() {
                "yes".into()
            } else {
                "no".into()
            },
        ];
        for (di, dist) in dists.iter().enumerate() {
            let plan = prepare(dist, &datasets[di].queries[qi]);
            let out = run(&engine, dist, &plan, q.id);
            cells.push(ms(out.metrics.total_time()));
        }
        table.row(cells);
    }
    table
}

/// Fig. 12: gStoreD under each partitioning vs the four baselines.
pub fn fig_comparison(dataset: &Dataset, sites: usize) -> Table {
    let mut table = Table::new(
        format!("System comparison on {} (total ms)", dataset.name),
        &[
            "Query",
            "DREAM",
            "S2X",
            "S2RDF",
            "CliqueSquare",
            "gStoreD-Hash",
            "gStoreD-Semantic",
            "gStoreD-METIS",
        ],
    );
    let baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(DreamLike::default()),
        Box::new(S2xLike::default()),
        Box::new(S2rdfLike::default()),
        Box::new(CliqueSquareLike::default()),
    ];
    let dists: Vec<(&str, DistributedGraph)> = ["hash", "semantic", "metis"]
        .iter()
        .map(|s| (*s, partition(dataset.graph.clone(), s, sites)))
        .collect();
    let engine = Engine::new(EngineConfig::variant(Variant::Full));
    // Correctness cross-check: every system must agree on result counts.
    let mut counts: HashMap<&str, Vec<usize>> = HashMap::new();
    for q in &dataset.queries {
        let query = query_graph(q);
        let mut cells = vec![q.id.to_string()];
        for b in &baselines {
            let out = b.run(&dataset.graph, &dists[0].1, &query);
            counts.entry(q.id).or_default().push(out.bindings.len());
            cells.push(ms(out.metrics.total_time()));
        }
        for (_, dist) in &dists {
            let plan = prepare(dist, q);
            let out = run(&engine, dist, &plan, q.id);
            counts.entry(q.id).or_default().push(out.bindings.len());
            cells.push(ms(out.metrics.total_time()));
        }
        let c = &counts[q.id];
        assert!(
            c.iter().all(|&n| n == c[0]),
            "{}: systems disagree on result count: {c:?}",
            q.id
        );
        table.row(cells);
    }
    table
}

/// Ablation: Algorithm 4's bit-vector length. Small vectors are cheap to
/// ship but admit false positives (useless extended bindings survive);
/// large ones prune exactly but dominate shipment at small scale. The
/// paper fixes the length and argues the trade-off qualitatively
/// (Section VI); this sweep makes it measurable.
pub fn ablation_candidate_bits(dataset: &Dataset, sites: usize) -> Table {
    let dist = partition(dataset.graph.clone(), "hash", sites);
    let mut table = Table::new(
        format!("Ablation: candidate bit-vector size on {}", dataset.name),
        &[
            "Query",
            "Bits/var",
            "Cand. ship (KiB)",
            "#LPM",
            "Total (ms)",
        ],
    );
    for q in dataset.queries.iter().filter(|q| !q.is_star()) {
        // One prepared plan serves every bit-vector size.
        let plan = prepare(&dist, q);
        for bits in [1usize << 10, 1 << 13, 1 << 16, 1 << 19] {
            let engine = Engine::new(EngineConfig {
                candidate_bits: bits,
                ..EngineConfig::variant(Variant::Full)
            });
            let out = run(&engine, &dist, &plan, q.id);
            table.row(vec![
                q.id.to_string(),
                format!("{}Ki", bits >> 10),
                kib(out.metrics.candidates.bytes_shipped),
                out.metrics.local_partial_matches.to_string(),
                ms(out.metrics.total_time()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    const TEST_SCALE: usize = 4_000;
    const TEST_SITES: usize = 4;

    #[test]
    fn stage_breakdown_runs_on_all_datasets() {
        for d in [
            datasets::lubm(TEST_SCALE),
            datasets::yago(TEST_SCALE),
            datasets::btc(TEST_SCALE),
        ] {
            let t = table_stage_breakdown(&d, TEST_SITES);
            assert_eq!(t.rows.len(), d.queries.len());
        }
    }

    #[test]
    fn partitioning_costs_table_has_three_strategies() {
        let lubm = datasets::lubm(TEST_SCALE);
        let yago = datasets::yago(TEST_SCALE);
        let t = table_partitioning_costs(&[&lubm, &yago], TEST_SITES);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.header.len(), 4);
    }

    #[test]
    fn optimizations_fig_covers_non_star_queries() {
        let d = datasets::yago(TEST_SCALE);
        let t = fig_optimizations(&d, TEST_SITES);
        assert_eq!(t.rows.len(), 4, "all YAGO queries are non-star");
    }

    #[test]
    fn comparison_fig_asserts_agreement() {
        let d = datasets::yago(TEST_SCALE);
        // The assert inside fig_comparison is the real test.
        let t = fig_comparison(&d, TEST_SITES);
        assert_eq!(t.rows.len(), d.queries.len());
    }

    #[test]
    fn candidate_bits_ablation_trades_shipment_for_pruning() {
        let d = datasets::yago(TEST_SCALE);
        let t = ablation_candidate_bits(&d, TEST_SITES);
        // 4 sizes per non-star query.
        assert_eq!(t.rows.len(), d.queries.len() * 4);
        // Shipment grows monotonically with bit count within each query.
        for chunk in t.rows.chunks(4) {
            let ship: Vec<f64> = chunk.iter().map(|r| r[2].parse::<f64>().unwrap()).collect();
            assert!(ship.windows(2).all(|w| w[0] <= w[1]), "{ship:?}");
            // LPM counts never increase with more bits (fewer false
            // positives can only prune more).
            let lpms: Vec<u64> = chunk.iter().map(|r| r[3].parse::<u64>().unwrap()).collect();
            assert!(lpms.windows(2).all(|w| w[0] >= w[1]), "{lpms:?}");
        }
    }
}
