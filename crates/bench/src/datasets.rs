//! Scaled dataset construction shared by the experiments.
//!
//! The paper's datasets (LUBM 100M–1B, YAGO2 284M, BTC ~1B triples) are
//! scaled down by a configurable factor so the full suite runs on one
//! machine; the scale knob preserves the paper's *ratios* (LUBM 100M :
//! 500M : 1B = 1 : 5 : 10 in Fig. 11).

use gstored_datagen::{btc, lubm, queries, yago, BenchQuery, BtcConfig, LubmConfig, YagoConfig};
use gstored_rdf::RdfGraph;

/// A named dataset with its benchmark queries.
pub struct Dataset {
    /// Display name ("LUBM", "YAGO2", "BTC").
    pub name: &'static str,
    /// The full RDF graph.
    pub graph: RdfGraph,
    /// The benchmark query set for this dataset.
    pub queries: Vec<BenchQuery>,
}

impl Dataset {
    fn new(name: &'static str, graph: RdfGraph, queries: Vec<BenchQuery>) -> Self {
        let mut graph = graph;
        graph.finalize();
        Dataset {
            name,
            graph,
            queries,
        }
    }
}

/// LUBM-like dataset, around `target_triples` triples.
pub fn lubm(target_triples: usize) -> Dataset {
    let triples = lubm::generate(&LubmConfig::with_target_triples(target_triples, 42));
    Dataset::new(
        "LUBM",
        RdfGraph::from_triples(triples),
        queries::lubm_queries(),
    )
}

/// YAGO2-like dataset, around `target_triples` triples.
pub fn yago(target_triples: usize) -> Dataset {
    let triples = yago::generate(&YagoConfig::with_target_triples(target_triples, 7));
    Dataset::new(
        "YAGO2",
        RdfGraph::from_triples(triples),
        queries::yago_queries(),
    )
}

/// BTC-like dataset, around `target_triples` triples.
pub fn btc(target_triples: usize) -> Dataset {
    let triples = btc::generate(&BtcConfig::with_target_triples(target_triples, 11));
    Dataset::new(
        "BTC",
        RdfGraph::from_triples(triples),
        queries::btc_queries(),
    )
}

/// The default experiment scale (triples per dataset). Small enough for
/// CI, large enough that the paper's effects (pruning ratios, stage
/// dominance, crossovers) are visible.
pub const DEFAULT_SCALE: usize = 30_000;

/// Number of simulated sites (the paper uses a 12-machine cluster).
pub const DEFAULT_SITES: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build_and_are_nonempty() {
        for d in [lubm(5_000), yago(5_000), btc(5_000)] {
            assert!(d.graph.edge_count() > 1_000, "{} too small", d.name);
            assert!(!d.queries.is_empty());
        }
    }
}
