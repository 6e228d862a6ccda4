//! DREAM-like baseline (Hammoud et al., PVLDB 2015 — reference \[7\]).
//!
//! Strategy: every site holds a **full replica** of the dataset; the
//! query is decomposed into star subqueries; each star runs at one site
//! against the replica; the coordinator joins the intermediate results.
//! This is why DREAM shines on selective queries (tiny intermediates, no
//! repartitioning) and collapses on complex ones ("evaluating the large
//! subqueries ... often results in many intermediate results, and joining
//! these intermediate results is also costly" — Section VIII-F).

use gstored_net::QueryMetrics;
use gstored_partition::DistributedGraph;
use gstored_rdf::RdfGraph;
use gstored_sparql::QueryGraph;
use gstored_store::EncodedQuery;

use crate::cluster::Cluster;
use crate::decompose::decompose_stars;
use crate::relalg::{join_all, scan_pattern, to_bindings, Relation};
use crate::{Baseline, BaselineOutput, CostModel};

/// The DREAM-like engine.
#[derive(Debug, Clone, Default)]
pub struct DreamLike {
    /// Cost knobs (DREAM pays none of the cloud overheads).
    pub cost: CostModel,
}

impl DreamLike {
    /// With explicit cost knobs.
    pub fn new(cost: CostModel) -> Self {
        DreamLike { cost }
    }
}

impl Baseline for DreamLike {
    fn name(&self) -> &'static str {
        "DREAM"
    }

    fn run(&self, graph: &RdfGraph, dist: &DistributedGraph, query: &QueryGraph) -> BaselineOutput {
        let mut metrics = QueryMetrics::default();
        let Some(q) = EncodedQuery::encode(query, dist.dict()) else {
            return BaselineOutput {
                bindings: Vec::new(),
                metrics,
            };
        };
        let cluster = Cluster::new(dist.fragment_count());
        if q.edge_count() == 0 {
            let rel = crate::relalg::join_all(crate::relalg::pattern_relations(graph, &q));
            let bindings = to_bindings(&rel, &q, graph);
            metrics.crossing_matches = bindings.len() as u64;
            return BaselineOutput { bindings, metrics };
        }
        let stars = decompose_stars(&q);

        // Each star subquery runs at one site over the full replica, in
        // parallel (sites are interchangeable under full replication; star
        // i runs at site i mod k).
        let n_stars = stars.len();
        let (star_rels, stage) = cluster.scatter(|site| {
            let mut rels: Vec<Relation> = Vec::new();
            for (i, star) in stars.iter().enumerate() {
                if i % cluster.sites() == site {
                    let scans: Vec<Relation> = star
                        .edges
                        .iter()
                        .map(|&e| scan_pattern(graph, &q, e))
                        .collect();
                    rels.push(join_all(scans));
                }
            }
            rels
        });
        metrics.partial_evaluation = stage;

        // Intermediate star results ship to the coordinator.
        let mut all_rels: Vec<Relation> = Vec::new();
        for rels in star_rels {
            for r in rels {
                cluster.charge_shipment(&mut metrics.partial_evaluation, 1, r.wire_size());
                all_rels.push(r);
            }
        }
        debug_assert_eq!(all_rels.len(), n_stars);

        // Coordinator joins the star intermediates.
        let joined = cluster.time_coordinator(&mut metrics.assembly, || join_all(all_rels));
        let bindings = to_bindings(&joined, &q, graph);
        metrics.crossing_matches = bindings.len() as u64;
        BaselineOutput { bindings, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::HashPartitioner;
    use gstored_rdf::{Term, Triple};
    use gstored_sparql::parse_query;

    fn setup() -> (RdfGraph, DistributedGraph) {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let mut g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://q", "http://c"),
            t("http://a", "http://p", "http://d"),
            t("http://d", "http://q", "http://c"),
            t("http://c", "http://r", "http://a"),
        ]);
        g.finalize();
        let dist = DistributedGraph::build(g.clone(), &HashPartitioner::new(3));
        (g, dist)
    }

    #[test]
    fn matches_centralized_reference() {
        let (g, dist) = setup();
        let query = QueryGraph::from_query(
            &parse_query(
                "SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z . ?z <http://r> ?x }",
            )
            .unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let mut reference = gstored_store::find_matches(&g, &q);
        reference.sort_unstable();
        let out = DreamLike::default().run(&g, &dist, &query);
        assert_eq!(out.bindings, reference);
        assert!(!out.bindings.is_empty());
    }

    #[test]
    fn ships_intermediate_results() {
        let (g, dist) = setup();
        let query = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let out = DreamLike::default().run(&g, &dist, &query);
        assert!(out.metrics.partial_evaluation.bytes_shipped > 0);
    }

    #[test]
    fn empty_result_query() {
        let (g, dist) = setup();
        let query = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://r> ?y . ?y <http://r> ?z }").unwrap(),
        )
        .unwrap();
        let out = DreamLike::default().run(&g, &dist, &query);
        assert!(out.bindings.is_empty());
    }
}
