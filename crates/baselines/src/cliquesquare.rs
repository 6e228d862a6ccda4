//! CliqueSquare-like baseline (Goasdoué et al., ICDE 2015 — reference \[4\]).
//!
//! Strategy, per the paper's Section IX summary: "CliqueSquare discusses
//! how to build query plans by relying on n-ary (star) equality joins in
//! Hadoop" — decompose the query into stars, evaluate each star as one
//! n-ary equality join on the star's center, then join the star results
//! with as-flat-as-possible binary joins. The plan depth (number of
//! MapReduce rounds) is `1 + ceil(log2(#stars))`; each round pays the
//! Hadoop stage overhead, which dominates on selective queries — exactly
//! the Fig. 12 behaviour.

use gstored_net::QueryMetrics;
use gstored_partition::DistributedGraph;
use gstored_rdf::RdfGraph;
use gstored_sparql::QueryGraph;
use gstored_store::EncodedQuery;

use crate::cluster::Cluster;
use crate::decompose::decompose_stars;
use crate::relalg::{hash_join, join_all, scan_pattern, to_bindings, Relation};
use crate::{Baseline, BaselineOutput, CostModel};

/// The CliqueSquare-like engine.
#[derive(Debug, Clone, Default)]
pub struct CliqueSquareLike {
    pub cost: CostModel,
}

impl CliqueSquareLike {
    /// With explicit cost knobs.
    pub fn new(cost: CostModel) -> Self {
        CliqueSquareLike { cost }
    }
}

impl Baseline for CliqueSquareLike {
    fn name(&self) -> &'static str {
        "CliqueSquare"
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
            let rel = join_all(crate::relalg::pattern_relations(graph, &q));
            let bindings = to_bindings(&rel, &q, graph);
            metrics.crossing_matches = bindings.len() as u64;
            return BaselineOutput { bindings, metrics };
        }
        let stars = decompose_stars(&q);

        // Round 1: all n-ary star joins in parallel (one MapReduce round).
        let star_list = &stars;
        let (star_rels, stage) = cluster.scatter(|site| {
            let mut rels = Vec::new();
            for (i, star) in star_list.iter().enumerate() {
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
        metrics.partial_evaluation.network += self.cost.stage_overhead;
        let mut level: Vec<Relation> = Vec::new();
        for rels in star_rels {
            for r in rels {
                cluster.charge_shipment(&mut metrics.partial_evaluation, 1, r.wire_size());
                level.push(r);
            }
        }

        // Subsequent rounds: flat binary-join tree over star results;
        // every level of the tree is one MapReduce round.
        let mut rounds = 0u32;
        let mut shuffle_bytes = 0u64;
        let mut shuffles = 0u64;
        let joined = cluster.time_coordinator(&mut metrics.assembly, || {
            let mut level = level;
            while level.len() > 1 {
                rounds += 1;
                // Pair up relations preferring shared columns (equality
                // joins), flat: all pairs join within the same round.
                let mut next: Vec<Relation> = Vec::new();
                while let Some(a) = level.pop() {
                    // Find a partner sharing a column.
                    let partner = level
                        .iter()
                        .position(|r| r.schema.iter().any(|&c| a.column(c).is_some()));
                    match partner {
                        Some(i) => {
                            let b = level.swap_remove(i);
                            let j = hash_join(&a, &b);
                            shuffle_bytes += j.wire_size();
                            shuffles += 1;
                            next.push(j);
                        }
                        None => next.push(a),
                    }
                }
                if next.len() == level.len() {
                    // No progress (disconnected remainder): cross product.
                    let a = next.pop().expect("non-empty");
                    let b = next.pop().expect("len >= 2");
                    next.push(hash_join(&a, &b));
                }
                level = next;
            }
            level.pop().unwrap_or_else(Relation::unit)
        });
        cluster.charge_shipment(&mut metrics.assembly, shuffles, shuffle_bytes);
        metrics.assembly.network += self.cost.stage_overhead * rounds;

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
            t("http://a", "http://q", "http://c"),
            t("http://b", "http://r", "http://d"),
            t("http://b", "http://s", "http://e"),
            t("http://a2", "http://p", "http://b"),
            t("http://a2", "http://q", "http://c2"),
        ]);
        g.finalize();
        let dist = DistributedGraph::build(g.clone(), &HashPartitioner::new(3));
        (g, dist)
    }

    #[test]
    fn matches_centralized_reference() {
        let (g, dist) = setup();
        // Two stars: {?x p ?y, ?x q ?z} and {?y r ?d, ?y s ?e}.
        let query = QueryGraph::from_query(
            &parse_query(
                "SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z . \
                 ?y <http://r> ?d . ?y <http://s> ?e }",
            )
            .unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let mut reference = gstored_store::find_matches(&g, &q);
        reference.sort_unstable();
        let out = CliqueSquareLike::new(CostModel::zero()).run(&g, &dist, &query);
        assert_eq!(out.bindings, reference);
        assert_eq!(out.bindings.len(), 2);
    }

    #[test]
    fn star_query_is_single_round() {
        let (g, dist) = setup();
        let query = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z }").unwrap(),
        )
        .unwrap();
        // Stage overhead is charged into the deterministic simulated
        // network time (wall time is scheduling noise), so compare the
        // network component: both runs ship identical bytes, and the only
        // difference is the per-round overhead.
        let network_total = |cost: CostModel| {
            CliqueSquareLike::new(cost)
                .run(&g, &dist, &query)
                .metrics
                .total_network()
        };
        let overhead =
            network_total(CostModel::default()).saturating_sub(network_total(CostModel::zero()));
        assert!(overhead >= CostModel::default().stage_overhead);
        assert!(overhead < CostModel::default().stage_overhead * 6);
    }

    #[test]
    fn empty_result_is_empty() {
        let (g, dist) = setup();
        let query = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://s> ?y . ?y <http://s> ?z }").unwrap(),
        )
        .unwrap();
        let out = CliqueSquareLike::new(CostModel::zero()).run(&g, &dist, &query);
        assert!(out.bindings.is_empty());
    }
}
