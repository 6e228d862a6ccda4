//! Auto's decision table: the variant `plan_query` picks for the
//! benchmark's query shapes under each partitioning.
//!
//! The rule runs `Full` when at least half the edges matching the
//! query's predicates cross fragments and the query is cyclic or
//! selective, `LA` otherwise. Hash partitioning makes over 90 % of the
//! matching LUBM edges cross, semantic-hash and METIS-like partitioning
//! keep at least 70 % of them inside fragments, so the same queries land
//! on opposite sides of the threshold.

use gstored::core::engine::Variant;
use gstored::core::planner::{plan_query, PlannerDecision};
use gstored::datagen::random::{predicate_iri, random_graph, RandomGraphConfig};
use gstored::datagen::{lubm, lubm_queries, LubmConfig};
use gstored::partition::Partitioner;
use gstored::prelude::*;
use gstored::rdf::vocab::lubm as vocab;

/// LUBM at about 20 k triples: small enough to partition and plan in
/// a fraction of a second, with enough universities that semantic-hash
/// partitioning keeps each one whole on a site of its own.
fn lubm_graph() -> RdfGraph {
    let mut g = RdfGraph::from_triples(lubm::generate(&LubmConfig::with_target_triples(20_000, 7)));
    g.finalize();
    g
}

fn decide(dist: &DistributedGraph, text: &str) -> PlannerDecision {
    let query = QueryGraph::from_query(&gstored::sparql::parse_query(text).expect("parses"))
        .expect("connected");
    let plan = PreparedPlan::new(query, dist.dict()).expect("preparable");
    plan_query(dist, &plan)
}

/// The four general (non-star) LUBM queries and the variant each gets.
fn general_lubm_picks(partitioner: &dyn Partitioner) -> Vec<(&'static str, PlannerDecision)> {
    let dist = DistributedGraph::build(lubm_graph(), partitioner);
    lubm_queries()
        .into_iter()
        .filter(|q| ["LQ1", "LQ3", "LQ6", "LQ7"].contains(&q.id))
        .map(|q| (q.id, decide(&dist, &q.text)))
        .collect()
}

#[test]
fn hash_lubm_general_queries_run_full() {
    let picks = general_lubm_picks(&HashPartitioner::new(8));
    assert_eq!(picks.len(), 4);
    for (id, d) in picks {
        assert!(d.crossing_share >= 0.5, "{id}: {d:?}");
        assert_eq!(d.chosen, Variant::Full, "{id}: {d:?}");
    }
}

#[test]
fn semantic_and_metis_lubm_general_queries_run_la() {
    let partitioners: [(&str, Box<dyn Partitioner>); 2] = [
        ("semantic", Box::new(SemanticHashPartitioner::new(8))),
        ("metis", Box::new(MetisLikePartitioner::new(8))),
    ];
    for (name, p) in partitioners {
        let picks = general_lubm_picks(p.as_ref());
        assert_eq!(picks.len(), 4);
        for (id, d) in picks {
            assert!(d.crossing_share < 0.5, "{name} {id}: {d:?}");
            assert_eq!(d.chosen, Variant::LecAssembly, "{name} {id}: {d:?}");
        }
    }
}

#[test]
fn hash_random_path_runs_la_and_triangle_runs_full() {
    let g = random_graph(&RandomGraphConfig {
        vertices: 700,
        edges: 2_100,
        predicates: 3,
        seed: 11,
    });
    let dist = DistributedGraph::build(g, &HashPartitioner::new(12));
    let p = predicate_iri;
    let path = decide(
        &dist,
        &format!(
            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?d }}",
            p(0),
            p(1),
            p(2)
        ),
    );
    assert!(path.crossing_share >= 0.5 && !path.cyclic && !path.selective);
    assert_eq!(path.chosen, Variant::LecAssembly, "{path:?}");
    let triangle = decide(
        &dist,
        &format!(
            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?a }}",
            p(0),
            p(1),
            p(2)
        ),
    );
    assert!(triangle.cyclic);
    assert_eq!(triangle.chosen, Variant::Full, "{triangle:?}");
}

/// The member → department → university → name path: crossing-heavy
/// under hashing, but acyclic and unselective, so LA.
#[test]
fn member_path_runs_la() {
    let dist = DistributedGraph::build(lubm_graph(), &HashPartitioner::new(8));
    let d = decide(
        &dist,
        &format!(
            "SELECT * WHERE {{ ?x <{}> ?d . ?d <{}> ?u . ?u <{}> ?n . }}",
            vocab::MEMBER_OF,
            vocab::SUB_ORGANIZATION_OF,
            vocab::NAME
        ),
    );
    assert!(d.crossing_share >= 0.5, "{d:?}");
    assert_eq!(d.chosen, Variant::LecAssembly, "{d:?}");
}
