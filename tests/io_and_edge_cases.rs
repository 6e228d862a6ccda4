//! N-Triples file round-trips over generated datasets, plus engine edge
//! cases (empty graphs, self-loops, single-vertex class queries, LIMIT on
//! crossing matches), driven through the `GStoreD` facade.

use std::io::BufReader;

use gstored::core::engine::Variant;
use gstored::datagen::{yago, YagoConfig};
use gstored::prelude::*;
use gstored::rdf::ntriples;
use gstored::rdf::Triple;

#[test]
fn generated_dataset_survives_ntriples_roundtrip() {
    let triples = yago::generate(&YagoConfig {
        persons: 150,
        ..Default::default()
    });
    let text = {
        let mut buf = Vec::new();
        ntriples::write_ntriples(&mut buf, &triples).unwrap();
        String::from_utf8(buf).unwrap()
    };
    let reparsed = ntriples::parse_ntriples(&text).unwrap();
    assert_eq!(reparsed, triples);

    // And through the buffered-reader path.
    let reparsed2 = ntriples::parse_ntriples_reader(BufReader::new(text.as_bytes())).unwrap();
    assert_eq!(reparsed2, triples);

    // The graphs built from both are identical in shape.
    let g1 = RdfGraph::from_triples(triples);
    let g2 = RdfGraph::from_triples(reparsed);
    assert_eq!(g1.edge_count(), g2.edge_count());
    assert_eq!(g1.vertex_count(), g2.vertex_count());
    assert_eq!(g1.type_triple_count(), g2.type_triple_count());
}

#[test]
fn single_vertex_class_query_runs_distributed() {
    // `SELECT ?x WHERE { ?x a Person }` — zero query edges, pure class
    // constraint; handled by the star fast path over class candidates.
    let triples = yago::generate(&YagoConfig {
        persons: 80,
        ..Default::default()
    });
    let text = format!(
        "SELECT ?x WHERE {{ ?x a <{}> }}",
        gstored::datagen::yago::PERSON_CLASS
    );
    for variant in [Variant::Basic, Variant::Full] {
        let db = GStoreD::builder()
            .triples(triples.clone())
            .partitioner(HashPartitioner::new(4))
            .variant(variant)
            .build()
            .unwrap();
        let prepared = db.prepare(&text).unwrap();
        assert_eq!(prepared.plan().query().edge_count(), 0);
        assert_eq!(prepared.plan().query().vertex_count(), 1);
        let results = prepared.execute().unwrap();
        assert_eq!(results.len(), 80, "{}", variant.label());
    }
}

#[test]
fn empty_graph_yields_empty_results() {
    let db = GStoreD::builder()
        .partitioner(HashPartitioner::new(3))
        .variant(Variant::Full)
        .build()
        .unwrap();
    let results = db.query("SELECT ?x WHERE { ?x <http://p> ?y }").unwrap();
    assert!(results.is_empty());
    assert_eq!(results.metrics().total_matches(), 0);
}

#[test]
fn self_loops_survive_distribution() {
    let triples = vec![
        Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://a"),
        ),
        Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        ),
        Triple::new(
            Term::iri("http://b"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        ),
    ];
    for seed in 0..4 {
        let db = GStoreD::builder()
            .triples(triples.clone())
            .partitioner(HashPartitioner::with_seed(2, seed))
            .variant(Variant::Full)
            .build()
            .unwrap();
        let results = db.query("SELECT ?x WHERE { ?x <http://p> ?x }").unwrap();
        assert_eq!(results.len(), 2, "seed {seed}: both loop vertices match");
    }
}

#[test]
fn limit_truncates_crossing_matches_deterministically() {
    // Crossing-heavy query with LIMIT: results are sorted before
    // truncation, so the same rows come back under any partitioning.
    let triples = yago::generate(&YagoConfig {
        persons: 120,
        ..Default::default()
    });
    let text = "SELECT ?a ?b WHERE { ?a <http://dbpedia.org/ontology/influencedBy> ?b . \
         ?b <http://dbpedia.org/ontology/influencedBy> ?c . \
         ?c <http://dbpedia.org/ontology/birthPlace> ?d } LIMIT 5";
    let mut outputs = Vec::new();
    for seed in 0..3 {
        let db = GStoreD::builder()
            .triples(triples.clone())
            .partitioner(HashPartitioner::with_seed(3, seed))
            .variant(Variant::Full)
            .build()
            .unwrap();
        let results = db.query(text).unwrap();
        assert!(results.len() <= 5);
        outputs.push(results.vertex_rows().to_vec());
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

#[test]
fn unsatisfiable_class_is_empty_not_error() {
    let triples = yago::generate(&YagoConfig {
        persons: 30,
        ..Default::default()
    });
    let db = GStoreD::builder()
        .triples(triples)
        .partitioner(HashPartitioner::new(3))
        .variant(Variant::Full)
        .build()
        .unwrap();
    let results = db
        .query(
            "SELECT ?x WHERE { ?x a <http://no-such-class> . ?x <http://dbpedia.org/ontology/name> ?n }",
        )
        .unwrap();
    assert!(results.is_empty());
}

#[test]
fn variable_class_type_pattern_is_rejected_at_parse_layer() {
    let db = GStoreD::builder().build().unwrap();
    assert!(matches!(
        db.prepare("SELECT ?x WHERE { ?x a ?t }"),
        Err(Error::Parse(gstored::sparql::SparqlError::Unsupported(_)))
    ));
}

/// A basic graph pattern with more query vertices than the LPM
/// enumerator's subset loop admits is refused at prepare time with the
/// typed error. No frame reaches the fleet, so nothing needs repairing,
/// and the session keeps answering.
#[test]
fn oversized_query_is_refused_without_touching_the_fleet() {
    let chain = |n: usize| -> String {
        (0..n)
            .map(|i| format!("?v{i} <http://p> ?v{} .", i + 1))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let triples: Vec<Triple> = (0..40)
        .map(|i| {
            Triple::new(
                Term::iri(format!("http://a/{i}")),
                Term::iri("http://p"),
                Term::iri(format!("http://a/{}", i + 1)),
            )
        })
        .collect();
    let db = GStoreD::builder()
        .triples(triples)
        .partitioner(HashPartitioner::new(3))
        .variant(Variant::Full)
        .build()
        .unwrap();
    let small = format!("SELECT * WHERE {{ {} }}", chain(2));
    assert_eq!(db.query(&small).unwrap().len(), 39);

    let oversized = format!("SELECT * WHERE {{ {} }}", chain(31));
    assert!(matches!(
        db.query(&oversized),
        Err(Error::Engine(gstored::core::EngineError::QueryTooLarge(32)))
    ));
    assert_eq!(db.robustness_stats(), RobustnessStats::default());
    assert_eq!(db.query(&small).unwrap().len(), 39);
}
