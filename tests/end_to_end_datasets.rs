//! Full-pipeline tests on the three generated benchmark datasets: every
//! engine variant, every partitioning strategy and every baseline must
//! agree with the centralized reference on every benchmark query.

use gstored::baselines::{
    cliquesquare::CliqueSquareLike, dream::DreamLike, s2rdf::S2rdfLike, s2x::S2xLike, Baseline,
    CostModel,
};
use gstored::core::engine::Variant;
use gstored::datagen::{btc, lubm, queries, yago, BenchQuery, BtcConfig, LubmConfig, YagoConfig};
use gstored::prelude::*;
use gstored::store::{find_matches, EncodedQuery};

fn dataset_lubm() -> (RdfGraph, Vec<BenchQuery>) {
    let mut g = RdfGraph::from_triples(lubm::generate(&LubmConfig {
        universities: 4,
        ..Default::default()
    }));
    g.finalize();
    (g, queries::lubm_queries())
}

fn dataset_yago() -> (RdfGraph, Vec<BenchQuery>) {
    let mut g = RdfGraph::from_triples(yago::generate(&YagoConfig {
        persons: 600,
        ..Default::default()
    }));
    g.finalize();
    (g, queries::yago_queries())
}

fn dataset_btc() -> (RdfGraph, Vec<BenchQuery>) {
    let mut g = RdfGraph::from_triples(btc::generate(&BtcConfig {
        publishers: 5,
        ..Default::default()
    }));
    g.finalize();
    (g, queries::btc_queries())
}

fn reference(g: &RdfGraph, query: &QueryGraph) -> Vec<Vec<gstored::rdf::TermId>> {
    let q = EncodedQuery::encode(query, g.dict()).expect("benchmark queries encode");
    let mut m = find_matches(g, &q);
    m.sort_unstable();
    m
}

fn check_dataset(name: &str, g: RdfGraph, queries: Vec<BenchQuery>) {
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(HashPartitioner::new(5)),
        Box::new(SemanticHashPartitioner::new(5)),
        Box::new(MetisLikePartitioner::new(5)),
    ];
    let baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(DreamLike::new(CostModel::zero())),
        Box::new(S2xLike::new(CostModel::zero())),
        Box::new(S2rdfLike::new(CostModel::zero())),
        Box::new(CliqueSquareLike::new(CostModel::zero())),
    ];
    // Centralized reference per query, computed once.
    let expected: Vec<(String, QueryGraph, Vec<Vec<gstored::rdf::TermId>>)> = queries
        .iter()
        .map(|bq| {
            let query = QueryGraph::from_query(
                &gstored::sparql::parse_query(&bq.text).expect("benchmark query parses"),
            )
            .expect("benchmark query connected");
            let reference = reference(&g, &query);
            (bq.text.clone(), query, reference)
        })
        .collect();
    let any_nonempty = expected.iter().any(|(_, _, r)| !r.is_empty());

    // One session per (partitioner, variant); every query runs through it.
    for p in &partitioners {
        // The builder validates the Definition 1 invariants.
        let dist = DistributedGraph::build(g.clone(), p.as_ref());
        for variant in [Variant::Basic, Variant::Full] {
            let db = GStoreD::builder()
                .distributed(dist.clone())
                .variant(variant)
                .build()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", p.name()));
            for (bq, (text, _, reference)) in queries.iter().zip(&expected) {
                let results = db.query(text).unwrap();
                let mut got = results.bindings().to_vec();
                got.sort_unstable();
                assert_eq!(
                    &got,
                    reference,
                    "{name}/{}: {} under {}",
                    bq.id,
                    variant.label(),
                    p.name()
                );
            }
        }
    }
    // Baselines run against the hash layout.
    let dist = DistributedGraph::build(g.clone(), &HashPartitioner::new(5));
    for (bq, (_, query, reference)) in queries.iter().zip(&expected) {
        for b in &baselines {
            let out = b.run(&g, &dist, query);
            assert_eq!(&out.bindings, reference, "{name}/{}: {}", bq.id, b.name());
        }
    }
    assert!(
        any_nonempty,
        "{name}: every benchmark query returned empty — dataset broken"
    );
}

#[test]
fn lubm_pipeline_agrees_everywhere() {
    let (g, queries) = dataset_lubm();
    check_dataset("LUBM", g, queries);
}

#[test]
fn yago_pipeline_agrees_everywhere() {
    let (g, queries) = dataset_yago();
    check_dataset("YAGO2", g, queries);
}

#[test]
fn btc_pipeline_agrees_everywhere() {
    let (g, queries) = dataset_btc();
    check_dataset("BTC", g, queries);
}

#[test]
fn expected_result_profiles_hold() {
    // The paper's per-query expectations at benchmark scale: LQ3/YQ2/BQ6/
    // BQ7 empty; the unselective heavyweights (LQ2, YQ3) large.
    let (g, queries) = dataset_lubm();
    let count = |id: &str, g: &RdfGraph, qs: &[BenchQuery]| {
        let bq = qs.iter().find(|q| q.id == id).unwrap();
        let query =
            QueryGraph::from_query(&gstored::sparql::parse_query(&bq.text).unwrap()).unwrap();
        reference(g, &query).len()
    };
    assert_eq!(count("LQ3", &g, &queries), 0, "LQ3 must be empty");
    assert!(
        count("LQ2", &g, &queries) > 100,
        "LQ2 is the unselective star"
    );
    assert!(
        count("LQ4", &g, &queries) > 0,
        "LQ4 finds Department0 professors"
    );
    assert!(
        count("LQ1", &g, &queries) > 0,
        "LQ1 triangle closes sometimes"
    );

    let (g, queries) = dataset_yago();
    assert_eq!(count("YQ2", &g, &queries), 0, "YQ2 must be empty");
    assert!(
        count("YQ1", &g, &queries) > 0,
        "YQ1 anchored influence chain"
    );
    assert!(count("YQ3", &g, &queries) > 500, "YQ3 is the heavyweight");

    let (g, queries) = dataset_btc();
    assert_eq!(count("BQ6", &g, &queries), 0, "BQ6 must be empty");
    assert!(count("BQ1", &g, &queries) > 0, "BQ1 anchored star");
    assert!(count("BQ4", &g, &queries) > 0, "BQ4 citation chain");
}

#[test]
fn distinct_and_limit_apply_end_to_end() {
    let (g, _) = dataset_yago();
    let db = GStoreD::builder()
        .graph(g)
        .partitioner(HashPartitioner::new(4))
        .variant(Variant::Full)
        .build()
        .unwrap();
    let results = db
        .query(
            "SELECT DISTINCT ?t WHERE { ?a <http://dbpedia.org/ontology/mainInterest> ?t } LIMIT 7",
        )
        .unwrap();
    assert_eq!(results.len(), 7);
    let set: std::collections::HashSet<_> = results.vertex_rows().iter().collect();
    assert_eq!(set.len(), 7, "DISTINCT respected");
}

/// A small LUBM on 4 hash sites under `Full`, every benchmark query, per
/// stage: each stage's bytes pinned exactly (a chain step's length prefix
/// is charged to that step's own stage), the stages adding up to the
/// queries' total, and every answer equal to the centralized one.
#[test]
fn full_variant_stage_shipment_is_pinned_on_lubm() {
    let mut g = RdfGraph::from_triples(lubm::generate(&LubmConfig {
        universities: 1,
        ..Default::default()
    }));
    g.finalize();
    let dist = DistributedGraph::build(g.clone(), &HashPartitioner::new(4));
    let db = GStoreD::builder()
        .distributed(dist)
        .variant(Variant::Full)
        .build()
        .unwrap();
    let mut shipped = [0u64; 4];
    for bq in queries::lubm_queries() {
        let query = QueryGraph::from_query(&parse_query(&bq.text).unwrap()).unwrap();
        let results = db.query(&bq.text).unwrap();
        let mut got = results.bindings().to_vec();
        got.sort_unstable();
        assert_eq!(got, reference(&g, &query), "{}", bq.id);
        let m = results.metrics();
        for (total, stage) in shipped.iter_mut().zip([
            &m.candidates,
            &m.partial_evaluation,
            &m.lec_optimization,
            &m.assembly,
        ]) {
            *total += stage.bytes_shipped;
        }
    }
    // Candidates, partial evaluation, LEC, assembly.
    assert_eq!(shipped, [9390, 3458, 8501, 2701]);
    // The queries' total, the same whichever stage a prefix is booked to.
    assert_eq!(shipped.iter().sum::<u64>(), 24050);
}
