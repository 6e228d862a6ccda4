//! The prepared-query contract of the `GStoreD` facade:
//!
//! * one `PreparedQuery`, re-executed any number of times, returns
//!   bindings identical to the one-shot path — under every engine
//!   variant and every partitioning strategy;
//! * prepare-time work (parse / encode / shape analysis) happens exactly
//!   once regardless of execution count (asserted via `SessionStats`);
//! * `QuerySolution` by-name lookup always agrees with projection-order
//!   indexing (property-tested over random graphs and queries).

use proptest::prelude::*;

use gstored::core::engine::Variant;
use gstored::core::worker::with_in_process_workers;
use gstored::core::PreparedPlan;
use gstored::datagen::random::{random_graph, random_query, RandomGraphConfig};
use gstored::datagen::{yago, YagoConfig};
use gstored::prelude::*;

const EXECUTIONS: u64 = 4;

fn test_graph() -> RdfGraph {
    let mut g = RdfGraph::from_triples(yago::generate(&YagoConfig {
        persons: 200,
        ..Default::default()
    }));
    g.finalize();
    g
}

const TEST_QUERY: &str = "SELECT ?a ?t ?l WHERE { \
     ?a <http://dbpedia.org/ontology/influencedBy> ?b . \
     ?b <http://dbpedia.org/ontology/mainInterest> ?t . \
     ?t <http://www.w3.org/2000/01/rdf-schema#label> ?l }";

#[test]
fn prepared_reexecution_matches_one_shot_for_all_variants_and_partitioners() {
    let g = test_graph();
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(HashPartitioner::new(4)),
        Box::new(SemanticHashPartitioner::new(4)),
        Box::new(MetisLikePartitioner::new(4)),
    ];
    let mut reference: Option<Vec<Vec<TermId>>> = None;
    for p in &partitioners {
        let dist = DistributedGraph::build(g.clone(), p.as_ref());
        for variant in Variant::ALL {
            let label = format!("{} / {}", p.name(), variant.label());
            let db = GStoreD::builder()
                .distributed(dist.clone())
                .variant(variant)
                .build()
                .unwrap();

            // One-shot path (prepare + execute fused).
            let one_shot = db.query(TEST_QUERY).unwrap();
            let mut expected = one_shot.bindings().to_vec();
            expected.sort_unstable();

            // Prepared path: one prepare, many executions.
            let before = db.stats();
            let prepared = db.prepare(TEST_QUERY).unwrap();
            for round in 0..EXECUTIONS {
                let results = prepared.execute().unwrap();
                let mut got = results.bindings().to_vec();
                got.sort_unstable();
                assert_eq!(got, expected, "{label}, round {round}");
            }
            let after = db.stats();
            assert_eq!(
                after.queries_prepared - before.queries_prepared,
                1,
                "{label}: prepare-time work ran once, not per execution"
            );
            assert_eq!(after.executions - before.executions, EXECUTIONS);

            // Every variant × partitioner agrees with every other.
            match &reference {
                None => reference = Some(expected),
                Some(r) => assert_eq!(r, &expected, "{label} diverged"),
            }
        }
    }
    assert!(
        !reference.expect("ran at least one combination").is_empty(),
        "the test query must produce matches"
    );
}

#[test]
fn prepared_path_agrees_with_engine_execute_on() {
    // The engine run directly on a fleet of its own and the facade's
    // prepared path are the same computation.
    let g = test_graph();
    let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
    let query = QueryGraph::from_query(&parse_query(TEST_QUERY).unwrap()).unwrap();
    let plan = PreparedPlan::new(query, dist.dict()).unwrap();
    let engine = Engine::new(EngineConfig::default());
    let one_shot =
        with_in_process_workers(&dist, |fleet| engine.execute_on(fleet, &dist, &plan)).unwrap();

    let db = GStoreD::builder()
        .distributed(dist.clone())
        .build()
        .unwrap();
    let prepared = db.prepare(TEST_QUERY).unwrap();
    let results = prepared.execute().unwrap();
    assert_eq!(results.vertex_rows(), &one_shot.rows[..]);
    assert_eq!(results.bindings(), &one_shot.bindings[..]);
}

#[test]
fn prepared_query_exposes_cached_analysis() {
    let db = GStoreD::builder()
        .graph(test_graph())
        .partitioner(HashPartitioner::new(4))
        .build()
        .unwrap();
    let prepared = db.prepare(TEST_QUERY).unwrap();
    assert_eq!(
        prepared.variables(),
        &["a".to_string(), "t".to_string(), "l".to_string()]
    );
    assert_eq!(prepared.text(), TEST_QUERY);
    // The 3-edge chain a->b->t->l is a path, not a star: the plan's
    // cached shape routes execution through the full distributed
    // machinery (partial evaluation + LEC + assembly).
    assert!(!prepared.shape().is_star());
    assert_eq!(prepared.shape().shape, gstored::sparql::QueryShape::Path);
    assert_eq!(prepared.plan().query().edge_count(), 3);
}

#[test]
fn concurrent_executions_share_one_prepared_query() {
    let db = GStoreD::builder()
        .graph(test_graph())
        .partitioner(HashPartitioner::new(4))
        .build()
        .unwrap();
    let prepared = db.prepare(TEST_QUERY).unwrap();
    let baseline = prepared.execute().unwrap().vertex_rows().to_vec();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let results = prepared.execute().unwrap();
                assert_eq!(results.vertex_rows(), &baseline[..]);
            });
        }
    });
    assert_eq!(db.stats().queries_prepared, 1);
    assert_eq!(db.stats().executions, 5);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// By-name lookup agrees with projection-order indexing on every
    /// solution of every random query.
    #[test]
    fn by_name_lookup_agrees_with_projection_order_indexing(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
        sites in 1usize..5,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 20,
            edges: 40,
            predicates: 3,
            seed: graph_seed,
        });
        let text = random_query(n_edges, 3, None, query_seed);
        let db = GStoreD::builder()
            .graph(g)
            .partitioner(HashPartitioner::new(sites))
            .build()
            .unwrap();
        let results = db.query(&text).unwrap();
        let vars = results.variables().to_vec();
        for sol in &results {
            prop_assert_eq!(sol.len(), vars.len());
            for (i, name) in vars.iter().enumerate() {
                // sol[name], sol[i], get(name) and get_index(i) all agree.
                prop_assert_eq!(&sol[name.as_str()], &sol[i], "{} on {}", name, text);
                prop_assert_eq!(sol.get(name), sol.get_index(i));
                // And the decoded term is the dictionary decoding of the
                // encoded row.
                prop_assert_eq!(
                    sol.get_index(i).unwrap(),
                    db.dictionary().resolve(sol.vertex_id(i).unwrap())
                );
            }
            prop_assert_eq!(sol.get("not-a-variable"), None);
        }
    }

    /// Prepared re-execution is deterministic and identical to one-shot
    /// on random inputs, and never re-prepares.
    #[test]
    fn prepared_equals_one_shot_on_random_inputs(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 18,
            edges: 36,
            predicates: 3,
            seed: graph_seed,
        });
        let text = random_query(n_edges, 3, None, query_seed);
        let db = GStoreD::builder()
            .graph(g)
            .partitioner(HashPartitioner::new(3))
            .build()
            .unwrap();
        let one_shot = db.query(&text).unwrap().vertex_rows().to_vec();
        let prepared = db.prepare(&text).unwrap();
        for _ in 0..3 {
            prop_assert_eq!(prepared.execute().unwrap().vertex_rows(), &one_shot[..]);
        }
        prop_assert_eq!(db.stats().queries_prepared, 2, "one-shot + prepared");
        prop_assert_eq!(db.stats().executions, 4);
    }
}
