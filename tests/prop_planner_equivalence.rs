//! The planner-equivalence battery.
//!
//! The planner ([`gstored::core::planner`]) must never change
//! *answers* — only *work*. Two property families pin that down:
//!
//! 1. **Auto is invisible in the rows**: for ANY random graph, ANY of the
//!    three real partitioners and ANY random connected BGP,
//!    `Variant::Auto` returns exactly the rows of every explicit variant
//!    and of the centralized oracle.
//! 2. **The rule is a function**: decisions are deterministic, every
//!    estimate is finite, the chosen variant is `LA` or `Full`, and the
//!    scan-volume estimate grows monotonically with the data.

use proptest::prelude::*;

use gstored::core::engine::Variant;
use gstored::core::planner::plan_query;
use gstored::datagen::random::{random_graph, random_query, RandomGraphConfig};
use gstored::partition::Partitioner;
use gstored::prelude::*;
use gstored::store::{find_matches, EncodedQuery};

const SITES: usize = 3;

fn partitioner(name: &str) -> Box<dyn Partitioner> {
    match name {
        "hash" => Box::new(HashPartitioner::new(SITES)),
        "semantic" => Box::new(SemanticHashPartitioner::new(SITES)),
        "metis" => Box::new(MetisLikePartitioner::new(SITES)),
        other => panic!("unknown partitioner {other}"),
    }
}

/// Centralized oracle: match the query on the unpartitioned graph.
fn reference(g: &RdfGraph, query: &QueryGraph) -> Vec<Vec<gstored::rdf::TermId>> {
    let q = EncodedQuery::encode(query, g.dict()).expect("no predicate projection");
    let mut m = find_matches(g, &q);
    m.sort_unstable();
    m
}

fn query_rows(
    dist: &DistributedGraph,
    text: &str,
    variant: Variant,
) -> Vec<Vec<gstored::rdf::TermId>> {
    let db = GStoreD::builder()
        .distributed(dist.clone())
        .variant(variant)
        .build()
        .expect("Definition 1 invariants");
    let mut got = db
        .query(text)
        .expect("generated query evaluates")
        .bindings()
        .to_vec();
    got.sort_unstable();
    got
}

/// A ring of `n` edges over one predicate — internal counts scale
/// exactly with `n`, which is what the monotonicity property needs.
fn ring(n: usize) -> RdfGraph {
    let mut triples = Vec::new();
    for i in 0..n {
        triples.push(gstored::rdf::Triple::new(
            Term::iri(format!("http://r/{i}")),
            Term::iri("http://p"),
            Term::iri(format!("http://r/{}", (i + 1) % n)),
        ));
    }
    let mut g = RdfGraph::from_triples(triples);
    g.finalize();
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Property family 1: Auto == every explicit variant == centralized,
    /// under all three real partitioning strategies.
    #[test]
    fn auto_matches_every_variant_and_centralized(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
        anchored in any::<bool>(),
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 24,
            edges: 48,
            predicates: 3,
            seed: graph_seed,
        });
        let anchor = anchored.then(|| gstored::datagen::random::vertex_iri(0));
        let text = random_query(n_edges, 3, anchor.as_deref(), query_seed);
        let query = QueryGraph::from_query(
            &gstored::sparql::parse_query(&text).expect("generated query parses"),
        )
        .expect("generated query is connected");
        let expected = reference(&g, &query);
        for strategy in ["hash", "semantic", "metis"] {
            let dist = DistributedGraph::build(g.clone(), partitioner(strategy).as_ref());
            for variant in Variant::ALL {
                let got = query_rows(&dist, &text, variant);
                prop_assert_eq!(
                    &got, &expected,
                    "{} under {} on {}", variant.label(), strategy, text
                );
            }
            let auto = query_rows(&dist, &text, Variant::Auto);
            prop_assert_eq!(
                &auto, &expected,
                "Auto under {} on {}", strategy, text
            );
        }
    }

    /// Property family 2a: the planner is a pure function of
    /// (statistics, query) — rerunning it yields the identical decision,
    /// every estimate and the crossing share are finite, and the chosen
    /// variant is one of the two Auto picks from (`LA` or `Full`).
    #[test]
    fn decisions_are_deterministic_finite_and_la_or_full(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
        strategy_pick in 0usize..3,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 24,
            edges: 48,
            predicates: 3,
            seed: graph_seed,
        });
        let text = random_query(n_edges, 3, None, query_seed);
        let query = QueryGraph::from_query(
            &gstored::sparql::parse_query(&text).expect("generated query parses"),
        )
        .expect("generated query is connected");
        let strategy = ["hash", "semantic", "metis"][strategy_pick];
        let dist = DistributedGraph::build(g.clone(), partitioner(strategy).as_ref());
        let plan = PreparedPlan::new(query, dist.dict()).expect("preparable");
        let first = plan_query(&dist, &plan);
        let second = plan_query(&dist, &plan);
        prop_assert_eq!(&first, &second, "nondeterministic decision on {}", text);
        for est in [
            first.est_lpms,
            first.est_crossing_fanout,
            first.est_internal_scan,
            first.est_candidate_selectivity,
            first.crossing_share,
        ] {
            prop_assert!(est.is_finite() && est >= 0.0, "estimate {est}");
        }
        prop_assert!(first.crossing_share <= 1.0, "crossing share {}", first.crossing_share);
        prop_assert!(
            matches!(first.chosen, Variant::LecAssembly | Variant::Full),
            "Auto picked {} on {}", first.chosen.label(), text
        );
    }

    /// Property family 2b: growing the data never shrinks the total
    /// scan-volume estimate for a fixed query shape. (Internal and
    /// crossing counts individually can trade places when repartitioning
    /// a bigger graph shuffles the assignment; their sum — the partial
    /// evaluation scan volume — cannot shrink.)
    #[test]
    fn scan_volume_estimate_is_monotone_in_data_size(
        base in 4usize..40,
        growth in 1usize..40,
        strategy_pick in 0usize..3,
    ) {
        let strategy = ["hash", "semantic", "metis"][strategy_pick];
        let text = "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c . }";
        let mut est = Vec::new();
        for n in [base, base + growth] {
            let g = ring(n);
            let dist = DistributedGraph::build(g, partitioner(strategy).as_ref());
            let query = QueryGraph::from_query(
                &gstored::sparql::parse_query(text).unwrap(),
            )
            .unwrap();
            let plan = PreparedPlan::new(query, dist.dict()).expect("preparable");
            let d = plan_query(&dist, &plan);
            est.push(d.est_internal_scan + d.est_crossing_fanout);
        }
        prop_assert!(
            est[0] <= est[1],
            "scan volume estimate shrank: {} edges -> {}, {} edges -> {} ({})",
            base, est[0], base + growth, est[1], strategy
        );
    }
}
