//! The system's defining correctness property (partitioning tolerance):
//! for ANY graph, ANY vertex-disjoint partitioning and ANY connected BGP,
//! distributed evaluation under every engine variant returns exactly the
//! centralized matches.

use proptest::prelude::*;

use gstored::core::engine::Variant;
use gstored::datagen::random::{random_graph, random_query, RandomGraphConfig};
use gstored::partition::{ExplicitPartitioner, PartitionAssignment};
use gstored::prelude::*;
use gstored::store::{find_matches, EncodedQuery};

/// Evaluate centrally as the reference.
fn reference(g: &RdfGraph, query: &QueryGraph) -> Vec<Vec<gstored::rdf::TermId>> {
    let q = EncodedQuery::encode(query, g.dict()).expect("no predicate projection");
    let mut m = find_matches(g, &q);
    m.sort_unstable();
    m
}

fn run_distributed(
    g: &RdfGraph,
    query_text: &str,
    assignment: &[usize],
    sites: usize,
    variant: Variant,
) -> Vec<Vec<gstored::rdf::TermId>> {
    // Deterministically map the proptest-chosen assignment onto vertices.
    let mut verts: Vec<_> = g.vertices().collect();
    verts.sort_unstable();
    let map: std::collections::HashMap<_, _> = verts
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, assignment[i % assignment.len()] % sites))
        .collect();
    // The builder validates the Definition 1 invariants during build.
    let db = GStoreD::builder()
        .graph(g.clone())
        .assignment(PartitionAssignment {
            k: sites,
            of_vertex: map,
        })
        .variant(variant)
        .build()
        .expect("Definition 1 invariants");
    let results = db.query(query_text).expect("generated query evaluates");
    let mut got = results.bindings().to_vec();
    got.sort_unstable();
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random graph × random partitioning × random query × every variant.
    #[test]
    fn all_variants_match_centralized(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        assignment in prop::collection::vec(0usize..4, 16),
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
        for variant in Variant::ALL {
            let got = run_distributed(&g, &text, &assignment, 4, variant);
            prop_assert_eq!(
                &got, &expected,
                "variant {} on {}", variant.label(), text
            );
        }
    }

    /// The star fast path (Section VIII-B) under every variant agrees
    /// with the centralized matcher.
    #[test]
    fn star_fast_path_equals_centralized(
        graph_seed in 0u64..5000,
        assignment in prop::collection::vec(0usize..3, 16),
        leaves in 1usize..4,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 20,
            edges: 40,
            predicates: 2,
            seed: graph_seed,
        });
        // Build an n-leaf star query around a center variable.
        let mut patterns = Vec::new();
        for i in 0..leaves {
            let p = gstored::datagen::random::predicate_iri(i % 2);
            if i % 2 == 0 {
                patterns.push(format!("?c <{p}> ?l{i} ."));
            } else {
                patterns.push(format!("?l{i} <{p}> ?c ."));
            }
        }
        let text = format!("SELECT * WHERE {{ {} }}", patterns.join(" "));
        let query = QueryGraph::from_query(
            &gstored::sparql::parse_query(&text).unwrap(),
        )
        .unwrap();
        let expected = reference(&g, &query);
        for variant in Variant::ALL {
            let got = run_distributed(&g, &text, &assignment, 3, variant);
            prop_assert_eq!(
                &got, &expected,
                "variant {} on {}", variant.label(), text
            );
        }
    }

    /// Varying the number of sites never changes results.
    #[test]
    fn site_count_is_transparent(
        graph_seed in 0u64..2000,
        query_seed in 0u64..2000,
        assignment in prop::collection::vec(0usize..8, 16),
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 18,
            edges: 36,
            predicates: 3,
            seed: graph_seed,
        });
        let text = random_query(2, 3, None, query_seed);
        let query = QueryGraph::from_query(
            &gstored::sparql::parse_query(&text).unwrap(),
        )
        .unwrap();
        let expected = reference(&g, &query);
        for sites in [1usize, 2, 5, 8] {
            let got = run_distributed(&g, &text, &assignment, sites, Variant::Full);
            prop_assert_eq!(&got, &expected, "{} sites on {}", sites, text);
        }
    }
}

/// Adversarial fixed layouts that historically break partial evaluation:
/// every vertex alone; alternating sites along chains; one giant site.
#[test]
fn adversarial_partitionings_on_chain() {
    // Chain 0->1->...->9 with one predicate; path queries of length 1..4.
    let mut triples = Vec::new();
    for i in 0..9 {
        triples.push(gstored::rdf::Triple::new(
            Term::iri(format!("http://c/{i}")),
            Term::iri("http://p"),
            Term::iri(format!("http://c/{}", i + 1)),
        ));
    }
    let mut g = RdfGraph::from_triples(triples);
    g.finalize();

    for len in 1..=4usize {
        let patterns: Vec<String> = (0..len)
            .map(|i| format!("?v{i} <http://p> ?v{} .", i + 1))
            .collect();
        let text = format!("SELECT * WHERE {{ {} }}", patterns.join(" "));
        let query = QueryGraph::from_query(&gstored::sparql::parse_query(&text).unwrap()).unwrap();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let mut expected = find_matches(&g, &q);
        expected.sort_unstable();
        assert_eq!(expected.len(), 10 - len, "chain sanity: {}", len);

        for layout in 0..3 {
            let mut map = std::collections::HashMap::new();
            let mut verts: Vec<_> = g.vertices().collect();
            verts.sort_unstable();
            for (i, v) in verts.iter().enumerate() {
                let site = match layout {
                    0 => i % 10,              // every vertex on its own site
                    1 => i % 2,               // alternating
                    _ => usize::from(i == 0), // one vertex isolated
                };
                map.insert(*v, site);
            }
            let k = map.values().copied().max().unwrap() + 1;
            let dist = DistributedGraph::build(g.clone(), &ExplicitPartitioner::new(k, map));
            for variant in Variant::ALL {
                let db = GStoreD::builder()
                    .distributed(dist.clone())
                    .variant(variant)
                    .build()
                    .expect("Definition 1 invariants");
                let mut got = db.query(&text).unwrap().bindings().to_vec();
                got.sort_unstable();
                assert_eq!(
                    got,
                    expected,
                    "layout {layout}, len {len}, {}",
                    variant.label()
                );
            }
        }
    }
}

/// The path `a → b → c → d` over `sites` sites: `b` alone on the last
/// site, `a`, `c` and `d` on sites 0, 1 and 2, so every edge crosses.
/// Returns the graph and its partitioning.
fn path_with_b_on_last_site(sites: usize) -> (RdfGraph, DistributedGraph) {
    let iri = |v: &str| Term::iri(format!("http://e/{v}"));
    let g = RdfGraph::from_triples(
        [("a", "b"), ("b", "c"), ("c", "d")]
            .iter()
            .map(|&(s, o)| Triple::new(iri(s), Term::iri("http://e/p"), iri(o))),
    );
    let site_of = [("a", 0), ("b", sites - 1), ("c", 1), ("d", 2)];
    let map = site_of
        .iter()
        .map(|&(v, site)| (g.dict().id_of(&iri(v)).expect("vertex exists"), site))
        .collect();
    let dist = DistributedGraph::build(g.clone(), &ExplicitPartitioner::new(sites, map));
    (g, dist)
}

const PATH_QUERY: &str =
    "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z . ?z <http://e/p> ?w }";

/// A fleet of exactly `MAX_SITES` sites answers like the centralized
/// matcher under every variant, with the last site's features in play.
#[test]
fn max_sites_fleet_matches_centralized_under_every_variant() {
    let (g, dist) = path_with_b_on_last_site(gstored::core::MAX_SITES);
    let query = QueryGraph::from_query(&gstored::sparql::parse_query(PATH_QUERY).unwrap()).unwrap();
    let expected = reference(&g, &query);
    assert_eq!(expected.len(), 1);
    for variant in Variant::ALL {
        let db = GStoreD::builder()
            .distributed(dist.clone())
            .variant(variant)
            .build()
            .expect("a MAX_SITES fleet is accepted");
        let mut got = db.query(PATH_QUERY).unwrap().bindings().to_vec();
        got.sort_unstable();
        assert_eq!(got, expected, "{}", variant.label());
    }
}

/// One site more than `MAX_SITES` is refused with a typed error, by the
/// session builder and by the engine when a query starts. A LEC feature
/// records its fragment as a bit of a `u64`, so site 64's features would
/// alias site 0's: such a fleet used to answer this query with 1 row
/// under Basic, LA and LO but 0 under Full.
#[test]
fn fleet_beyond_max_sites_is_refused_not_answered_wrong() {
    use gstored::core::worker::with_in_process_workers;
    use gstored::core::EngineError;
    let sites = gstored::core::MAX_SITES + 1;
    let (_, dist) = path_with_b_on_last_site(sites);
    for variant in Variant::ALL {
        let built = GStoreD::builder()
            .distributed(dist.clone())
            .variant(variant)
            .build();
        assert!(
            matches!(built, Err(Error::Engine(EngineError::TooManySites(n))) if n == sites),
            "{} built a {sites}-site session",
            variant.label()
        );
    }
    let query = QueryGraph::from_query(&gstored::sparql::parse_query(PATH_QUERY).unwrap()).unwrap();
    let plan = PreparedPlan::new(query, dist.dict()).unwrap();
    let engine = Engine::with_variant(Variant::Full);
    let out = with_in_process_workers(&dist, |fleet| engine.execute_on(fleet, &dist, &plan));
    assert_eq!(out.unwrap_err(), EngineError::TooManySites(sites));
}
