//! Hot-path equivalence: each optimized algorithm against an independent
//! in-tree reference.
//!
//! * The neighbor-driven matcher `find_matches` against the relational
//!   evaluation of `gstored::baselines::relalg` (one scan per pattern,
//!   hash-joined).
//! * The LPM enumerator against Definition 5's partition of the answer
//!   set: the assembled LPMs plus every fragment's local complete matches
//!   are exactly the centralized result.
//! * Algorithm 3, the delta join `IncrementalJoin` (drained through
//!   `assemble_lec`), against the \[18\] join `assemble_basic`.
//! * The join graph built from Algorithm 2's per-group postings against
//!   Definition 9 itself, through `LecFeature::joinable`.
//! * Algorithm 2 against its contract: the survivors assemble to the same
//!   set as every LPM. (Algorithm 1 is held to Theorems 1/3/5 in
//!   `prop_pruning_soundness`.)
//! * Posting-seeded candidates against the universe scan: through an
//!   adjacency that hides the fragment's postings, every candidate set,
//!   star match, local complete match and LPM comes out equal, in order.
//!
//! Every property also runs all 4 engine variants × 3 partitioning
//! strategies against the centralized matcher.
//!
//! The streaming `IncrementalJoin` is held to the same standard: fed the
//! LPMs and survivors of real partitioned enumeration in shuffled and
//! reversed arrival orders, it emits exactly `assemble_basic`'s set (with
//! the local complete matches, the centralized one), each binding once,
//! buffering only the LPMs it was pushed.
//!
//! The dense-star and many-feature regressions at the bottom run
//! workloads the pre-PR3/pre-PR4 quadratic dedups needed minutes for;
//! the delta join and the interned-key prune must finish them in
//! interactive time with the exact expected result sets. The many-group
//! regression does the same for an all-pairs join-graph sweep.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use gstored::baselines::relalg;
use gstored::core::assembly::{assemble_basic, assemble_lec, IncrementalJoin, MatchBinding};
use gstored::core::engine::{QueryOutput, Variant};
use gstored::core::lec::{compute_lec_features, LecFeature};
use gstored::core::prune::{build_join_graph, group_by_sign, prune_features};
use gstored::core::worker::with_in_process_workers;
use gstored::core::PreparedPlan;
use gstored::datagen::random::{
    predicate_iri, random_graph, random_query, vertex_iri, RandomGraphConfig,
};
use gstored::partition::{
    Fragment, HashPartitioner, MetisLikePartitioner, Partitioner, SemanticHashPartitioner,
};
use gstored::prelude::*;
use gstored::rdf::EdgeRef;
use gstored::rdf::{vocab, VertexId};
use gstored::store::candidates::CandidateFilter;
use gstored::store::{
    enumerate_local_partial_matches, find_matches, find_star_matches, local_complete_matches,
    matches_from, partial_matches_from, stored_candidates, vertex_candidates, Adjacency,
    EncodedQuery, LocalPartialMatch,
};
use gstored_bench::fixtures::{
    coordinator_features, dense_star_lpms, many_feature_features, many_group_features,
};
use gstored_bench::{datasets, experiments};

/// Evaluate `query` under `variant` once on a fresh in-process fleet.
fn run_variant(variant: Variant, dist: &DistributedGraph, query: &QueryGraph) -> QueryOutput {
    let plan = PreparedPlan::new(query.clone(), dist.dict()).expect("generated query prepares");
    let engine = Engine::with_variant(variant);
    with_in_process_workers(dist, |fleet| engine.execute_on(fleet, dist, &plan))
        .expect("generated query evaluates")
}

fn partitioners(sites: usize) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(HashPartitioner::new(sites)),
        Box::new(SemanticHashPartitioner::new(sites)),
        Box::new(MetisLikePartitioner::new(sites)),
    ]
}

/// Definition 9 at group level: distinct groups `i` and `j` are adjacent
/// iff their LECSigns are disjoint and some member pair is joinable.
/// Checks `build_join_graph`'s adjacency against that rule, edge for edge.
fn assert_join_graph_is_definition_9(features: &[LecFeature], query_edges: &[(usize, usize)]) {
    let groups = group_by_sign(features);
    let adj = build_join_graph(features, &groups, query_edges);
    assert_eq!(adj.len(), groups.len());
    for (i, gi) in groups.iter().enumerate() {
        let expected: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|&(j, gj)| {
                j != i
                    && gi.sign & gj.sign == 0
                    && gi.members.iter().any(|&a| {
                        gj.members.iter().any(|&b| {
                            features[a as usize].joinable(&features[b as usize], query_edges)
                        })
                    })
            })
            .map(|(j, _)| j)
            .collect();
        assert_eq!(
            adj[i],
            expected,
            "group {i} (sign {:#b}) of {} features",
            gi.sign,
            features.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random graph × random query: the matcher equals the relational
    /// evaluation, the enumerated LPMs assemble (with the local complete
    /// matches) to the centralized result, `assemble_lec` equals
    /// `assemble_basic`, and every variant × partitioner engine run equals
    /// the centralized reference.
    #[test]
    fn hot_paths_equal_relational_and_centralized_references(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
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
        let eq = EncodedQuery::encode(&query, g.dict()).expect("no predicate projection");

        // Matcher vs the relational reference. `to_bindings` sorts and
        // dedups; the matcher's homomorphisms are distinct already.
        let mut expected = find_matches(&g, &eq);
        expected.sort_unstable();
        let relational = relalg::to_bindings(
            &relalg::join_all(relalg::pattern_relations(&g, &eq)),
            &eq,
            &g,
        );
        prop_assert_eq!(&expected, &relational, "matcher drift on {}", text);

        for p in &partitioners(3) {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            prop_assert_eq!(dist.validate(), None);
            let filter = CandidateFilter::none(eq.vertex_count());

            // Enumerator: the crossing matches its LPMs assemble to, plus
            // the local complete matches, are the whole answer set.
            let mut lpms = Vec::new();
            let mut everything: Vec<MatchBinding> = Vec::new();
            for f in &dist.fragments {
                lpms.extend(enumerate_local_partial_matches(f, &eq, &filter));
                everything.extend(local_complete_matches(f, &eq));
            }
            let query_edges: Vec<(usize, usize)> =
                eq.edges().iter().map(|e| (e.from, e.to)).collect();
            let lec = assemble_lec(&lpms, eq.vertex_count(), &query_edges);
            prop_assert_eq!(
                &lec,
                &assemble_basic(&lpms, eq.vertex_count()),
                "lec vs basic drift on {} ({})", text, p.name()
            );
            everything.extend(lec.iter().cloned());
            everything.sort_unstable();
            everything.dedup();
            prop_assert_eq!(&everything, &expected, "LPM drift on {} ({})", text, p.name());

            // End to end: every variant equals the centralized reference.
            for variant in Variant::ALL {
                let out = run_variant(variant, &dist, &query);
                let mut got = out.bindings.clone();
                got.sort_unstable();
                prop_assert_eq!(
                    &got, &expected,
                    "{} under {} diverged on {}", variant.label(), p.name(), text
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random graph × random query: the join graph over the engine's own
    /// features is Definition 9 edge for edge, pruning preserves the
    /// assembled result set, across 3 partitioners with every engine
    /// variant checked against the centralized matcher.
    #[test]
    fn join_graph_and_pruning_preserve_the_answer(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 2usize..4,
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
        let eq = EncodedQuery::encode(&query, g.dict()).expect("no predicate projection");
        let query_edges: Vec<(usize, usize)> =
            eq.edges().iter().map(|e| (e.from, e.to)).collect();
        let expected = {
            let mut m = find_matches(&g, &eq);
            m.sort_unstable();
            m
        };

        for p in &partitioners(3) {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            let filter = CandidateFilter::none(eq.vertex_count());

            // Engine-style per-site Algorithm 1 with disjoint id ranges.
            let mut lpms: Vec<LocalPartialMatch> = Vec::new();
            let mut features = Vec::new();
            let mut feature_of_lpm: Vec<(usize, Vec<u32>)> = Vec::new(); // (lpm -> sources)
            let mut next = 0u32;
            for f in &dist.fragments {
                let site_lpms = enumerate_local_partial_matches(f, &eq, &filter);
                let (site_features, feature_of) = compute_lec_features(&site_lpms, next);
                next += site_lpms.len() as u32 + 1;
                for (i, &fi) in feature_of.iter().enumerate() {
                    feature_of_lpm.push((lpms.len() + i, site_features[fi].sources.clone()));
                }
                lpms.extend(site_lpms);
                features.extend(site_features);
            }

            assert_join_graph_is_definition_9(&features, &query_edges);

            let useful: HashSet<u32> = prune_features(&features, eq.vertex_count(), &query_edges)
                .into_iter()
                .collect();

            // Pruning soundness: assembling only survivors loses nothing.
            let surviving: Vec<LocalPartialMatch> = feature_of_lpm
                .iter()
                .filter(|(_, sources)| sources.iter().any(|s| useful.contains(s)))
                .map(|&(i, _)| lpms[i].clone())
                .collect();
            let unpruned = assemble_lec(&lpms, eq.vertex_count(), &query_edges);
            let pruned = assemble_lec(&surviving, eq.vertex_count(), &query_edges);
            prop_assert_eq!(&pruned, &unpruned, "pruning changed matches on {} ({})", text, p.name());

            // End to end: every variant equals the centralized reference
            // (LO and Full prune inside the engine).
            for variant in Variant::ALL {
                let out = run_variant(variant, &dist, &query);
                let mut got = out.bindings.clone();
                got.sort_unstable();
                prop_assert_eq!(
                    &got, &expected,
                    "{} under {} diverged on {}", variant.label(), p.name(), text
                );
            }
        }
    }
}

/// A fragment seen through an adjacency without postings: candidate
/// computation over it falls back to scanning the universe, the reference
/// the posting seeds are held to.
struct ScanOnly<'a>(&'a Fragment);

impl Adjacency for ScanOnly<'_> {
    fn out_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        self.0.out_edges(v)
    }
    fn in_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        self.0.in_edges(v)
    }
    fn has_classes(&self, v: VertexId, required: &[TermId]) -> bool {
        self.0.has_classes(v, required)
    }
}

/// A random graph whose vertices carry one of two classes (every third
/// vertex, shifted by the seed, stays untyped).
fn typed_random_graph(seed: u64) -> RdfGraph {
    let vertices = 24;
    let mut g = random_graph(&RandomGraphConfig {
        vertices,
        edges: 48,
        predicates: 3,
        seed,
    });
    for i in 0..vertices {
        if !(i as u64 + seed).is_multiple_of(3) {
            g.insert(&Triple::new(
                Term::iri(vertex_iri(i)),
                Term::iri(vocab::rdf::TYPE),
                Term::iri(format!("http://rnd/C{}", i % 2)),
            ));
        }
    }
    g.finalize();
    g
}

/// Queries covering every way a candidate set is seeded or scanned: the
/// random path/tree alone, anchored on a constant, with class
/// constraints, with a variable predicate, with an unsatisfiable
/// constant, a class-only single vertex and an all-variable edge.
fn candidate_queries(n_edges: usize, seed: u64) -> Vec<String> {
    let base = random_query(n_edges, 3, None, seed);
    let body = &base[base.find('{').unwrap() + 1..base.rfind('}').unwrap()];
    let vars: Vec<String> = (0..=n_edges).map(|i| format!("?v{i}")).collect();
    let c = |i: u64| format!("http://rnd/C{}", i % 2);
    let var_pred = body
        .replacen(&format!("<{}>", predicate_iri(0)), "?p", 1)
        .replacen(&format!("<{}>", predicate_iri(1)), "?q", 1);
    vec![
        base.clone(),
        random_query(n_edges, 3, Some(&vertex_iri(seed as usize % 24)), seed),
        format!("SELECT * WHERE {{ {body} ?v0 a <{}> . }}", c(seed)),
        format!(
            "SELECT * WHERE {{ {body} ?v0 a <{}> . ?v{n_edges} a <{}> . }}",
            c(seed + 1),
            c(seed)
        ),
        format!("SELECT {} WHERE {{ {var_pred} }}", vars.join(" ")),
        format!(
            "SELECT * WHERE {{ {body} ?v0 <{}> <http://rnd/missing> . }}",
            predicate_iri(0)
        ),
        format!("SELECT ?x WHERE {{ ?x a <{}> }}", c(seed)),
        "SELECT ?a ?b WHERE { ?a ?p ?b }".to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random typed graph × 3 partitioners × the queries above: on every
    /// fragment, each query vertex's candidates over the internal
    /// vertices and over everything stored equal the universe scan's, and
    /// the star matches (every query vertex tried as the center), local
    /// complete matches and LPMs computed from seeded candidates equal,
    /// element for element and in order, the ones computed from scanned
    /// candidates through the posting-free adjacency.
    #[test]
    fn seeded_candidates_equal_the_universe_scan(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
    ) {
        let g = typed_random_graph(graph_seed);
        for text in candidate_queries(n_edges, query_seed) {
            let query = QueryGraph::from_query(
                &gstored::sparql::parse_query(&text).expect("generated query parses"),
            )
            .expect("generated query is connected");
            let eq = EncodedQuery::encode(&query, g.dict()).expect("vertex-only projection");
            let n = eq.vertex_count();
            for p in &partitioners(3) {
                let dist = DistributedGraph::build(g.clone(), p.as_ref());
                let filter = CandidateFilter::none(n);
                for f in &dist.fragments {
                    let scan = ScanOnly(f);
                    let mut stored = [f.internal.as_slice(), &f.extended].concat();
                    stored.sort_unstable();
                    let mut scan_internal = Vec::new();
                    let mut scan_stored = Vec::new();
                    for qv in 0..n {
                        let internal = vertex_candidates(&scan, &eq, qv, &f.internal);
                        prop_assert_eq!(
                            &vertex_candidates(f, &eq, qv, &f.internal), &internal,
                            "internal candidates of {} on {} ({})", qv, text, p.name()
                        );
                        let everywhere = vertex_candidates(&scan, &eq, qv, &stored);
                        prop_assert_eq!(
                            &vertex_candidates(f, &eq, qv, &stored), &everywhere,
                            "stored candidates of {} on {} ({})", qv, text, p.name()
                        );
                        prop_assert_eq!(&stored_candidates(f, &eq, qv), &everywhere);
                        scan_internal.push(internal);
                        scan_stored.push(everywhere);
                    }
                    prop_assert_eq!(
                        &local_complete_matches(f, &eq),
                        &matches_from(&scan, &eq, &scan_internal),
                        "local matches on {} ({})", &text, p.name()
                    );
                    prop_assert_eq!(
                        &enumerate_local_partial_matches(f, &eq, &filter),
                        &partial_matches_from(f, &eq, &scan_internal, &filter),
                        "LPMs on {} ({})", &text, p.name()
                    );
                    for center in 0..n {
                        let mut cands = scan_stored.clone();
                        cands[center] = scan_internal[center].clone();
                        prop_assert_eq!(
                            &find_star_matches(f, &eq, center),
                            &matches_from(&scan, &eq, &cands),
                            "star at {} on {} ({})", center, &text, p.name()
                        );
                    }
                }
            }
        }
    }
}

/// Fisher–Yates over a SplitMix64 stream: one seeded arrival order.
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    out
}

/// What survives Algorithm 2 when each fragment compresses its own LPMs
/// (disjoint feature-id ranges, as the engine's sites do).
fn survivors(
    site_lpms: &[Vec<LocalPartialMatch>],
    n_vertices: usize,
    query_edges: &[(usize, usize)],
) -> Vec<LocalPartialMatch> {
    let mut features = Vec::new();
    let mut sources_of_lpm: Vec<(&LocalPartialMatch, Vec<u32>)> = Vec::new();
    let mut next = 0u32;
    for lpms in site_lpms {
        let (site_features, feature_of_lpm) = compute_lec_features(lpms, next);
        next += lpms.len() as u32 + 1;
        for (lpm, fi) in lpms.iter().zip(feature_of_lpm) {
            sources_of_lpm.push((lpm, site_features[fi].sources.clone()));
        }
        features.extend(site_features);
    }
    let useful = prune_features(&features, n_vertices, query_edges);
    sources_of_lpm
        .into_iter()
        .filter(|(_, sources)| sources.iter().any(|s| useful.contains(s)))
        .map(|(lpm, _)| lpm.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arrival order cannot change what the streaming joiner emits. A
    /// path, a triangle and a variable-predicate query over a random graph,
    /// under 3 partitioners: the LPMs of real partitioned enumeration, and
    /// the survivors of pruning them, pushed into `IncrementalJoin` in
    /// order, in reverse and in three seeded shuffles. Every time the
    /// emitted set equals the \[18\] join `assemble_basic`'s (and with the
    /// local complete matches, the centralized `find_matches`), no binding
    /// is emitted twice, and the joiner buffers exactly the LPMs it was
    /// pushed.
    #[test]
    fn incremental_join_is_arrival_order_independent(
        graph_seed in 0u64..5000,
        order_seed in 0u64..5000,
        p in 0usize..3,
        q in 0usize..3,
        r in 0usize..3,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 20,
            edges: 60,
            predicates: 3,
            seed: graph_seed,
        });
        let (p, q, r) = (predicate_iri(p), predicate_iri(q), predicate_iri(r));
        let texts = [
            format!("SELECT * WHERE {{ ?a <{p}> ?b . ?b <{q}> ?c . ?c <{r}> ?d . }}"),
            format!("SELECT * WHERE {{ ?a <{p}> ?b . ?b <{q}> ?c . ?a <{r}> ?c . }}"),
            format!("SELECT ?a ?b ?c ?d WHERE {{ ?a ?x ?b . ?b <{q}> ?c . ?c ?y ?d . }}"),
        ];
        for text in &texts {
            let query = QueryGraph::from_query(
                &gstored::sparql::parse_query(text).expect("query parses"),
            )
            .expect("query is connected");
            let eq = EncodedQuery::encode(&query, g.dict()).expect("vertex-only projection");
            let n = eq.vertex_count();
            let query_edges: Vec<(usize, usize)> =
                eq.edges().iter().map(|e| (e.from, e.to)).collect();
            let mut centralized = find_matches(&g, &eq);
            centralized.sort_unstable();

            for part in &partitioners(3) {
                let dist = DistributedGraph::build(g.clone(), part.as_ref());
                let filter = CandidateFilter::none(n);
                let site_lpms: Vec<Vec<LocalPartialMatch>> = dist
                    .fragments
                    .iter()
                    .map(|f| enumerate_local_partial_matches(f, &eq, &filter))
                    .collect();
                let all: Vec<LocalPartialMatch> = site_lpms.concat();
                let pruned = survivors(&site_lpms, n, &query_edges);

                let basic = assemble_basic(&all, n);
                prop_assert_eq!(&assemble_basic(&pruned, n), &basic);
                let mut everything: Vec<MatchBinding> = basic.clone();
                for f in &dist.fragments {
                    everything.extend(local_complete_matches(f, &eq));
                }
                everything.sort_unstable();
                everything.dedup();
                prop_assert_eq!(&everything, &centralized, "{} ({})", text, part.name());

                for lpms in [&all, &pruned] {
                    let mut reversed = lpms.clone();
                    reversed.reverse();
                    let mut orders = vec![lpms.clone(), reversed];
                    orders.extend((0..3).map(|k| shuffled(lpms, order_seed * 3 + k)));
                    for (k, order) in orders.iter().enumerate() {
                        let mut joiner = IncrementalJoin::new(n, query_edges.len());
                        let mut emitted: Vec<MatchBinding> =
                            order.iter().flat_map(|m| joiner.push(m)).collect();
                        prop_assert_eq!(joiner.resident_states(), order.len());
                        prop_assert_eq!(joiner.found_count(), emitted.len());
                        emitted.sort_unstable();
                        let before = emitted.len();
                        emitted.dedup();
                        prop_assert_eq!(emitted.len(), before, "a binding was emitted twice");
                        prop_assert_eq!(
                            &emitted, &basic,
                            "order {} on {} ({})", k, text, part.name()
                        );
                    }
                }
            }
        }
    }
}

/// The dense-star worst case: `n²` same-sign LPMs joining through two
/// leaf groups. The pre-PR3 batch join deduplicated intermediates with
/// an `O(n²)` `Vec::contains` over full `LocalPartialMatch` structs —
/// `O(n⁴)` comparisons here, minutes of wall time at this size. The delta
/// join must produce the exact `n²` matches in interactive time (the
/// generous bound below is ~100× what it needs, so the assertion only
/// fires on a complexity regression, not on a slow machine).
#[test]
fn dense_star_assembly_regression() {
    let n = 120usize;
    let (lpms, nv, qedges) = dense_star_lpms(n);
    assert_eq!(lpms.len(), n * n + 2 * n);
    let start = Instant::now();
    let out = assemble_lec(&lpms, nv, &qedges);
    let elapsed = start.elapsed();
    assert_eq!(out.len(), n * n, "every leaf pair assembles exactly once");
    // Spot-check one binding: hub with the first and last leaf.
    let hub = lpms[0].binding[0].unwrap();
    let first = vec![hub, TermId(1), TermId(1)];
    let last = vec![hub, TermId(n as u64), TermId(n as u64)];
    assert!(out.binary_search(&first).is_ok());
    assert!(out.binary_search(&last).is_ok());
    assert!(
        elapsed < Duration::from_secs(30),
        "dense-star assembly took {elapsed:?}: quadratic dedup is back"
    );
}

/// At a size the basic baseline can still handle, Algorithm 3 and the
/// \[18\] join agree on the dense star.
#[test]
fn dense_star_small_all_assemblies_agree() {
    let (lpms, nv, qedges) = dense_star_lpms(10);
    let lec = assemble_lec(&lpms, nv, &qedges);
    assert_eq!(lec.len(), 100);
    assert_eq!(lec, assemble_basic(&lpms, nv));
}

/// The many-feature pruning worst case: `n²` distinct middle features
/// fan out into `n²` distinct join intermediates per DFS level. The
/// pre-PR4 `com_lecf_join` deduplicated `next` with an
/// `next.iter_mut().find` linear scan over full `LecFeature` structs —
/// `O(n⁴)` mapping-`Vec` comparisons here, minutes of wall time at this
/// size. The interned-key hash dedup must keep every feature (they all
/// complete) in interactive time (the generous bound below is ~100× what
/// it needs, so the assertion only fires on a complexity regression).
#[test]
fn many_feature_prune_regression() {
    let n = 120usize;
    let (features, nv, qedges) = many_feature_features(n);
    assert_eq!(features.len(), n * n + 2 * n);
    let start = Instant::now();
    let useful = prune_features(&features, nv, &qedges);
    let elapsed = start.elapsed();
    assert_eq!(
        useful.len(),
        features.len(),
        "every feature participates in a complete combination"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "many-feature prune took {elapsed:?}: quadratic dedup is back"
    );
}

/// The join graph equals Definition 9 at every size the three retired
/// build paths (an all-pairs sweep up to 256 features, a global posting
/// sweep, and that sweep on threads from 16 384 candidate pairs) used to
/// split between: 168 and 288 features of the many-feature fixture, the
/// LUBM LQ1 features of a 4-site hash partitioning (over 16 384 feature
/// pairs share a crossing edge), and 126 sign groups of the many-group
/// fixture.
#[test]
fn join_graph_equals_definition_9_on_both_build_paths() {
    for n in [12, 16] {
        let (features, _, qedges) = many_feature_features(n);
        assert_eq!(features.len(), n * n + 2 * n);
        assert_join_graph_is_definition_9(&features, &qedges);
    }

    let dataset = datasets::lubm(1_000);
    let dist = experiments::partition(dataset.graph.clone(), "hash", 4);
    let lq1 = dataset
        .queries
        .iter()
        .find(|q| q.id == "LQ1")
        .expect("LQ1 exists");
    let eq = EncodedQuery::encode(&experiments::query_graph(lq1), dist.dict()).expect("encodable");
    let qedges: Vec<(usize, usize)> = eq.edges().iter().map(|e| (e.from, e.to)).collect();
    let features = coordinator_features(&dist, &eq);
    let mut sharing: HashMap<(EdgeRef, usize), usize> = HashMap::new();
    for f in &features {
        for &entry in &f.mapping {
            *sharing.entry(entry).or_default() += 1;
        }
    }
    let pairs: usize = sharing.values().map(|&k| k * (k - 1) / 2).sum();
    assert!(
        pairs >= 1 << 14,
        "test premise: {pairs} pairs share an edge"
    );
    assert_join_graph_is_definition_9(&features, &qedges);

    let (features, _, qedges) = many_group_features(3);
    assert!(group_by_sign(&features).len() >= 100);
    assert_join_graph_is_definition_9(&features, &qedges);
}

/// The many-group pruning case at a size where an all-pairs join-graph
/// sweep would test about 10⁹ feature pairs, minutes of wall time, while
/// the posting-driven sweep needs about 10⁶ lookups. Algorithm 2 must keep
/// exactly the complementary member-0 pairs in interactive time (the
/// generous bound below is ~100× what it needs, so the assertion only
/// fires on a complexity regression).
#[test]
fn many_group_prune_regression() {
    let members = 1_000;
    let (features, nv, qedges) = many_group_features(members);
    let start = Instant::now();
    let useful = prune_features(&features, nv, &qedges);
    let elapsed = start.elapsed();
    let mut got: Vec<u32> = useful.into_iter().collect();
    got.sort_unstable();
    let expected: Vec<u32> = (0..126).map(|g| (g * members) as u32).collect();
    assert_eq!(got, expected);
    assert!(
        elapsed < Duration::from_secs(30),
        "many-group prune took {elapsed:?}: the all-pairs sweep is back"
    );
}
