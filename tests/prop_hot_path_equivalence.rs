//! PR3/PR4 hot-path equivalence oracle.
//!
//! The neighbor-driven matcher, the neighbor-driven LPM enumerator, the
//! hash-join `assemble_lec` (PR3) and the interned/indexed/memoized LEC
//! pruning pipeline (PR4) are pure re-engineerings: on every input they
//! must return exactly what the code they replaced returned. The frozen
//! pre-PR3/pre-PR4 implementations live in `gstored_bench::reference` and
//! act as the oracle here, alongside `assemble_basic` and the centralized
//! matcher, across all 4 engine variants × 3 partitioning strategies.
//!
//! The streaming `IncrementalJoin` is held to the same standard: fed the
//! LPMs and survivors of real partitioned enumeration in shuffled and
//! reversed arrival orders, it emits exactly `assemble_lec`'s set, each
//! binding once, buffering only the LPMs it was pushed.
//!
//! The dense-star and many-feature regressions at the bottom run
//! workloads the pre-PR3/pre-PR4 quadratic dedups needed minutes for;
//! the hash join and the interned-key prune must finish them in
//! interactive time with the exact expected result sets.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use gstored::core::assembly::{assemble_basic, assemble_lec, IncrementalJoin, MatchBinding};
use gstored::core::engine::Variant;
use gstored::core::lec::compute_lec_features;
use gstored::core::prune::prune_features;
use gstored::datagen::random::{predicate_iri, random_graph, random_query, RandomGraphConfig};
use gstored::partition::{
    HashPartitioner, MetisLikePartitioner, Partitioner, SemanticHashPartitioner,
};
use gstored::prelude::*;
use gstored::store::candidates::CandidateFilter;
use gstored::store::{
    enumerate_local_partial_matches, find_matches, local_complete_matches, EncodedQuery,
    LocalPartialMatch,
};
use gstored_bench::fixtures::{dense_star_lpms, many_feature_features};
use gstored_bench::reference;

fn partitioners(sites: usize) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(HashPartitioner::new(sites)),
        Box::new(SemanticHashPartitioner::new(sites)),
        Box::new(MetisLikePartitioner::new(sites)),
    ]
}

fn sorted_lpms(mut lpms: Vec<LocalPartialMatch>) -> Vec<LocalPartialMatch> {
    lpms.sort_unstable_by(|a, b| {
        (&a.binding, a.internal_mask, &a.crossing).cmp(&(&b.binding, b.internal_mask, &b.crossing))
    });
    lpms
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random graph × random query: the optimized matcher, enumerator and
    /// LEC assembly agree with the frozen pre-PR3 oracle, with
    /// `assemble_basic`, and with the centralized reference through every
    /// variant × partitioner engine run.
    #[test]
    fn optimized_hot_paths_equal_prepr3_oracle(
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

        // Matcher oracle: optimized vs frozen pre-PR3, identical output
        // (both enumerate in deterministic order — not even sorted first).
        let centralized = find_matches(&g, &eq);
        prop_assert_eq!(
            &centralized,
            &reference::find_matches_prepr3(&g, &eq),
            "matcher drift on {}", text
        );
        let mut expected = centralized;
        expected.sort_unstable();

        for p in &partitioners(3) {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            prop_assert_eq!(dist.validate(), None);
            let filter = CandidateFilter::none(eq.vertex_count());

            // Enumerator oracle per fragment, then assembly three ways.
            let mut lpms = Vec::new();
            for f in &dist.fragments {
                let new = sorted_lpms(enumerate_local_partial_matches(f, &eq, &filter));
                let old = sorted_lpms(reference::enumerate_lpms_prepr3(f, &eq, &filter));
                prop_assert_eq!(&new, &old, "LPM drift in F{} on {} ({})", f.id, text, p.name());
                lpms.extend(new);
            }
            let query_edges: Vec<(usize, usize)> =
                eq.edges().iter().map(|e| (e.from, e.to)).collect();
            let lec = assemble_lec(&lpms, eq.vertex_count(), &query_edges);
            prop_assert_eq!(
                &lec,
                &reference::assemble_lec_prepr3(&lpms, eq.vertex_count(), &query_edges),
                "assembly drift on {} ({})", text, p.name()
            );
            prop_assert_eq!(
                &lec,
                &assemble_basic(&lpms, eq.vertex_count()),
                "lec vs basic drift on {} ({})", text, p.name()
            );

            // End to end: every variant equals the centralized reference.
            for variant in Variant::ALL {
                let out = Engine::with_variant(variant)
                    .try_run(&dist, &query)
                    .expect("generated query evaluates");
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

    /// Random graph × random query: the PR4 pruning pipeline agrees with
    /// the frozen pre-PR4 oracle — Algorithm 1 feature-for-feature, the
    /// join graph edge-for-edge, Algorithm 2 survivor-for-survivor — and
    /// pruning preserves the assembled result set, across 3 partitioners
    /// with every engine variant checked against the centralized matcher.
    #[test]
    fn optimized_prune_equals_prepr4_oracle(
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

            // Engine-style per-site Algorithm 1 with disjoint id ranges;
            // the interned compression must match the Vec-keyed oracle
            // feature-for-feature (ids, mappings, order — everything).
            let mut lpms: Vec<LocalPartialMatch> = Vec::new();
            let mut features = Vec::new();
            let mut feature_of_lpm: Vec<(usize, Vec<u32>)> = Vec::new(); // (lpm -> sources)
            let mut next = 0u32;
            for f in &dist.fragments {
                let site_lpms = enumerate_local_partial_matches(f, &eq, &filter);
                let (new_f, new_of) = compute_lec_features(&site_lpms, next);
                let (old_f, old_of) = reference::compute_lec_features_prepr4(&site_lpms, next);
                prop_assert_eq!(&new_f, &old_f, "Algorithm 1 drift in F{} on {}", f.id, text);
                prop_assert_eq!(&new_of, &old_of, "feature_of_lpm drift in F{} on {}", f.id, text);
                next += site_lpms.len() as u32 + 1;
                for (i, _) in site_lpms.iter().enumerate() {
                    feature_of_lpm.push((lpms.len() + i, new_f[new_of[i]].sources.clone()));
                }
                lpms.extend(site_lpms);
                features.extend(new_f);
            }

            // Join graph: the crossing-edge index must reproduce the
            // all-pairs sweep exactly (adjacency lists are sorted sets).
            let groups = gstored::core::prune::group_by_sign(&features);
            let old_groups = reference::group_by_sign_prepr4(&features);
            prop_assert_eq!(groups.len(), old_groups.len(), "grouping drift on {}", text);
            for (g_new, g_old) in groups.iter().zip(&old_groups) {
                prop_assert_eq!(g_new.sign, g_old.sign);
                prop_assert_eq!(g_new.members.len(), g_old.features.len());
            }
            let adj = gstored::core::prune::build_join_graph(&features, &groups, &query_edges);
            let old_adj = reference::build_join_graph_prepr4(&old_groups, &query_edges);
            let old_adj: Vec<Vec<usize>> = old_adj
                .into_iter()
                .map(|mut l| {
                    l.sort_unstable();
                    l
                })
                .collect();
            prop_assert_eq!(&adj, &old_adj, "join graph drift on {} ({})", text, p.name());

            // Algorithm 2: identical survivor sets.
            let new_useful: HashSet<u32> = prune_features(&features, eq.vertex_count(), &query_edges)
                .into_iter()
                .collect();
            let old_useful =
                reference::prune_features_prepr4(&features, eq.vertex_count(), &query_edges);
            prop_assert_eq!(&new_useful, &old_useful, "survivor drift on {} ({})", text, p.name());

            // Pruning soundness: assembling only survivors loses nothing.
            let surviving: Vec<LocalPartialMatch> = feature_of_lpm
                .iter()
                .filter(|(_, sources)| sources.iter().any(|s| new_useful.contains(s)))
                .map(|&(i, _)| lpms[i].clone())
                .collect();
            let unpruned = assemble_lec(&lpms, eq.vertex_count(), &query_edges);
            let pruned = assemble_lec(&surviving, eq.vertex_count(), &query_edges);
            prop_assert_eq!(&pruned, &unpruned, "pruning changed matches on {} ({})", text, p.name());

            // End to end: every variant equals the centralized reference
            // (LO and Full run the rewritten prune inside the engine).
            for variant in Variant::ALL {
                let out = Engine::with_variant(variant)
                    .try_run(&dist, &query)
                    .expect("generated query evaluates");
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
    /// emitted set equals `assemble_lec`'s (and with the local complete
    /// matches, the centralized `find_matches`), no binding is emitted
    /// twice, and the joiner buffers exactly the LPMs it was pushed.
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

                let lec = assemble_lec(&all, n, &query_edges);
                prop_assert_eq!(&assemble_lec(&pruned, n, &query_edges), &lec);
                let mut everything: Vec<MatchBinding> = lec.clone();
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
                            &emitted, &lec,
                            "order {} on {} ({})", k, text, part.name()
                        );
                    }
                }
            }
        }
    }
}

/// The dense-star worst case: `n²` same-sign LPMs joining through two
/// leaf groups. The pre-PR3 `com_par_join` deduplicated intermediates
/// with an `O(n²)` `Vec::contains` over full `LocalPartialMatch` structs —
/// `O(n⁴)` comparisons here, minutes of wall time at this size. The hash
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

/// At a size the pre-PR3 code and the basic baseline can still handle,
/// all three assemblies agree on the dense star.
#[test]
fn dense_star_small_all_assemblies_agree() {
    let (lpms, nv, qedges) = dense_star_lpms(10);
    let lec = assemble_lec(&lpms, nv, &qedges);
    assert_eq!(lec.len(), 100);
    assert_eq!(lec, reference::assemble_lec_prepr3(&lpms, nv, &qedges));
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

/// At a size the pre-PR4 code can still handle, the optimized prune and
/// the frozen oracle agree survivor-for-survivor on the many-feature
/// workload.
#[test]
fn many_feature_small_prune_agrees_with_oracle() {
    let (features, nv, qedges) = many_feature_features(12);
    let new: HashSet<u32> = prune_features(&features, nv, &qedges).into_iter().collect();
    let old = reference::prune_features_prepr4(&features, nv, &qedges);
    assert_eq!(new, old);
    assert_eq!(new.len(), features.len());
}
