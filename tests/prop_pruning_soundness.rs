//! Soundness of the LEC machinery on random inputs:
//!
//! * Algorithm 2 never prunes a local partial match that contributes to a
//!   final match (results with/without pruning coincide).
//! * Algorithm 1's equivalence classing satisfies Theorem 1 (same
//!   feature ⇒ same induced query subgraph) and Theorem 5 (equal signs ⇒
//!   never joinable).
//! * Theorem 2/3: if two features are joinable, every LPM pair across
//!   their classes is joinable at the binding level.
//! * Algorithm 2's survivor set is exactly the one Definitions 9–11 give,
//!   computed by brute force over the engine's own features under all
//!   three partitioners.

use proptest::prelude::*;

use std::collections::{BTreeSet, HashSet};

use gstored::core::assembly::{assemble_basic, assemble_lec};
use gstored::core::lec::{compute_lec_features, LecFeature};
use gstored::core::prune::prune_features;
use gstored::datagen::random::{random_graph, random_query, RandomGraphConfig};
use gstored::partition::{
    HashPartitioner, MetisLikePartitioner, PartitionAssignment, Partitioner,
    SemanticHashPartitioner,
};
use gstored::prelude::*;
use gstored::store::candidates::CandidateFilter;
use gstored::store::{enumerate_local_partial_matches, EncodedQuery, LocalPartialMatch};
use gstored_bench::fixtures::coordinator_features;

fn setup(
    graph_seed: u64,
    query_seed: u64,
    assignment: &[usize],
    sites: usize,
    n_edges: usize,
) -> Option<(
    gstored::partition::DistributedGraph,
    QueryGraph,
    EncodedQuery,
    Vec<LocalPartialMatch>,
)> {
    let g = random_graph(&RandomGraphConfig {
        vertices: 20,
        edges: 40,
        predicates: 3,
        seed: graph_seed,
    });
    let text = random_query(n_edges, 3, None, query_seed);
    let query = QueryGraph::from_query(&gstored::sparql::parse_query(&text).ok()?).ok()?;
    let mut verts: Vec<_> = g.vertices().collect();
    verts.sort_unstable();
    let map = verts
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, assignment[i % assignment.len()] % sites))
        .collect();
    let dist = DistributedGraph::build_with_assignment(
        g,
        PartitionAssignment {
            k: sites,
            of_vertex: map,
        },
    );
    let q = EncodedQuery::encode(&query, dist.dict())?;
    let filter = CandidateFilter::none(q.vertex_count());
    let lpms: Vec<LocalPartialMatch> = dist
        .fragments
        .iter()
        .flat_map(|f| enumerate_local_partial_matches(f, &q, &filter))
        .collect();
    Some((dist, query, q, lpms))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Pruned assembly == unpruned assembly == basic assembly.
    #[test]
    fn pruning_preserves_results(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        assignment in prop::collection::vec(0usize..3, 12),
        n_edges in 2usize..4,
    ) {
        let Some((_dist, _query, q, lpms)) =
            setup(graph_seed, query_seed, &assignment, 3, n_edges)
        else {
            return Ok(());
        };
        let query_edges: Vec<(usize, usize)> =
            q.edges().iter().map(|e| (e.from, e.to)).collect();
        let unpruned = assemble_lec(&lpms, q.vertex_count(), &query_edges);
        let basic = assemble_basic(&lpms, q.vertex_count());
        prop_assert_eq!(&unpruned, &basic, "LEC vs basic assembly");

        // Prune, then assemble only survivors.
        let (features, of) = compute_lec_features(&lpms, 0);
        let useful = prune_features(&features, q.vertex_count(), &query_edges);
        let surviving: Vec<LocalPartialMatch> = lpms
            .iter()
            .zip(&of)
            .filter(|&(_, &fi)| features[fi].sources.iter().any(|s| useful.contains(s)))
            .map(|(m, _)| m.clone())
            .collect();
        let pruned = assemble_lec(&surviving, q.vertex_count(), &query_edges);
        prop_assert_eq!(&pruned, &unpruned, "pruning changed the result set");
    }

    /// Theorem 1: LPMs sharing a LEC feature have identical bound query
    /// vertex sets (the induced subgraph of Q is determined by the class).
    #[test]
    fn theorem1_same_feature_same_structure(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        assignment in prop::collection::vec(0usize..3, 12),
    ) {
        let Some((_dist, _query, _q, lpms)) =
            setup(graph_seed, query_seed, &assignment, 3, 3)
        else {
            return Ok(());
        };
        let (features, of) = compute_lec_features(&lpms, 0);
        for fi in 0..features.len() {
            let members: Vec<&LocalPartialMatch> = lpms
                .iter()
                .zip(&of)
                .filter(|&(_, &f)| f == fi)
                .map(|(m, _)| m)
                .collect();
            for pair in members.windows(2) {
                let bound_a: Vec<bool> =
                    pair[0].binding.iter().map(Option::is_some).collect();
                let bound_b: Vec<bool> =
                    pair[1].binding.iter().map(Option::is_some).collect();
                prop_assert_eq!(&bound_a, &bound_b, "Theorem 1 violated");
                prop_assert_eq!(pair[0].internal_mask, pair[1].internal_mask);
            }
        }
    }

    /// Theorem 5 + Theorem 2/3: equal signs never joinable; joinable
    /// features imply every cross-class LPM pair joins.
    #[test]
    fn theorems_2_3_5_on_random_inputs(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        assignment in prop::collection::vec(0usize..3, 12),
    ) {
        let Some((_dist, _query, q, lpms)) =
            setup(graph_seed, query_seed, &assignment, 3, 3)
        else {
            return Ok(());
        };
        let query_edges: Vec<(usize, usize)> =
            q.edges().iter().map(|e| (e.from, e.to)).collect();
        let (features, of) = compute_lec_features(&lpms, 0);
        for i in 0..features.len() {
            for j in 0..features.len() {
                if i == j {
                    continue;
                }
                // Theorem 5.
                if features[i].sign == features[j].sign {
                    prop_assert!(!features[i].joinable(&features[j], &query_edges));
                }
                // Theorem 2/3: joinable features ⇒ all member pairs join.
                if features[i].joinable(&features[j], &query_edges) {
                    for (a, &fa) in lpms.iter().zip(&of) {
                        if fa != i {
                            continue;
                        }
                        for (b, &fb) in lpms.iter().zip(&of) {
                            if fb != j {
                                continue;
                            }
                            prop_assert!(
                                a.joinable(b),
                                "Theorem 3 violated: members of joinable classes must join"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Definitions 9–11 by brute force: close the original features under
/// `LecFeature::joinable`/`join` (every pair, intermediates included),
/// then collect the ids listed in the `sources` of every complete
/// (all-ones LECSign) member of the closure.
fn definitional_survivors(
    features: &[LecFeature],
    n_vertices: usize,
    query_edges: &[(usize, usize)],
) -> BTreeSet<u32> {
    let mut closure: Vec<LecFeature> = features.to_vec();
    let mut seen: HashSet<LecFeature> = closure.iter().cloned().collect();
    // Element `i` meets every element before it once; joins append, so
    // each pair of the final closure is tried exactly once.
    let mut i = 0;
    while i < closure.len() {
        for j in 0..i {
            if closure[i].joinable(&closure[j], query_edges) {
                let joined = closure[i].join(&closure[j]);
                if seen.insert(joined.clone()) {
                    closure.push(joined);
                }
            }
        }
        i += 1;
    }
    closure
        .iter()
        .filter(|f| f.is_complete(n_vertices))
        .flat_map(|f| f.sources.iter().copied())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random graph × random query × 3 partitioners: `prune_features`
    /// returns exactly the definitional survivor set of the features the
    /// sites would ship, no more and no less.
    #[test]
    fn survivors_equal_the_definitional_closure(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 2usize..4,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 20,
            edges: 40,
            predicates: 3,
            seed: graph_seed,
        });
        let text = random_query(n_edges, 3, None, query_seed);
        let query = QueryGraph::from_query(
            &gstored::sparql::parse_query(&text).expect("generated query parses"),
        )
        .expect("generated query is connected");
        let partitioners: [Box<dyn Partitioner>; 3] = [
            Box::new(HashPartitioner::new(3)),
            Box::new(SemanticHashPartitioner::new(3)),
            Box::new(MetisLikePartitioner::new(3)),
        ];
        for p in &partitioners {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            let q = EncodedQuery::encode(&query, dist.dict()).expect("no predicate projection");
            let query_edges: Vec<(usize, usize)> =
                q.edges().iter().map(|e| (e.from, e.to)).collect();
            let features = coordinator_features(&dist, &q);
            let expected = definitional_survivors(&features, q.vertex_count(), &query_edges);
            let got: BTreeSet<u32> = prune_features(&features, q.vertex_count(), &query_edges)
                .into_iter()
                .collect();
            prop_assert_eq!(
                &got, &expected,
                "{} features of {} ({})", features.len(), text, p.name()
            );
        }
    }
}
