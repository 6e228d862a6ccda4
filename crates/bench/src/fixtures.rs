//! Synthetic stress inputs for the hot-path equivalence tests and the
//! micro benches.

use gstored_core::lec::{compute_lec_features, LecFeature};
use gstored_partition::DistributedGraph;
use gstored_rdf::{EdgeRef, TermId};
use gstored_store::candidates::CandidateFilter;
use gstored_store::{enumerate_local_partial_matches, EncodedQuery, LocalPartialMatch};

/// The dense-star assembly stress case: a hub internal to F0 with
/// `n_leaves` crossing edges per query edge into F1, under the 2-leaf star
/// query `?c -p-> ?a . ?c -q-> ?b`. F0 contributes `n²` LPMs (every leaf
/// pair), F1 contributes `2n`, and assembly must produce exactly `n²`
/// crossing matches. The pre-PR3 pairwise join with its quadratic
/// `next.contains` dedup is `O(n⁴)` comparisons on this shape; the delta
/// join is near-linear in the `n²` intermediates.
///
/// Returns `(lpms, n_query_vertices, query_edges)`.
pub fn dense_star_lpms(n_leaves: usize) -> (Vec<LocalPartialMatch>, usize, Vec<(usize, usize)>) {
    let query_edges = vec![(0usize, 1usize), (0usize, 2usize)];
    let hub = TermId(1_000_000);
    let (p, q) = (TermId(500), TermId(501));
    let leaf = |i: usize| TermId(1 + i as u64);
    let edge = |label: TermId, to: TermId| EdgeRef {
        from: hub,
        label,
        to,
    };
    let mut lpms = Vec::new();
    // F0: core {c} -> hub, boundary a,b over every leaf pair.
    for i in 0..n_leaves {
        for j in 0..n_leaves {
            lpms.push(LocalPartialMatch {
                fragment: 0,
                binding: vec![Some(hub), Some(leaf(i)), Some(leaf(j))],
                crossing: vec![(edge(p, leaf(i)), 0), (edge(q, leaf(j)), 1)],
                internal_mask: 0b001,
            });
        }
    }
    // F1: each leaf internal, the hub extended.
    for i in 0..n_leaves {
        lpms.push(LocalPartialMatch {
            fragment: 1,
            binding: vec![Some(hub), Some(leaf(i)), None],
            crossing: vec![(edge(p, leaf(i)), 0)],
            internal_mask: 0b010,
        });
        lpms.push(LocalPartialMatch {
            fragment: 1,
            binding: vec![Some(hub), None, Some(leaf(i))],
            crossing: vec![(edge(q, leaf(i)), 1)],
            internal_mask: 0b100,
        });
    }
    (lpms, 3, query_edges)
}

/// The fan-in assembly stress case: the shape of one department under
/// the three-edge path `?x memberOf ?d . ?d subOrganizationOf ?u . ?u
/// name ?n`. F0 holds the department: `n_members` LPMs with `d`
/// internal, one per member, all sharing the single `d→u` crossing edge
/// (and each its own `x→d` edge). The members live elsewhere (F1–F4):
/// `n_members` LPMs with `x` internal. F5 contributes one university LPM
/// (`u` and `n` internal) on the same `d→u` edge. Assembly must produce
/// exactly `n_members` crossing matches. A joiner that tries every LPM
/// on the shared edge against all its same-sign siblings is quadratic on
/// this shape; skipping LECSign buckets that overlap the state keeps it
/// linear.
///
/// LPMs come departments first, then members, then the university.
/// Returns `(lpms, n_query_vertices, query_edges)`.
pub fn fan_in_path_lpms(n_members: usize) -> (Vec<LocalPartialMatch>, usize, Vec<(usize, usize)>) {
    let query_edges = vec![(0usize, 1usize), (1, 2), (2, 3)];
    let (dept, univ, name) = (TermId(1_000_000), TermId(1_000_001), TermId(1_000_002));
    let (member_of, sub_org) = (TermId(500), TermId(501));
    let member = |i: usize| TermId(1 + i as u64);
    let member_edge = |i: usize| EdgeRef {
        from: member(i),
        label: member_of,
        to: dept,
    };
    let dept_edge = EdgeRef {
        from: dept,
        label: sub_org,
        to: univ,
    };
    let mut lpms = Vec::with_capacity(2 * n_members + 1);
    for i in 0..n_members {
        lpms.push(LocalPartialMatch {
            fragment: 0,
            binding: vec![Some(member(i)), Some(dept), Some(univ), None],
            crossing: vec![(member_edge(i), 0), (dept_edge, 1)],
            internal_mask: 0b0010,
        });
    }
    for i in 0..n_members {
        lpms.push(LocalPartialMatch {
            fragment: 1 + i % 4,
            binding: vec![Some(member(i)), Some(dept), None, None],
            crossing: vec![(member_edge(i), 0)],
            internal_mask: 0b0001,
        });
    }
    lpms.push(LocalPartialMatch {
        fragment: 5,
        binding: vec![None, Some(dept), Some(univ), Some(name)],
        crossing: vec![(dept_edge, 1)],
        internal_mask: 0b1100,
    });
    (lpms, 4, query_edges)
}

/// The crossing-heavy many-feature pruning stress case: a path query
/// `?a -p-> ?b -p-> ?c` over a single hub data vertex with `n` incoming
/// and `n` outgoing crossing edges, compressed (as three fragments would)
/// into `n` features covering `v0`, `n²` middle features covering `v1`
/// (every in/out edge pair — the high LEC-group fan-out), and `n`
/// features covering `v2`. Algorithm 2 joins the `v0` group through the
/// `n²`-feature middle group, producing `n²` distinct intermediates per
/// level: the pre-PR4 `next.iter_mut().find` dedup is `O(n⁴)` feature
/// comparisons on this shape, the PR4 interned-key hash dedup near-linear
/// in the `n²` intermediates. Every feature participates in a complete
/// combination, so the expected survivor set is everything.
///
/// Returns `(features, n_query_vertices, query_edges)`.
pub fn many_feature_features(n: usize) -> (Vec<LecFeature>, usize, Vec<(usize, usize)>) {
    let query_edges = vec![(0usize, 1usize), (1usize, 2usize)];
    let hub = TermId(1_000_000);
    let label = TermId(500);
    let a_edge = |i: usize| EdgeRef {
        from: TermId(1 + i as u64),
        label,
        to: hub,
    };
    let c_edge = |j: usize| EdgeRef {
        from: hub,
        label,
        to: TermId(10_000 + j as u64),
    };
    let mut features = Vec::with_capacity(n * n + 2 * n);
    let mut id = 0u32;
    let mut push = |fragment: usize, mapping: Vec<(EdgeRef, usize)>, sign: u64| {
        features.push(LecFeature {
            fragments: 1 << fragment,
            mapping,
            sign,
            sources: vec![id],
        });
        id += 1;
    };
    // F0: the a-side endpoints, internal v0.
    for i in 0..n {
        push(0, vec![(a_edge(i), 0)], 0b001);
    }
    // F1: the hub fragment, internal v1 — one feature per (in, out) pair.
    for i in 0..n {
        for j in 0..n {
            push(1, vec![(a_edge(i), 0), (c_edge(j), 1)], 0b010);
        }
    }
    // F2: the c-side endpoints, internal v2.
    for j in 0..n {
        push(2, vec![(c_edge(j), 1)], 0b100);
    }
    (features, 3, query_edges)
}

/// The many-group pruning stress case: a 7-vertex path query and one
/// LECSign group for every nonempty proper subset of its vertices (126
/// groups), `members` (≥ 2) features each. Member 0 of a group shares a
/// crossing edge with member 0 of the group of the complementary sign,
/// from another fragment, so the two join into a complete combination.
/// In the group of the smaller sign of such a pair, member 1 shares that
/// edge too, but from the complementary member's own fragment, which
/// condition 1 of Definition 9 forbids. Every other member has a crossing
/// edge of its own. An all-pairs join-graph sweep
/// tests the 966 disjoint-sign group pairs member by member, about
/// `966 · members²` feature pairs; a posting-driven one pays about
/// `966 · members` hash lookups.
///
/// Group `g` (sign `g + 1`) holds features `g · members ..`, and each
/// feature's id is its index, so the survivors of Algorithm 2 are exactly
/// the ids `g · members`.
///
/// Returns `(features, n_query_vertices, query_edges)`.
pub fn many_group_features(members: usize) -> (Vec<LecFeature>, usize, Vec<(usize, usize)>) {
    assert!(members >= 2, "member 1 is the condition-1 decoy");
    let n = 7;
    let query_edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, v + 1)).collect();
    let full = (1u64 << n) - 1;
    let edge = |from: u64, to: u64| EdgeRef {
        from: TermId(from),
        label: TermId(500),
        to: TermId(to),
    };
    let mut features = Vec::with_capacity(126 * members);
    for sign in 1..full {
        let pair = sign.min(full ^ sign);
        let shared = edge(pair, 1_000 + pair);
        for k in 0..members {
            let id = features.len() as u32;
            let (fragment, mapping) = match k {
                0 => (u64::from(sign != pair), shared),
                1 if sign == pair => (1, shared),
                _ => (2 + id as u64 % 60, edge(10_000 + id as u64, 20_000)),
            };
            features.push(LecFeature {
                fragments: 1 << fragment,
                mapping: vec![(mapping, 0)],
                sign,
                sources: vec![id],
            });
        }
    }
    (features, n, query_edges)
}

/// The benchmark's LUBM scale: LUBM at a 40 k-triple target under 8
/// hash sites (`lubm_mix`, `lubm_bigresult`).
pub fn lubm_40k_hash8() -> (crate::datasets::Dataset, DistributedGraph) {
    let dataset = crate::datasets::lubm(40_000);
    let dist = crate::experiments::partition(dataset.graph.clone(), "hash", 8);
    (dataset, dist)
}

/// The benchmark's `random_crossing` scale: 12 000 uniform random edges
/// over 4 000 vertices and 3 predicates under 12 hash sites, where
/// nearly every edge crosses.
pub fn random_12k_hash12() -> DistributedGraph {
    let graph =
        gstored_datagen::random::random_graph(&gstored_datagen::random::RandomGraphConfig {
            vertices: 4_000,
            edges: 12_000,
            predicates: 3,
            seed: 42,
        });
    crate::experiments::partition(graph, "hash", 12)
}

/// The text of one of the benchmark's own queries that the datagen query
/// sets lack: `STUDENT_COURSES` and `MEMBER_PATH` on LUBM (the
/// `lubm_bigresult` workload's), `RQ2` on the random graph
/// (`random_crossing`'s three-edge path).
pub fn benchmark_query(id: &str) -> String {
    use gstored_datagen::random::predicate_iri as p;
    use gstored_rdf::vocab::lubm;
    match id {
        "STUDENT_COURSES" => format!(
            "SELECT * WHERE {{ ?x <{}> ?c . ?x <{}> ?n . }}",
            lubm::TAKES_COURSE,
            lubm::NAME
        ),
        "MEMBER_PATH" => format!(
            "SELECT * WHERE {{ ?x <{}> ?d . ?d <{}> ?u . ?u <{}> ?n . }}",
            lubm::MEMBER_OF,
            lubm::SUB_ORGANIZATION_OF,
            lubm::NAME
        ),
        "RQ2" => format!(
            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?d }}",
            p(0),
            p(1),
            p(2)
        ),
        other => panic!("no benchmark query {other}"),
    }
}

/// Parse and encode `text` against `dist`'s dictionary.
pub fn encode(dist: &DistributedGraph, text: &str) -> (gstored_sparql::QueryGraph, EncodedQuery) {
    let query =
        gstored_sparql::QueryGraph::from_query(&gstored_sparql::parse_query(text).expect("parses"))
            .expect("connected");
    let eq = EncodedQuery::encode(&query, dist.dict()).expect("encodable");
    (query, eq)
}

/// `MEMBER_PATH`, the member → department → university → name path of
/// the benchmark's `lubm_bigresult` workload, on [`lubm_40k_hash8`].
/// Algorithm 1 barely compresses it (about as many features as LPMs),
/// so Algorithms 2 and 3 run at the size of the whole LPM set.
///
/// Returns the partitioned graph and the encoded query.
pub fn lubm_member_path() -> (DistributedGraph, EncodedQuery) {
    let (_, dist) = lubm_40k_hash8();
    let (_, eq) = encode(&dist, &benchmark_query("MEMBER_PATH"));
    (dist, eq)
}

/// Every local partial match of `eq` over the fragments, fragment by
/// fragment, with no candidate filter.
pub fn all_lpms(dist: &DistributedGraph, eq: &EncodedQuery) -> Vec<LocalPartialMatch> {
    let filter = CandidateFilter::none(eq.vertex_count());
    dist.fragments
        .iter()
        .flat_map(|f| enumerate_local_partial_matches(f, eq, &filter))
        .collect()
}

/// The feature set the coordinator prunes for one query: per-fragment
/// LPM enumeration + Algorithm 1, each site's feature ids in a range of
/// its own.
pub fn coordinator_features(dist: &DistributedGraph, eq: &EncodedQuery) -> Vec<LecFeature> {
    let filter = CandidateFilter::none(eq.vertex_count());
    let mut all = Vec::new();
    let mut next = 0u32;
    for f in &dist.fragments {
        let lpms = enumerate_local_partial_matches(f, eq, &filter);
        let (features, _) = compute_lec_features(&lpms, next);
        next += lpms.len() as u32 + 1;
        all.extend(features);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_core::assembly::{assemble_basic, IncrementalJoin, MatchBinding};

    fn push_all(lpms: &[LocalPartialMatch], nv: usize, n_edges: usize) -> Vec<MatchBinding> {
        let mut joiner = IncrementalJoin::new(nv, n_edges);
        let mut got: Vec<_> = lpms.iter().flat_map(|m| joiner.push(m)).collect();
        got.sort_unstable();
        assert_eq!(joiner.resident_states(), lpms.len());
        got
    }

    #[test]
    fn fan_in_incremental_join_equals_lec_assembly() {
        // The [18] join is the reference at a size it finishes quickly.
        let (lpms, nv, qedges) = fan_in_path_lpms(200);
        assert_eq!(push_all(&lpms, nv, qedges.len()), assemble_basic(&lpms, nv));

        // At full size: one match per member, each a department LPM's
        // binding completed by the university LPM's name.
        let n = 2_000;
        let (lpms, nv, qedges) = fan_in_path_lpms(n);
        let name = lpms[2 * n].binding[3];
        let mut expected: Vec<MatchBinding> = lpms[..n]
            .iter()
            .map(|m| {
                let mut b = m.binding.clone();
                b[3] = name;
                b.into_iter().map(|v| v.expect("complete")).collect()
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(push_all(&lpms, nv, qedges.len()), expected);
    }
}
