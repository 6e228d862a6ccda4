//! Local partial match enumeration (Definition 5 of the paper).
//!
//! Every LPM decomposes as:
//!
//! * an **internal core** `C` — the query vertices mapped to internal
//!   vertices; condition 6 forces `C` to be weakly connected in `Q`, and
//!   condition 5 forces every query edge incident to `C` to be matched;
//! * a **boundary** `∂C` — the query vertices adjacent to `C` but outside
//!   it; each binds to an *extended* vertex across a crossing edge (a
//!   boundary vertex bound to an internal vertex would belong to a larger
//!   core, which is enumerated separately — no double counting);
//! * everything else maps to `NULL`.
//!
//! Edges between two boundary vertices are never stored in a fragment
//! (crossing edges have exactly one internal endpoint), and condition 3
//! explicitly allows them to stay unmatched. Condition 4 (≥ 1 crossing
//! edge) holds because a proper connected subset of a connected query
//! always has a boundary edge.
//!
//! The enumerator therefore iterates the proper connected vertex subsets
//! of `Q` as candidate cores and runs a backtracking homomorphism search
//! per core: core vertices draw from internal candidate sets, boundary
//! vertices from the crossing-edge neighborhoods of their bound core
//! neighbors. Verified against the paper's Fig. 3: all eight LPMs of the
//! running example, and nothing else, are produced.

use gstored_partition::Fragment;
use gstored_rdf::{EdgeRef, TermId, VertexId};

use crate::candidates::{internal_candidates, CandidateFilter};
use crate::encoded::{EncodedLabel, EncodedQuery, EncodedVertex};
use crate::labels::{label_matches, labels_assignment};
use crate::lpm::LocalPartialMatch;
use crate::matcher::{for_each_anchored_candidate, pairs_consistent};

/// Enumerate all local partial matches of `q` in `fragment`.
///
/// `filter` plugs in Algorithm 4's candidate bit vectors (extended-vertex
/// bindings that no site reported as internal candidates are skipped);
/// pass [`CandidateFilter::none`] to disable.
pub fn enumerate_local_partial_matches(
    fragment: &Fragment,
    q: &EncodedQuery,
    filter: &CandidateFilter,
) -> Vec<LocalPartialMatch> {
    if q.has_unsatisfiable() || fragment.crossing_edges.is_empty() {
        return Vec::new();
    }
    partial_matches_from(fragment, q, &internal_candidates(fragment, q), filter)
}

/// [`enumerate_local_partial_matches`] over precomputed internal
/// candidates `internal_cands` (one sorted set per query vertex, as
/// [`internal_candidates`] returns them), so a site that already computed
/// them for Algorithm 4 or its local complete matches does not again.
pub fn partial_matches_from(
    fragment: &Fragment,
    q: &EncodedQuery,
    internal_cands: &[Vec<VertexId>],
    filter: &CandidateFilter,
) -> Vec<LocalPartialMatch> {
    let n = q.vertex_count();
    assert!(n <= 64, "LECSign masks are 64-bit");
    debug_assert_eq!(internal_cands.len(), n);
    if q.has_unsatisfiable() || fragment.crossing_edges.is_empty() {
        // Without crossing edges no LPM can satisfy condition 4.
        return Vec::new();
    }

    let mut out = Vec::new();
    'subsets: for core in q.proper_connected_subsets() {
        for &qv in &core {
            if internal_cands[qv].is_empty() {
                continue 'subsets;
            }
        }
        enumerate_for_core(fragment, q, &core, internal_cands, filter, &mut out);
    }
    out
}

/// Backtracking over one core choice.
fn enumerate_for_core(
    fragment: &Fragment,
    q: &EncodedQuery,
    core: &[usize],
    internal_cands: &[Vec<VertexId>],
    filter: &CandidateFilter,
    out: &mut Vec<LocalPartialMatch>,
) {
    let n = q.vertex_count();
    let in_core = {
        let mut m = vec![false; n];
        for &v in core {
            m[v] = true;
        }
        m
    };
    // Boundary: neighbors of the core outside it (forced by condition 5).
    let mut boundary: Vec<usize> = core
        .iter()
        .flat_map(|&v| q.neighbors(v))
        .filter(|&u| !in_core[u])
        .collect();
    boundary.sort_unstable();
    boundary.dedup();

    // Order: core in connected-expansion order (cheapest candidate set
    // first), then boundary vertices.
    let order = {
        let mut order: Vec<usize> = Vec::with_capacity(core.len() + boundary.len());
        let mut placed = vec![false; n];
        let first = core
            .iter()
            .copied()
            .min_by_key(|&v| internal_cands[v].len())
            .expect("core is non-empty");
        order.push(first);
        placed[first] = true;
        while order.len() < core.len() {
            let next = core
                .iter()
                .copied()
                .filter(|&v| !placed[v])
                .min_by_key(|&v| {
                    let connected = q.neighbors(v).iter().any(|&u| placed[u]);
                    (if connected { 0 } else { 1 }, internal_cands[v].len())
                })
                .expect("loop bounded by |core|");
            order.push(next);
            placed[next] = true;
        }
        order.extend(boundary.iter().copied());
        order
    };

    let mut binding: Vec<Option<VertexId>> = vec![None; n];
    extend(
        fragment,
        q,
        &order,
        core.len(),
        0,
        &in_core,
        internal_cands,
        filter,
        &mut binding,
        out,
    );
}

#[allow(clippy::too_many_arguments)]
fn extend(
    fragment: &Fragment,
    q: &EncodedQuery,
    order: &[usize],
    core_len: usize,
    depth: usize,
    in_core: &[bool],
    internal_cands: &[Vec<VertexId>],
    filter: &CandidateFilter,
    binding: &mut Vec<Option<VertexId>>,
    out: &mut Vec<LocalPartialMatch>,
) {
    if depth == order.len() {
        out.push(materialize(fragment, q, in_core, binding));
        return;
    }
    let qv = order[depth];
    if depth < core_len {
        // Core vertex: internal candidates + edge consistency against
        // already-bound core vertices. Enumeration is neighbor-driven:
        // when a bound core neighbor's label-matching adjacency range is
        // smaller than the internal candidate list, candidates are read
        // off that range and filtered by candidate-set membership.
        for_each_anchored_candidate(
            fragment,
            q,
            qv,
            binding,
            &internal_cands[qv],
            |binding, u| {
                binding[qv] = Some(u);
                if core_consistent(fragment, q, qv, binding, in_core) {
                    extend(
                        fragment,
                        q,
                        order,
                        core_len,
                        depth + 1,
                        in_core,
                        internal_cands,
                        filter,
                        binding,
                        out,
                    );
                }
            },
        );
        binding[qv] = None;
    } else {
        // Boundary vertex: candidates from crossing edges of bound core
        // neighbors; all core neighbors are bound (core precedes boundary).
        for u in boundary_candidates(fragment, q, qv, binding, in_core) {
            if !filter.admits_extended(qv, u) {
                continue;
            }
            binding[qv] = Some(u);
            if boundary_consistent(fragment, q, qv, binding, in_core) {
                extend(
                    fragment,
                    q,
                    order,
                    core_len,
                    depth + 1,
                    in_core,
                    internal_cands,
                    filter,
                    binding,
                    out,
                );
            }
        }
        binding[qv] = None;
    }
}

/// Candidate extended vertices for boundary vertex `qv`: extracted from
/// the first core-neighbor edge, then fully validated by
/// `boundary_consistent`.
fn boundary_candidates(
    fragment: &Fragment,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    in_core: &[bool],
) -> Vec<VertexId> {
    let Some(required) = q.required_classes(qv).ids() else {
        return Vec::new();
    };
    let class_ok = |u: VertexId| fragment.has_classes(u, required);
    // Constants bind to themselves when stored as an extended vertex.
    if let EncodedVertex::Const(id) = q.vertex(qv) {
        return if fragment.is_extended(id) && class_ok(id) {
            vec![id]
        } else {
            Vec::new()
        };
    }
    // Find one core-incident query edge and read candidates off the bound
    // neighbor's crossing edges.
    for &ei in q.in_edges(qv) {
        let e = q.edge(ei);
        if in_core[e.from] {
            let fu = binding[e.from].expect("core bound first");
            let mut c: Vec<VertexId> = fragment
                .out_edges(fu)
                .iter()
                .filter(|&&(l, t)| {
                    label_matches(e.label, l) && fragment.is_extended(t) && class_ok(t)
                })
                .map(|&(_, t)| t)
                .collect();
            c.sort_unstable();
            c.dedup();
            return c;
        }
    }
    for &ei in q.out_edges(qv) {
        let e = q.edge(ei);
        if in_core[e.to] {
            let fu = binding[e.to].expect("core bound first");
            let mut c: Vec<VertexId> = fragment
                .in_edges(fu)
                .iter()
                .filter(|&&(l, s)| {
                    label_matches(e.label, l) && fragment.is_extended(s) && class_ok(s)
                })
                .map(|&(_, s)| s)
                .collect();
            c.sort_unstable();
            c.dedup();
            return c;
        }
    }
    unreachable!("boundary vertex must touch the core");
}

/// Consistency for a freshly-bound core vertex: every query edge between
/// `qv` and an already-bound vertex must be matchable. (Bound vertices at
/// this stage are all core vertices, so every such edge must be matched.)
fn core_consistent(
    fragment: &Fragment,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    _in_core: &[bool],
) -> bool {
    pairs_consistent(fragment, q, qv, binding, |_other| true)
}

/// Consistency for a freshly-bound boundary vertex: edges to core vertices
/// must match; edges to other boundary vertices are exempt (condition 3 —
/// and a fragment stores no edges between two extended vertices anyway).
fn boundary_consistent(
    fragment: &Fragment,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    in_core: &[bool],
) -> bool {
    pairs_consistent(fragment, q, qv, binding, |other| in_core[other])
}

/// Build the [`LocalPartialMatch`] for a complete core+boundary binding:
/// reconstruct the matched edge set and record the crossing edges with
/// their query-edge mapping (the `g` of the LEC feature).
fn materialize(
    fragment: &Fragment,
    q: &EncodedQuery,
    in_core: &[bool],
    binding: &[Option<VertexId>],
) -> LocalPartialMatch {
    let mut internal_mask = 0u64;
    for (v, &c) in in_core.iter().enumerate() {
        if c {
            internal_mask |= 1 << v;
        }
    }

    // Group matched query edges by ordered bound pair where at least one
    // endpoint is in the core, then compute the (deterministic) injective
    // label assignment per group to identify concrete data edges.
    let mut crossing: Vec<(EdgeRef, usize)> = Vec::new();
    let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for (i, e) in q.edges().iter().enumerate() {
        let matched = binding[e.from].is_some()
            && binding[e.to].is_some()
            && (in_core[e.from] || in_core[e.to]);
        if !matched {
            continue;
        }
        let key = (e.from, e.to);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    for ((src_q, dst_q), edge_idxs) in groups {
        let src_u = binding[src_q].expect("bound");
        let dst_u = binding[dst_q].expect("bound");
        let q_labels: Vec<EncodedLabel> = edge_idxs.iter().map(|&i| q.edge(i).label).collect();
        let d_labels: Vec<TermId> = fragment
            .out_edges(src_u)
            .iter()
            .filter(|&&(_, t)| t == dst_u)
            .map(|&(l, _)| l)
            .collect();
        let assignment = labels_assignment(&q_labels, &d_labels)
            .expect("consistency was verified during search");
        // Record only crossing edges (exactly one internal endpoint).
        let is_crossing = in_core[src_q] != in_core[dst_q];
        if is_crossing {
            for (pos, &qe) in edge_idxs.iter().enumerate() {
                let data_edge = EdgeRef {
                    from: src_u,
                    label: d_labels[assignment[pos]],
                    to: dst_u,
                };
                crossing.push((data_edge, qe));
            }
        }
    }
    crossing.sort_unstable_by_key(|&(_, qe)| qe);

    LocalPartialMatch {
        fragment: fragment.id,
        binding: binding.to_vec(),
        crossing,
        internal_mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::{DistributedGraph, ExplicitPartitioner};
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use std::collections::HashMap;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// A two-fragment path: a(F0) -p-> b(F1) -q-> c(F1).
    fn two_frag_path() -> (DistributedGraph, EncodedQuery) {
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://q", "http://c"),
        ]);
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        let b = g.vertex_of(&Term::iri("http://b")).unwrap();
        let c = g.vertex_of(&Term::iri("http://c")).unwrap();
        let mut map = HashMap::new();
        map.insert(a, 0);
        map.insert(b, 1);
        map.insert(c, 1);
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        (dist, q)
    }

    #[test]
    fn path_split_produces_complementary_lpms() {
        let (dist, q) = two_frag_path();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        let lpms1 = enumerate_local_partial_matches(&dist.fragments[1], &q, &filter);
        // F0: core {x}->a, boundary y->b. One LPM.
        assert_eq!(lpms0.len(), 1, "{lpms0:?}");
        assert_eq!(lpms0[0].bound_count(), 2);
        assert!(lpms0[0].is_internal(0));
        assert!(!lpms0[0].is_internal(1));
        // F1: core {y,z} with boundary x->a. Also core {z}? z's neighbors =
        // {y}; boundary y must bind extended -> but b is internal in F1, so
        // no. Core {y} -> boundary x and z must bind extended; z=c is
        // internal -> fails. So exactly one LPM.
        assert_eq!(lpms1.len(), 1, "{lpms1:?}");
        assert_eq!(lpms1[0].bound_count(), 3);
        assert!(lpms1[0].is_internal(1));
        assert!(lpms1[0].is_internal(2));
        // They join into the full match.
        assert!(lpms0[0].joinable(&lpms1[0]));
        let joined = lpms0[0].join(&lpms1[0]);
        assert!(joined.is_complete(3));
    }

    #[test]
    fn crossing_edge_mapping_recorded() {
        let (dist, q) = two_frag_path();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        assert_eq!(lpms0[0].crossing.len(), 1);
        let (edge, qe) = lpms0[0].crossing[0];
        assert_eq!(qe, 0, "matched query edge ?x -p-> ?y");
        let a = dist.dict().id_of(&Term::iri("http://a")).unwrap();
        let b = dist.dict().id_of(&Term::iri("http://b")).unwrap();
        assert_eq!(edge.from, a);
        assert_eq!(edge.to, b);
    }

    #[test]
    fn no_crossing_edges_means_no_lpms() {
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://q", "http://c"),
        ]);
        let all: HashMap<_, _> = g.vertices().map(|v| (v, 0)).collect();
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(1, all));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        assert!(enumerate_local_partial_matches(&dist.fragments[0], &q, &filter).is_empty());
    }

    #[test]
    fn boundary_constant_must_match() {
        // a(F0) -p-> b(F1); query ?x <p> <b>.
        let g = RdfGraph::from_triples(vec![t("http://a", "http://p", "http://b")]);
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        let b = g.vertex_of(&Term::iri("http://b")).unwrap();
        let mut map = HashMap::new();
        map.insert(a, 0);
        map.insert(b, 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let qg = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://b> }").unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        assert_eq!(lpms0.len(), 1);
        assert_eq!(lpms0[0].binding[1], Some(b));
        // Mismatched constant: no LPM.
        let qg2 = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://a> }").unwrap(),
        )
        .unwrap();
        let q2 = EncodedQuery::encode(&qg2, dist.dict()).unwrap();
        assert!(enumerate_local_partial_matches(&dist.fragments[0], &q2, &filter).is_empty());
    }

    #[test]
    fn extended_filter_prunes_boundary_bindings() {
        use crate::candidates::BitVectorFilter;
        let (dist, q) = two_frag_path();
        // Filter on ?y (vertex 1) that admits nothing.
        let mut filter = CandidateFilter::none(q.vertex_count());
        filter.extended_bits[1] = Some(BitVectorFilter::new(64));
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        assert!(
            lpms0.is_empty(),
            "y->b should be vetoed by the empty filter"
        );
    }

    #[test]
    fn boundary_vertex_shared_by_two_core_vertices() {
        // Triangle split: x(F0), z(F0), y(F1); query x->y, z->y, x->z.
        let g = RdfGraph::from_triples(vec![
            t("http://x", "http://p", "http://y"),
            t("http://z", "http://p", "http://y"),
            t("http://x", "http://q", "http://z"),
        ]);
        let x = g.vertex_of(&Term::iri("http://x")).unwrap();
        let y = g.vertex_of(&Term::iri("http://y")).unwrap();
        let z = g.vertex_of(&Term::iri("http://z")).unwrap();
        let mut map = HashMap::new();
        map.insert(x, 0);
        map.insert(z, 0);
        map.insert(y, 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let qg = QueryGraph::from_query(
            &parse_query(
                "SELECT * WHERE { ?a <http://p> ?b . ?c <http://p> ?b . ?a <http://q> ?c }",
            )
            .unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        // Core {a,c} (bound to x,z), boundary b -> y via BOTH crossing
        // edges. Note ?a and ?c can also swap (homomorphism directions):
        // a=z,c=x fails because q-edge z->x missing. So exactly one LPM
        // with both crossing edges recorded.
        let full: Vec<_> = lpms0.iter().filter(|m| m.bound_count() == 3).collect();
        assert_eq!(full.len(), 1, "{lpms0:?}");
        assert_eq!(full[0].crossing.len(), 2);
    }

    #[test]
    fn lpm_count_matches_paper_structure_on_small_star() {
        // Hub h(F0) with crossing edges to leaves l1,l2 (F1); star query
        // ?c -p-> ?a . ?c -p-> ?b  (two distinct leaves via injectivity?
        // homomorphism allows a=b! so 4 combinations).
        let g = RdfGraph::from_triples(vec![
            t("http://h", "http://p", "http://l1"),
            t("http://h", "http://p", "http://l2"),
        ]);
        let h = g.vertex_of(&Term::iri("http://h")).unwrap();
        let mut map = HashMap::new();
        map.insert(h, 0);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map).with_default(1));
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?c <http://p> ?a . ?c <http://p> ?b }").unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        // Core {c}->h; boundary a,b -> {l1,l2} each: 4 bindings.
        // Definition 3's injectivity is per query-vertex *pair*; (c,a) and
        // (c,b) are distinct pairs, so a=b=l1 is allowed (both query edges
        // map to the single data edge h-p->l1, as in standard SPARQL).
        assert_eq!(lpms0.len(), 4, "{lpms0:?}");
    }

    #[test]
    fn core_candidates_must_be_internal() {
        let (dist, q) = two_frag_path();
        let filter = CandidateFilter::none(q.vertex_count());
        for f in &dist.fragments {
            for lpm in enumerate_local_partial_matches(f, &q, &filter) {
                for v in 0..q.vertex_count() {
                    if lpm.is_internal(v) {
                        assert!(f.is_internal(lpm.binding[v].unwrap()));
                    } else if let Some(u) = lpm.binding[v] {
                        assert!(f.is_extended(u));
                    }
                }
            }
        }
    }
}
