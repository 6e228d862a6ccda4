//! Backtracking graph homomorphism search.
//!
//! Used for three jobs:
//!
//! * the **centralized reference evaluation** over the whole `RdfGraph`
//!   (ground truth in tests, and the "single store" side of baselines),
//! * **intra-fragment complete matches** (every query vertex bound to an
//!   internal vertex) — together with assembled crossing matches these
//!   partition the answer set,
//! * the **star-query fast path** (Section VIII-B): a star match is fully
//!   contained in whichever fragment the center is internal to, so sites
//!   evaluate stars locally with no communication. The center draws its
//!   candidates from the internal vertices, the leaves from everything
//!   the fragment stores; both are seeded from the fragment's postings
//!   (see [`crate::candidates`]), so the star path never materializes the
//!   union of internal and extended vertices unless a leaf has nothing
//!   to seed from.
//!
//! Every entry point is a thin wrapper that computes candidate sets and
//! hands them to [`matches_from`]; a site that already holds a query's
//! internal candidates calls it directly.
//!
//! The search is a candidate-ordered backtracking over the query vertices
//! with **neighbor-driven enumeration**: once the matching order places a
//! vertex adjacent to an already-bound one, candidates are read off the
//! bound neighbor's label-matching adjacency range (a `partition_point`
//! slice of the sorted `(label, vertex)` lists) instead of scanning the
//! vertex's full candidate list, and each one is verified against the
//! remaining constraints. Definition 3's injective multiset label matching
//! is checked on every bound pair.

use gstored_partition::{Fragment, PostingKey};
use gstored_rdf::{RdfGraph, TermId, VertexId};

use crate::candidates::{
    internal_candidates, label_edge_range, stored_candidates, vertex_candidates,
};
use crate::encoded::{EncodedLabel, EncodedQuery};
use crate::labels::labels_satisfiable;

/// Read-only adjacency abstraction: implemented by the full graph and by
/// fragments, so candidate computation and matching run on either.
pub trait Adjacency {
    /// Outgoing `(label, to)` pairs of `v`, sorted.
    fn out_edges(&self, v: VertexId) -> &[(TermId, VertexId)];
    /// Incoming `(label, from)` pairs of `v`, sorted.
    fn in_edges(&self, v: VertexId) -> &[(TermId, VertexId)];
    /// Whether `v` carries every class in `required` (gStore-style vertex
    /// signatures; see `gstored_rdf::RdfGraph`'s class handling).
    fn has_classes(&self, v: VertexId, required: &[TermId]) -> bool;
    /// The sorted vertices `key` selects, when this adjacency indexes
    /// them; `None` (the default) means no index, and candidate
    /// computation scans its universe instead.
    fn posting(&self, _key: PostingKey) -> Option<&[VertexId]> {
        None
    }
}

impl Adjacency for RdfGraph {
    fn out_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        RdfGraph::out_edges(self, v)
    }
    fn in_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        RdfGraph::in_edges(self, v)
    }
    fn has_classes(&self, v: VertexId, required: &[TermId]) -> bool {
        required.iter().all(|c| RdfGraph::has_class(self, v, *c))
    }
}

impl Adjacency for Fragment {
    fn out_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        Fragment::out_edges(self, v)
    }
    fn in_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        Fragment::in_edges(self, v)
    }
    fn has_classes(&self, v: VertexId, required: &[TermId]) -> bool {
        Fragment::has_classes(self, v, required)
    }
    fn posting(&self, key: PostingKey) -> Option<&[VertexId]> {
        Some(Fragment::posting(self, key))
    }
}

/// All homomorphic matches of `q` over the full graph (Definition 3).
/// This is the centralized reference semantics.
pub fn find_matches(graph: &RdfGraph, q: &EncodedQuery) -> Vec<Vec<VertexId>> {
    if q.has_unsatisfiable() {
        return Vec::new();
    }
    let mut universe: Vec<VertexId> = graph.vertices().collect();
    universe.sort_unstable();
    all_candidates(q, |qv| vertex_candidates(graph, q, qv, &universe))
        .map_or_else(Vec::new, |cands| matches_from(graph, q, &cands))
}

/// Complete matches of `q` inside one fragment with **every** query vertex
/// bound to an internal vertex.
pub fn local_complete_matches(fragment: &Fragment, q: &EncodedQuery) -> Vec<Vec<VertexId>> {
    if q.has_unsatisfiable() {
        return Vec::new();
    }
    matches_from(fragment, q, &internal_candidates(fragment, q))
}

/// Star-query fast path: matches inside one fragment whose designated
/// `center` query vertex binds to an internal vertex. Leaves may bind to
/// extended vertices (their edges to the center are replicated crossing
/// edges), and each match is counted exactly once across the cluster
/// because internal sets are disjoint.
pub fn find_star_matches(
    fragment: &Fragment,
    q: &EncodedQuery,
    center: usize,
) -> Vec<Vec<VertexId>> {
    if q.has_unsatisfiable() {
        return Vec::new();
    }
    all_candidates(q, |qv| {
        if qv == center {
            vertex_candidates(fragment, q, qv, &fragment.internal)
        } else {
            stored_candidates(fragment, q, qv)
        }
    })
    .map_or_else(Vec::new, |cands| matches_from(fragment, q, &cands))
}

/// One candidate set per query vertex, or `None` as soon as one comes out
/// empty — then nothing matches, and the rest need not be computed.
fn all_candidates(
    q: &EncodedQuery,
    candidates: impl FnMut(usize) -> Vec<VertexId>,
) -> Option<Vec<Vec<VertexId>>> {
    (0..q.vertex_count())
        .map(candidates)
        .map(|c| (!c.is_empty()).then_some(c))
        .collect()
}

/// Every match of `q` over `adj` that binds each query vertex to one of
/// its sorted candidates in `cands` (one set per query vertex), in the
/// backtracking search's order. With a fragment's internal candidates
/// this is [`local_complete_matches`]; the wrappers above only differ in
/// the candidate sets they pass.
pub fn matches_from<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    cands: &[Vec<VertexId>],
) -> Vec<Vec<VertexId>> {
    debug_assert_eq!(cands.len(), q.vertex_count());
    if q.has_unsatisfiable() || cands.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let order = matching_order(q, cands);
    let mut binding: Vec<Option<VertexId>> = vec![None; q.vertex_count()];
    let mut out = Vec::new();
    extend(adj, q, &order, 0, &mut binding, cands, &mut out);
    out
}

/// Query-vertex ordering: start from the smallest candidate set, then
/// prefer vertices adjacent to already-ordered ones (connected expansion),
/// tie-broken by candidate count. Connected expansion lets every new
/// binding be checked against at least one bound neighbor.
fn matching_order(q: &EncodedQuery, cands: &[Vec<VertexId>]) -> Vec<usize> {
    let n = q.vertex_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let first = (0..n)
        .min_by_key(|&v| cands[v].len())
        .expect("non-empty query");
    order.push(first);
    placed[first] = true;
    while order.len() < n {
        let next = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| {
                let connected = q.neighbors(v).iter().any(|&u| placed[u]);
                (if connected { 0 } else { 1 }, cands[v].len())
            })
            .expect("loop bounded by n");
        order.push(next);
        placed[next] = true;
    }
    order
}

/// Where the candidates for the vertex being bound next come from.
///
/// [`anchor_candidates`] picks the cheapest source: a bound neighbor's
/// label-matching adjacency range when one exists and is smaller than the
/// per-vertex candidate list, the candidate list otherwise.
pub(crate) enum Anchor<'a> {
    /// A constant-label `partition_point` range of a bound neighbor's
    /// adjacency: its vertices are sorted and duplicate-free.
    Range(&'a [(TermId, VertexId)]),
    /// A variable-label adjacency slice of a bound neighbor: vertices may
    /// repeat across labels, so the caller must deduplicate.
    Mixed(&'a [(TermId, VertexId)]),
    /// No bound neighbor beats the candidate list — scan it.
    Scan,
    /// Some incident edge admits no binding at all: prune this branch.
    Empty,
}

/// Pick the smallest candidate source for `qv` given the current partial
/// `binding`: every query edge between `qv` and a bound vertex offers the
/// bound endpoint's adjacency range in the matching direction, competing
/// against the precomputed candidate list of size `cands_len`.
pub(crate) fn anchor_candidates<'a, A: Adjacency>(
    adj: &'a A,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    cands_len: usize,
) -> Anchor<'a> {
    let mut best_len = cands_len;
    let mut best: Option<(&'a [(TermId, VertexId)], bool)> = None; // (slice, is_mixed)
    let mut consider = |slice: &'a [(TermId, VertexId)], label: EncodedLabel| -> bool {
        let (range, mixed) = match label {
            EncodedLabel::Const(p) => (label_edge_range(slice, p), false),
            EncodedLabel::Any => (slice, true),
            EncodedLabel::Unsatisfiable => (&slice[..0], false),
        };
        if range.is_empty() {
            return false; // no candidate can satisfy this edge
        }
        if range.len() < best_len {
            best_len = range.len();
            best = Some((range, mixed));
        }
        true
    };
    // An edge qv -> other constrains qv to the in-neighbors of other's
    // image; other -> qv constrains qv to the out-neighbors.
    for &ei in q.out_edges(qv) {
        let e = q.edge(ei);
        if let Some(nb) = binding[e.to] {
            if !consider(adj.in_edges(nb), e.label) {
                return Anchor::Empty;
            }
        }
    }
    for &ei in q.in_edges(qv) {
        let e = q.edge(ei);
        if let Some(nb) = binding[e.from] {
            if !consider(adj.out_edges(nb), e.label) {
                return Anchor::Empty;
            }
        }
    }
    match best {
        Some((range, false)) => Anchor::Range(range),
        Some((range, true)) => Anchor::Mixed(range),
        None => Anchor::Scan,
    }
}

/// Invoke `f` once per viable candidate for `qv`: the members of `cands`
/// (sorted) that also satisfy the cheapest anchor source picked by
/// [`anchor_candidates`]. This is the neighbor-driven enumeration both
/// the matcher and the LPM enumerator extend with — when a bound
/// neighbor's adjacency range is smaller than the candidate list, only
/// that range is walked and membership in `cands` is a binary search;
/// the caller's consistency check verifies all remaining edges.
pub(crate) fn for_each_anchored_candidate<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    binding: &mut Vec<Option<VertexId>>,
    cands: &[VertexId],
    mut f: impl FnMut(&mut Vec<Option<VertexId>>, VertexId),
) {
    match anchor_candidates(adj, q, qv, binding, cands.len()) {
        Anchor::Range(range) => {
            for &(_, u) in range {
                if cands.binary_search(&u).is_ok() {
                    f(binding, u);
                }
            }
        }
        Anchor::Mixed(range) => {
            let mut targets: Vec<VertexId> = range.iter().map(|&(_, u)| u).collect();
            targets.sort_unstable();
            targets.dedup();
            for u in targets {
                if cands.binary_search(&u).is_ok() {
                    f(binding, u);
                }
            }
        }
        Anchor::Scan => {
            for &u in cands {
                f(binding, u);
            }
        }
        Anchor::Empty => {}
    }
}

fn extend<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    order: &[usize],
    depth: usize,
    binding: &mut Vec<Option<VertexId>>,
    cands: &[Vec<VertexId>],
    out: &mut Vec<Vec<VertexId>>,
) {
    if depth == order.len() {
        out.push(
            binding
                .iter()
                .map(|b| b.expect("complete binding"))
                .collect(),
        );
        return;
    }
    let qv = order[depth];
    for_each_anchored_candidate(adj, q, qv, binding, &cands[qv], |binding, u| {
        binding[qv] = Some(u);
        if consistent(adj, q, qv, binding) {
            extend(adj, q, order, depth + 1, binding, cands, out);
        }
    });
    binding[qv] = None;
}

/// Check every query edge between `qv` and an already-bound vertex,
/// grouping parallel edges for the injective multiset label test.
pub(crate) fn consistent<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
) -> bool {
    pairs_consistent(adj, q, qv, binding, |_| true)
}

/// [`consistent`] restricted to bound neighbors accepted by `relevant`
/// (the LPM enumerator exempts boundary-boundary edges per condition 3).
/// Bound-neighbor groups are deduplicated with two per-direction bitsets
/// over the query vertices — no allocation, no linear scans.
pub(crate) fn pairs_consistent<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    relevant: impl Fn(usize) -> bool,
) -> bool {
    debug_assert!(binding[qv].is_some(), "qv must be bound");
    // Bitsets fit every distributable query (LECSign masks are 64-bit);
    // wider queries skip dedup, re-checking parallel groups redundantly
    // but correctly.
    let dedup = binding.len() <= 64;
    let (mut seen_out, mut seen_in) = (0u64, 0u64);
    for &ei in q.out_edges(qv) {
        let e = q.edge(ei);
        if binding[e.to].is_none() || !relevant(e.to) {
            continue;
        }
        if dedup {
            let bit = 1u64 << e.to;
            if seen_out & bit != 0 {
                continue;
            }
            seen_out |= bit;
        }
        if !pair_consistent(adj, q, qv, e.to, binding) {
            return false;
        }
    }
    for &ei in q.in_edges(qv) {
        let e = q.edge(ei);
        if binding[e.from].is_none() || !relevant(e.from) {
            continue;
        }
        if dedup {
            let bit = 1u64 << e.from;
            if seen_in & bit != 0 {
                continue;
            }
            seen_in |= bit;
        }
        if !pair_consistent(adj, q, e.from, qv, binding) {
            return false;
        }
    }
    true
}

/// Verify all parallel query edges `src_q -> dst_q` against the data edges
/// between the bound images. The single-edge case (overwhelmingly common)
/// is a direct adjacency probe; parallel edges fall back to the injective
/// multiset matching.
fn pair_consistent<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    src_q: usize,
    dst_q: usize,
    binding: &[Option<VertexId>],
) -> bool {
    let src_u = binding[src_q].expect("both bound");
    let dst_u = binding[dst_q].expect("both bound");
    let out = adj.out_edges(src_u);
    let mut first: Option<EncodedLabel> = None;
    let mut multi = false;
    for &ei in q.out_edges(src_q) {
        if q.edge(ei).to != dst_q {
            continue;
        }
        if first.is_some() {
            multi = true;
            break;
        }
        first = Some(q.edge(ei).label);
    }
    let Some(label) = first else {
        return true;
    };
    if !multi {
        return match label {
            EncodedLabel::Any => out.iter().any(|&(_, t)| t == dst_u),
            EncodedLabel::Const(p) => out.binary_search(&(p, dst_u)).is_ok(),
            EncodedLabel::Unsatisfiable => false,
        };
    }
    // Parallel query edges between src_q and dst_q (this direction).
    let q_labels: Vec<EncodedLabel> = q
        .out_edges(src_q)
        .iter()
        .filter(|&&ei| q.edge(ei).to == dst_q)
        .map(|&ei| q.edge(ei).label)
        .collect();
    // Data labels between the images.
    let d_labels: Vec<TermId> = out
        .iter()
        .filter(|&&(_, t)| t == dst_u)
        .map(|&(l, _)| l)
        .collect();
    labels_satisfiable(&q_labels, &d_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::{DistributedGraph, ExplicitPartitioner, HashPartitioner};
    use gstored_rdf::{Term, Triple};
    use gstored_sparql::{analysis, parse_query, QueryGraph};
    use std::collections::HashMap;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn encode(g: &RdfGraph, text: &str) -> EncodedQuery {
        let q = QueryGraph::from_query(&parse_query(text).unwrap()).unwrap();
        EncodedQuery::encode(&q, g.dict()).unwrap()
    }

    fn diamond() -> RdfGraph {
        let mut g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://a", "http://p", "http://c"),
            t("http://b", "http://q", "http://d"),
            t("http://c", "http://q", "http://d"),
        ]);
        g.finalize();
        g
    }

    #[test]
    fn finds_both_paths_through_diamond() {
        let g = diamond();
        let q = encode(&g, "SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }");
        let ms = find_matches(&g, &q);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn homomorphisms_allow_shared_images() {
        // ?x -p-> ?y, ?z -p-> ?y : x and z may bind the same vertex.
        let g = diamond();
        let q = encode(&g, "SELECT * WHERE { ?x <http://p> ?y . ?z <http://p> ?y }");
        let ms = find_matches(&g, &q);
        // y=b: x=a,z=a. y=c: x=a,z=a. 2 matches.
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn constant_anchors_the_search() {
        let g = diamond();
        let q = encode(&g, "SELECT ?x WHERE { ?x <http://q> <http://d> }");
        let ms = find_matches(&g, &q);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn cycle_queries_match_cycles_only() {
        let mut g = RdfGraph::from_triples(vec![
            t("http://1", "http://p", "http://2"),
            t("http://2", "http://p", "http://3"),
            t("http://3", "http://p", "http://1"),
            t("http://4", "http://p", "http://5"), // not on a cycle
        ]);
        g.finalize();
        let q = encode(
            &g,
            "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
        );
        let ms = find_matches(&g, &q);
        assert_eq!(ms.len(), 3, "three rotations of the triangle");
    }

    #[test]
    fn injective_multiset_labels_enforced() {
        // Two parallel query edges with the same constant predicate can
        // never match a simple data edge.
        let g = diamond();
        let q = encode(&g, "SELECT * WHERE { ?x <http://p> ?y . ?x <http://p> ?y }");
        assert!(find_matches(&g, &q).is_empty());
        // But constant + variable over two parallel data labels works.
        let mut g2 = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://a", "http://r", "http://b"),
        ]);
        g2.finalize();
        let q2 = encode(&g2, "SELECT ?x ?y WHERE { ?x <http://p> ?y . ?x ?any ?y }");
        assert_eq!(find_matches(&g2, &q2).len(), 1);
    }

    #[test]
    fn variable_predicate_matches_each_label_once() {
        let mut g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://a", "http://q", "http://b"),
        ]);
        g.finalize();
        let q = encode(&g, "SELECT ?x ?y WHERE { ?x ?p ?y }");
        // Vertex bindings are (a,b) either way; the two predicate labels do
        // not multiply vertex bindings (labels are not part of the binding).
        let ms = find_matches(&g, &q);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn local_complete_matches_require_all_internal() {
        let g = diamond();
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        let b = g.vertex_of(&Term::iri("http://b")).unwrap();
        let c = g.vertex_of(&Term::iri("http://c")).unwrap();
        let d = g.vertex_of(&Term::iri("http://d")).unwrap();
        // a,b in F0; c,d in F1.
        let mut map = HashMap::new();
        map.insert(a, 0);
        map.insert(b, 0);
        map.insert(c, 1);
        map.insert(d, 1);
        let q = encode(&g, "SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }");
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let m0 = local_complete_matches(&dist.fragments[0], &q);
        let m1 = local_complete_matches(&dist.fragments[1], &q);
        // a->b->d crosses; a->c->d crosses; no all-internal match anywhere.
        assert!(m0.is_empty());
        assert!(m1.is_empty());
    }

    #[test]
    fn star_fast_path_counts_each_match_once() {
        // Star query: center with two leaves; leaves scattered.
        let mut g = RdfGraph::from_triples(vec![
            t("http://h", "http://p", "http://l1"),
            t("http://h", "http://q", "http://l2"),
            t("http://h2", "http://p", "http://l1"),
            t("http://h2", "http://q", "http://l2"),
        ]);
        g.finalize();
        let q = encode(&g, "SELECT * WHERE { ?c <http://p> ?a . ?c <http://q> ?b }");
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?c <http://p> ?a . ?c <http://q> ?b }").unwrap(),
        )
        .unwrap();
        let center = analysis::analyze(&qg).star_center.unwrap();
        let centralized = find_matches(&g, &q).len();
        for seed in 0..5 {
            let dist = DistributedGraph::build(g.clone(), &HashPartitioner::with_seed(3, seed));
            let total: usize = dist
                .fragments
                .iter()
                .map(|f| find_star_matches(f, &q, center).len())
                .sum();
            assert_eq!(total, centralized, "seed {seed}");
        }
    }

    #[test]
    fn fragment_matching_sees_crossing_edges() {
        let g = diamond();
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        let q = encode(&g, "SELECT * WHERE { ?x <http://p> ?y }");
        // Put a alone in F0: its p-edges are crossing but replicated, so a
        // star centered on x=a still matches locally.
        let mut map = HashMap::new();
        map.insert(a, 0);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map).with_default(1));
        let ms = find_star_matches(&dist.fragments[0], &q, 0);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let g = diamond();
        let q = encode(&g, "SELECT * WHERE { ?x <http://p> ?y . ?y <http://p> ?z }");
        // No vertex has an incoming p AND outgoing p in the diamond
        // (b,c have in-p but out-q). So no matches.
        assert!(find_matches(&g, &q).is_empty());
    }

    #[test]
    fn self_loop_matching() {
        let mut g = RdfGraph::from_triples(vec![
            t("http://s", "http://p", "http://s"),
            t("http://s", "http://p", "http://o"),
        ]);
        g.finalize();
        let q = encode(&g, "SELECT ?x WHERE { ?x <http://p> ?x }");
        let ms = find_matches(&g, &q);
        assert_eq!(ms.len(), 1);
        let s = g.vertex_of(&Term::iri("http://s")).unwrap();
        assert_eq!(ms[0], vec![s]);
    }
}
