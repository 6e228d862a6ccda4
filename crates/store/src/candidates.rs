//! Filter-and-evaluate candidate computation.
//!
//! "Existing RDF database systems ... first compute out the candidates of
//! all variables, and then search matches over these candidates. The
//! process of finding candidates is often very quick." (Section VI.)
//!
//! A data vertex `u` is a candidate for query vertex `v` when `u` has, for
//! every query edge incident to `v`, an incident data edge with a
//! compatible label and direction. For internal vertices of a fragment
//! this filter is *exact with respect to the full graph*, because crossing
//! edges are replicated, so an internal vertex's complete neighborhood is
//! locally visible — the property Algorithm 4 depends on.
//!
//! The premise holds here the way it holds in gStore: through an index.
//! Every [`Fragment`] keeps label and class postings
//! ([`Fragment::posting`]), and a variable vertex's candidates are seeded
//! from the smallest posting among its constant-label edges (in each
//! edge's direction) and its required classes — every candidate must
//! appear in each of those lists — then filtered. (A posting also lists
//! extended vertices; when it is longer than the universe, the universe
//! is walked and the posting probed instead.) Only a vertex with
//! neither a constant-label edge nor a class, or an [`Adjacency`] without
//! postings (the whole [`gstored_rdf::RdfGraph`], which keeps the
//! centralized oracle an independent scan), runs every vertex of the
//! universe through the filter. A seeded
//! set is the same set, in the same ascending order, as the scan's, so
//! everything downstream is unchanged.

use gstored_partition::{Fragment, PostingKey};
use gstored_rdf::{TermId, VertexId};

use crate::encoded::{EncodedLabel, EncodedQuery, EncodedVertex};
use crate::matcher::Adjacency;

/// Optional per-query-vertex restriction on *extended-vertex* bindings,
/// plus optional exact candidate sets. Used to plug Algorithm 4's
/// bit-vector filter into the LPM enumerator.
#[derive(Debug, Clone, Default)]
pub struct CandidateFilter {
    /// For each query vertex, an optional predicate on extended-vertex
    /// bindings: a compact bit vector `B_v` with a hash mapping. `None`
    /// means unfiltered.
    pub extended_bits: Vec<Option<BitVectorFilter>>,
}

impl CandidateFilter {
    /// A filter that lets everything through (the non-optimized engines).
    pub fn none(vertex_count: usize) -> Self {
        CandidateFilter {
            extended_bits: vec![None; vertex_count],
        }
    }

    /// Whether `u` is an admissible *extended* binding for query vertex `v`.
    #[inline]
    pub fn admits_extended(&self, v: usize, u: VertexId) -> bool {
        match self.extended_bits.get(v).and_then(Option::as_ref) {
            Some(bv) => bv.contains(u),
            None => true,
        }
    }
}

/// The fixed-length candidate bit vector of Section VI: `B_v` with a hash
/// function mapping each candidate to one bit. A Bloom-style one-hash
/// filter: membership tests may return false positives, never false
/// negatives — pruning stays sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVectorFilter {
    bits: Vec<u64>,
    n_bits: usize,
}

impl BitVectorFilter {
    /// An empty filter with `n_bits` bits (rounded up to a multiple of 64).
    pub fn new(n_bits: usize) -> Self {
        let n_bits = n_bits.max(64);
        BitVectorFilter {
            bits: vec![0; n_bits.div_ceil(64)],
            n_bits,
        }
    }

    #[inline]
    fn slot(&self, v: VertexId) -> (usize, u64) {
        // splitmix-style mix so consecutive ids spread.
        let mut x = v.0.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        let bit = (x % self.n_bits as u64) as usize;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Set the bit for `v`.
    pub fn insert(&mut self, v: VertexId) {
        let (w, m) = self.slot(v);
        self.bits[w] |= m;
    }

    /// Test the bit for `v`.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let (w, m) = self.slot(v);
        self.bits[w] & m != 0
    }

    /// Bitwise OR with another filter of identical size (the coordinator's
    /// union step in Algorithm 4).
    pub fn union_with(&mut self, other: &BitVectorFilter) {
        assert_eq!(self.n_bits, other.n_bits, "bit vector sizes must agree");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Size in bytes when shipped (fixed-length — the point of Section VI).
    pub fn wire_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// Raw words (for the wire codec).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild from raw words.
    pub fn from_words(words: Vec<u64>, n_bits: usize) -> Self {
        assert_eq!(words.len(), n_bits.max(64).div_ceil(64));
        BitVectorFilter {
            bits: words,
            n_bits: n_bits.max(64),
        }
    }

    /// Number of bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }
}

/// Candidates of query vertex `qv` among `universe`, using adjacency `adj`.
///
/// `universe` must be sorted; it is typically the internal vertices of a
/// fragment or all vertices of the full graph. The result is sorted.
pub fn vertex_candidates<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    universe: &[VertexId],
) -> Vec<VertexId> {
    filter_candidates(adj, q, qv, Universe::Sorted(universe))
}

/// Candidates of query vertex `qv` among every vertex `fragment` stores,
/// internal or extended (the star leaves' universe). Sorted.
///
/// A posting lists stored vertices only, so seeded candidates need no
/// membership test and the union of the two vertex lists is built only
/// when `qv` has nothing to seed from.
pub fn stored_candidates(fragment: &Fragment, q: &EncodedQuery, qv: usize) -> Vec<VertexId> {
    filter_candidates(fragment, q, qv, Universe::Stored(fragment))
}

/// Where candidates are drawn from.
#[derive(Clone, Copy)]
enum Universe<'a> {
    /// A sorted vertex list.
    Sorted(&'a [VertexId]),
    /// Every vertex the fragment stores; it is also the adjacency, so its
    /// postings list stored vertices only.
    Stored(&'a Fragment),
}

/// The candidate filter behind [`vertex_candidates`] and
/// [`stored_candidates`]: the vertices of `universe` that lie in the
/// smallest posting `qv` seeds from, when there is one, and pass the
/// structure filter.
fn filter_candidates<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    universe: Universe<'_>,
) -> Vec<VertexId> {
    let structure = |&u: &VertexId| passes_structure(adj, q, qv, u);
    match (q.vertex(qv), universe) {
        (EncodedVertex::Unsatisfiable, _) => Vec::new(),
        (EncodedVertex::Const(id), _) => {
            let stored = match universe {
                Universe::Sorted(vertices) => vertices.binary_search(&id).is_ok(),
                Universe::Stored(fragment) => fragment.contains(id),
            };
            if stored && structure(&id) {
                vec![id]
            } else {
                Vec::new()
            }
        }
        (EncodedVertex::Var, Universe::Sorted(vertices)) => match seed(adj, q, qv) {
            // Walk the shorter of the two sorted lists, probing the other.
            Some(posting) if posting.len() <= vertices.len() => posting
                .iter()
                .filter(|u| vertices.binary_search(u).is_ok() && structure(u))
                .copied()
                .collect(),
            Some(posting) => vertices
                .iter()
                .filter(|u| posting.binary_search(u).is_ok() && structure(u))
                .copied()
                .collect(),
            None => vertices.iter().filter(|u| structure(u)).copied().collect(),
        },
        (EncodedVertex::Var, Universe::Stored(fragment)) => match seed(adj, q, qv) {
            Some(posting) => posting.iter().filter(|u| structure(u)).copied().collect(),
            None => {
                let mut stored = [fragment.internal.as_slice(), &fragment.extended].concat();
                stored.sort_unstable();
                stored.dedup();
                stored.retain(structure);
                stored
            }
        },
    }
}

/// The smallest posting every candidate of `qv` must appear in: one per
/// constant-label edge at `qv` (out-edges seed from the label's
/// out-posting, in-edges from its in-posting) and one per required class.
/// `None` when `qv` has no such constraint or `adj` keeps no postings.
fn seed<'a, A: Adjacency>(adj: &'a A, q: &'a EncodedQuery, qv: usize) -> Option<&'a [VertexId]> {
    let labels = |edges: &'a [usize], key: fn(TermId) -> PostingKey| {
        edges.iter().filter_map(move |&ei| match q.edge(ei).label {
            EncodedLabel::Const(p) => Some(key(p)),
            EncodedLabel::Any | EncodedLabel::Unsatisfiable => None,
        })
    };
    let classes = q.required_classes(qv).ids().unwrap_or(&[]);
    let keys = labels(q.out_edges(qv), PostingKey::Out)
        .chain(labels(q.in_edges(qv), PostingKey::In))
        .chain(classes.iter().map(|&c| PostingKey::Class(c)));
    let mut best: Option<&'a [VertexId]> = None;
    for key in keys {
        let posting = adj.posting(key)?;
        if best.is_none_or(|b| posting.len() < b.len()) {
            best = Some(posting);
        }
    }
    best
}

/// Neighborhood-structure filter: `u` must have an incident edge with a
/// compatible label in the right direction for every query edge at `qv`,
/// with simple degree lower bounds.
fn passes_structure<A: Adjacency>(adj: &A, q: &EncodedQuery, qv: usize, u: VertexId) -> bool {
    // Class requirements first (cheap and highly selective).
    match q.required_classes(qv).ids() {
        Some(required) => {
            if !adj.has_classes(u, required) {
                return false;
            }
        }
        None => return false,
    }
    let out = adj.out_edges(u);
    let inc = adj.in_edges(u);
    // No aggregate degree bound: query edges incident to `qv` from
    // *different* neighbor vertices may legally share one data edge
    // (Definition 3's injectivity applies per query vertex pair only), so
    // only per-label presence is sound here.
    for &ei in q.out_edges(qv) {
        if !has_label(out, q.edge(ei).label) {
            return false;
        }
    }
    for &ei in q.in_edges(qv) {
        if !has_label(inc, q.edge(ei).label) {
            return false;
        }
    }
    true
}

#[inline]
fn has_label(edges: &[(TermId, VertexId)], label: EncodedLabel) -> bool {
    match label {
        EncodedLabel::Any => !edges.is_empty(),
        EncodedLabel::Const(p) => !label_edge_range(edges, p).is_empty(),
        EncodedLabel::Unsatisfiable => false,
    }
}

/// The contiguous sub-slice of a sorted `(label, vertex)` adjacency list
/// carrying exactly `label`.
///
/// Adjacency lists are sorted by `(label, vertex)`, so the range is found
/// with two `partition_point` calls and its vertices are sorted and
/// duplicate-free. This is the lookup the neighbor-driven matcher uses to
/// enumerate only a bound neighbor's label-matching edges instead of
/// scanning a full candidate list.
#[inline]
pub fn label_edge_range(edges: &[(TermId, VertexId)], label: TermId) -> &[(TermId, VertexId)] {
    let lo = edges.partition_point(|&(l, _)| l < label);
    let len = edges[lo..].partition_point(|&(l, _)| l == label);
    &edges[lo..lo + len]
}

/// Internal candidates `C(Q, v)` for every query vertex of a fragment
/// (Section VI / Algorithm 4 site side): candidates drawn from the
/// fragment's internal vertices only.
pub fn internal_candidates(fragment: &Fragment, q: &EncodedQuery) -> Vec<Vec<VertexId>> {
    (0..q.vertex_count())
        .map(|qv| vertex_candidates(fragment, q, qv, &fragment.internal))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::{DistributedGraph, HashPartitioner};
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};

    fn data() -> RdfGraph {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://a", "http://q", "http://c"),
            t("http://b", "http://p", "http://c"),
            t("http://d", "http://q", "http://a"),
        ])
    }

    fn query(g: &RdfGraph, text: &str) -> EncodedQuery {
        let q = QueryGraph::from_query(&parse_query(text).unwrap()).unwrap();
        EncodedQuery::encode(&q, g.dict()).unwrap()
    }

    fn sorted_vertices(g: &RdfGraph) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = g.vertices().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn candidates_respect_labels_and_direction() {
        let mut g = data();
        g.finalize();
        let q = query(&g, "SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z }");
        let universe = sorted_vertices(&g);
        let cands = vertex_candidates(&g, &q, 0, &universe);
        // Only "a" has both an out-p and an out-q edge.
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        assert_eq!(cands, vec![a]);
    }

    #[test]
    fn constant_vertex_candidates() {
        let mut g = data();
        g.finalize();
        let q = query(&g, "SELECT ?x WHERE { ?x <http://p> <http://b> }");
        let universe = sorted_vertices(&g);
        let b = g.vertex_of(&Term::iri("http://b")).unwrap();
        assert_eq!(vertex_candidates(&g, &q, 1, &universe), vec![b]);
    }

    #[test]
    fn degree_bound_prunes() {
        let mut g = data();
        g.finalize();
        // ?x needs two distinct out-p edges (injective multiset): nobody has.
        let q = query(
            &g,
            "SELECT * WHERE { ?x <http://p> ?y . ?x <http://p> ?y2 . ?y <http://p> ?y2 }",
        );
        let universe = sorted_vertices(&g);
        // Structure filter alone requires out-degree >= 2 with p twice; it
        // checks label presence per edge, so 'a' (p and q out) fails the
        // label check only if no p... a has one p: passes has_label twice
        // but fails the degree precheck? a has out-degree 2 -> passes. The
        // exact multiset rejection happens in the matcher; here we just
        // check the weaker filter does not crash and includes 'a'.
        let cands = vertex_candidates(&g, &q, 0, &universe);
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        assert!(cands.contains(&a));
    }

    #[test]
    fn variable_predicate_requires_any_edge() {
        let mut g = data();
        g.finalize();
        let q = query(&g, "SELECT ?x ?y WHERE { ?x ?p ?y }");
        let universe = sorted_vertices(&g);
        let cands = vertex_candidates(&g, &q, 0, &universe);
        // Subjects only: a, b, d (c has no out-edges).
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn internal_candidates_use_internal_universe_only() {
        let g = data();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        let q = {
            let dict = dist.dict();
            let qg = QueryGraph::from_query(
                &parse_query("SELECT * WHERE { ?x <http://p> ?y }").unwrap(),
            )
            .unwrap();
            EncodedQuery::encode(&qg, dict).unwrap()
        };
        for f in &dist.fragments {
            let cands = internal_candidates(f, &q);
            for c in &cands[0] {
                assert!(f.is_internal(*c));
            }
        }
    }

    #[test]
    fn bit_vector_filter_has_no_false_negatives() {
        let mut bv = BitVectorFilter::new(256);
        for i in 0..100u64 {
            bv.insert(TermId(i * 7));
        }
        for i in 0..100u64 {
            assert!(bv.contains(TermId(i * 7)));
        }
    }

    #[test]
    fn bit_vector_union_matches_algorithm4() {
        let mut a = BitVectorFilter::new(128);
        let mut b = BitVectorFilter::new(128);
        a.insert(TermId(1));
        b.insert(TermId(2));
        a.union_with(&b);
        assert!(a.contains(TermId(1)));
        assert!(a.contains(TermId(2)));
    }

    #[test]
    fn bit_vector_wire_size_is_fixed() {
        let bv = BitVectorFilter::new(1 << 16);
        assert_eq!(bv.wire_size(), (1 << 16) / 8);
        let round = BitVectorFilter::from_words(bv.words().to_vec(), bv.n_bits());
        assert_eq!(bv, round);
    }

    #[test]
    fn candidate_filter_default_admits_everything() {
        let f = CandidateFilter::none(4);
        assert!(f.admits_extended(0, TermId(42)));
        assert!(f.admits_extended(3, TermId(7)));
    }

    #[test]
    fn label_edge_range_finds_exact_prefix() {
        let v = |n: u64| TermId(n);
        let edges = vec![
            (v(1), v(10)),
            (v(2), v(5)),
            (v(2), v(7)),
            (v(2), v(9)),
            (v(4), v(1)),
        ];
        assert_eq!(label_edge_range(&edges, v(2)), &edges[1..4]);
        assert_eq!(label_edge_range(&edges, v(1)), &edges[0..1]);
        assert_eq!(label_edge_range(&edges, v(4)), &edges[4..5]);
        assert!(label_edge_range(&edges, v(3)).is_empty());
        assert!(label_edge_range(&edges, v(0)).is_empty());
        assert!(label_edge_range(&edges, v(9)).is_empty());
        assert!(label_edge_range(&[], v(1)).is_empty());
    }

    #[test]
    fn candidate_filter_with_bits_restricts() {
        let mut bv = BitVectorFilter::new(128);
        bv.insert(TermId(5));
        let mut f = CandidateFilter::none(2);
        f.extended_bits[1] = Some(bv);
        assert!(f.admits_extended(1, TermId(5)));
        // Most other ids miss (tolerate hash collisions by testing many).
        let misses = (100..200u64)
            .filter(|&i| !f.admits_extended(1, TermId(i)))
            .count();
        assert!(misses > 90);
    }
}
