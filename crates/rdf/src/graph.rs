//! In-memory RDF multigraph.
//!
//! The "RDF graph `G = {V, E, Σ}`" of the paper's Definition 1: subjects and
//! objects are vertices, triples are directed labeled edges. Multi-edges
//! between the same vertex pair with different predicates are allowed (and
//! occur in practice, e.g. `influencedBy` + `knows`).

use std::collections::HashMap;

use crate::dictionary::{Dictionary, TermId};
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};

/// A vertex of the RDF graph is just an interned term id.
pub type VertexId = TermId;

/// A lightweight reference to one directed labeled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeRef {
    pub from: VertexId,
    pub label: TermId,
    pub to: VertexId,
}

impl From<EncodedTriple> for EdgeRef {
    fn from(t: EncodedTriple) -> Self {
        EdgeRef {
            from: t.subject,
            label: t.predicate,
            to: t.object,
        }
    }
}

/// An in-memory directed labeled multigraph over dictionary-encoded terms.
///
/// Keeps three indexes:
/// * `out`: vertex -> sorted `(label, to)` pairs,
/// * `inc`: vertex -> sorted `(label, from)` pairs,
/// * `by_pred`: label -> all `(from, to)` pairs.
#[derive(Debug, Default, Clone)]
pub struct RdfGraph {
    dict: Dictionary,
    out: HashMap<VertexId, Vec<(TermId, VertexId)>>,
    inc: HashMap<VertexId, Vec<(TermId, VertexId)>>,
    by_pred: HashMap<TermId, Vec<(VertexId, VertexId)>>,
    n_edges: usize,
    /// Entity classes: `rdf:type` triples with IRI objects are folded
    /// into per-vertex attributes instead of edges, the way gStore (the
    /// paper's per-site substrate) encodes types in vertex signatures.
    /// This keeps ubiquitous class IRIs from becoming universal hub
    /// vertices that would dominate every partitioning.
    classes: HashMap<VertexId, Vec<TermId>>,
    by_class: HashMap<TermId, Vec<VertexId>>,
    n_type_triples: usize,
}

impl RdfGraph {
    /// An empty graph with its own dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a graph from decoded triples.
    pub fn from_triples<I: IntoIterator<Item = Triple>>(triples: I) -> Self {
        let mut g = RdfGraph::new();
        for t in triples {
            g.insert(&t);
        }
        g
    }

    /// Access the dictionary (read-only).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Insert a decoded triple, interning its terms. Duplicate edges
    /// (identical s/p/o) are ignored. Returns the encoded form.
    pub fn insert(&mut self, t: &Triple) -> EncodedTriple {
        let e = t.encode(&mut self.dict);
        self.insert_encoded(e);
        e
    }

    /// Insert an already-encoded triple. Duplicates are ignored.
    /// `rdf:type` triples with IRI objects become vertex attributes
    /// (see the struct docs), not edges.
    pub fn insert_encoded(&mut self, e: EncodedTriple) -> bool {
        if self.is_type_predicate(e.predicate)
            && matches!(self.dict.term_of(e.object), Some(Term::Iri(_)))
        {
            let cs = self.classes.entry(e.subject).or_default();
            if cs.contains(&e.object) {
                return false;
            }
            cs.push(e.object);
            self.by_class.entry(e.object).or_default().push(e.subject);
            // The typed entity is still a graph vertex even if it has no
            // other edges yet.
            self.out.entry(e.subject).or_default();
            self.inc.entry(e.subject).or_default();
            self.n_type_triples += 1;
            return true;
        }
        self.insert_edge(e)
    }

    fn is_type_predicate(&self, p: TermId) -> bool {
        self.dict
            .term_of(p)
            .is_some_and(|t| t.as_iri() == Some(crate::vocab::rdf::TYPE))
    }

    fn insert_edge(&mut self, e: EncodedTriple) -> bool {
        let out = self.out.entry(e.subject).or_default();
        if out.contains(&(e.predicate, e.object)) {
            return false;
        }
        out.push((e.predicate, e.object));
        self.inc
            .entry(e.object)
            .or_default()
            .push((e.predicate, e.subject));
        // Make sure the object also exists as a vertex with (possibly empty)
        // out-adjacency, so `vertices()` sees it.
        self.out.entry(e.object).or_default();
        self.inc.entry(e.subject).or_default();
        self.by_pred
            .entry(e.predicate)
            .or_default()
            .push((e.subject, e.object));
        self.n_edges += 1;
        true
    }

    /// Number of distinct vertices (subjects and objects).
    pub fn vertex_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges (triples).
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Whether `v` occurs as a vertex.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.out.contains_key(&v)
    }

    /// Iterate over all vertices in unspecified order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.out.keys().copied()
    }

    /// Outgoing `(label, to)` pairs of `v`.
    pub fn out_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        self.out.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incoming `(label, from)` pairs of `v`.
    pub fn in_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        self.inc.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(from, to)` pairs carrying predicate `p`.
    pub fn edges_with_predicate(&self, p: TermId) -> &[(VertexId, VertexId)] {
        self.by_pred.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All distinct predicates.
    pub fn predicates(&self) -> impl Iterator<Item = TermId> + '_ {
        self.by_pred.keys().copied()
    }

    /// Degree (in + out) of a vertex.
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len() + self.in_edges(v).len()
    }

    /// Whether the edge `from -label-> to` exists.
    pub fn has_edge(&self, from: VertexId, label: TermId, to: VertexId) -> bool {
        self.out_edges(from)
            .iter()
            .any(|&(l, t)| l == label && t == to)
    }

    /// Whether any edge `from -?-> to` exists; returns all labels between them.
    pub fn labels_between(&self, from: VertexId, to: VertexId) -> Vec<TermId> {
        self.out_edges(from)
            .iter()
            .filter(|&&(_, t)| t == to)
            .map(|&(l, _)| l)
            .collect()
    }

    /// Iterate over every edge of the graph.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out.iter().flat_map(|(&from, adj)| {
            adj.iter()
                .map(move |&(label, to)| EdgeRef { from, label, to })
        })
    }

    /// Neighbors of `v` in the *undirected* sense (deduplicated).
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut ns: Vec<VertexId> = self
            .out_edges(v)
            .iter()
            .map(|&(_, t)| t)
            .chain(self.in_edges(v).iter().map(|&(_, s)| s))
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Number of `rdf:type` triples folded into vertex attributes.
    pub fn type_triple_count(&self) -> usize {
        self.n_type_triples
    }

    /// Classes of a vertex (empty slice if untyped).
    pub fn classes_of(&self, v: VertexId) -> &[TermId] {
        self.classes.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `v` is typed with class `c`.
    pub fn has_class(&self, v: VertexId, c: TermId) -> bool {
        self.classes_of(v).contains(&c)
    }

    /// All vertices typed with class `c`.
    pub fn vertices_of_class(&self, c: TermId) -> &[VertexId] {
        self.by_class.get(&c).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The full vertex → classes map (used when building fragments).
    pub fn class_map(&self) -> &HashMap<VertexId, Vec<TermId>> {
        &self.classes
    }

    /// Decode a vertex back to a term (panics on dangling ids).
    pub fn term(&self, v: VertexId) -> &Term {
        self.dict.resolve(v)
    }

    /// Look up a term's vertex id if present.
    pub fn vertex_of(&self, t: &Term) -> Option<VertexId> {
        let id = self.dict.id_of(t)?;
        self.contains_vertex(id).then_some(id)
    }

    /// Sort adjacency lists for deterministic iteration and binary search.
    pub fn finalize(&mut self) {
        for adj in self.out.values_mut() {
            adj.sort_unstable();
        }
        for adj in self.inc.values_mut() {
            adj.sort_unstable();
        }
        for pairs in self.by_pred.values_mut() {
            pairs.sort_unstable();
        }
        for cs in self.classes.values_mut() {
            cs.sort_unstable();
        }
        for vs in self.by_class.values_mut() {
            vs.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RdfGraph {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        RdfGraph::from_triples(vec![
            t("a", "p", "b"),
            t("a", "q", "b"),
            t("b", "p", "c"),
            t("c", "p", "a"),
        ])
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(
            g.vertex_count(),
            3 + 2 /* predicates interned as vertices? no */ - 2
        );
        // subjects/objects: a, b, c
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = tiny();
        let a = g.dict().id_of(&Term::iri("a")).unwrap();
        let p = g.dict().id_of(&Term::iri("p")).unwrap();
        let b = g.dict().id_of(&Term::iri("b")).unwrap();
        assert!(!g.insert_encoded(EncodedTriple::new(a, p, b)));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn adjacency_and_predicates() {
        let g = tiny();
        let a = g.vertex_of(&Term::iri("a")).unwrap();
        let b = g.vertex_of(&Term::iri("b")).unwrap();
        let p = g.dict().id_of(&Term::iri("p")).unwrap();
        assert_eq!(g.out_edges(a).len(), 2);
        assert_eq!(g.in_edges(a).len(), 1);
        assert!(g.has_edge(a, p, b));
        assert_eq!(g.labels_between(a, b).len(), 2);
        assert_eq!(g.edges_with_predicate(p).len(), 3);
        assert_eq!(g.degree(a), 3);
    }

    #[test]
    fn neighbors_are_undirected_and_deduped() {
        let g = tiny();
        let a = g.vertex_of(&Term::iri("a")).unwrap();
        let ns = g.neighbors(a);
        assert_eq!(ns.len(), 2, "b (via p and q, deduped) and c");
    }

    #[test]
    fn multi_edge_labels_are_multiset() {
        let g = tiny();
        let a = g.vertex_of(&Term::iri("a")).unwrap();
        let b = g.vertex_of(&Term::iri("b")).unwrap();
        let labels = g.labels_between(a, b);
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = tiny();
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn type_triples_become_vertex_attributes() {
        let mut g = RdfGraph::new();
        g.insert(&Triple::new(
            Term::iri("http://e"),
            Term::iri(crate::vocab::rdf::TYPE),
            Term::iri("http://Class"),
        ));
        g.insert(&Triple::new(
            Term::iri("http://e"),
            Term::iri("p"),
            Term::iri("o"),
        ));
        assert_eq!(g.edge_count(), 1, "type triple is not an edge");
        assert_eq!(g.type_triple_count(), 1);
        let e = g.vertex_of(&Term::iri("http://e")).unwrap();
        let c = g.dict().id_of(&Term::iri("http://Class")).unwrap();
        assert!(g.has_class(e, c));
        assert_eq!(g.vertices_of_class(c), &[e]);
        // The class IRI itself is not a graph vertex.
        assert!(g.vertex_of(&Term::iri("http://Class")).is_none());
    }

    #[test]
    fn literal_typed_object_type_triples_stay_edges() {
        // `?x rdf:type "literal"` is nonsense but must not corrupt the
        // class index; it stays an ordinary edge.
        let mut g = RdfGraph::new();
        g.insert(&Triple::new(
            Term::iri("http://e"),
            Term::iri(crate::vocab::rdf::TYPE),
            Term::lit("weird"),
        ));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.type_triple_count(), 0);
    }

    #[test]
    fn literal_objects_are_vertices() {
        let mut g = RdfGraph::new();
        g.insert(&Triple::new(
            Term::iri("a"),
            Term::iri("name"),
            Term::lang_lit("X", "en"),
        ));
        let lit = g.vertex_of(&Term::lang_lit("X", "en"));
        assert!(
            lit.is_some(),
            "object literal must be a graph vertex (paper Fig. 1)"
        );
        assert_eq!(g.out_edges(lit.unwrap()).len(), 0);
        assert_eq!(g.in_edges(lit.unwrap()).len(), 1);
    }
}
