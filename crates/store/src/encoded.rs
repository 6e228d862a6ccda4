//! Dictionary-encoded query graphs.
//!
//! The SPARQL front-end works on decoded [`gstored_sparql::QueryGraph`]s;
//! evaluation works on term ids. [`EncodedQuery`] resolves every constant
//! against the dictionary once, at the coordinator, and is then shared
//! with all sites. A constant that is absent from the dictionary can never
//! match ([`EncodedVertex::Unsatisfiable`]).
//!
//! It holds only what a site evaluates and the coordinator projects:
//! vertices, edges (an edge's identity is its position in the list),
//! class requirements and the projection. Variable names stay in the
//! coordinator's [`QueryGraph`], so they never cross the wire.

use gstored_rdf::{Dictionary, TermId};
use gstored_sparql::{EdgeLabel, QVertex, QueryGraph};

/// A class requirement on a query vertex: resolved class ids, or a marker
/// that some required class does not occur in the data at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequiredClasses {
    /// All required classes resolved (empty = unconstrained).
    Resolved(Vec<TermId>),
    /// A required class is absent from the dictionary: no vertex can match.
    Unsatisfiable,
}

impl RequiredClasses {
    /// The resolved class ids, or `None` when unsatisfiable.
    pub fn ids(&self) -> Option<&[TermId]> {
        match self {
            RequiredClasses::Resolved(v) => Some(v),
            RequiredClasses::Unsatisfiable => None,
        }
    }

    /// Whether there is no constraint at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, RequiredClasses::Resolved(v) if v.is_empty())
    }
}

/// An encoded query vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedVertex {
    /// A variable vertex.
    Var,
    /// A constant resolved to a term id.
    Const(TermId),
    /// A constant that does not occur in the data: no match can bind it.
    Unsatisfiable,
}

impl EncodedVertex {
    /// Whether this vertex is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, EncodedVertex::Var)
    }
}

/// An encoded edge label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedLabel {
    /// Matches any data label (a predicate variable — Definition 3 treats
    /// each occurrence independently).
    Any,
    /// A constant predicate.
    Const(TermId),
    /// A constant predicate absent from the data: never matches.
    Unsatisfiable,
}

/// An encoded query edge. Its identity is its position in
/// [`EncodedQuery::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedEdge {
    pub from: usize,
    pub to: usize,
    pub label: EncodedLabel,
}

/// The most query vertices the engine evaluates. The LPM enumerator
/// ([`EncodedQuery::proper_connected_subsets`]) visits all `2^n` vertex
/// subsets at every site, about a million at this bound; every paper,
/// test and benchmark query is far smaller. Queries are refused above
/// this bound at prepare time and when a site decodes `InstallQuery`.
pub const MAX_QUERY_VERTICES: usize = 20;

/// A query graph with all constants resolved to term ids, and without
/// its variable names.
#[derive(Debug, Clone)]
pub struct EncodedQuery {
    vertices: Vec<EncodedVertex>,
    edges: Vec<EncodedEdge>,
    out: Vec<Vec<usize>>,
    inc: Vec<Vec<usize>>,
    /// Per-vertex class requirements (from `rdf:type` patterns).
    required_classes: Vec<RequiredClasses>,
    /// Query-vertex ids of projected variables (in projection order).
    projection: Vec<usize>,
}

impl EncodedQuery {
    /// Encode a query graph against a dictionary (read-only: unknown
    /// constants become [`EncodedVertex::Unsatisfiable`] rather than being
    /// interned, so encoding cannot grow the dictionary).
    ///
    /// Returns `None` if a projected variable has no query vertex (i.e. it
    /// only occurs in predicate position — an unsupported projection).
    pub fn encode(q: &QueryGraph, dict: &Dictionary) -> Option<Self> {
        let vertices: Vec<EncodedVertex> = q
            .vertices()
            .iter()
            .map(|v| match v {
                QVertex::Var(_) => EncodedVertex::Var,
                QVertex::Const(t) => match dict.id_of(t) {
                    Some(id) => EncodedVertex::Const(id),
                    None => EncodedVertex::Unsatisfiable,
                },
            })
            .collect();
        let edges: Vec<EncodedEdge> = q
            .edges()
            .iter()
            .map(|e| EncodedEdge {
                from: e.from,
                to: e.to,
                label: match &e.label {
                    EdgeLabel::Var(_) => EncodedLabel::Any,
                    EdgeLabel::Const(t) => match dict.id_of(t) {
                        Some(id) => EncodedLabel::Const(id),
                        None => EncodedLabel::Unsatisfiable,
                    },
                },
            })
            .collect();
        let n = vertices.len();
        let mut out = vec![Vec::new(); n];
        let mut inc = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out[e.from].push(i);
            inc[e.to].push(i);
        }
        let required_classes: Vec<RequiredClasses> = (0..n)
            .map(|v| {
                let mut ids = Vec::new();
                for c in q.class_constraints(v) {
                    match dict.id_of(c) {
                        Some(id) => ids.push(id),
                        None => return RequiredClasses::Unsatisfiable,
                    }
                }
                RequiredClasses::Resolved(ids)
            })
            .collect();
        let mut projection = Vec::with_capacity(q.projection().len());
        for name in q.projection() {
            projection.push(q.vertex_of_var(name)?);
        }
        Some(EncodedQuery {
            vertices,
            edges,
            out,
            inc,
            required_classes,
            projection,
        })
    }

    /// Rebuild an encoded query from its serializable parts (the inverse
    /// of reading the accessors). The per-vertex edge indexes are derived
    /// from the edge list; used by the wire codec when shipping a query
    /// to a remote worker process.
    ///
    /// All vectors must be consistent: `required_classes` has one entry
    /// per vertex, edge endpoints and projection entries index into
    /// `vertices`.
    pub fn from_parts(
        vertices: Vec<EncodedVertex>,
        edges: Vec<EncodedEdge>,
        required_classes: Vec<RequiredClasses>,
        projection: Vec<usize>,
    ) -> Self {
        let n = vertices.len();
        assert_eq!(required_classes.len(), n, "one class entry per vertex");
        let mut out = vec![Vec::new(); n];
        let mut inc = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out[e.from].push(i);
            inc[e.to].push(i);
        }
        EncodedQuery {
            vertices,
            edges,
            out,
            inc,
            required_classes,
            projection,
        }
    }

    /// Number of query vertices `|V^Q|`.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of query edges `|E^Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The encoded vertices.
    pub fn vertices(&self) -> &[EncodedVertex] {
        &self.vertices
    }

    /// The encoded edges.
    pub fn edges(&self) -> &[EncodedEdge] {
        &self.edges
    }

    /// One vertex.
    pub fn vertex(&self, v: usize) -> EncodedVertex {
        self.vertices[v]
    }

    /// One edge.
    pub fn edge(&self, i: usize) -> &EncodedEdge {
        &self.edges[i]
    }

    /// Outgoing edge indexes of `v`.
    pub fn out_edges(&self, v: usize) -> &[usize] {
        &self.out[v]
    }

    /// Incoming edge indexes of `v`.
    pub fn in_edges(&self, v: usize) -> &[usize] {
        &self.inc[v]
    }

    /// All edges incident to `v`.
    pub fn incident_edges(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.out[v].iter().chain(self.inc[v].iter()).copied()
    }

    /// Undirected neighbors of `v` (deduplicated, excluding self).
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut ns: Vec<usize> = self.out[v]
            .iter()
            .map(|&e| self.edges[e].to)
            .chain(self.inc[v].iter().map(|&e| self.edges[e].from))
            .filter(|&u| u != v)
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Query-vertex ids of the projection, in order.
    pub fn projection(&self) -> &[usize] {
        &self.projection
    }

    /// Class requirements of a vertex.
    pub fn required_classes(&self, v: usize) -> &RequiredClasses {
        &self.required_classes[v]
    }

    /// Whether any vertex or edge is unsatisfiable (query has no matches).
    pub fn has_unsatisfiable(&self) -> bool {
        self.vertices
            .iter()
            .any(|v| matches!(v, EncodedVertex::Unsatisfiable))
            || self
                .edges
                .iter()
                .any(|e| matches!(e.label, EncodedLabel::Unsatisfiable))
            || self
                .required_classes
                .iter()
                .any(|r| matches!(r, RequiredClasses::Unsatisfiable))
    }

    /// Whether the given vertex subset is weakly connected in the query.
    pub fn subset_connected(&self, subset: &[usize]) -> bool {
        if subset.is_empty() {
            return false;
        }
        let mut seen = vec![subset[0]];
        let mut stack = vec![subset[0]];
        while let Some(v) = stack.pop() {
            for u in self.neighbors(v) {
                if subset.contains(&u) && !seen.contains(&u) {
                    seen.push(u);
                    stack.push(u);
                }
            }
        }
        seen.len() == subset.len()
    }

    /// Every non-empty weakly-connected *proper* subset of query vertices:
    /// the candidate internal cores of the LPM enumerator. (The full vertex
    /// set is excluded — an all-internal match has no crossing edge and is
    /// a local complete match, not an LPM; Definition 5 condition 4.)
    pub fn proper_connected_subsets(&self) -> Vec<Vec<usize>> {
        let n = self.vertices.len();
        assert!(
            n <= MAX_QUERY_VERTICES,
            "query too large for subset enumeration"
        );
        let mut result = Vec::new();
        let full = (1u32 << n) - 1;
        for mask in 1u32..full {
            let subset: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            if self.subset_connected(&subset) {
                result.push(subset);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::parse_query;

    fn setup() -> (RdfGraph, QueryGraph) {
        let g = RdfGraph::from_triples(vec![Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        )]);
        let q = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://b> }").unwrap(),
        )
        .unwrap();
        (g, q)
    }

    #[test]
    fn encodes_constants_against_dictionary() {
        let (g, q) = setup();
        let e = EncodedQuery::encode(&q, g.dict()).unwrap();
        assert_eq!(e.vertex_count(), 2);
        assert!(e.vertex(0).is_var());
        let b = g.dict().id_of(&Term::iri("http://b")).unwrap();
        assert_eq!(e.vertex(1), EncodedVertex::Const(b));
        let p = g.dict().id_of(&Term::iri("http://p")).unwrap();
        assert_eq!(e.edge(0).label, EncodedLabel::Const(p));
        assert!(!e.has_unsatisfiable());
    }

    #[test]
    fn unknown_constants_are_unsatisfiable() {
        let (g, _) = setup();
        let q = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://nope> }").unwrap(),
        )
        .unwrap();
        let e = EncodedQuery::encode(&q, g.dict()).unwrap();
        assert_eq!(e.vertex(1), EncodedVertex::Unsatisfiable);
        assert!(e.has_unsatisfiable());
    }

    #[test]
    fn unknown_predicate_is_unsatisfiable() {
        let (g, _) = setup();
        let q =
            QueryGraph::from_query(&parse_query("SELECT ?x WHERE { ?x <http://q> ?y }").unwrap())
                .unwrap();
        let e = EncodedQuery::encode(&q, g.dict()).unwrap();
        assert_eq!(e.edge(0).label, EncodedLabel::Unsatisfiable);
    }

    #[test]
    fn variable_predicates_encode_as_any() {
        let (g, _) = setup();
        let q =
            QueryGraph::from_query(&parse_query("SELECT ?x WHERE { ?x ?p ?y }").unwrap()).unwrap();
        let e = EncodedQuery::encode(&q, g.dict()).unwrap();
        assert_eq!(e.edge(0).label, EncodedLabel::Any);
    }

    #[test]
    fn predicate_only_projection_is_rejected() {
        let (g, _) = setup();
        let q =
            QueryGraph::from_query(&parse_query("SELECT ?p WHERE { ?x ?p ?y }").unwrap()).unwrap();
        assert!(EncodedQuery::encode(&q, g.dict()).is_none());
    }

    #[test]
    fn projection_maps_to_vertex_ids() {
        let (g, q) = setup();
        let e = EncodedQuery::encode(&q, g.dict()).unwrap();
        assert_eq!(e.projection(), &[0]);
    }

    #[test]
    fn proper_connected_subsets_exclude_full_set() {
        let (g, _) = setup();
        let q = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://p> ?z }").unwrap(),
        )
        .unwrap();
        let e = EncodedQuery::encode(&q, g.dict()).unwrap();
        let subsets = e.proper_connected_subsets();
        assert!(subsets.iter().all(|s| s.len() < 3));
        // {x,y}, {y,z} connected; {x,z} not; singletons all connected.
        assert_eq!(subsets.len(), 3 + 2);
    }

    #[test]
    fn encoding_does_not_grow_dictionary() {
        let (g, _) = setup();
        let before = g.dict().len();
        let q = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://unknown> }").unwrap(),
        )
        .unwrap();
        let _ = EncodedQuery::encode(&q, g.dict()).unwrap();
        assert_eq!(g.dict().len(), before);
    }
}
