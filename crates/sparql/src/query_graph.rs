//! Query graph (Definition 2 of the paper).
//!
//! A BGP is lowered to a directed labeled multigraph `Q = {V^Q, E^Q, Σ^Q}`:
//! each distinct variable or constant term becomes one query vertex, each
//! triple pattern one edge whose label is a constant predicate or a
//! predicate variable. The rest of the system identifies query vertices by
//! their dense [`QVertexId`], which also indexes the `LECSign` bitstrings
//! of Definition 8.

use std::collections::HashMap;

use gstored_rdf::Term;

use crate::ast::{Query, TermPattern};
use crate::error::SparqlError;
use crate::Result;

/// Dense index of a query vertex (0-based, `< |V^Q|`).
pub type QVertexId = usize;

/// A query vertex: a variable or a constant term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QVertex {
    Var(String),
    Const(Term),
}

impl QVertex {
    /// Whether this vertex is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, QVertex::Var(_))
    }

    /// The variable name if this vertex is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            QVertex::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl std::fmt::Display for QVertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QVertex::Var(v) => write!(f, "?{v}"),
            QVertex::Const(t) => write!(f, "{t}"),
        }
    }
}

/// An edge label: a constant predicate IRI or a predicate variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    Const(Term),
    Var(String),
}

impl EdgeLabel {
    /// Whether the label is a variable (matches any predicate).
    pub fn is_var(&self) -> bool {
        matches!(self, EdgeLabel::Var(_))
    }
}

/// A directed labeled query edge; `index` is its position in the pattern
/// list (edges form a multiset, so the index is the identity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QEdge {
    /// Position in `Query::patterns`; identifies the edge uniquely.
    pub index: usize,
    pub from: QVertexId,
    pub to: QVertexId,
    pub label: EdgeLabel,
}

/// The query graph of Definition 2.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    vertices: Vec<QVertex>,
    edges: Vec<QEdge>,
    /// Outgoing edge indexes per vertex.
    out: Vec<Vec<usize>>,
    /// Incoming edge indexes per vertex.
    inc: Vec<Vec<usize>>,
    /// Per-vertex class constraints extracted from `rdf:type` patterns
    /// with constant class objects (gStore folds these into vertex
    /// signatures; they are not query edges).
    class_constraints: Vec<Vec<Term>>,
    /// Projected variable names (after `SELECT` resolution).
    projection: Vec<String>,
    /// Whether `DISTINCT` was requested.
    pub distinct: bool,
    /// Optional limit.
    pub limit: Option<usize>,
}

impl QueryGraph {
    /// Lower a parsed [`Query`] to its query graph.
    ///
    /// Fails if the graph is not weakly connected — the paper assumes
    /// connected queries ("otherwise, all connected components of Q are
    /// considered separately"); handling components separately is the
    /// caller's job.
    pub fn from_query(q: &Query) -> Result<Self> {
        let mut vertices: Vec<QVertex> = Vec::new();
        let mut index: HashMap<QVertex, QVertexId> = HashMap::new();
        let intern = |tp: &TermPattern,
                      vertices: &mut Vec<QVertex>,
                      index: &mut HashMap<QVertex, QVertexId>|
         -> QVertexId {
            let v = match tp {
                TermPattern::Var(name) => QVertex::Var(name.clone()),
                TermPattern::Const(t) => QVertex::Const(t.clone()),
            };
            if let Some(&id) = index.get(&v) {
                return id;
            }
            let id = vertices.len();
            vertices.push(v.clone());
            index.insert(v, id);
            id
        };

        // Split off `rdf:type` patterns with constant IRI classes: they
        // become vertex class constraints, not edges (matching gStore's
        // vertex-signature encoding; the paper's Fig. 1 has no type
        // edges). Variable-class type patterns are unsupported because
        // class IRIs are not graph vertices in this model.
        let is_type_pred = |p: &TermPattern| {
            matches!(p, TermPattern::Const(Term::Iri(iri))
                if iri == gstored_rdf::vocab::rdf::TYPE)
        };
        let mut constraints: Vec<(TermPattern, Term)> = Vec::new();
        let mut edge_patterns = Vec::new();
        for (i, p) in q.patterns.iter().enumerate() {
            if is_type_pred(&p.predicate) {
                match &p.object {
                    TermPattern::Const(c @ Term::Iri(_)) => {
                        constraints.push((p.subject.clone(), c.clone()));
                        continue;
                    }
                    TermPattern::Var(v) => {
                        return Err(SparqlError::Unsupported(format!(
                            "rdf:type pattern with variable class ?{v}"
                        )));
                    }
                    _ => {} // literal-typed objects stay ordinary edges
                }
            }
            edge_patterns.push((i, p));
        }

        let mut edges = Vec::with_capacity(edge_patterns.len());
        for (edge_index, (i, p)) in edge_patterns.iter().enumerate() {
            let _ = i;
            let from = intern(&p.subject, &mut vertices, &mut index);
            let to = intern(&p.object, &mut vertices, &mut index);
            let label = match &p.predicate {
                TermPattern::Var(v) => EdgeLabel::Var(v.clone()),
                TermPattern::Const(t) => EdgeLabel::Const(t.clone()),
            };
            edges.push(QEdge {
                index: edge_index,
                from,
                to,
                label,
            });
        }
        // Intern constrained subjects (they may occur in no edge) and
        // attach the constraints.
        let mut class_constraints = vec![Vec::new(); vertices.len()];
        for (subject, class) in constraints {
            let v = intern(&subject, &mut vertices, &mut index);
            if v >= class_constraints.len() {
                class_constraints.resize(v + 1, Vec::new());
            }
            if !class_constraints[v].contains(&class) {
                class_constraints[v].push(class);
            }
        }
        class_constraints.resize(vertices.len(), Vec::new());

        let n = vertices.len();
        let mut out = vec![Vec::new(); n];
        let mut inc = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out[e.from].push(i);
            inc[e.to].push(i);
        }

        let projection = q.projection().iter().map(|s| s.to_string()).collect();
        let g = QueryGraph {
            vertices,
            edges,
            out,
            inc,
            class_constraints,
            projection,
            distinct: q.distinct,
            limit: q.limit,
        };
        if !g.is_connected() {
            return Err(SparqlError::InvalidBgp(
                "query graph is not weakly connected".into(),
            ));
        }
        Ok(g)
    }

    /// Number of query vertices `|V^Q|`.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of query edges `|E^Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The query vertices.
    pub fn vertices(&self) -> &[QVertex] {
        &self.vertices
    }

    /// The query edges (multiset, ordered by pattern index).
    pub fn edges(&self) -> &[QEdge] {
        &self.edges
    }

    /// One vertex by id.
    pub fn vertex(&self, v: QVertexId) -> &QVertex {
        &self.vertices[v]
    }

    /// One edge by its pattern index.
    pub fn edge(&self, i: usize) -> &QEdge {
        &self.edges[i]
    }

    /// Outgoing edge indexes of `v`.
    pub fn out_edges(&self, v: QVertexId) -> &[usize] {
        &self.out[v]
    }

    /// Incoming edge indexes of `v`.
    pub fn in_edges(&self, v: QVertexId) -> &[usize] {
        &self.inc[v]
    }

    /// All edge indexes incident to `v` (out then in).
    pub fn incident_edges(&self, v: QVertexId) -> impl Iterator<Item = usize> + '_ {
        self.out[v].iter().chain(self.inc[v].iter()).copied()
    }

    /// Undirected neighbors of `v`, deduplicated.
    pub fn neighbors(&self, v: QVertexId) -> Vec<QVertexId> {
        let mut ns: Vec<QVertexId> = self.out[v]
            .iter()
            .map(|&e| self.edges[e].to)
            .chain(self.inc[v].iter().map(|&e| self.edges[e].from))
            .filter(|&u| u != v)
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Undirected degree of `v` (counting multi-edges).
    pub fn degree(&self, v: QVertexId) -> usize {
        self.out[v].len() + self.inc[v].len()
    }

    /// Projected variable names.
    pub fn projection(&self) -> &[String] {
        &self.projection
    }

    /// Vertex id of a variable, if the variable occurs as a vertex.
    ///
    /// (Predicate-only variables label edges and have no vertex.)
    pub fn vertex_of_var(&self, name: &str) -> Option<QVertexId> {
        self.vertices.iter().position(|v| v.as_var() == Some(name))
    }

    /// Ids of all variable vertices.
    pub fn var_vertices(&self) -> Vec<QVertexId> {
        (0..self.vertices.len())
            .filter(|&v| self.vertices[v].is_var())
            .collect()
    }

    /// Class constraints of a vertex (from `rdf:type` patterns).
    pub fn class_constraints(&self, v: QVertexId) -> &[Term] {
        &self.class_constraints[v]
    }

    /// Whether the query graph is weakly connected.
    pub fn is_connected(&self) -> bool {
        if self.vertices.is_empty() {
            return false;
        }
        if self.vertices.len() == 1 {
            // A single (possibly class-constrained) vertex is connected.
            return true;
        }
        let mut seen = vec![false; self.vertices.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for u in self.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.vertices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    /// The paper's Fig. 2 query graph.
    fn paper_query() -> QueryGraph {
        let q = parse_query(
            r#"SELECT ?p2 ?l WHERE {
                ?t <http://dbpedia.org/ontology/label> ?l .
                ?p1 <http://dbpedia.org/ontology/influencedBy> ?p2 .
                ?p2 <http://dbpedia.org/ontology/mainInterest> ?t .
                ?p1 <http://dbpedia.org/ontology/name> "Crispin Wright"@en .
            }"#,
        )
        .unwrap();
        QueryGraph::from_query(&q).unwrap()
    }

    #[test]
    fn paper_fig2_has_five_vertices_four_edges() {
        let g = paper_query();
        assert_eq!(g.vertex_count(), 5, "?t ?l ?p1 ?p2 and the literal");
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn constants_are_shared_vertices() {
        let q = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://p> <http://c> . ?y <http://q> <http://c> . }",
        )
        .unwrap();
        let g = QueryGraph::from_query(&q).unwrap();
        assert_eq!(g.vertex_count(), 3, "the shared constant is one vertex");
    }

    #[test]
    fn predicate_variables_do_not_create_vertices() {
        let q = parse_query("SELECT ?p WHERE { <http://a> ?p <http://b> }").unwrap();
        let g = QueryGraph::from_query(&q).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert!(g.edges()[0].label.is_var());
        assert_eq!(g.vertex_of_var("p"), None);
    }

    #[test]
    fn disconnected_queries_are_rejected() {
        let q = parse_query("SELECT * WHERE { ?a <http://p> ?b . ?c <http://p> ?d . }").unwrap();
        assert!(matches!(
            QueryGraph::from_query(&q),
            Err(SparqlError::InvalidBgp(_))
        ));
    }

    #[test]
    fn self_loop_query_is_connected() {
        let q = parse_query("SELECT ?a WHERE { ?a <http://p> ?a }").unwrap();
        let g = QueryGraph::from_query(&q).unwrap();
        assert_eq!(g.vertex_count(), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = paper_query();
        for (i, e) in g.edges().iter().enumerate() {
            assert!(g.out_edges(e.from).contains(&i));
            assert!(g.in_edges(e.to).contains(&i));
        }
        let p2 = g.vertex_of_var("p2").unwrap();
        // ?p2 has influencedBy incoming and mainInterest outgoing.
        assert_eq!(g.degree(p2), 2);
        assert_eq!(g.neighbors(p2).len(), 2);
    }

    #[test]
    fn multiset_edges_are_preserved() {
        let q = parse_query("SELECT * WHERE { ?x <http://p> ?y . ?x <http://p> ?y . ?x ?z ?y . }")
            .unwrap();
        let g = QueryGraph::from_query(&q).unwrap();
        assert_eq!(g.edge_count(), 3, "E^Q is a multiset (Definition 2)");
    }

    #[test]
    fn projection_resolution() {
        let g = paper_query();
        assert_eq!(g.projection(), &["p2".to_string(), "l".to_string()]);
    }
}
