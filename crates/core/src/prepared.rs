//! Prepared query plans: the prepare-once / execute-many split.
//!
//! The paper's whole pitch is amortization — LEC pruning and candidate
//! exchange exist so that expensive work happens once and cheap work
//! happens per datum. The same principle applies one level up, at the API:
//! a production engine serving the same query shapes over and over should
//! not re-derive query metadata on every call. [`PreparedPlan`] is the
//! boundary between the two phases:
//!
//! **Cached at prepare time** (done exactly once per plan, in
//! [`PreparedPlan::new`]):
//!
//! * the lowered [`QueryGraph`] (Definition 2) handed in by the caller,
//! * the size guard against [`MAX_QUERY_VERTICES`],
//! * the dictionary-encoded [`EncodedQuery`] — every constant resolved to
//!   a [`gstored_rdf::TermId`] against the distributed graph's dictionary,
//!   including the per-vertex class-constraint resolution and the
//!   projection-to-vertex mapping (this is where unsupported
//!   predicate-only projections are rejected),
//! * the [`ShapeReport`] from [`analysis::analyze`] — star detection for
//!   the Section VIII-B fast path and the selectivity flags.
//!
//! **Computed per execution** (in [`crate::engine::Engine::execute_on`]
//! and the session's concurrent entry points):
//!
//! * candidate bit-vector exchange (Algorithm 4, `Full` only),
//! * partial evaluation at every site (local complete matches + LPMs),
//! * LEC feature computation, shipment and pruning (Algorithms 1–2),
//! * assembly (Algorithm 3 / the basic partition join) and the final
//!   projection / `DISTINCT` / `LIMIT` pass.
//!
//! Everything per-execution depends on the *data*; everything cached
//! depends only on the *query* and the *dictionary*. A plan is therefore
//! reusable for any number of executions against the distributed graph
//! whose dictionary it was encoded with — and invalid for any other graph
//! (term ids are dictionary-local), which is why the umbrella crate's
//! `GStoreD` facade ties prepared queries to their session by lifetime.

use gstored_rdf::Dictionary;
use gstored_sparql::{analysis, QueryGraph, ShapeReport};
use gstored_store::{EncodedQuery, MAX_QUERY_VERTICES};

use crate::error::EngineError;

/// Everything the engine derives from a query before touching data,
/// computed exactly once and reused across executions.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    query: QueryGraph,
    encoded: EncodedQuery,
    shape: ShapeReport,
    /// Identity of the dictionary the plan was encoded against. Term ids
    /// are dictionary-local, so executing a plan against a different
    /// graph would silently bind garbage; the engine checks this
    /// fingerprint. Interning refreshes a dictionary's uid, so uid
    /// equality guarantees an identical id space (see
    /// [`Dictionary::uid`]).
    dict_uid: u64,
}

impl PreparedPlan {
    /// Encode and analyze `query` against `dict`.
    ///
    /// This performs all per-query work the engine needs: the size guard,
    /// [`EncodedQuery::encode`] and [`analysis::analyze`]. Fails when the
    /// query has more than [`MAX_QUERY_VERTICES`] vertices or projects a
    /// variable that only occurs in predicate position.
    pub fn new(query: QueryGraph, dict: &Dictionary) -> Result<Self, EngineError> {
        if query.vertex_count() > MAX_QUERY_VERTICES {
            return Err(EngineError::QueryTooLarge(query.vertex_count()));
        }
        let Some(encoded) = EncodedQuery::encode(&query, dict) else {
            let var = query
                .projection()
                .iter()
                .find(|v| query.vertex_of_var(v).is_none())
                .cloned()
                .unwrap_or_default();
            return Err(EngineError::PredicateOnlyProjection(var));
        };
        let shape = analysis::analyze(&query);
        Ok(PreparedPlan {
            query,
            encoded,
            shape,
            dict_uid: dict.uid(),
        })
    }

    /// Identity of the dictionary this plan was encoded against (used by
    /// the engine to reject execution against a different graph).
    pub fn dict_uid(&self) -> u64 {
        self.dict_uid
    }

    /// The decoded query graph.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The dictionary-encoded query graph.
    pub fn encoded(&self) -> &EncodedQuery {
        &self.encoded
    }

    /// The cached shape/selectivity analysis.
    pub fn shape(&self) -> &ShapeReport {
        &self.shape
    }

    /// Projected variable names, in projection order.
    pub fn projection(&self) -> &[String] {
        self.query.projection()
    }

    /// Whether some constant in the query cannot match the data at all
    /// (the executor then short-circuits to an empty result).
    pub fn is_unsatisfiable(&self) -> bool {
        self.encoded.has_unsatisfiable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryShape};

    fn graph() -> RdfGraph {
        RdfGraph::from_triples(vec![Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        )])
    }

    fn lower(text: &str) -> QueryGraph {
        QueryGraph::from_query(&parse_query(text).unwrap()).unwrap()
    }

    #[test]
    fn plan_caches_encoding_and_shape() {
        let g = graph();
        let plan =
            PreparedPlan::new(lower("SELECT ?x WHERE { ?x <http://p> ?y }"), g.dict()).unwrap();
        assert_eq!(plan.shape().shape, QueryShape::Star);
        assert_eq!(plan.projection(), &["x".to_string()]);
        assert_eq!(plan.encoded().vertex_count(), 2);
        assert!(!plan.is_unsatisfiable());
    }

    #[test]
    fn predicate_only_projection_rejected_at_prepare_time() {
        let g = graph();
        let err = PreparedPlan::new(lower("SELECT ?p WHERE { ?x ?p ?y }"), g.dict());
        assert!(matches!(err, Err(EngineError::PredicateOnlyProjection(v)) if v == "p"));
    }

    #[test]
    fn unknown_constants_prepare_as_unsatisfiable() {
        let g = graph();
        let plan = PreparedPlan::new(
            lower("SELECT ?x WHERE { ?x <http://p> <http://no> }"),
            g.dict(),
        )
        .unwrap();
        assert!(plan.is_unsatisfiable());
    }
}
