//! # gstored-store
//!
//! The per-site local evaluation layer: what the paper obtains by
//! "modifying gStore \[25\] to perform partial evaluation". Each simulated
//! site wraps its [`gstored_partition::Fragment`] in a [`LocalStore`] and
//! exposes:
//!
//! * [`encoded::EncodedQuery`] — the query graph with constants resolved
//!   against the dictionary.
//! * [`candidates`] — filter-and-evaluate candidate computation per query
//!   vertex (the "find candidates first" behaviour Section VI relies on),
//!   seeded from the fragment's label and class postings.
//! * [`matcher`] — backtracking graph homomorphism search, used for
//!   (a) the centralized reference evaluation, (b) intra-fragment complete
//!   matches, and (c) the star-query fast path of Section VIII-B.
//! * [`partial`] — the **local partial match** enumerator implementing
//!   Definition 5 exactly (connected internal core + forced crossing-edge
//!   boundary), reproducing the paper's Fig. 3 byte for byte.
//! * [`lpm::LocalPartialMatch`] — the partial-match representation shared
//!   with `gstored-core`, including the crossing-edge → query-edge mapping
//!   that LEC features are built from.

pub mod candidates;
pub mod encoded;
pub mod labels;
pub mod lpm;
pub mod matcher;
pub mod partial;

pub use candidates::{internal_candidates, stored_candidates, vertex_candidates, CandidateFilter};
pub use encoded::{
    EncodedEdge, EncodedLabel, EncodedQuery, EncodedVertex, RequiredClasses, MAX_QUERY_VERTICES,
};
pub use lpm::{Binding, LocalPartialMatch, LpmBatch, LpmRow};
pub use matcher::{
    find_matches, find_star_matches, local_complete_matches, matches_from, Adjacency,
};
pub use partial::{enumerate_local_partial_matches, partial_matches_from};

/// A local store: a fragment plus the machinery to evaluate queries on it.
///
/// Thin by design — all state lives in the fragment; the store adds the
/// evaluation entry points used by `gstored-core`'s sites.
#[derive(Debug, Clone)]
pub struct LocalStore {
    fragment: gstored_partition::Fragment,
}

impl LocalStore {
    /// Wrap a fragment.
    pub fn new(fragment: gstored_partition::Fragment) -> Self {
        LocalStore { fragment }
    }

    /// The underlying fragment.
    pub fn fragment(&self) -> &gstored_partition::Fragment {
        &self.fragment
    }

    /// Complete matches entirely inside this fragment (every query vertex
    /// bound to an **internal** vertex). Together with the assembled
    /// crossing matches these are exactly all matches, with no overlap.
    pub fn local_complete_matches(&self, q: &EncodedQuery) -> Vec<Vec<gstored_rdf::VertexId>> {
        matcher::local_complete_matches(&self.fragment, q)
    }

    /// Local partial matches per Definition 5.
    pub fn local_partial_matches(
        &self,
        q: &EncodedQuery,
        filter: &CandidateFilter,
    ) -> Vec<LocalPartialMatch> {
        partial::enumerate_local_partial_matches(&self.fragment, q, filter)
    }

    /// Internal candidates `C(Q, v)` for every query vertex (Section VI).
    pub fn internal_candidates(&self, q: &EncodedQuery) -> Vec<Vec<gstored_rdf::VertexId>> {
        candidates::internal_candidates(&self.fragment, q)
    }
}
