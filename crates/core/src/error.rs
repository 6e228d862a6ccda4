//! Engine error type.

use std::fmt;

/// Errors from the distributed engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query projects a variable that only occurs in predicate
    /// position. Definition 3 gives predicate variables per-edge "match
    /// anything" semantics, so they carry no binding to project.
    PredicateOnlyProjection(String),
    /// The query has more than `gstored_store::MAX_QUERY_VERTICES`
    /// vertices.
    QueryTooLarge(usize),
    /// The fleet has more than [`crate::MAX_SITES`] sites.
    TooManySites(usize),
    /// `EngineConfig::candidate_bits` times the query's variable count
    /// exceeds `protocol::MAX_CANDIDATE_BITS`: the sites would refuse the
    /// frames, so the engine sends none.
    CandidateVectorsTooLarge {
        /// The configured bits per candidate vector.
        bits: usize,
        /// The query's variable vertices (one vector each).
        vectors: usize,
    },
    /// A prepared plan was executed against a graph whose dictionary does
    /// not match the one it was encoded with. Term ids are
    /// dictionary-local, so executing anyway would bind garbage.
    PlanGraphMismatch {
        /// Identity of the dictionary the plan was encoded against.
        plan_dict: u64,
        /// Identity of the dictionary of the graph handed to `execute`.
        graph_dict: u64,
    },
    /// The transport to a site worker failed (connection refused, worker
    /// hung up mid-query, wrong worker count for the partitioning).
    Transport(String),
    /// A site did not answer within the query's deadline budget
    /// (`EngineConfig::query_deadline`). The site may be slow, hung, or
    /// dead — the coordinator cannot tell from silence, so it surfaces
    /// this typed error instead of blocking and lets the session's
    /// repair path probe and recover the site.
    Timeout {
        /// Site that went silent.
        site: usize,
        /// Pipeline stage that was waiting on the reply.
        stage: &'static str,
    },
    /// A site is down and the session's repair path (reconnect with
    /// backoff + fragment re-install) could not bring it back. Queries
    /// cannot be answered until the worker returns.
    SiteUnavailable {
        /// The irreparable site.
        site: usize,
        /// Why the last repair attempt failed.
        reason: String,
    },
    /// A frame violated the wire protocol (decode failure, or a response
    /// kind that does not answer the request that was sent).
    Protocol(String),
    /// A site worker reported that it could not serve a request (e.g. no
    /// fragment installed on a remote worker).
    Worker(String),
    /// A site worker was asked about a query id it does not hold — never
    /// installed, already released, or evicted by the worker's
    /// state-table capacity cap. The typed form of the worker's
    /// `UnknownQuery` protocol reply.
    UnknownQuery {
        /// Site that reported the unknown id.
        site: usize,
        /// The query id the frame referenced.
        query: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::PredicateOnlyProjection(v) => write!(
                f,
                "cannot project ?{v}: it only occurs in predicate position"
            ),
            EngineError::QueryTooLarge(n) => write!(
                f,
                "query has {n} vertices; at most {} are supported",
                gstored_store::MAX_QUERY_VERTICES
            ),
            EngineError::TooManySites(n) => write!(
                f,
                "{n} sites requested; at most MAX_SITES = {} are supported",
                crate::MAX_SITES
            ),
            EngineError::CandidateVectorsTooLarge { bits, vectors } => write!(
                f,
                "{vectors} candidate vectors of {bits} bits exceed MAX_CANDIDATE_BITS"
            ),
            EngineError::PlanGraphMismatch {
                plan_dict,
                graph_dict,
            } => {
                write!(
                    f,
                    "prepared plan was encoded against a different graph \
                     (dictionary identity {plan_dict} vs {graph_dict})"
                )
            }
            EngineError::Transport(msg) => write!(f, "transport failure: {msg}"),
            EngineError::Timeout { site, stage } => write!(
                f,
                "site {site} did not answer within the deadline during {stage}"
            ),
            EngineError::SiteUnavailable { site, reason } => {
                write!(f, "site {site} is unavailable and repair failed: {reason}")
            }
            EngineError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            EngineError::Worker(msg) => write!(f, "worker error: {msg}"),
            EngineError::UnknownQuery { site, query } => write!(
                f,
                "site {site} does not hold query {query} \
                 (never installed, released, or evicted)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<gstored_net::TransportError> for EngineError {
    fn from(e: gstored_net::TransportError) -> Self {
        match e {
            // A failed dial names its site and means that worker is
            // unreachable — the typed degradation signal (the HTTP
            // layer's `503`), not an anonymous transport fault.
            gstored_net::TransportError::Connect { site, detail } => EngineError::SiteUnavailable {
                site,
                reason: format!("cannot connect: {detail}"),
            },
            e => EngineError::Transport(e.to_string()),
        }
    }
}

impl From<gstored_net::wire::WireError> for EngineError {
    fn from(e: gstored_net::wire::WireError) -> Self {
        EngineError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(EngineError::PredicateOnlyProjection("p".into())
            .to_string()
            .contains("?p"));
        assert!(EngineError::QueryTooLarge(65).to_string().contains("65"));
        let e = EngineError::PlanGraphMismatch {
            plan_dict: 3,
            graph_dict: 9,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('9'));
        let e = EngineError::Timeout {
            site: 4,
            stage: "partial_evaluation",
        };
        assert!(e.to_string().contains("site 4"));
        assert!(e.to_string().contains("partial_evaluation"));
        let e = EngineError::SiteUnavailable {
            site: 2,
            reason: "connection refused".into(),
        };
        assert!(e.to_string().contains("site 2"));
        assert!(e.to_string().contains("connection refused"));
    }
}
