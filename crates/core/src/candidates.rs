//! Assembling variables' internal candidates (Section VI, Algorithm 4).
//!
//! Each site compresses, per query variable `v`, its internal candidate
//! set `C(Q, v)` into a fixed-length bit vector `B_v` (one hash; on the
//! wire the fixed length is the upper bound — a vector with few set bits
//! ships as their positions, see `docs/protocol.md`). The
//! coordinator ORs the per-site vectors and broadcasts the result; sites
//! then refuse to bind an *extended* vertex to `v` unless its bit is set.
//! Soundness: a vertex appearing in any complete match is an internal
//! candidate at its home site, so its bit is always set (the filter has
//! false positives, never false negatives).
//!
//! Message flow (all frames charged to the candidates stage):
//!
//! 1. coordinator → sites: [`Request::ComputeCandidates`],
//! 2. sites → coordinator: `BitVectors` replies (`B'_v` per variable),
//! 3. coordinator unions per variable (Algorithm 4 lines 2–6). If some
//!    variable's union has no bit set, no site holds an internal
//!    candidate for it and the query has no match: the coordinator sends
//!    every site a `ReleaseQuery` instead, and the query ends here,
//! 4. coordinator → sites: [`Request::SetCandidateFilter`] with the
//!    unioned vectors; sites keep them for LPM enumeration,
//! 5. sites → coordinator: `Ack`s.
//!
//! [`exchange_candidates`] is the step-by-step form of steps 1–5 that
//! harnesses time; it does not stop at an empty union.

use gstored_net::StageMetrics;
use gstored_store::candidates::{BitVectorFilter, CandidateFilter};
use gstored_store::EncodedQuery;

use crate::error::EngineError;
use crate::protocol::{self, Request, ResponseBody};
use crate::runtime::{expect_acks, WorkerPool};

/// The query's variable vertices, in vertex order — the ones that get
/// bit vectors (constants are checked directly).
pub(crate) fn var_vertices(q: &EncodedQuery) -> Vec<usize> {
    (0..q.vertex_count())
        .filter(|&v| q.vertex(v).is_var())
        .collect()
}

/// Union per-site `BitVectors` replies into one vector per variable
/// (Algorithm 4 lines 2–6). Shared by the step-by-step exchange below
/// and the engine, which collects the same replies from its
/// `[InstallQuery, ComputeCandidates]` chains.
pub(crate) fn union_bit_vectors(
    bodies: &[ResponseBody],
    var_count: usize,
    bits_per_variable: usize,
) -> Result<Vec<BitVectorFilter>, EngineError> {
    let mut acc: Vec<BitVectorFilter> = (0..var_count)
        .map(|_| BitVectorFilter::new(bits_per_variable))
        .collect();
    for body in bodies {
        let ResponseBody::BitVectors(vectors) = body else {
            return Err(EngineError::Protocol(
                "expected BitVectors reply to ComputeCandidates".into(),
            ));
        };
        if vectors.len() != acc.len() {
            return Err(EngineError::Protocol(
                "wrong bit-vector count from site".into(),
            ));
        }
        for (a, b) in acc.iter_mut().zip(vectors) {
            // union_with asserts equal widths; a mismatched reply
            // must be a protocol error, not a coordinator abort.
            if b.n_bits() != a.n_bits() {
                return Err(EngineError::Protocol(format!(
                    "bit vector of {} bits where {} were requested",
                    b.n_bits(),
                    a.n_bits()
                )));
            }
            a.union_with(b);
        }
    }
    Ok(acc)
}

/// Run Algorithm 4 over the pool's workers, one broadcast per step (the
/// query must already be installed on every site). The workers adopt the
/// unioned filter for their upcoming LPM enumeration; the same filter is
/// also returned for inspection, plus the stage metrics covering every
/// exchanged frame. The engine folds these steps into its per-phase
/// chains instead; this standalone form serves harnesses that measure
/// the exchange on its own.
///
/// Unlike the engine, it goes on after a variable's union came out
/// empty: the engine ends such a query at the union with one
/// `ReleaseQuery` broadcast, so whatever a harness runs after this form
/// is work the engine skips.
pub fn exchange_candidates(
    pool: &WorkerPool<'_>,
    q: &EncodedQuery,
    bits_per_variable: usize,
) -> Result<(CandidateFilter, StageMetrics), EngineError> {
    let mut stage = StageMetrics::default();
    let query = pool.query();
    let n = q.vertex_count();
    let vars = var_vertices(q);

    // Site side: find C(Q, v) and hash into B'_v (lines 10–15).
    let compute = Request::ComputeCandidates {
        query,
        bits: bits_per_variable,
    };
    let bodies = pool.broadcast_frame(protocol::encode_request(&compute), &mut stage)?;

    // Coordinator: union per variable (lines 2–6).
    let unioned: Vec<BitVectorFilter> =
        stage.time(|| union_bit_vectors(&bodies, vars.len(), bits_per_variable))?;

    // Broadcast the result to every site (lines 7–8); sites adopt it.
    let vectors: Vec<(usize, BitVectorFilter)> =
        vars.iter().copied().zip(unioned.iter().cloned()).collect();
    let filter_frame = protocol::encode_request(&Request::SetCandidateFilter { query, vectors });
    expect_acks(pool.broadcast_frame(filter_frame, &mut stage)?)?;

    let mut filter = CandidateFilter::none(n);
    for (i, &v) in vars.iter().enumerate() {
        filter.extended_bits[v] = Some(unioned[i].clone());
    }
    Ok((filter, stage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use crate::worker::with_in_process_workers;
    use gstored_net::{NetworkModel, Transport};
    use gstored_partition::{DistributedGraph, HashPartitioner};
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use gstored_store::internal_candidates;

    fn setup() -> (DistributedGraph, EncodedQuery) {
        let mut triples = Vec::new();
        for i in 0..30 {
            triples.push(Triple::new(
                Term::iri(format!("http://s/{i}")),
                Term::iri("http://p"),
                Term::iri(format!("http://o/{i}")),
            ));
        }
        let g = RdfGraph::from_triples(triples);
        let qg =
            QueryGraph::from_query(&parse_query("SELECT * WHERE { ?x <http://p> ?y }").unwrap())
                .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        (dist, q)
    }

    /// Run `exchange_candidates` against live in-process workers with the
    /// query pre-installed (as the engine does).
    fn exchange(
        dist: &DistributedGraph,
        q: &EncodedQuery,
        bits: usize,
    ) -> (CandidateFilter, StageMetrics) {
        use crate::protocol::QueryId;
        use crate::runtime::ReplyRouter;
        with_in_process_workers(dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let qid = QueryId(0);
            let pool = WorkerPool::new(transport, &router, NetworkModel::instant(), qid);
            let mut setup = StageMetrics::default();
            expect_acks(
                pool.broadcast_frame(protocol::encode_install_query(qid, q), &mut setup)
                    .unwrap(),
            )
            .unwrap();
            exchange_candidates(&pool, q, bits).unwrap()
        })
    }

    #[test]
    fn filter_admits_all_real_candidates() {
        let (dist, q) = setup();
        let (filter, _) = exchange(&dist, &q, 4096);
        // Every internal candidate anywhere must pass the extended check.
        for f in &dist.fragments {
            let cands = internal_candidates(f, &q);
            for (v, cs) in cands.iter().enumerate() {
                for &c in cs {
                    assert!(filter.admits_extended(v, c));
                }
            }
        }
    }

    #[test]
    fn shipment_is_bounded_by_the_fixed_length_per_site() {
        let (dist, q) = setup();
        let bits = 2048;
        let (_, stage) = exchange(&dist, &q, bits);
        // 3 request frames, 3 BitVectors replies (2 vectors each), 3
        // filter broadcasts (2 vectors each), 3 acks: 12 frames carrying
        // 12 vector payloads in total.
        assert_eq!(stage.messages, 12);
        // Section VI's fixed length is the upper bound per vector; the
        // envelopes (tags, elapsed stamps, counts) stay within a few
        // dozen bytes per frame.
        assert!(stage.bytes_shipped <= 12 * (bits as u64 / 8) + 12 * 64);
        // 30 candidates per variable across 3 sites set at most 30 bits
        // per unioned vector, so the sparse form ships: well under a
        // quarter of the dense size.
        assert!(stage.bytes_shipped < 3 * (bits as u64 / 8));
    }

    #[test]
    fn shipment_is_identical_across_runs() {
        // Frame lengths are deterministic (fixed-width elapsed stamps),
        // so repeated exchanges charge identical bytes.
        let (dist, q) = setup();
        let (_, a) = exchange(&dist, &q, 1024);
        let (_, b) = exchange(&dist, &q, 1024);
        assert_eq!(a.bytes_shipped, b.bytes_shipped);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn constants_get_no_bit_vector() {
        let g = RdfGraph::from_triples(vec![Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        )]);
        let qg = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://b> }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let (filter, _) = exchange(&dist, &q, 1024);
        assert!(filter.extended_bits[0].is_some(), "?x is a variable");
        assert!(
            filter.extended_bits[1].is_none(),
            "constant needs no filter"
        );
    }

    #[test]
    fn unmatchable_variable_gets_empty_vector() {
        let (dist, _) = setup();
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://p> ?z }").unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let (filter, _) = exchange(&dist, &q, 1024);
        // ?y needs in-p and out-p; no vertex qualifies: its vector is empty
        // so it admits (almost) nothing.
        let admitted = (0..200u64)
            .filter(|&i| filter.admits_extended(1, gstored_rdf::TermId(i)))
            .count();
        assert_eq!(admitted, 0);
    }
}
