//! Round-trip properties of every serialization layer: the wire codec,
//! the engine protocol, N-Triples, and the SPARQL pretty-printer.

use std::time::Duration;

use proptest::prelude::*;

use gstored::core::lec::{compute_lec_features, LecFeature};
use gstored::core::protocol::{self, QueryId, Request, Response, ResponseBody, WorkerStatus};
use gstored::net::{WireReader, WireWriter};
use gstored::rdf::{EdgeRef, Literal, Term, TermId, Triple};
use gstored::store::candidates::BitVectorFilter;
use gstored::store::{LocalPartialMatch, LpmBatch};

/// `body` as the reply frame a worker sends.
fn reply_frame(body: ResponseBody) -> bytes::Bytes {
    protocol::encode_response(&Response::new(Duration::ZERO, QueryId(3), body))
}

/// `body` through a reply frame and back.
fn reply_roundtrip(body: ResponseBody) -> ResponseBody {
    protocol::decode_response(reply_frame(body)).unwrap().body
}

/// `ids` as a verdict lists them: ascending, each once.
fn ascending(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// An LPM as Definition 5 shapes it: it binds a vertex (entry 0 always),
/// and each crossing edge joins two bound ids, picked by `from` and `to`
/// among the bound entries.
fn definition5_lpm(
    fragment: usize,
    bindings: &[Option<u64>],
    crossings: &[(usize, u64, usize, usize)],
    mask: u64,
) -> LocalPartialMatch {
    let mut binding: Vec<Option<TermId>> = bindings.iter().map(|o| o.map(TermId)).collect();
    binding[0] = binding[0].or(Some(TermId(0)));
    let bound: Vec<TermId> = binding.iter().flatten().copied().collect();
    let crossing = crossings
        .iter()
        .map(|&(from, label, to, qe)| {
            let from = bound[from % bound.len()];
            let to = bound[to % bound.len()];
            (
                EdgeRef {
                    from,
                    label: TermId(label),
                    to,
                },
                qe,
            )
        })
        .collect();
    LocalPartialMatch {
        fragment,
        binding,
        crossing,
        internal_mask: mask,
    }
}

/// Algorithm 1's output shape: one feature per sign, all of one
/// fragment, numbered from `first`; feature *i* maps the first *i*
/// entries of `mapping`.
fn numbered_features(
    fragments: u64,
    first: u32,
    mapping: &[(u64, u64, u64, usize)],
    signs: &[u64],
) -> Vec<LecFeature> {
    signs
        .iter()
        .zip(first..=u32::MAX)
        .enumerate()
        .map(|(i, (&sign, id))| LecFeature {
            fragments,
            mapping: mapping[..i.min(mapping.len())]
                .iter()
                .map(|&(a, l, b, qe)| {
                    (
                        EdgeRef {
                            from: TermId(a),
                            label: TermId(l),
                            to: TermId(b),
                        },
                        qe,
                    )
                })
                .collect(),
            sign,
            sources: vec![id],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn wire_varints_roundtrip(values in prop::collection::vec(any::<u64>(), 0..50)) {
        let mut w = WireWriter::new();
        for &v in &values {
            w.u64(v);
        }
        let mut r = WireReader::new(w.finish());
        for &v in &values {
            prop_assert_eq!(r.u64().unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_mixed_roundtrip(
        nums in prop::collection::vec(any::<u64>(), 0..10),
        s in "[a-zA-Z0-9 ]{0,40}",
        flag in any::<bool>(),
        opt in prop::option::of(any::<u64>()),
    ) {
        let mut w = WireWriter::new();
        w.bool(flag).str(&s).opt_u64(opt);
        for &n in &nums {
            w.u64_fixed(n);
        }
        let mut r = WireReader::new(w.finish());
        prop_assert_eq!(r.bool().unwrap(), flag);
        prop_assert_eq!(r.str().unwrap(), s);
        prop_assert_eq!(r.opt_u64().unwrap(), opt);
        for &n in &nums {
            prop_assert_eq!(r.u64_fixed().unwrap(), n);
        }
    }

    #[test]
    fn lpm_protocol_roundtrip(
        fragment in 0usize..16,
        bindings in prop::collection::vec(prop::option::of(0u64..10_000), 1..8),
        crossings in prop::collection::vec((0usize..8, 0u64..50, 0usize..8, 0usize..8), 0..4),
        mask in any::<u64>(),
    ) {
        let lpm = definition5_lpm(fragment, &bindings, &crossings, mask);
        let batch = ResponseBody::Survivors(vec![lpm.clone(), lpm].into());
        prop_assert_eq!(reply_roundtrip(batch.clone()), batch);
    }

    #[test]
    fn feature_protocol_roundtrip(
        site in 0u32..64,
        first in any::<u32>(),
        mapping in prop::collection::vec((0u64..1000, 0u64..50, 0u64..1000, 0usize..8), 0..5),
        signs in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let features = numbered_features(1 << site, first, &mapping, &signs);
        let features = ResponseBody::Features(features);
        prop_assert_eq!(reply_roundtrip(features.clone()), features);
    }

    #[test]
    fn ntriples_roundtrip(
        subj in "[a-z]{1,10}",
        pred in "[a-z]{1,10}",
        lex in "[ -~]{0,30}",
        lang in prop::option::of("[a-z]{2}"),
    ) {
        let object = match lang {
            Some(tag) => Term::Literal(Literal::lang(lex.clone(), tag)),
            None => Term::Literal(Literal::plain(lex.clone())),
        };
        let triple = Triple::new(
            Term::iri(format!("http://s/{subj}")),
            Term::iri(format!("http://p/{pred}")),
            object,
        );
        let text = triple.to_string();
        let parsed = gstored::rdf::parse_ntriples_line(&text, 1).unwrap().unwrap();
        prop_assert_eq!(parsed, triple);
    }

    #[test]
    fn sparql_display_reparses(
        n_edges in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let text = gstored::datagen::random::random_query(n_edges, 4, None, seed);
        let q = gstored::sparql::parse_query(&text).unwrap();
        let pretty = q.to_string();
        let q2 = gstored::sparql::parse_query(&pretty).unwrap();
        prop_assert_eq!(q, q2);
    }

    #[test]
    fn request_envelope_roundtrip(
        qid in 0u32..u32::MAX,
        center in 0usize..64,
        bits in 64usize..8192,
        first_id in any::<u32>(),
        useful in prop::collection::vec(any::<u32>(), 0..32),
        filter_vertices in prop::collection::vec((0usize..8, 0u64..512), 0..4),
        seq in any::<u64>(),
        max in any::<usize>(),
        chain_from in 0usize..11,
        chain_to in 0usize..11,
    ) {
        let query = QueryId(qid);
        let requests = vec![
            Request::StarMatches { query, center },
            Request::ComputeCandidates { query, bits },
            Request::SetCandidateFilter {
                query,
                vectors: filter_vertices
                    .iter()
                    .map(|&(v, seed)| {
                        let mut bv = BitVectorFilter::new(256);
                        bv.insert(TermId(seed));
                        (v, bv)
                    })
                    .collect(),
            },
            Request::PartialEval { query },
            Request::ComputeLecFeatures { query, first_id },
            Request::DropPruned { query, useful: ascending(useful) },
            Request::ShipSurvivors { query },
            Request::ShipSurvivorsChunk { query, seq, max },
            Request::ShipSurvivorsChunk { query, seq: 0, max: usize::MAX },
            Request::ReleaseQuery { query },
            Request::WorkerStatus { query },
            Request::Shutdown,
        ];
        // ...and any run of the per-query ones as a `Chain`.
        let steps = &requests[chain_from.min(chain_to)..=chain_from.max(chain_to)];
        let chain = Request::Chain { query, steps: steps.to_vec() };
        for req in requests.iter().chain([&chain]) {
            let frame = protocol::encode_request(req);
            let decoded = protocol::decode_request(frame.clone()).unwrap();
            // Request carries non-PartialEq payloads; canonical
            // re-encoding must be byte-identical.
            prop_assert_eq!(decoded.query_id(), req.query_id());
            prop_assert_eq!(protocol::encode_request(&decoded), frame);
        }

        // What a chain may not carry is a decode error, not a panic: a
        // step of another query, `Shutdown`, `InstallFragment`, a chain.
        let frames: Vec<bytes::Bytes> = steps.iter().map(protocol::encode_request).collect();
        let with = |extra: bytes::Bytes| {
            let mut frames = frames.clone();
            frames.insert(chain_to.min(frames.len()), extra);
            protocol::decode_request(protocol::encode_chain(query, &frames))
        };
        prop_assert!(with(frames[0].clone()).is_ok());
        let stranger = Request::PartialEval { query: QueryId(qid.wrapping_add(1)) };
        prop_assert!(with(protocol::encode_request(&stranger)).is_err());
        prop_assert!(with(protocol::encode_request(&Request::Shutdown)).is_err());
        prop_assert!(with(protocol::encode_request(&chain)).is_err());
        let mut install_fragment = WireWriter::new();
        install_fragment.u64(1).usize(0);
        prop_assert!(with(install_fragment.finish()).is_err());
        prop_assert!(protocol::decode_request(protocol::encode_chain(query, &[])).is_err());
        // Chain: tag 15, query, then a step count the frame cannot hold.
        let mut hostile = WireWriter::new();
        hostile.u64(15).u32_fixed(qid).u64(u64::MAX >> chain_from);
        prop_assert!(protocol::decode_request(hostile.finish()).is_err());
    }

    /// Candidate vectors round-trip through whichever form the encoder
    /// picks, and never cost more than the fixed length plus the tag.
    #[test]
    fn bit_vectors_roundtrip_dense_and_sparse(
        n_bits in 64usize..5000,
        members in prop::collection::vec(any::<u64>(), 0..64),
        fill in 0usize..4,
    ) {
        let mut bv = BitVectorFilter::new(n_bits);
        for &m in &members {
            bv.insert(TermId(m));
        }
        // `fill` thickens the vector past where the sparse form pays.
        for i in 0..(fill * n_bits / 3) as u64 {
            bv.insert(TermId(i));
        }
        // The vector's share of a `BitVectors` reply (the count varint
        // is one byte for zero vectors and for one).
        let len = reply_frame(ResponseBody::BitVectors(vec![bv.clone()])).len()
            - reply_frame(ResponseBody::BitVectors(vec![])).len();
        // The fixed-length words behind the width varint and the tag.
        let dense = bv.wire_size() + if n_bits < 128 { 1 } else { 2 } + 1;
        prop_assert!(len <= dense, "{} > {}", len, dense);
        if members.len() + fill * n_bits / 3 < n_bits / 16 {
            prop_assert!(len < dense / 2, "few bits must ship sparse");
        }
        let reply = ResponseBody::BitVectors(vec![bv.clone()]);
        prop_assert_eq!(reply_roundtrip(reply.clone()), reply);
        // Coordinator to site, the unioned vector rides SetCandidateFilter.
        let frame = protocol::encode_request(&Request::SetCandidateFilter {
            query: QueryId(3),
            vectors: vec![(1, bv.clone())],
        });
        match protocol::decode_request(frame).unwrap() {
            Request::SetCandidateFilter { vectors, .. } => {
                prop_assert_eq!(vectors, vec![(1, bv)]);
            }
            other => prop_assert!(false, "decoded the wrong request: {:?}", other),
        }
    }

    /// Hostile vector frames — absurd widths, counts the frame cannot
    /// hold, positions past `n_bits` — are decode errors: no panic, no
    /// allocation sized by the claim. In a request and in a reply.
    #[test]
    fn hostile_bit_vectors_are_decode_errors(
        qid in any::<u32>(),
        n_bits in 64usize..4096,
        huge in (1usize << 27)..(usize::MAX >> 1),
        count in 1_000_000u64..u64::MAX / 2,
        beyond in 0usize..1_000_000,
        bits in any::<usize>(),
    ) {
        let vector = |n_bits: usize, body: &[u64]| {
            let mut w = WireWriter::new();
            w.usize(n_bits).bool(true);
            for &v in body {
                w.u64(v);
            }
            w.finish()
        };
        // Dense, with a bit set past a ragged width.
        let mut ragged = WireWriter::new();
        ragged.usize(70).bool(false).u64_fixed(1).u64_fixed(1 << 6);
        for payload in [
            ragged.finish(),
            vector(huge, &[0]),
            vector(n_bits, &[count]),
            vector(n_bits, &[1, (n_bits + beyond) as u64]),
            vector(n_bits, &[2, 1, (n_bits + beyond) as u64]),
            vector(n_bits, &[2, 7, 0]),
        ] {
            // SetCandidateFilter: tag 5, query, count, (vertex, vector).
            let mut w = WireWriter::new();
            w.u64(5).u32_fixed(qid).usize(1).usize(0);
            let mut request = w.finish().to_vec();
            request.extend_from_slice(&payload);
            prop_assert!(protocol::decode_request(request.into()).is_err());
            // BitVectors reply: elapsed, query, tag 3, count, vector.
            let mut w = WireWriter::new();
            w.u64_fixed(0).u32_fixed(qid).u64(3).usize(1);
            let mut reply = w.finish().to_vec();
            reply.extend_from_slice(&payload);
            prop_assert!(protocol::decode_response(reply.into()).is_err());
        }
        // The width budget is per frame: two vectors may not split it.
        let mut w = WireWriter::new();
        w.u64(5).u32_fixed(qid).usize(2);
        for v in 0..2 {
            w.usize(v).usize(protocol::MAX_CANDIDATE_BITS / 2 + n_bits).bool(true).usize(0);
        }
        prop_assert!(protocol::decode_request(w.finish()).is_err());
        // ...nor may the steps of one chain, which are all held decoded
        // at once: two max-width empty vectors in two steps are an error,
        // while one such step decodes.
        let mut step = WireWriter::new();
        step.u64(5).u32_fixed(qid).usize(1).usize(0);
        step.usize(protocol::MAX_CANDIDATE_BITS).bool(true).usize(0);
        let step = step.finish();
        for steps in [1usize, 2, 2 + n_bits % 64] {
            let mut w = WireWriter::new();
            w.u64(15).u32_fixed(qid).usize(steps);
            for _ in 0..steps {
                w.bytes(&step);
            }
            prop_assert_eq!(protocol::decode_request(w.finish()).is_ok(), steps == 1);
        }
        // ComputeCandidates names the width the worker will allocate.
        let frame = protocol::encode_request(&Request::ComputeCandidates {
            query: QueryId(qid),
            bits,
        });
        prop_assert_eq!(
            protocol::decode_request(frame).is_ok(),
            bits <= protocol::MAX_CANDIDATE_BITS
        );
    }

    #[test]
    fn request_frame_length_ignores_query_id(
        a in 0u32..u32::MAX,
        b in 0u32..u32::MAX,
    ) {
        // Per-session shipment determinism: ids are fixed-width, so the
        // thousandth query of a session ships the same bytes as its
        // first.
        for (x, y) in [
            (
                protocol::encode_request(&Request::PartialEval { query: QueryId(a) }),
                protocol::encode_request(&Request::PartialEval { query: QueryId(b) }),
            ),
            (
                protocol::encode_request(&Request::ReleaseQuery { query: QueryId(a) }),
                protocol::encode_request(&Request::ReleaseQuery { query: QueryId(b) }),
            ),
        ] {
            prop_assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn response_envelope_roundtrip(
        elapsed_nanos in any::<u64>(),
        qid in any::<u32>(),
        rows in prop::collection::vec(prop::collection::vec(any::<u64>(), 2), 0..8),
        lpm_count in any::<u64>(),
        fragment in 0usize..16,
        bindings in prop::collection::vec(prop::option::of(0u64..10_000), 1..6),
        crossings in prop::collection::vec((0usize..8, 0u64..50, 0usize..8, 0usize..8), 0..3),
        mask in any::<u64>(),
        message in "[ -~]{0,40}",
        status in prop::collection::vec(any::<u64>(), 4),
        chunk_seq in any::<u64>(),
        chunk_last in any::<bool>(),
    ) {
        let locals: Vec<Vec<TermId>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| TermId(v)).collect())
            .collect();
        let lpm = definition5_lpm(fragment, &bindings, &crossings, mask);
        let bodies = vec![
            ResponseBody::Ack,
            ResponseBody::Bindings(locals.clone()),
            ResponseBody::BitVectors(vec![BitVectorFilter::new(128)]),
            ResponseBody::PartialEval { locals, lpm_count },
            ResponseBody::Features(compute_lec_features(std::slice::from_ref(&lpm), 0).0),
            ResponseBody::Survivors(vec![lpm.clone()].into()),
            ResponseBody::SurvivorsChunk {
                lpms: vec![lpm.clone(), lpm].into(),
                seq: chunk_seq,
                last: chunk_last,
            },
            ResponseBody::SurvivorsChunk { lpms: LpmBatch::default(), seq: 0, last: true },
            ResponseBody::Status(WorkerStatus {
                resident_queries: status[0],
                resident_lpms: status[1],
                capacity: status[2],
                evictions: status[3],
            }),
            ResponseBody::UnknownQuery(QueryId(qid.wrapping_add(1))),
            ResponseBody::Error(message),
        ];
        // ...and all of them as the step replies of one `Chain`.
        let chain = ResponseBody::Chain(
            bodies
                .iter()
                .map(|body| {
                    let step = Response { elapsed_nanos, query: QueryId(qid), body: body.clone() };
                    protocol::encode_response(&step)
                })
                .collect(),
        );
        for body in bodies.into_iter().chain([chain]) {
            let resp = Response { elapsed_nanos, query: QueryId(qid), body };
            let frame = protocol::encode_response(&resp);
            let decoded = protocol::decode_response(frame).unwrap();
            prop_assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn response_frame_length_ignores_elapsed_and_query_id(
        a in any::<u64>(),
        b in any::<u64>(),
        qa in any::<u32>(),
        qb in any::<u32>(),
        lpm_count in any::<u64>(),
    ) {
        // Shipment determinism across backends hinges on this: the
        // elapsed stamp and query id are fixed-width, so neither timing
        // nor how many queries ran before changes frame sizes.
        let body = ResponseBody::PartialEval { locals: vec![], lpm_count };
        let fast = Response { elapsed_nanos: a, query: QueryId(qa), body: body.clone() };
        let slow = Response { elapsed_nanos: b, query: QueryId(qb), body };
        prop_assert_eq!(
            protocol::encode_response(&fast).len(),
            protocol::encode_response(&slow).len()
        );
    }

    #[test]
    fn bindings_protocol_roundtrip(
        rows in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 3),
            0..20
        ),
    ) {
        let bindings: Vec<Vec<TermId>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| TermId(v)).collect())
            .collect();
        let bindings = ResponseBody::Bindings(bindings);
        prop_assert_eq!(reply_roundtrip(bindings.clone()), bindings);
    }

    /// A hostile `SurvivorsChunk` reply claiming an enormous LPM count
    /// must decode to a typed error — never a panic or a huge
    /// `Vec::with_capacity` (a persistent coordinator reads frames from
    /// workers it does not control).
    #[test]
    fn hostile_survivors_chunk_counts_are_decode_errors(
        qid in any::<u32>(),
        seq in any::<u64>(),
        claimed in 1_000_000u64..u64::MAX / 2,
    ) {
        // Envelope layout: elapsed u64 fixed, query u32 fixed, tag 10
        // (SurvivorsChunk), seq varint, last bool, then the LPM batch,
        // which opens with its run count.
        let mut w = gstored::net::WireWriter::new();
        w.u64_fixed(0).u32_fixed(qid).u64(10).u64(seq).bool(true).u64(claimed);
        prop_assert!(protocol::decode_response(w.finish()).is_err());
    }

    /// Truncated streaming request frames (ShipSurvivorsChunk missing its
    /// cursor fields, ReleaseQuery missing its id) are decode errors, and
    /// any prefix of a valid streaming frame decodes without panicking.
    #[test]
    fn truncated_streaming_frames_never_panic(
        qid in any::<u32>(),
        seq in any::<u64>(),
        max in any::<usize>(),
        cut in 0usize..64,
    ) {
        let query = QueryId(qid);
        for frame in [
            protocol::encode_request(&Request::ShipSurvivorsChunk { query, seq, max }),
            protocol::encode_request(&Request::ReleaseQuery { query }),
            protocol::encode_response(&Response {
                elapsed_nanos: 1,
                query,
                body: ResponseBody::SurvivorsChunk { lpms: LpmBatch::default(), seq, last: false },
            }),
        ] {
            let cut = cut.min(frame.len().saturating_sub(1));
            let _ = protocol::decode_request(frame.slice(0..cut));
            let _ = protocol::decode_response(frame.slice(0..cut));
            // Full frames decode through exactly one of the two codecs.
            let full = protocol::decode_request(frame.clone()).is_ok()
                || protocol::decode_response(frame).is_ok();
            prop_assert!(full);
        }
    }

    /// Request tag 14 is retired (it was a second name for
    /// `ReleaseQuery`): a frame carrying it is a decode error, whole or
    /// as a chain step, and whatever follows the query id.
    #[test]
    fn retired_request_tag_14_is_a_decode_error(
        qid in any::<u32>(),
        tail in prop::collection::vec(0u64..256, 0..8),
    ) {
        let mut w = WireWriter::new();
        w.u64(14).u32_fixed(qid);
        let mut frame = w.finish().to_vec();
        frame.extend(tail.into_iter().map(|b| b as u8));
        let frame = bytes::Bytes::from(frame);
        prop_assert!(protocol::decode_request(frame.clone()).is_err());
        let chain = protocol::encode_chain(QueryId(qid), &[frame]);
        prop_assert!(protocol::decode_request(chain).is_err());
    }

    /// Feature ids ship as unsigned steps: a `DropPruned` list as the
    /// steps between its ascending ids (the first from 0), a `Features`
    /// batch as its first id. A step of 0 after the first (a repeated
    /// id), a step past `u32::MAX` (the only way an unsigned step could
    /// land on a smaller id) and a batch numbered past `u32::MAX` are
    /// typed decode errors, never ids wrapped back into range. Every
    /// proper prefix of a valid frame — cut mid-varint, too — is an error
    /// as well.
    #[test]
    fn hostile_feature_id_lists_are_decode_errors(
        qid in any::<u32>(),
        ids in prop::collection::vec(any::<u32>(), 1..8),
        over in 1u64..u64::from(u32::MAX),
    ) {
        let ids = ascending(ids);
        let last = u64::from(*ids.last().unwrap());
        // DropPruned: tag 8, query id, the count, the steps of `ids`,
        // then maybe one more step.
        let list = |extra: Option<u64>| {
            let mut w = WireWriter::new();
            w.u64(8).u32_fixed(qid).usize(ids.len() + usize::from(extra.is_some()));
            let mut prev = 0;
            for &id in &ids {
                w.u64(u64::from(id) - prev);
                prev = u64::from(id);
            }
            if let Some(step) = extra {
                w.u64(step);
            }
            protocol::decode_request(w.finish())
        };
        prop_assert!(list(None).is_ok());
        for bad in [0, u64::from(u32::MAX) - last + over, u64::MAX, u64::MAX - 1] {
            prop_assert!(list(Some(bad)).is_err(), "step {}", bad);
        }
        // Features: header, tag 5, `n` features, fragments 1, the first
        // id, an empty label table; then each feature (no mapping, sign).
        let n = ids.len() as u64;
        let features = |first: u64| {
            let mut w = WireWriter::new();
            w.u64_fixed(0).u32_fixed(qid).u64(5).u64(n).u64(1).u64(first).usize(0);
            for _ in 0..n {
                w.usize(0).u64(1);
            }
            protocol::decode_response(w.finish())
        };
        prop_assert!(features(u64::from(u32::MAX) + 1 - n).is_ok());
        prop_assert!(features(u64::from(u32::MAX) + 1 - n + over).is_err());
        prop_assert!(features(u64::MAX - over).is_err());

        // The same ids, valid, round-trip, and no proper prefix of either
        // frame decodes.
        let query = QueryId(qid);
        let request = protocol::encode_request(&Request::DropPruned { query, useful: ids.clone() });
        let features =
            ResponseBody::Features(numbered_features(1, ids[0], &[], &vec![1; ids.len()]));
        prop_assert_eq!(reply_roundtrip(features.clone()), features.clone());
        let reply = reply_frame(features);
        let Request::DropPruned { useful, .. } = protocol::decode_request(request.clone()).unwrap()
        else {
            panic!("DropPruned decodes as DropPruned");
        };
        prop_assert_eq!(useful, ids);
        for cut in 0..request.len() {
            prop_assert!(protocol::decode_request(request.slice(0..cut)).is_err());
        }
        for cut in 0..reply.len() {
            prop_assert!(protocol::decode_response(reply.slice(0..cut)).is_err());
        }
    }

    /// Variable names stay at the coordinator: an `InstallQuery` frame
    /// is the same bytes whatever its variables are called.
    #[test]
    fn install_query_frame_ignores_variable_names(
        qid in any::<u32>(),
        a in "[a-z0-9_]{0,24}",
        b in "[a-z0-9_]{0,24}",
    ) {
        // Distinct first letters keep the two variables apart.
        let (a, b) = (format!("a{a}"), format!("b{b}"));
        let graph = gstored::rdf::RdfGraph::from_triples(vec![Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        )]);
        let frame = |x: &str, y: &str| {
            let text = format!(
                "SELECT ?{x} WHERE {{ ?{x} <http://p> ?{y} . ?{y} <http://q> <http://b> }}"
            );
            let query = gstored::sparql::parse_query(&text).unwrap();
            let query = gstored::sparql::QueryGraph::from_query(&query).unwrap();
            let encoded = gstored::store::EncodedQuery::encode(&query, graph.dict()).unwrap();
            protocol::encode_install_query(QueryId(qid), &encoded)
        };
        prop_assert_eq!(frame(&a, &b), frame("x", "y"));
    }

    /// The size law of a site's verdict: `n` ascending consecutive ids
    /// cost the frame header, at most 5 bytes for the first id, and one
    /// byte for each further id — wherever in `u32` they start.
    #[test]
    fn consecutive_feature_ids_cost_a_byte_each(
        qid in any::<u32>(),
        start in any::<u32>(),
        n in 0u32..600,
    ) {
        let useful: Vec<u32> = (start..=u32::MAX).take(n as usize).collect();
        let n = useful.len();
        let frame = protocol::encode_request(&Request::DropPruned {
            query: QueryId(qid),
            useful: useful.clone(),
        });
        // Tag, query id, count.
        let mut header = WireWriter::new();
        header.u64(8).u32_fixed(qid).usize(n);
        prop_assert!(
            frame.len() <= header.len() + 5 + n,
            "{} ids from {} cost {} bytes", n, start, frame.len()
        );
        let Request::DropPruned { useful: decoded, .. } = protocol::decode_request(frame).unwrap()
        else {
            panic!("DropPruned decodes as DropPruned");
        };
        prop_assert_eq!(decoded, useful);
    }

    /// Arbitrary byte soup through both envelope decoders: errors are
    /// fine, panics and runaway allocations are not.
    #[test]
    fn random_bytes_never_panic_the_decoders(
        soup in prop::collection::vec(0u64..256, 0..256),
    ) {
        let frame = bytes::Bytes::from(soup.into_iter().map(|b| b as u8).collect::<Vec<u8>>());
        let _ = protocol::decode_request(frame.clone());
        let _ = protocol::decode_response(frame);
    }

    /// The size law of an LPM run: an LPM with its run's shape (masks,
    /// crossing query edges and the binding entries of their endpoints)
    /// and labels costs exactly the varints of its bound ids, whatever
    /// the ids, masks and slots.
    #[test]
    fn lpms_in_a_run_cost_their_bound_ids(
        fragment in 0usize..16,
        bound in prop::collection::vec(any::<bool>(), 1..8),
        slots in prop::collection::vec((0usize..8, 0usize..8, 0usize..8, 0u64..5000), 0..4),
        rows in prop::collection::vec(prop::collection::vec(0u64..1 << 50, 8), 1..20),
        mask in any::<u64>(),
    ) {
        let width = bound.len();
        let bound_at: Vec<usize> = (0..width).filter(|&v| bound[v] || v == 0).collect();
        let lpms: Vec<LocalPartialMatch> = rows
            .iter()
            .map(|raw| {
                // Distinct within the row, so each endpoint has one
                // binding entry.
                let binding: Vec<Option<TermId>> = (0..width)
                    .map(|v| bound_at.contains(&v).then_some(TermId(raw[v] << 3 | v as u64)))
                    .collect();
                let id = |k: usize| binding[bound_at[k % bound_at.len()]].unwrap();
                let crossing = slots
                    .iter()
                    .map(|&(qe, a, b, label)| {
                        (EdgeRef { from: id(a), label: TermId(label), to: id(b) }, qe)
                    })
                    .collect();
                LocalPartialMatch { fragment, binding, crossing, internal_mask: mask }
            })
            .collect();
        let frame = |k: usize| reply_frame(ResponseBody::Survivors(lpms[..k].to_vec().into()));
        for (k, lpm) in lpms.iter().enumerate().skip(1) {
            let mut ids = WireWriter::new();
            for id in lpm.binding.iter().flatten() {
                ids.u64(id.0);
            }
            prop_assert_eq!(frame(k + 1).len() - frame(k).len(), ids.len(), "LPM {}", k);
        }
        let batch = ResponseBody::Survivors(lpms.into());
        prop_assert_eq!(reply_roundtrip(batch.clone()), batch);
    }

    /// Hostile LPM and feature batches are decode errors — no panic, no
    /// allocation sized by a claim: a run longer than the frame, a slot
    /// endpoint past the binding or on an unbound vertex, a bound-vertex
    /// bit past the binding, a run that binds no vertex, slots that would
    /// repeat into more crossing entries than the frame's bytes allow,
    /// and a label table naming a query edge twice. Each starts from a
    /// valid frame that decodes, so each error is the one named.
    #[test]
    fn hostile_lpm_and_feature_batches_are_decode_errors(
        qid in any::<u32>(),
        width in 2usize..20,
        claimed in 1_000_000u64..u64::MAX / 2,
        beyond in 0usize..64,
        extra in 0u32..44,
    ) {
        // A `Survivors` reply (tag 6): one run, fragment 1, `width`
        // vertices; the run — internal mask, bound mask, one slot (query
        // edge 0 from binding entry `from` to entry 1, label 7), `len`
        // LPMs — then the LPMs' bound ids.
        let lpms = |bound: u64, from: usize, len: u64, rows: &[&[u64]]| {
            let mut w = WireWriter::new();
            w.u64_fixed(0).u32_fixed(qid).u64(6).usize(1).usize(1).usize(width);
            w.u64(1).u64(bound).usize(1).usize(0).usize(from).usize(1).opt_u64(Some(7));
            w.u64(len);
            for row in rows {
                for &id in *row {
                    w.u64(id);
                }
            }
            protocol::decode_response(w.finish())
        };
        let rows: &[&[u64]] = &[&[10, 11], &[12, 13]];
        prop_assert!(lpms(0b11, 0, 2, rows).is_ok());
        prop_assert!(lpms(0b11, 0, claimed, rows).is_err());
        prop_assert!(lpms(0b11, width + beyond, 2, rows).is_err());
        prop_assert!(lpms(0b11, 2, 2, rows).is_err());
        prop_assert!(lpms(0b11 | 1 << (width as u32 + extra), 0, 2, rows).is_err());
        // Definition 5: an LPM binds a vertex. A slotless run of LPMs
        // binding vertex 0 decodes; the same run binding nothing does not.
        let slotless = |bound: u64, len: u64| {
            let mut w = WireWriter::new();
            w.u64_fixed(0).u32_fixed(qid).u64(6).usize(1).usize(1).usize(width);
            w.u64(bound).u64(bound).usize(0).u64(len);
            for id in 0..len.min(4) * u64::from(bound.count_ones()) {
                w.u64(id);
            }
            protocol::decode_response(w.finish())
        };
        prop_assert!(slotless(1, 1).is_ok());
        prop_assert!(slotless(1, 4).is_ok());
        prop_assert!(slotless(0, 1).is_err());
        prop_assert!(slotless(0, claimed).is_err());
        // A run's slots repeat in each of its LPMs: 64 slots over LPMs of
        // one bound id each decode to 64 crossing entries per LPM byte,
        // past the 16 per frame byte a batch may decode to once the run
        // is long enough to outweigh its header.
        let repeated = |len: usize| {
            let mut w = WireWriter::new();
            w.u64_fixed(0).u32_fixed(qid).u64(6).usize(1).usize(1).usize(width);
            w.u64(1).u64(1).usize(64);
            for qe in 0..64 {
                w.usize(qe).usize(0).usize(0).opt_u64(Some(7));
            }
            w.usize(len);
            for id in 0..len {
                w.u64(id as u64 % 100);
            }
            protocol::decode_response(w.finish())
        };
        prop_assert!(repeated(100).is_ok());
        prop_assert!(repeated(1_000 + beyond).is_err());

        // A `Features` reply (tag 5): one feature, fragments 1, first id
        // 0, the label table, then the feature (one entry: query edge 0,
        // 1 → 2; sign).
        let features = |table: &[(usize, u64)]| {
            let mut w = WireWriter::new();
            w.u64_fixed(0).u32_fixed(qid).u64(5).usize(1).u64(1).u64(0);
            w.usize(table.len());
            for &(qe, label) in table {
                w.usize(qe).u64(label);
            }
            w.usize(1).usize(0).u64(1).u64(2).u64(1);
            protocol::decode_response(w.finish())
        };
        prop_assert!(features(&[(0, 5), (1, 6)]).is_ok());
        prop_assert!(features(&[(0, 5), (0, 6)]).is_err());
        prop_assert!(features(&[(1, 5), (0, 6)]).is_err());
    }
}
