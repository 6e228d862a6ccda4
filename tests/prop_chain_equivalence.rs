//! Request-chain equivalence oracle.
//!
//! The engine sends each site **one frame per phase**: a `Chain` of the
//! steps that used to travel one by one. That must be a pure change of
//! framing, so on random graphs × queries × the three partitioners × the
//! four variants this pins that
//!
//! (a) a site answers a chain with exactly the reply bodies its steps
//!     get one by one, and ends in the same state, however the step
//!     sequence is cut into chains;
//! (b) `execute` and `stream` return the centralized oracle's rows, in
//!     the promised number of frames — two per site per phase, with an
//!     unbounded stream costing exactly what `execute` does;
//! (c) a chain whose k-th step fails returns k replies and runs nothing
//!     after it, and the engine turns that into the same typed error as
//!     ever, leaving no query resident on any site.

use proptest::prelude::*;

use gstored::core::engine::Variant;
use gstored::core::protocol::{
    decode_response, encode_install_query, encode_request, QueryId, Request, ResponseBody,
};
use gstored::core::worker::with_in_process_workers;
use gstored::core::{EngineError, ReplyRouter, SiteWorker, WorkerPool};
use gstored::datagen::random::{random_graph, random_query, RandomGraphConfig};
use gstored::net::{NetworkModel, Transport};
use gstored::partition::{
    HashPartitioner, MetisLikePartitioner, Partitioner, SemanticHashPartitioner,
};
use gstored::prelude::*;
use gstored::rdf::VertexId;
use gstored::store::{find_matches, EncodedQuery};

const SITES: usize = 3;
const Q: QueryId = QueryId(5);

fn partitioners() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(HashPartitioner::new(SITES)),
        Box::new(SemanticHashPartitioner::new(SITES)),
        Box::new(MetisLikePartitioner::new(SITES)),
    ]
}

/// Send one request frame, get the reply body.
fn ask(worker: &mut SiteWorker<'_>, request: &Request) -> ResponseBody {
    let reply = worker
        .handle(encode_request(request))
        .expect("not Shutdown");
    decode_response(reply).expect("reply decodes").body
}

/// Send `steps` as one `Chain` frame, get the step reply bodies.
fn ask_chain(worker: &mut SiteWorker<'_>, steps: &[Request]) -> Vec<ResponseBody> {
    let chain = Request::Chain {
        query: Q,
        steps: steps.to_vec(),
    };
    match ask(worker, &chain) {
        ResponseBody::Chain(frames) => frames
            .into_iter()
            .map(|frame| {
                let reply = decode_response(frame).expect("step reply decodes");
                assert_eq!(reply.query, Q, "step replies echo the chain's query");
                reply.body
            })
            .collect(),
        other => panic!("a chain is answered by a Chain, got {other:?}"),
    }
}

/// Every per-query step of the protocol against one site, sent one by
/// one; the data-dependent requests (the filter, the pruning verdict)
/// are built from this site's own replies. Returns the requests and
/// their reply bodies.
fn step_by_step(
    worker: &mut SiteWorker<'_>,
    q: &EncodedQuery,
    bits: usize,
    chunk: usize,
) -> (Vec<Request>, Vec<ResponseBody>) {
    let mut requests = Vec::new();
    let mut bodies = Vec::new();
    let mut send = |worker: &mut SiteWorker<'_>, request: Request| {
        let body = ask(worker, &request);
        requests.push(request);
        bodies.push(body.clone());
        body
    };
    send(
        worker,
        Request::InstallQuery {
            query: Q,
            encoded: Box::new(q.clone()),
        },
    );
    send(
        worker,
        Request::StarMatches {
            query: Q,
            center: 0,
        },
    );
    let ResponseBody::BitVectors(vectors) =
        send(worker, Request::ComputeCandidates { query: Q, bits })
    else {
        panic!("ComputeCandidates answers BitVectors");
    };
    let vars = (0..q.vertex_count()).filter(|&v| q.vertex(v).is_var());
    send(
        worker,
        Request::SetCandidateFilter {
            query: Q,
            vectors: vars.zip(vectors).collect(),
        },
    );
    send(worker, Request::PartialEval { query: Q });
    let ResponseBody::Features(features) = send(
        worker,
        Request::ComputeLecFeatures {
            query: Q,
            first_id: 1000,
        },
    ) else {
        panic!("ComputeLecFeatures answers Features");
    };
    // Keep every other feature, so pruning drops something when it can.
    let useful = features
        .iter()
        .flat_map(|f| f.sources.iter().copied())
        .step_by(2)
        .collect();
    send(worker, Request::DropPruned { query: Q, useful });
    send(worker, Request::ShipSurvivors { query: Q });
    // Last of the per-query steps: a chunk that drains the cursor
    // releases the slot.
    send(
        worker,
        Request::ShipSurvivorsChunk {
            query: Q,
            seq: 0,
            max: chunk,
        },
    );
    send(worker, Request::WorkerStatus { query: Q });
    (requests, bodies)
}

fn sorted(mut rows: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    rows.sort_unstable();
    rows
}

fn resident_queries(transport: &dyn Transport, router: &ReplyRouter) -> u64 {
    WorkerPool::new(transport, router, NetworkModel::instant(), QueryId(999))
        .worker_status()
        .expect("status probe")
        .iter()
        .map(|s| s.resident_queries)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn chains_equal_their_steps_and_rows_equal_the_oracle(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        n_edges in 1usize..4,
        cuts in any::<u32>(),
        chunk in 0usize..4,
    ) {
        let chunk = [1, 2, 7, usize::MAX][chunk];
        let g = random_graph(&RandomGraphConfig {
            vertices: 24,
            edges: 48,
            predicates: 3,
            seed: graph_seed,
        });
        let text = random_query(n_edges, 3, None, query_seed);
        let query = QueryGraph::from_query(
            &gstored::sparql::parse_query(&text).expect("generated query parses"),
        )
        .expect("generated query is connected");
        let oracle = {
            let eq = EncodedQuery::encode(&query, g.dict()).expect("no predicate projection");
            sorted(find_matches(&g, &eq))
        };

        for p in partitioners() {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            let plan = PreparedPlan::new(query.clone(), dist.dict()).expect("prepares");
            let q = plan.encoded();
            if q.has_unsatisfiable() {
                continue;
            }

            // (a) the same steps, one by one and cut into chains at `cuts`.
            for fragment in &dist.fragments {
                let mut single = SiteWorker::for_fragment(fragment);
                let (requests, expected) = step_by_step(&mut single, q, 256, chunk);
                let mut chained = SiteWorker::for_fragment(fragment);
                let mut got = Vec::new();
                let mut start = 0;
                for end in 1..=requests.len() {
                    if end == requests.len() || cuts >> end & 1 == 1 {
                        got.extend(ask_chain(&mut chained, &requests[start..end]));
                        start = end;
                    }
                }
                prop_assert_eq!(&got, &expected, "{} on {}", p.name(), &text);
                prop_assert_eq!(chained.status(), single.status());
            }

            // (b) rows and frame counts, batch and stream.
            let star = plan.shape().is_star();
            for variant in Variant::ALL {
                let engine = Engine::with_variant(variant);
                let front = if star { 0 } else if variant == Variant::Full { 2 } else { 1 };
                let context = format!("{} / {} on {}", p.name(), variant.label(), text);
                with_in_process_workers(&dist, |transport| {
                    let out = engine.execute_on(transport, &dist, &plan).expect("executes");
                    assert_eq!(sorted(out.bindings), oracle, "execute: {context}");
                    let executed = transport.counters().frames();
                    assert_eq!(executed, 2 * SITES as u64 * (front + 1), "execute: {context}");

                    let router = ReplyRouter::new(SITES);
                    let mut stream = engine
                        .start_stream(transport, &router, &dist, &plan, Q, chunk)
                        .expect("stream starts");
                    let mut rows = Vec::new();
                    while let Some(row) = stream.next_binding(transport, &router).expect("pulls") {
                        rows.push(row);
                    }
                    assert_eq!(sorted(rows), oracle, "stream: {context}");
                    if chunk == usize::MAX {
                        // An unbounded stream is what `execute` runs: the
                        // front phases, then every site pulled at once.
                        let streamed = transport.counters().frames() - executed;
                        assert_eq!(streamed, executed, "stream: {context}");
                    }
                    assert_eq!(resident_queries(transport, &router), 0, "{context}");
                });
            }
        }
    }
}

/// The three-edge chain graph of the other batteries: every stage of
/// every variant carries traffic under a hash partitioning.
fn chain_graph() -> RdfGraph {
    let mut triples = Vec::new();
    for i in 0..12 {
        let v = |k: usize| Term::iri(format!("http://chain/v{i}_{k}"));
        triples.push(Triple::new(v(0), Term::iri("http://chain/p"), v(1)));
        triples.push(Triple::new(v(1), Term::iri("http://chain/q"), v(2)));
        triples.push(Triple::new(v(2), Term::iri("http://chain/r"), v(3)));
    }
    RdfGraph::from_triples(triples)
}

fn plan_for(dist: &DistributedGraph, text: &str) -> PreparedPlan {
    let query = QueryGraph::from_query(&parse_query(text).unwrap()).unwrap();
    PreparedPlan::new(query, dist.dict()).unwrap()
}

const PATH: &str = "SELECT * WHERE { ?a <http://chain/p> ?b . \
                    ?b <http://chain/q> ?c . ?c <http://chain/r> ?d }";
const STAR: &str = "SELECT * WHERE { ?a <http://chain/p> ?b . ?b <http://chain/q> ?c }";

/// (c), site side: a failing step ends the chain — k replies for a
/// failure at step k, and nothing after it has run.
#[test]
fn a_failing_step_ends_the_chain_at_the_site() {
    let dist = DistributedGraph::build(chain_graph(), &HashPartitioner::new(SITES));
    let plan = plan_for(&dist, PATH);
    let install = Request::InstallQuery {
        query: Q,
        encoded: Box::new(plan.encoded().clone()),
    };
    let partial_eval = Request::PartialEval { query: Q };
    let release = Request::ReleaseQuery { query: Q };
    let bad_pull = Request::ShipSurvivorsChunk {
        query: Q,
        seq: 5,
        max: 1,
    };
    for fragment in &dist.fragments {
        let mut worker = SiteWorker::for_fragment(fragment);
        // Unknown query at step 1: one reply, and the release never ran
        // (it would have acked).
        let replies = ask_chain(&mut worker, &[partial_eval.clone(), release.clone()]);
        assert!(matches!(replies[..], [ResponseBody::UnknownQuery(Q)]));
        // An out-of-sequence pull at step 3: three replies, the slot is
        // still resident (no release) with its cursor untouched.
        let replies = ask_chain(
            &mut worker,
            &[
                install.clone(),
                partial_eval.clone(),
                bad_pull.clone(),
                release.clone(),
            ],
        );
        assert!(matches!(
            replies[..],
            [
                ResponseBody::Ack,
                ResponseBody::PartialEval { .. },
                ResponseBody::Error(_)
            ]
        ));
        let resident = worker.status();
        assert_eq!(resident.resident_queries, 1);
        // A duplicate install at step 1: the PartialEval behind it must
        // not touch the resident slot (it would reset the survivors).
        ask(
            &mut worker,
            &Request::DropPruned {
                query: Q,
                useful: vec![],
            },
        );
        let replies = ask_chain(&mut worker, &[install.clone(), partial_eval.clone()]);
        assert!(matches!(replies[..], [ResponseBody::Error(_)]));
        assert_eq!(worker.status(), resident);
        // The worker keeps serving.
        assert!(matches!(
            ask_chain(&mut worker, std::slice::from_ref(&release))[..],
            [ResponseBody::Ack]
        ));
        assert_eq!(worker.status().resident_queries, 0);
    }
}

/// (c), coordinator side: a site whose install fails (the id is already
/// resident there) stops its chain; `execute` and `stream` surface the
/// typed worker error naming the site and leave every site empty.
#[test]
fn a_failed_chain_surfaces_typed_and_strands_nothing() {
    let dist = DistributedGraph::build(chain_graph(), &HashPartitioner::new(SITES));
    for (text, variant) in [
        (PATH, Variant::Full),
        (PATH, Variant::LecOptimization),
        (PATH, Variant::Basic),
        (STAR, Variant::Full),
    ] {
        let plan = plan_for(&dist, text);
        let engine = Engine::with_variant(variant);
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(SITES);
            let occupy = |query: QueryId| {
                transport
                    .send(1, encode_install_query(query, plan.encoded()))
                    .unwrap();
                let (_, reply) = router.recv(transport, 1, query).unwrap();
                assert_eq!(reply.body, ResponseBody::Ack);
            };
            let is_site_1 =
                |e: &EngineError| matches!(e, EngineError::Worker(msg) if msg.contains("site 1"));

            occupy(QueryId(70));
            let err = engine
                .execute_routed(transport, &router, &dist, &plan, QueryId(70))
                .unwrap_err();
            assert!(is_site_1(&err), "{text} / {}: {err}", variant.label());
            assert_eq!(resident_queries(transport, &router), 0);

            occupy(QueryId(71));
            let err = engine
                .start_stream(transport, &router, &dist, &plan, QueryId(71), 4)
                .and_then(|mut stream| {
                    // A star stream installs lazily: the failure is met
                    // at the pull that reaches site 1.
                    while stream.next_binding(transport, &router)?.is_some() {}
                    Ok(())
                })
                .unwrap_err();
            assert!(is_site_1(&err), "{text} / {}: {err}", variant.label());
            assert_eq!(resident_queries(transport, &router), 0);
        });
    }
}

/// A hostile `ComputeCandidates` cannot abort a worker: the oversized
/// width is refused at decode, the worker answers `Error` and goes on to
/// serve the real pipeline.
#[test]
fn a_hostile_candidate_width_is_an_error_reply_and_the_worker_lives() {
    let dist = DistributedGraph::build(chain_graph(), &HashPartitioner::new(SITES));
    let plan = plan_for(&dist, PATH);
    let mut worker = SiteWorker::for_fragment(&dist.fragments[0]);
    for bits in [usize::MAX, 1 << 40] {
        let body = ask(&mut worker, &Request::ComputeCandidates { query: Q, bits });
        assert!(
            matches!(body, ResponseBody::Error(_)),
            "{bits} bits: {body:?}"
        );
    }
    let (_, bodies) = step_by_step(&mut worker, plan.encoded(), 1 << 16, usize::MAX);
    assert!(matches!(bodies[2], ResponseBody::BitVectors(_)));
}
