//! The pluggable-runtime acceptance tests: the in-process and TCP
//! backends must be observationally identical — same results, same
//! shipped bytes, same message counts — because they exchange
//! byte-identical protocol frames. And the shipment metrics must equal
//! what actually crossed the transport, frame for frame.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use gstored::core::engine::{Backend, Engine, EngineConfig, Variant};
use gstored::core::protocol::{decode_response, encode_request, Request, ResponseBody};
use gstored::core::worker::{send_shutdown, serve_tcp, with_in_process_workers};
use gstored::core::PreparedPlan;
use gstored::net::{QueryMetrics, ReactorTransport, Transport};
use gstored::prelude::*;
use gstored::rdf::Triple;

const P: &str = "http://x/p";
const Q: &str = "http://x/q";

/// A graph with both intra-fragment matches and crossing matches under
/// every partitioner: chains a{i} -p-> b{i} -q-> c{i} -p-> d{i}.
fn graph() -> RdfGraph {
    let t = |s: String, p: &str, o: String| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
    let mut triples = Vec::new();
    for i in 0..12 {
        triples.push(t(format!("http://v/a{i}"), P, format!("http://v/b{i}")));
        triples.push(t(format!("http://v/b{i}"), Q, format!("http://v/c{i}")));
        triples.push(t(format!("http://v/c{i}"), P, format!("http://v/d{i}")));
    }
    RdfGraph::from_triples(triples)
}

const PATH_QUERY: &str =
    "SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z . ?z <http://x/p> ?w }";
// A 2-edge path is a star centered on its middle vertex, so this takes
// the Section VIII-B fast path.
const STAR_QUERY: &str = "SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z }";

/// Spawn `k` persistent TCP workers on ephemeral ports; returns their
/// addresses. The worker threads outlive the test (the fleet is shut
/// down explicitly where it matters; otherwise process exit reaps them).
fn spawn_tcp_fleet(k: usize) -> Vec<String> {
    (0..k)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || serve_tcp(listener));
            addr
        })
        .collect()
}

fn partitioners(k: usize) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(HashPartitioner::new(k)),
        Box::new(SemanticHashPartitioner::new(k)),
        Box::new(MetisLikePartitioner::new(k)),
    ]
}

fn assert_same_shipment(a: &QueryMetrics, b: &QueryMetrics, context: &str) {
    for (name, x, y) in [
        ("candidates", &a.candidates, &b.candidates),
        (
            "partial_evaluation",
            &a.partial_evaluation,
            &b.partial_evaluation,
        ),
        ("lec_optimization", &a.lec_optimization, &b.lec_optimization),
        ("assembly", &a.assembly, &b.assembly),
    ] {
        assert_eq!(
            x.bytes_shipped, y.bytes_shipped,
            "{context}: {name} bytes differ between backends"
        );
        assert_eq!(
            x.messages, y.messages,
            "{context}: {name} message counts differ between backends"
        );
        assert_eq!(
            x.network, y.network,
            "{context}: {name} simulated network time differs between backends"
        );
    }
}

#[test]
fn backends_return_identical_results_and_byte_counts() {
    let g = graph();
    let k = 3;
    let addrs = spawn_tcp_fleet(k);
    for partitioner in partitioners(k) {
        let dist = DistributedGraph::build(g.clone(), partitioner.as_ref());
        assert_eq!(dist.validate(), None);
        for variant in Variant::ALL {
            let session = |backend| {
                GStoreD::builder()
                    .distributed(dist.clone())
                    .variant(variant)
                    .backend(backend)
                    .build()
                    .unwrap()
            };
            let in_process = session(Backend::InProcess);
            let tcp = session(Backend::Tcp {
                workers: addrs.clone(),
            });
            for query in [PATH_QUERY, STAR_QUERY] {
                let a = in_process.query(query).unwrap();
                let b = tcp.query(query).unwrap();
                let context = format!("{} / {} / {query}", partitioner.name(), variant.label());
                assert_eq!(a.vertex_rows(), b.vertex_rows(), "{context}: rows differ");
                assert_eq!(a.bindings(), b.bindings(), "{context}: bindings differ");
                assert!(!a.is_empty(), "{context}: trivial test");
                assert_same_shipment(a.metrics(), b.metrics(), &context);
            }
        }
    }
}

#[test]
fn shipment_metrics_equal_frames_on_the_transport() {
    // The anti-double-encoding regression: what the metrics report as
    // shipped must be exactly the frames that crossed the transport —
    // nothing estimated, nothing counted twice.
    let g = graph();
    for variant in Variant::ALL {
        for query in [PATH_QUERY, STAR_QUERY] {
            let dist = DistributedGraph::build(g.clone(), &HashPartitioner::new(3));
            let plan = PreparedPlan::new(
                QueryGraph::from_query(&gstored::sparql::parse_query(query).unwrap()).unwrap(),
                dist.dict(),
            )
            .unwrap();
            let engine = Engine::new(EngineConfig::variant(variant));
            with_in_process_workers(&dist, |transport| {
                let out = engine.execute_on(transport, &dist, &plan).unwrap();
                let m = &out.metrics;
                assert_eq!(
                    m.total_shipped(),
                    transport.counters().bytes(),
                    "{} / {query}: metric bytes != transport frame bytes",
                    variant.label()
                );
                let total_messages = m.candidates.messages
                    + m.partial_evaluation.messages
                    + m.lec_optimization.messages
                    + m.assembly.messages;
                assert_eq!(
                    total_messages,
                    transport.counters().frames(),
                    "{} / {query}: metric messages != transport frames",
                    variant.label()
                );
            });
        }
    }
}

#[test]
fn tcp_workers_are_persistent_across_executions() {
    let g = graph();
    let addrs = spawn_tcp_fleet(2);
    let db = GStoreD::builder()
        .graph(g)
        .partitioner(HashPartitioner::new(2))
        .variant(Variant::Full)
        .tcp_workers(addrs.iter().cloned())
        .build()
        .unwrap();
    let prepared = db.prepare(PATH_QUERY).unwrap();
    let first = prepared.execute().unwrap();
    assert!(!first.is_empty());
    // Same workers serve a second execution and a different query.
    let second = prepared.execute().unwrap();
    assert_eq!(first.vertex_rows(), second.vertex_rows());
    assert_eq!(
        first.metrics().total_shipped(),
        second.metrics().total_shipped()
    );
    let star = db.query(STAR_QUERY).unwrap();
    assert!(!star.is_empty());
    // An explicit shutdown stops the fleet.
    for addr in &addrs {
        send_shutdown(addr).unwrap();
    }
}

/// The TCP_NODELAY regression: a frame whose length prefix and payload
/// leave in separate writes is the classic write-write-read pattern,
/// where Nagle's algorithm holds the second write until the peer's
/// delayed ACK — ~40ms per round trip on Linux. Both ends now write a
/// frame in one vectored call, but a partial write still splits it. Every socket in
/// the stack (`ReactorTransport::connect` and `serve_tcp`'s accepted
/// connections) sets NODELAY, so hundreds of sequential tiny
/// request/reply frames must complete in interactive time. The budget is ~20× what a loopback run needs but far below the
/// tens of seconds a reintroduced Nagle stall would cost.
#[test]
fn small_sequential_frames_are_not_nagle_delayed() {
    let addrs = spawn_tcp_fleet(1);
    const ROUNDS: usize = 200;
    let transport = ReactorTransport::connect(&[addrs[0].as_str()]).unwrap();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let ping = encode_request(&Request::WorkerStatus { query: QueryId(7) });
        transport.send(0, ping).unwrap();
        let reply = decode_response(transport.recv(0).unwrap()).unwrap();
        assert!(
            matches!(reply.body, ResponseBody::Status(_)),
            "status ping got {:?}",
            reply.body
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "paid per-frame delays: {ROUNDS} status round trips took {elapsed:?} \
         (Nagle back on a socket?)",
    );
    drop(transport);
    send_shutdown(&addrs[0]).unwrap();
}

#[test]
fn facade_results_match_across_backends() {
    let g = graph();
    let addrs = spawn_tcp_fleet(3);
    let local = GStoreD::builder()
        .graph(g.clone())
        .partitioner(HashPartitioner::new(3))
        .build()
        .unwrap();
    let remote = GStoreD::builder()
        .graph(g)
        .partitioner(HashPartitioner::new(3))
        .tcp_workers(addrs)
        .build()
        .unwrap();
    let a = local.query(PATH_QUERY).unwrap();
    let b = remote.query(PATH_QUERY).unwrap();
    assert_eq!(a.vertex_rows(), b.vertex_rows());
    assert_eq!(a.metrics().total_shipped(), b.metrics().total_shipped());
}
