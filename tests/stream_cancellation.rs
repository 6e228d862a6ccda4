//! Stream-cancellation leak tests.
//!
//! A dropped or LIMIT-short-circuited [`gstored::QuerySolutionIter`]
//! must leave **no residue anywhere in the fleet**: every worker's
//! query-state table empty (`fleet_status()` occupancy zero, no resident
//! LPMs) and the session's admission slot released — on the in-process
//! backend and over real TCP workers alike, since cancellation is a
//! protocol broadcast (`ReleaseQuery`), not an in-process shortcut.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use gstored::core::engine::Backend;
use gstored::core::worker::{serve_tcp, with_in_process_workers};
use gstored::core::{ReplyRouter, WorkerPool};
use gstored::net::{NetworkModel, Transport, TransportError};
use gstored::prelude::*;
use gstored::rdf::Triple;
use gstored::{GStoreD, DEFAULT_STREAM_CHUNK};

const P: &str = "http://x/p";
const Q: &str = "http://x/q";

/// A dense star (one hub, `n` leaves, each leaf with a tail edge): the
/// star query below has `n²` solutions, so LIMIT 1 abandons almost all
/// of them, and the path query keeps every site holding survivor state
/// when a stream is dropped mid-flight.
fn dense_star(n: usize) -> RdfGraph {
    let t = |s: String, p: &str, o: String| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
    let mut triples = Vec::new();
    for i in 0..n {
        triples.push(t("http://v/hub".into(), P, format!("http://v/leaf{i}")));
        triples.push(t(
            format!("http://v/leaf{i}"),
            Q,
            format!("http://v/tail{i}"),
        ));
        triples.push(t(
            format!("http://v/tail{i}"),
            P,
            format!("http://v/end{i}"),
        ));
    }
    RdfGraph::from_triples(triples)
}

/// n² star solutions through the Section VIII-B fast path.
const STAR_QUERY: &str = "SELECT * WHERE { ?h <http://x/p> ?a . ?h <http://x/p> ?b }";
/// A 3-edge path — no star center, so it takes the general chunked
/// survivor pipeline.
const PATH_QUERY: &str =
    "SELECT * WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c . ?c <http://x/p> ?d }";

/// Spawn `k` persistent TCP workers on ephemeral ports.
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

fn backends(k: usize) -> Vec<(&'static str, Backend)> {
    vec![
        ("in-process", Backend::InProcess),
        (
            "tcp",
            Backend::Tcp {
                workers: spawn_tcp_fleet(k),
            },
        ),
    ]
}

fn session(backend: Backend, max_concurrent: usize) -> GStoreD {
    GStoreD::builder()
        .graph(dense_star(40))
        .partitioner(HashPartitioner::new(3))
        .backend(backend)
        .max_concurrent_queries(max_concurrent)
        .build()
        .unwrap()
}

fn assert_fleet_drained(session: &GStoreD, context: &str) {
    for (site, status) in session.fleet_status().unwrap().iter().enumerate() {
        assert_eq!(
            status.resident_queries, 0,
            "{context}: site {site} still holds query state"
        );
        assert_eq!(
            status.resident_lpms, 0,
            "{context}: site {site} still holds LPMs"
        );
    }
}

/// Dropping an iterator mid-stream — with rows still pending on every
/// site — must drain the whole fleet, on both backends. The repeat count
/// exceeds `max_concurrent_queries`, so any leaked admission ticket
/// deadlocks the test instead of passing silently.
#[test]
fn dropping_a_stream_midway_drains_the_fleet_on_both_backends() {
    for (name, backend) in backends(3) {
        let session = session(backend, 2);
        for round in 0..5 {
            for query in [STAR_QUERY, PATH_QUERY] {
                let prepared = session.prepare(query).unwrap();
                let mut stream = prepared.stream_with_chunk(1).unwrap();
                let first = stream.next().expect("dense star has solutions").unwrap();
                assert!(!first.vertex_row().is_empty());
                drop(stream);
                assert_fleet_drained(&session, &format!("{name}, drop round {round}, {query}"));
            }
        }
    }
}

/// LIMIT 1 over the dense star: the iterator must cancel the fleet on
/// the same `next()` call that fills the limit — occupancy is zero
/// immediately after the first row, before the iterator is even
/// exhausted or dropped.
#[test]
fn limit_one_over_a_dense_star_releases_the_fleet_on_both_backends() {
    for (name, backend) in backends(3) {
        let session = session(backend, 2);
        for round in 0..5 {
            for query in [
                "SELECT * WHERE { ?h <http://x/p> ?a . ?h <http://x/p> ?b } LIMIT 1",
                "SELECT * WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c . \
                 ?c <http://x/p> ?d } LIMIT 1",
            ] {
                let prepared = session.prepare(query).unwrap();
                let mut stream = prepared.stream_with_chunk(1).unwrap();
                let first = stream
                    .next()
                    .expect("limited query yields its row")
                    .unwrap();
                assert!(!first.vertex_row().is_empty());
                // Limit filled on that very call: fleet must already be
                // drained while the iterator is still alive.
                assert_fleet_drained(&session, &format!("{name}, limit round {round}, {query}"));
                assert!(stream.next().is_none(), "limit 1 means one row");
            }
        }
    }
}

/// A drained stream needs no closing release: each site drops its state
/// with its last survivor chunk. On this fixture the last pull always
/// completes a match (pruning leaves only LPMs that take part in one), so
/// the `next_binding` call that reports exhaustion finds nothing left to
/// do and sends no frame — and every worker table is already empty.
#[test]
fn a_drained_stream_sends_no_closing_release() {
    let dist = DistributedGraph::build(dense_star(40), &HashPartitioner::new(3));
    let query = QueryGraph::from_query(&parse_query(PATH_QUERY).unwrap()).unwrap();
    let plan = PreparedPlan::new(query, dist.dict()).unwrap();
    let engine = Engine::new(EngineConfig::default());
    for (n, chunk) in [1, 7, DEFAULT_STREAM_CHUNK].into_iter().enumerate() {
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let mut stream = engine
                .start_stream(transport, &router, &dist, &plan, QueryId(n as u32), chunk)
                .unwrap();
            let mut rows = 0;
            let silent = loop {
                let before = transport.counters().frames();
                match stream.next_binding(transport, &router).unwrap() {
                    Some(_) => rows += 1,
                    None => break transport.counters().frames() == before,
                }
            };
            assert_eq!(rows, 40, "chunk {chunk}");
            assert!(silent, "chunk {chunk}: the exhausted call sent frames");
            let probe = WorkerPool::new(transport, &router, NetworkModel::instant(), QueryId(99));
            for status in probe.worker_status().unwrap() {
                assert_eq!(status.resident_queries, 0, "chunk {chunk}");
            }
        });
    }
}

/// A fully drained stream releases everything too, and the solution set
/// matches `execute()` on both backends — cancellation plumbing must not
/// perturb the ordinary completion path.
#[test]
fn completed_streams_match_execute_and_release_on_both_backends() {
    for (name, backend) in backends(3) {
        let session = session(backend, 2);
        for query in [STAR_QUERY, PATH_QUERY] {
            let prepared = session.prepare(query).unwrap();
            let expected = prepared.execute().unwrap().vertex_rows().to_vec();
            let mut streamed: Vec<Vec<_>> = prepared
                .stream_with_chunk(3)
                .unwrap()
                .map(|sol| sol.unwrap().into_vertex_row())
                .collect();
            streamed.sort_unstable();
            assert_eq!(streamed, expected, "{name}: {query}");
            assert_fleet_drained(&session, &format!("{name}, completed, {query}"));
        }
    }
}

/// A fleet that counts the frames it sends and receives.
struct Counting<'t> {
    inner: &'t dyn Transport,
    sent: AtomicU64,
    received: AtomicU64,
}

impl<'t> Counting<'t> {
    fn new(inner: &'t dyn Transport) -> Self {
        Counting {
            inner,
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        }
    }

    /// Frames `(sent, received)` so far.
    fn totals(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.received.load(Ordering::Relaxed),
        )
    }
}

impl Transport for Counting<'_> {
    fn sites(&self) -> usize {
        self.inner.sites()
    }
    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.inner.send(site, frame)
    }
    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_deadline(site, deadline)?;
        self.received.fetch_add(1, Ordering::Relaxed);
        Ok(frame)
    }
}

/// Cancelling a stream with pulls in flight — right after its first
/// row, as a dropped iterator or a filled `LIMIT 1` does, and deeper in
/// — receives those pulls before it releases, on both backends. The
/// release then reads its own acks, so no frame of the query is left on
/// a connection (a probe under the same query id reads its own replies),
/// every worker table drains, and the pulls wasted — received by the
/// cancel and dropped — are at most the pipeline depth, two.
#[test]
fn cancelling_with_pulls_in_flight_wastes_at_most_two_and_leaves_nothing_behind() {
    let dist = DistributedGraph::build(dense_star(40), &HashPartitioner::new(3));
    let tcp = Engine::new(EngineConfig {
        backend: Backend::Tcp {
            workers: spawn_tcp_fleet(3),
        },
        ..EngineConfig::default()
    });
    let remote = tcp.connect_workers(&dist).unwrap();
    let engine = Engine::new(EngineConfig::default());
    let mut most_wasted = 0;
    with_in_process_workers(&dist, |local| {
        let fleets: [(&str, &dyn Transport); 2] = [("in-process", local), ("tcp", &remote)];
        for (name, fleet) in fleets {
            let router = ReplyRouter::new(fleet.sites());
            let mut id = 0;
            for query in [STAR_QUERY, PATH_QUERY] {
                let query_graph = QueryGraph::from_query(&parse_query(query).unwrap()).unwrap();
                let plan = PreparedPlan::new(query_graph, dist.dict()).unwrap();
                for taken in [1, 2, 5, 17] {
                    id += 1;
                    let context = format!("{name}, {taken} rows of {query}");
                    let counting = Counting::new(fleet);
                    let mut stream = engine
                        .start_stream(&counting, &router, &dist, &plan, QueryId(id), 1)
                        .unwrap();
                    for _ in 0..taken {
                        let row = stream.next_binding(&counting, &router).unwrap();
                        assert!(row.is_some(), "{context}");
                    }
                    let (sent, received) = counting.totals();
                    stream.cancel(&counting, &router);
                    let (sent_now, received_now) = counting.totals();
                    // Each release frame is answered by one ack; the
                    // other replies the cancel read are drained pulls.
                    let wasted = (received_now - received) - (sent_now - sent);
                    assert!(wasted <= 2, "{context}: {wasted} pulls wasted");
                    most_wasted = most_wasted.max(wasted);
                    let probe =
                        WorkerPool::new(fleet, &router, NetworkModel::instant(), QueryId(id));
                    for (site, status) in probe.worker_status().unwrap().iter().enumerate() {
                        assert_eq!(status.resident_queries, 0, "{context}: site {site}");
                        assert_eq!(status.resident_lpms, 0, "{context}: site {site}");
                    }
                }
            }
        }
    });
    assert!(most_wasted > 0, "no case cancelled with a pull in flight");
}
