//! Kill-and-restart recovery against real `gstored-worker` processes:
//! a worker killed mid-session must surface as a typed engine error in
//! bounded time (never a hang), and once a replacement is listening on
//! the same address the session must heal itself — reconnect, re-install
//! the fragment, and answer the next query with the fault-free rows —
//! without being rebuilt by hand. Also pins the two failure contracts
//! that have no repair: a star stream that already yielded rows, and a
//! worker that accepts the connection but never answers.

use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gstored::core::engine::EngineConfig;
use gstored::core::worker::{send_shutdown, serve_tcp};
use gstored::core::EngineError;
use gstored::prelude::*;
use gstored::rdf::{Triple, VertexId};

const P: &str = "http://x/p";
const Q: &str = "http://x/q";

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

const STAR_QUERY: &str = "SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z }";

/// A worker process that is killed when dropped, so a failing test
/// never leaks orphans.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn(addr: &str) -> Worker {
        let child = Command::new(env!("CARGO_BIN_EXE_gstored-worker"))
            .arg(addr)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gstored-worker");
        let w = Worker {
            child,
            addr: addr.to_string(),
        };
        w.wait_ready();
        w
    }

    /// Block until the worker accepts connections (it binds at startup,
    /// so this converges in a few milliseconds).
    fn wait_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if TcpStream::connect(&self.addr).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("worker on {} never became ready", self.addr);
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reserve `k` distinct loopback addresses. The listeners are dropped
/// before the workers bind them; `SO_REUSEADDR` (set by the standard
/// library) makes the handoff race-free in practice.
fn reserve_addrs(k: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

fn sorted_rows(rows: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
    let mut sorted = rows.to_vec();
    sorted.sort();
    sorted
}

/// A 3-site session over `addrs` with a 2 s query deadline.
fn tcp_session(addrs: &[String]) -> GStoreD {
    GStoreD::builder()
        .graph(graph())
        .partitioner(HashPartitioner::new(3))
        .config(EngineConfig {
            query_deadline: Some(QUERY_DEADLINE),
            ..EngineConfig::default()
        })
        .tcp_workers(addrs.iter().cloned())
        .build()
        .unwrap()
}

const QUERY_DEADLINE: Duration = Duration::from_secs(2);

/// Query `db` until it answers (a restarted worker heals within a few
/// attempts); `None` if it never does.
fn query_until_healed(db: &GStoreD, query: &str) -> Option<Vec<Vec<VertexId>>> {
    for _ in 0..5 {
        match db.query(query) {
            Ok(results) => return Some(sorted_rows(results.vertex_rows())),
            Err(gstored::Error::Engine(_)) => continue,
            Err(other) => panic!("post-restart non-engine error: {other}"),
        }
    }
    None
}

#[test]
fn kill_and_restart_worker_reactor() {
    let oracle = {
        let db = GStoreD::builder()
            .graph(graph())
            .partitioner(HashPartitioner::new(3))
            .build()
            .unwrap();
        sorted_rows(db.query(PATH_QUERY).unwrap().vertex_rows())
    };
    assert!(!oracle.is_empty(), "trivial oracle");

    let addrs = reserve_addrs(3);
    let mut workers: Vec<Worker> = addrs.iter().map(|a| Worker::spawn(a)).collect();

    let db = tcp_session(&addrs);

    // Healthy baseline: establishes the fleet and ships the fragments.
    assert_eq!(
        sorted_rows(db.query(PATH_QUERY).unwrap().vertex_rows()),
        oracle,
        "baseline rows wrong"
    );

    // Kill one site. The next query must fail typed, in bounded time.
    workers[1].kill();
    let start = Instant::now();
    let outcome = db.query(PATH_QUERY);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "dead worker blocked the coordinator for {elapsed:?}"
    );
    match outcome {
        Err(gstored::Error::Engine(_)) => {}
        Ok(_) => panic!("query succeeded with a dead site"),
        Err(other) => panic!("dead worker produced non-engine error: {other}"),
    }
    let stats = db.robustness_stats();
    assert!(
        stats.repairs_failed + stats.repairs > 0,
        "failure handling left no trace: {stats:?}"
    );

    // Restart the dead site on the same address. The session must heal
    // itself: reconnect, re-install the fragment, answer correctly.
    workers[1] = Worker::spawn(&addrs[1]);
    assert_eq!(
        query_until_healed(&db, PATH_QUERY).as_deref(),
        Some(oracle.as_slice()),
        "session never recovered after worker restart"
    );

    // A star stream sends a site nothing until it pulls it, so a site
    // that died (and came back empty) since the last query is first met
    // inside `next()`. No row has been delivered then: the stream must
    // repair the site and start over like a failed startup, and the
    // caller sees every row and no error. Site 0 is pulled first.
    let star = db.prepare(STAR_QUERY).unwrap();
    assert!(star.shape().is_star(), "not a star");
    let star_oracle = sorted_rows(star.execute().unwrap().vertex_rows());
    assert_eq!(star_oracle.len(), 12, "star baseline wrong");
    workers[0].kill();
    workers[0] = Worker::spawn(&addrs[0]);
    let retries = db.robustness_stats().retries;
    let rows: Vec<Vec<VertexId>> = star
        .stream()
        .unwrap()
        .map(|solution| solution.map(|s| s.into_vertex_row()))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("star stream surfaced {e}"));
    assert_eq!(sorted_rows(&rows), star_oracle, "wrong streamed rows");
    assert_eq!(
        db.robustness_stats().retries,
        retries + 1,
        "the star stream was not retried exactly once"
    );

    // Recovery left nothing resident in the fleet.
    let statuses = db.fleet_status().unwrap();
    assert!(
        statuses.iter().all(|s| s.resident_queries == 0),
        "resident state leaked across the kill/restart: {statuses:?}"
    );
}

/// A dead site heals by a one-site repair whichever exchange meets it
/// first — here a general query, after the coordinator has seen the
/// connection close. The query still sends to the live sites, and its
/// receive from the dead one marks that site failed, so the session
/// repairs just that site: typed `SiteUnavailable` while the worker is
/// down (no reconnect can succeed), healed by a reconnect once it is
/// back.
#[test]
fn a_killed_site_met_by_a_query_is_repaired_not_rebuilt() {
    let addrs = reserve_addrs(3);
    let mut workers: Vec<Worker> = addrs.iter().map(|a| Worker::spawn(a)).collect();
    let db = tcp_session(&addrs);
    let oracle = sorted_rows(db.query(PATH_QUERY).unwrap().vertex_rows());

    workers[1].kill();
    std::thread::sleep(Duration::from_millis(500));
    match db.query(PATH_QUERY) {
        Err(gstored::Error::Engine(EngineError::SiteUnavailable { site: 1, .. })) => {}
        other => panic!("expected site 1 unavailable, got {other:?}"),
    }
    let stats = db.robustness_stats();
    assert_eq!(
        stats.reconnects, 0,
        "a dead worker was reconnected: {stats:?}"
    );
    assert!(stats.repairs_failed >= 1, "no repair was tried: {stats:?}");

    workers[1] = Worker::spawn(&addrs[1]);
    assert_eq!(
        query_until_healed(&db, PATH_QUERY).as_deref(),
        Some(oracle.as_slice()),
        "session never recovered after worker restart"
    );
    let stats = db.robustness_stats();
    assert!(
        stats.reconnects >= 1,
        "the site was not reconnected: {stats:?}"
    );
    assert!(stats.repairs >= 1, "the site was not repaired: {stats:?}");
}

/// The star-stream contract once rows are out (`docs/faults.md`): a star
/// stream meets each site only when it pulls it, so a site that dies
/// after rows were delivered surfaces on the pull that reaches it.
/// Starting over could deliver those rows twice, so that pull is a typed
/// engine error inside the deadline, the iterator fuses, and no retry is
/// spent. The site is still repaired for the next query.
#[test]
fn star_stream_fails_typed_when_an_unpulled_site_dies_after_rows_are_out() {
    let addrs = reserve_addrs(3);
    let mut workers: Vec<Worker> = addrs.iter().map(|a| Worker::spawn(a)).collect();
    let db = tcp_session(&addrs);
    let star = db.prepare(STAR_QUERY).unwrap();
    let star_oracle = sorted_rows(star.execute().unwrap().vertex_rows());
    assert_eq!(star_oracle.len(), 12, "star baseline wrong");

    // Site 0 is pulled first and answers with every star whose centre
    // ?y is internal to it; draining those rows leaves the next pull
    // aimed at site 1.
    let y = star.variables().iter().position(|v| v == "y").unwrap();
    let site0 = &db.distributed_graph().fragments[0];
    let site0_rows = star_oracle
        .iter()
        .filter(|row| site0.is_internal(row[y]))
        .count();
    assert!(site0_rows > 0, "site 0 holds no star centre");
    let mut stream = star.stream().unwrap();
    for _ in 0..site0_rows {
        stream.next().expect("site 0's rows").expect("healthy pull");
    }

    workers[1].kill();
    let retries = db.robustness_stats().retries;
    let start = Instant::now();
    match stream.next() {
        Some(Err(gstored::Error::Engine(_))) => {}
        other => panic!("expected a typed engine error, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(elapsed < QUERY_DEADLINE, "the failed pull took {elapsed:?}");
    assert!(stream.next().is_none(), "the iterator is not fused");
    assert_eq!(
        db.robustness_stats().retries,
        retries,
        "a stream that delivered rows was retried"
    );
    drop(stream);

    workers[1] = Worker::spawn(&addrs[1]);
    assert_eq!(
        query_until_healed(&db, STAR_QUERY).as_deref(),
        Some(star_oracle.as_slice()),
        "session never recovered after worker restart"
    );
    let statuses = db.fleet_status().unwrap();
    assert!(
        statuses.iter().all(|s| s.resident_queries == 0),
        "resident state leaked: {statuses:?}"
    );
}

/// A star stream sends a site nothing until it pulls it. When the fleet
/// already knows a site is dead (here the `/health` probe found it), the
/// stream must not start pulling the live sites and fail after their
/// rows are out: starting it fails typed, before any row, so the HTTP
/// layer can still answer `503` + `Retry-After`.
#[test]
fn star_stream_over_a_known_dead_site_fails_before_its_first_row() {
    let addrs = reserve_addrs(3);
    let mut workers: Vec<Worker> = addrs.iter().map(|a| Worker::spawn(a)).collect();
    let db = tcp_session(&addrs);
    let star = db.prepare(STAR_QUERY).unwrap();
    let star_oracle = sorted_rows(star.execute().unwrap().vertex_rows());

    workers[1].kill();
    let alive: Vec<bool> = db
        .site_health()
        .unwrap()
        .iter()
        .map(|h| h.is_alive())
        .collect();
    assert_eq!(alive, vec![true, false, true]);
    match star.stream() {
        Err(gstored::Error::Engine(EngineError::SiteUnavailable { site: 1, .. })) => {}
        Err(other) => panic!("expected site 1 unavailable, got {other}"),
        Ok(_) => panic!("a star stream started over a known-dead site"),
    }

    workers[1] = Worker::spawn(&addrs[1]);
    assert_eq!(
        query_until_healed(&db, STAR_QUERY).as_deref(),
        Some(star_oracle.as_slice()),
        "session never recovered after worker restart"
    );
}

/// Run `f` on its own thread and wait at most `limit` for it: a hang
/// fails the test instead of wedging the test binary.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} still blocked after {limit:?}"))
}

/// A worker that accepts the connection but never answers (a stopped
/// process, a wrong port) must not wedge the session. The fragment
/// install waits under the query deadline, so the first query fails
/// typed, naming the site, and the fleet probe behind `/health` is just
/// as bounded.
#[test]
fn silent_worker_fails_the_first_query_typed_within_the_deadline() {
    const SILENT: usize = 1;
    let addrs: Vec<String> = (0..3)
        .map(|site| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            if site == SILENT {
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for stream in listener.incoming() {
                        held.push(stream);
                    }
                });
            } else {
                std::thread::spawn(move || serve_tcp(listener));
            }
            addr
        })
        .collect();
    let db = Arc::new(tcp_session(&addrs));
    let limit = QUERY_DEADLINE + Duration::from_secs(1);

    let session = Arc::clone(&db);
    let outcome = within(limit, "the first query", move || {
        session.query(PATH_QUERY).map(|results| results.len())
    });
    assert!(
        matches!(
            outcome,
            Err(gstored::Error::Engine(EngineError::Timeout {
                site: SILENT,
                stage: "install_fragment"
            }))
        ),
        "expected a typed install timeout naming site {SILENT}, got {outcome:?}"
    );

    let session = Arc::clone(&db);
    let health = within(limit, "the fleet probe", move || {
        session.site_health().map(|sites| sites.len())
    });
    assert!(
        matches!(
            health,
            Err(gstored::Error::Engine(EngineError::Timeout {
                site: SILENT,
                ..
            }))
        ),
        "expected the probe to fail typed, got {health:?}"
    );

    for (site, addr) in addrs.iter().enumerate() {
        if site != SILENT {
            send_shutdown(addr).unwrap();
        }
    }
}

/// `/health` waits once, not once per hung site: the probes go out to
/// every site first and their replies share one deadline. Sites 1 and 2
/// ack `InstallFragment` and then never answer again, so a probe that
/// waited for each site in turn would take two probe timeouts.
#[test]
fn site_health_waits_one_deadline_for_every_hung_site() {
    use gstored::core::protocol::{encode_response, Response, ResponseBody};
    use gstored::core::QueryId;
    use gstored::net::transport::{read_frame, write_frame};

    let addrs: Vec<String> = (0..3)
        .map(|site| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            if site == 0 {
                std::thread::spawn(move || serve_tcp(listener));
            } else {
                std::thread::spawn(move || {
                    let (mut stream, _) = listener.accept().unwrap();
                    // Ack the fragment install, then read and drop every
                    // frame until the coordinator hangs up.
                    if read_frame(&mut stream).ok().flatten().is_some() {
                        let ack =
                            Response::new(Duration::ZERO, QueryId::CONTROL, ResponseBody::Ack);
                        let _ = write_frame(&mut stream, &encode_response(&ack));
                    }
                    while let Ok(Some(_)) = read_frame(&mut stream) {}
                });
            }
            addr
        })
        .collect();
    let db = Arc::new(tcp_session(&addrs));
    let session = Arc::clone(&db);
    let (health, took) = within(Duration::from_secs(10), "the fleet probe", move || {
        let started = Instant::now();
        let health = session.site_health().expect("the fleet installs");
        (health, started.elapsed())
    });
    let alive: Vec<bool> = health.iter().map(|h| h.is_alive()).collect();
    assert_eq!(alive, vec![true, false, false], "{health:?}");
    assert!(
        took < Duration::from_secs(3),
        "two hung sites cost {took:?}, more than one probe timeout"
    );
    drop(db);
    send_shutdown(&addrs[0]).unwrap();
}
