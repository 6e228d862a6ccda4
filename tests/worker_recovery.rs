//! Kill-and-restart recovery against real `gstored-worker` processes:
//! a worker killed mid-session must surface as a typed engine error in
//! bounded time (never a hang), and once a replacement is listening on
//! the same address the session must heal itself — reconnect, re-install
//! the fragment, and answer the next query with the fault-free rows —
//! without being rebuilt by hand. Exercised on both TCP transports
//! (blocking per-site sockets and the epoll reactor).

use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gstored::core::engine::EngineConfig;
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

fn kill_restart_roundtrip(reactor: bool) {
    let label = if reactor { "reactor" } else { "blocking tcp" };
    let oracle = {
        let db = GStoreD::builder()
            .graph(graph())
            .partitioner(HashPartitioner::new(3))
            .build()
            .unwrap();
        sorted_rows(db.query(PATH_QUERY).unwrap().vertex_rows())
    };
    assert!(!oracle.is_empty(), "{label}: trivial oracle");

    let addrs = reserve_addrs(3);
    let mut workers: Vec<Worker> = addrs.iter().map(|a| Worker::spawn(a)).collect();

    let db = GStoreD::builder()
        .graph(graph())
        .partitioner(HashPartitioner::new(3))
        .config(EngineConfig {
            reactor_io: reactor,
            query_deadline: Some(Duration::from_secs(2)),
            ..EngineConfig::default()
        })
        .tcp_workers(addrs.iter().cloned())
        .build()
        .unwrap();

    // Healthy baseline: establishes the fleet and ships the fragments.
    assert_eq!(
        sorted_rows(db.query(PATH_QUERY).unwrap().vertex_rows()),
        oracle,
        "{label}: baseline rows wrong"
    );

    // Kill one site. The next query must fail typed, in bounded time.
    workers[1].kill();
    let start = Instant::now();
    let outcome = db.query(PATH_QUERY);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "{label}: dead worker blocked the coordinator for {elapsed:?}"
    );
    match outcome {
        Err(gstored::Error::Engine(_)) => {}
        Ok(_) => panic!("{label}: query succeeded with a dead site"),
        Err(other) => panic!("{label}: dead worker produced non-engine error: {other}"),
    }
    let stats = db.robustness_stats();
    assert!(
        stats.repairs_failed + stats.fleet_rebuilds + stats.repairs > 0,
        "{label}: failure handling left no trace: {stats:?}"
    );

    // Restart the dead site on the same address. The session must heal
    // itself: reconnect, re-install the fragment, answer correctly.
    workers[1] = Worker::spawn(&addrs[1]);
    let mut healed = None;
    for _ in 0..5 {
        match db.query(PATH_QUERY) {
            Ok(results) => {
                healed = Some(sorted_rows(results.vertex_rows()));
                break;
            }
            Err(gstored::Error::Engine(_)) => continue,
            Err(other) => panic!("{label}: post-restart non-engine error: {other}"),
        }
    }
    assert_eq!(
        healed.as_deref(),
        Some(oracle.as_slice()),
        "{label}: session never recovered after worker restart"
    );

    // A star stream sends a site nothing until it pulls it, so a site
    // that died (and came back empty) since the last query is first met
    // inside `next()`. No row has been delivered then: the stream must
    // repair the site and start over like a failed startup, and the
    // caller sees every row and no error. Site 0 is pulled first.
    let star = db.prepare(STAR_QUERY).unwrap();
    assert!(star.shape().is_star(), "{label}: not a star");
    let star_oracle = sorted_rows(star.execute().unwrap().vertex_rows());
    assert_eq!(star_oracle.len(), 12, "{label}: star baseline wrong");
    workers[0].kill();
    workers[0] = Worker::spawn(&addrs[0]);
    let retries = db.robustness_stats().retries;
    let rows: Vec<Vec<VertexId>> = star
        .stream()
        .unwrap()
        .map(|solution| solution.map(|s| s.into_vertex_row()))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("{label}: star stream surfaced {e}"));
    assert_eq!(
        sorted_rows(&rows),
        star_oracle,
        "{label}: wrong streamed rows"
    );
    assert_eq!(
        db.robustness_stats().retries,
        retries + 1,
        "{label}: the star stream was not retried exactly once"
    );

    // Recovery left nothing resident in the fleet.
    let statuses = db.fleet_status().unwrap();
    assert!(
        statuses.iter().all(|s| s.resident_queries == 0),
        "{label}: resident state leaked across the kill/restart: {statuses:?}"
    );
}

#[test]
fn kill_and_restart_worker_blocking_tcp() {
    kill_restart_roundtrip(false);
}

#[test]
fn kill_and_restart_worker_reactor() {
    kill_restart_roundtrip(true);
}
