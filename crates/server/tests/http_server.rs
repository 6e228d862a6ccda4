//! End-to-end tests over a real TCP socket: the server is started on an
//! ephemeral port and driven with [`gstored_server::client`], asserting
//! the W3C protocol surface (both verbs, all four result formats, the
//! typed error statuses), row equality against the embedded session,
//! overload admission (`429`) and graceful drain on shutdown.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use gstored::rdf::{write_ntriples, Term};
use gstored::{GStoreD, GStoreDBuilder};
use gstored_datagen::lubm::{self, LubmConfig};
use gstored_datagen::queries;
use gstored_server::{client, serialize_rows, ResultFormat, ServerConfig, SparqlServer};

/// A session builder over generated LUBM data.
fn lubm_builder(target_triples: usize) -> GStoreDBuilder {
    let triples = lubm::generate(&LubmConfig::with_target_triples(target_triples, 7));
    let mut text = Vec::new();
    write_ntriples(&mut text, &triples).unwrap();
    GStoreD::builder()
        .ntriples(std::str::from_utf8(&text).unwrap())
        .unwrap()
}

fn start(config: ServerConfig) -> (Arc<GStoreD>, gstored_server::ServerHandle) {
    start_with(lubm_builder(600), config)
}

/// Serve the session `builder` builds; its `max_concurrent_queries` also
/// sizes the server's worker pool.
fn start_with(
    builder: GStoreDBuilder,
    config: ServerConfig,
) -> (Arc<GStoreD>, gstored_server::ServerHandle) {
    let session = Arc::new(builder.build().unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = SparqlServer::new(Arc::clone(&session), config)
        .start(listener)
        .unwrap();
    (session, handle)
}

fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Every format, both verbs: the decoded chunked HTTP body must be
/// byte-identical to running the same serializer over the embedded
/// session's *stream* (`/query` responses stream in assembly order,
/// which is deterministic), and the streamed row set must equal
/// `execute()`'s sorted rows exactly.
#[test]
fn all_formats_row_equal_to_embedded() {
    let (session, handle) = start(ServerConfig::default());
    let query = &queries::lubm_queries()[0].text;
    let results = session.query(query).unwrap();
    assert!(!results.is_empty(), "fixture query must produce rows");
    // The stream's row order is deterministic: same data, same chunking,
    // same arrival-driven join — so the server's chunked body must be
    // byte-equal to serializing this locally collected stream.
    let prepared = session.prepare(query).unwrap();
    let stream_rows: Vec<Vec<Option<&Term>>> = prepared
        .stream()
        .unwrap()
        .map(|sol| {
            let sol = sol.unwrap();
            sol.iter().map(|(_, term)| Some(term)).collect()
        })
        .collect();
    {
        // Same solution *set* as the buffered path (which sorts).
        let mut sorted: Vec<Vec<Option<&Term>>> = stream_rows.clone();
        sorted.sort_by_key(|r| format!("{r:?}"));
        let mut executed: Vec<Vec<Option<&Term>>> = results
            .iter()
            .map(|sol| sol.iter().map(|(_, term)| Some(term)).collect())
            .collect();
        executed.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(sorted, executed, "stream and execute row sets must match");
    }
    for format in ResultFormat::ALL {
        let expected = serialize_rows(format, results.variables(), stream_rows.iter().cloned());
        let path = format!("/query?query={}", urlencode(query));
        let via_get = client::get(handle.addr(), &path, Some(format.media_type())).unwrap();
        assert_eq!(via_get.status, 200, "GET {format:?}");
        assert_eq!(
            via_get.header("content-type"),
            Some(format.content_type()),
            "GET {format:?}"
        );
        assert_eq!(
            via_get.header("transfer-encoding"),
            Some("chunked"),
            "/query responses stream ({format:?})"
        );
        assert_eq!(via_get.body, expected, "GET body {format:?}");

        let via_post = client::post(
            handle.addr(),
            "/query",
            "application/sparql-query",
            query.as_bytes(),
            Some(format.media_type()),
        )
        .unwrap();
        assert_eq!(via_post.status, 200, "POST {format:?}");
        assert_eq!(via_post.body, expected, "POST body {format:?}");
    }
    // Form-encoded POST is the third spec-mandated way in.
    let form = format!("query={}", urlencode(query));
    let reply = client::post(
        handle.addr(),
        "/query",
        "application/x-www-form-urlencoded",
        form.as_bytes(),
        None,
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.body,
        serialize_rows(
            ResultFormat::Json,
            results.variables(),
            stream_rows.iter().cloned()
        )
    );
    // The client sees the terminating chunk a moment before the worker
    // thread increments `streams_completed`; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let counters = handle.counters();
        assert_eq!(counters.streams_cancelled, 0);
        if counters.streams_completed >= 9 {
            assert_eq!(counters.streams_started, counters.streams_completed);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "9 streamed responses must complete: {counters:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

/// `GET path` over HTTP/1.0, which cannot take chunked framing.
fn http10_get(addr: std::net::SocketAddr, path: &str, accept: &str) -> client::HttpReply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.0\r\nHost: test\r\nAccept: {accept}\r\n\r\n").as_bytes(),
        )
        .unwrap();
    client::read_reply(&mut std::io::BufReader::new(stream)).unwrap()
}

/// An HTTP/1.0 peer goes through the same responder as an HTTP/1.1 one;
/// only the sink differs. The body is byte-identical to the decoded
/// chunked body, sent with a `Content-Length` and no chunked framing.
#[test]
fn http10_gets_the_buffered_content_length_path() {
    let (_session, handle) = start(ServerConfig::default());
    let query = &queries::lubm_queries()[0].text;
    let path = format!("/query?query={}", urlencode(query));
    for format in ResultFormat::ALL {
        let http11 = client::get(handle.addr(), &path, Some(format.media_type())).unwrap();
        assert_eq!(http11.header("transfer-encoding"), Some("chunked"));
        let http10 = http10_get(handle.addr(), &path, format.media_type());
        assert_eq!(http10.status, 200, "{format:?}");
        assert_eq!(http10.header("transfer-encoding"), None, "{format:?}");
        assert_eq!(
            http10.header("content-length"),
            Some(http10.body.len().to_string().as_str()),
            "{format:?}"
        );
        assert_eq!(
            http10.header("content-type"),
            Some(format.content_type()),
            "{format:?}"
        );
        assert!(!http10.body.is_empty());
        assert_eq!(http10.body, http11.body, "{format:?}");
    }
    // Both peers' responses ran as streams, and all of them completed.
    let counters = handle.counters();
    assert_eq!(counters.streams_cancelled, 0);
    handle.shutdown();
}

/// Under a `LIMIT`, a stream keeps the first rows assembled — not the
/// smallest ones, which is what `execute()` keeps. Both HTTP versions
/// answer from the stream, so they return the same rows.
#[test]
fn http10_and_http11_return_the_same_rows_under_limit() {
    let (session, handle) = start(ServerConfig::default());
    let query = format!("{} LIMIT 3", queries::lubm_queries()[0].text);
    let path = format!("/query?query={}", urlencode(&query));
    let http11 = client::get(handle.addr(), &path, Some("text/csv")).unwrap();
    let http10 = http10_get(handle.addr(), &path, "text/csv");
    assert_eq!((http10.status, http11.status), (200, 200));
    assert_eq!(http10.body_str().lines().count(), 4, "head + 3 rows");
    assert_eq!(http10.body, http11.body);
    // The case is one where the two `LIMIT` semantics differ: the 3
    // smallest rows are not the first 3 assembled.
    let smallest = session.query(&query).unwrap();
    let smallest = serialize_rows(
        ResultFormat::Csv,
        smallest.variables(),
        smallest
            .iter()
            .map(|sol| sol.iter().map(|(_, term)| Some(term)).collect()),
    );
    assert_ne!(http10.body, smallest);
    handle.shutdown();
}

/// A client that disconnects mid-body must cancel the engine query: the
/// server counts the aborted stream and every worker's query-state
/// table drains back to empty (no leaked admission slot, no resident
/// LPMs).
#[test]
fn client_disconnect_mid_body_cancels_the_query() {
    // A result set far larger than the socket buffers, so the server is
    // still streaming when the client hangs up.
    let (session, handle) = start_with(lubm_builder(20_000), ServerConfig::default());

    let query =
        "SELECT * WHERE { ?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#takesCourse> ?c }";
    let stream = TcpStream::connect(handle.addr()).unwrap();
    (&stream)
        .write_all(
            format!(
                "GET /query?query={} HTTP/1.1\r\nHost: test\r\nAccept: text/csv\r\n\r\n",
                urlencode(query)
            )
            .as_bytes(),
        )
        .unwrap();
    // Hang up without reading the body: the server's chunk flushes hit
    // EPIPE once the FIN lands, the write error drops the solution
    // iterator, and its Drop broadcasts ReleaseQuery.
    drop(stream);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let counters = handle.counters();
        let fleet = session.fleet_status().unwrap();
        let drained = fleet
            .iter()
            .all(|s| s.resident_queries == 0 && s.resident_lpms == 0);
        if counters.streams_cancelled >= 1 && counters.in_flight == 0 && drained {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stream not cancelled/drained: counters={counters:?} fleet={fleet:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The fleet is still serviceable after the abort.
    let reply = client::get(
        handle.addr(),
        &format!("/query?query={}", urlencode(&format!("{query} LIMIT 1"))),
        Some("text/csv"),
    )
    .unwrap();
    assert_eq!(reply.status, 200);
    handle.shutdown();
}

#[test]
fn typed_error_statuses_over_the_wire() {
    let (_session, handle) = start(ServerConfig::default());
    let addr = handle.addr();

    let missing = client::get(addr, "/query", None).unwrap();
    assert_eq!(missing.status, 400);
    assert!(missing.body_str().contains("missing-query"));

    let parse = client::get(addr, "/query?query=NOT%20SPARQL", None).unwrap();
    assert_eq!(parse.status, 400);
    assert!(parse.body_str().contains("\"error\":\"parse\""));

    assert_eq!(client::get(addr, "/nowhere", None).unwrap().status, 404);

    let method = client::request(addr, "DELETE", "/query", None, None).unwrap();
    assert_eq!(method.status, 405);
    assert_eq!(method.header("allow"), Some("GET, POST"));

    let accept = client::get(
        addr,
        "/query?query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D",
        Some("image/png"),
    )
    .unwrap();
    assert_eq!(accept.status, 406);

    let media = client::post(addr, "/query", "text/yaml", b"query: no", None).unwrap();
    assert_eq!(media.status, 415);

    let status = client::get(addr, "/status", None).unwrap();
    assert_eq!(status.status, 200);
    let body = status.body_str();
    assert!(body.contains("\"fleet\":["));
    assert!(body.contains("\"client_errors\":"));
    handle.shutdown();
}

#[test]
fn oversized_bodies_get_413() {
    let mut config = ServerConfig::default();
    config.limits.max_body_bytes = 64;
    let (_session, handle) = start(config);
    let big = "SELECT * WHERE { ?s ?p ?o }".repeat(8);
    let reply = client::post(
        handle.addr(),
        "/query",
        "application/sparql-query",
        big.as_bytes(),
        None,
    )
    .unwrap();
    assert_eq!(reply.status, 413);
    handle.shutdown();
}

/// With a single worker (the session admits one query) and a one-deep
/// queue, a third concurrent
/// connection must be refused immediately with `429` + `Retry-After` —
/// overload turns into fast rejection, not unbounded queueing.
#[test]
fn overload_yields_fast_429() {
    let (_session, handle) = start_with(
        lubm_builder(600).max_concurrent_queries(1),
        ServerConfig {
            queue_depth: 1,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    // Two idle connections: one occupies the single worker (blocked
    // reading a request that never comes), one fills the queue.
    let hold_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let hold_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let reply = client::get(addr, "/status", None).unwrap();
    assert_eq!(reply.status, 429, "pool + queue full must reject");
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(reply.body_str().contains("overloaded"));

    // Freeing the pool restores service.
    drop(hold_worker);
    drop(hold_queue);
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(client::get(addr, "/status", None).unwrap().status, 200);
    let counters = handle.counters();
    assert!(counters.rejected >= 1, "429 must be counted");
    handle.shutdown();
}

/// Shutdown must serve the request already on the wire before the
/// workers exit, and refuse service afterwards.
#[test]
fn graceful_shutdown_drains_in_flight() {
    let (_session, handle) = start_with(
        lubm_builder(600).max_concurrent_queries(2),
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    // Park a request mid-head so a worker is holding it when shutdown
    // starts, then complete it from another thread.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /status HTTP/1.1\r\nHost: test\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let finisher = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        stream.write_all(b"\r\n").unwrap();
        client::read_reply(&mut std::io::BufReader::new(stream)).unwrap()
    });
    handle.shutdown(); // must block until the in-flight response is out
    let reply = finisher.join().unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(client::get(addr, "/status", None).is_err());
}

/// Two requests over one kept-alive connection get two responses.
#[test]
fn keep_alive_serves_sequential_requests() {
    let (_session, handle) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    for _ in 0..2 {
        stream
            .write_all(b"GET /status HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
    }
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    for _ in 0..2 {
        let reply = client::read_reply(&mut reader).unwrap();
        assert_eq!(reply.status, 200);
        assert_ne!(reply.header("connection"), Some("close"));
    }
    // Close our end before shutdown, or the drain waits out the idle
    // keep-alive worker's read timeout.
    drop(reader);
    drop(stream);
    handle.shutdown();
}

/// A server launched over a `Variant::Auto` session reports the
/// configured policy and — after a query resolves it — the planner's
/// chosen variant in `/status`, and answers queries with the same rows
/// as an explicit-variant server.
#[test]
fn auto_variant_server_reports_planner_choice_in_status() {
    let (session, handle) = start_with(
        lubm_builder(600).variant(gstored::core::Variant::Auto),
        ServerConfig::default(),
    );
    let addr = handle.addr();

    let before = client::get(addr, "/status", None).unwrap();
    assert_eq!(before.status, 200);
    let body = String::from_utf8(before.body).unwrap();
    assert!(body.contains("\"variant\":\"gStoreD-Auto\""), "{body}");
    assert!(
        !body.contains("last_planner_choice"),
        "no decision yet: {body}"
    );

    // Drive one query through the wire; the planner resolves it.
    let query = &queries::lubm_queries()[0].text;
    let path = format!("/query?query={}", urlencode(query));
    let reply = client::get(addr, &path, None).unwrap();
    assert_eq!(reply.status, 200);

    let after = client::get(addr, "/status", None).unwrap();
    let body = String::from_utf8(after.body).unwrap();
    assert!(body.contains("\"planner_decisions\":1"), "{body}");
    assert!(body.contains("\"last_planner_choice\":\"gStoreD"), "{body}");

    // Same rows as an explicit-variant server session.
    let (explicit_session, explicit_handle) = start(ServerConfig::default());
    let explicit_reply = client::get(explicit_handle.addr(), &path, None).unwrap();
    assert_eq!(explicit_reply.status, 200);
    let auto_rows = session.query(query).unwrap().len();
    let explicit_rows = explicit_session.query(query).unwrap().len();
    assert_eq!(auto_rows, explicit_rows);

    handle.shutdown();
    explicit_handle.shutdown();
}
