//! The SPARQL-Protocol HTTP server.
//!
//! [`SparqlServer`] binds a [`GStoreD`] session behind the W3C SPARQL
//! Protocol: `GET /query?query=…` and `POST /query` (raw
//! `application/sparql-query` or form-encoded bodies), with
//! `Accept`-negotiated result serialization, plus the `GET /status` and
//! `GET /health` observability endpoints. Requests flow through the
//! admission layer of [`crate::admission`]: a bounded worker pool serves
//! connections from a bounded queue, and overload is answered with an
//! immediate `429`.
//!
//! Error mapping is typed and deliberate:
//!
//! | Condition | Status |
//! |---|---|
//! | parse / prepare failure (the query's fault) | `400` + JSON body |
//! | unknown path | `404` |
//! | method other than GET/POST on `/query` | `405` + `Allow` |
//! | no servable format in `Accept` | `406` |
//! | body too large | `413` |
//! | POST with an unsupported `Content-Type` | `415` |
//! | worker pool and queue full | `429` + `Retry-After` |
//! | deadline expiry / site unavailable | `503` + `Retry-After` |
//! | any other engine failure during execution | `500` + JSON body |
//!
//! Neither a `500` nor a `503` takes the fleet down with it: the session
//! repairs an implicated site in place (reconnect + fragment re-install)
//! and only tears the fleet down on protocol desynchronization, so one
//! query's failure is one response, not an outage. The `503`s are the
//! *graceful degradation* surface — they tell clients the condition is
//! transient and when to come back, while `/health` reports per-site
//! liveness for load balancers.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gstored::core::EngineError;
use gstored::net::worker::wake_addr;
use gstored::rdf::Term;
use gstored::{Error, GStoreD};

use crate::admission::{BoundedQueue, CountersSnapshot, ServerCounters};
use crate::http::{
    read_request, write_chunked_head, ChunkedWriter, HttpRequest, HttpResponse, Limits,
    RequestError,
};
use crate::negotiate::{negotiate, ResultFormat};
use crate::serializer::{json_escape, SolutionWriter};

/// Server knobs. The worker pool — the number of requests served at
/// once — is sized by the session's `max_concurrent_queries`, so the
/// HTTP pool and the engine's admission gate always agree.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accepted connections allowed to wait for a worker; beyond this,
    /// `429`.
    pub queue_depth: usize,
    /// Per-connection socket read timeout. Bounds how long an idle
    /// keep-alive connection can hold a worker (and therefore how long
    /// graceful shutdown can take).
    pub read_timeout: Duration,
    /// HTTP parsing limits (head/body sizes).
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 16,
            read_timeout: Duration::from_secs(30),
            limits: Limits::default(),
        }
    }
}

/// A SPARQL-Protocol HTTP front-end over one shared [`GStoreD`] session.
///
/// ```
/// use std::sync::Arc;
/// use gstored::GStoreD;
/// use gstored_server::{ServerConfig, SparqlServer};
///
/// let session = GStoreD::builder()
///     .ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .")?
///     .build()?;
/// let server = SparqlServer::new(Arc::new(session), ServerConfig::default());
/// let handle = server.start(std::net::TcpListener::bind("127.0.0.1:0")?)?;
///
/// let reply = gstored_server::client::get(
///     handle.addr(),
///     "/query?query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Chttp://ex/p%3E%20%3Fo%20%7D",
///     Some("application/sparql-results+json"),
/// )?;
/// assert_eq!(reply.status, 200);
/// assert!(reply.body_str().contains("http://ex/b"));
/// handle.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SparqlServer {
    session: Arc<GStoreD>,
    config: ServerConfig,
}

impl SparqlServer {
    /// Wrap a session with a server configuration.
    pub fn new(session: Arc<GStoreD>, config: ServerConfig) -> SparqlServer {
        SparqlServer { session, config }
    }

    /// Spawn the accept loop and worker pool on `listener` and return
    /// the running server's handle.
    pub fn start(self, listener: TcpListener) -> std::io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        // The accept loop blocks; shutdown wakes it with a connection here.
        let wake = wake_addr(&listener)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(self.config.queue_depth.max(1)));
        let counters = Arc::new(ServerCounters::default());
        let config = Arc::new(self.config);
        let session = self.session;

        let pool = session.engine().config().max_concurrent_queries.max(1);
        let mut workers = Vec::with_capacity(pool);
        for i in 0..pool {
            let queue = Arc::clone(&queue);
            let session = Arc::clone(&session);
            let counters = Arc::clone(&counters);
            let config = Arc::clone(&config);
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gstored-http-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            serve_connection(
                                &session, &config, &counters, &queue, &shutdown, stream,
                            );
                        }
                    })
                    .expect("spawn an HTTP worker thread"),
            );
        }

        let accept = {
            let queue = Arc::clone(&queue);
            let counters = Arc::clone(&counters);
            let config = Arc::clone(&config);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("gstored-accept".into())
                .spawn(move || loop {
                    let accepted = listener.accept();
                    if shutdown.load(Ordering::SeqCst) {
                        // Woken by `shutdown_inner`.
                        return;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            let _ = stream.set_read_timeout(Some(config.read_timeout));
                            let _ = stream.set_nodelay(true);
                            match queue.push(stream) {
                                Ok(()) => {
                                    counters.admitted.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(mut stream) => {
                                    counters.rejected.fetch_add(1, Ordering::Relaxed);
                                    let _ = reject_overload(&mut stream);
                                }
                            }
                        }
                        Err(_) => {
                            // Transient accept failures (e.g. a peer that
                            // reset mid-handshake) are not fatal.
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                })
                .expect("spawn the HTTP accept thread")
        };

        Ok(ServerHandle {
            addr,
            wake,
            shutdown,
            queue,
            counters,
            accept: Some(accept),
            workers,
        })
    }
}

/// The fast-path refusal the accept loop writes when the pool and queue
/// are both full.
fn reject_overload(stream: &mut TcpStream) -> std::io::Result<()> {
    HttpResponse::new(429)
        .header("Retry-After", OVERLOAD_RETRY_AFTER_SECS.to_string())
        .body(
            "application/json",
            format!(
                "{{\"error\":\"overloaded\",\"message\":\"request queue is full; retry after \
                 {OVERLOAD_RETRY_AFTER_SECS}s\"}}"
            ),
        )
        .write_to(stream, true)
}

/// A running server: its bound address and the shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    /// Where `shutdown_inner` connects to wake the blocked accept loop.
    wake: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    counters: Arc<ServerCounters>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the real port when
    /// bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the admission/outcome counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting new connections, serve
    /// everything already admitted (in-flight requests run to
    /// completion, queued connections get one response), then join every
    /// thread. The session itself — and with it the worker fleet — is
    /// released when the last `Arc<GStoreD>` holder drops it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = TcpStream::connect(self.wake);
            let _ = accept.join();
        }
        // After the accept loop exits nothing new can be pushed; close
        // so workers drain the queue and then stop.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serve one admitted connection: requests in sequence (keep-alive)
/// until the peer closes, asks to close, errors, or shutdown starts.
fn serve_connection(
    session: &GStoreD,
    config: &ServerConfig,
    counters: &ServerCounters,
    queue: &BoundedQueue<TcpStream>,
    shutdown: &AtomicBool,
    stream: TcpStream,
) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    loop {
        let request = match read_request(&mut reader, &config.limits) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(RequestError::Io(_)) => return,
            Err(e) => {
                let status = match e {
                    RequestError::BodyTooLarge(_) => 413,
                    _ => 400,
                };
                let response = error_response(status, "bad-request", &e.to_string());
                counters.record_status(status);
                let _ = response.write_to(&mut stream, true);
                return;
            }
        };
        counters.in_flight.fetch_add(1, Ordering::Relaxed);
        // During shutdown, finish this response but do not keep the
        // connection alive — the worker has a queue to drain.
        let close = request.wants_close() || shutdown.load(Ordering::SeqCst);
        // `/query` responses to HTTP/1.1 peers stream (chunked transfer,
        // bounded memory); everything else — other endpoints, HTTP/1.0
        // peers — goes out buffered with a `Content-Length`.
        let streamable = request.path == "/query"
            && matches!(request.method.as_str(), "GET" | "POST")
            && !request.http10;
        let outcome = if streamable {
            stream_query(session, counters, &request, &mut stream, close)
        } else {
            let response = handle_request(session, counters, queue, &request);
            counters.record_status(response.status);
            response.write_to(&mut stream, close)
        };
        counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() || close {
            return;
        }
    }
}

/// Route one parsed request to its endpoint.
pub(crate) fn handle_request(
    session: &GStoreD,
    counters: &ServerCounters,
    queue: &BoundedQueue<TcpStream>,
    request: &HttpRequest,
) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => HttpResponse::new(200).body(
            "text/plain; charset=utf-8",
            "gstored-server: W3C SPARQL Protocol endpoint\n\
             \n\
             GET  /query?query=<urlencoded sparql>\n\
             POST /query   (application/sparql-query or \
             application/x-www-form-urlencoded)\n\
             GET  /status  (admission + fleet occupancy + robustness counters as JSON)\n\
             GET  /health  (per-site liveness; 503 when degraded)\n\
             \n\
             Result formats via Accept: application/sparql-results+json, \
             application/sparql-results+xml, text/tab-separated-values, \
             text/csv\n",
        ),
        ("GET", "/query") | ("POST", "/query") => buffered_query(session, counters, request),
        ("GET", "/status") => status_response(session, counters, queue),
        ("GET", "/health") => health_response(session),
        (_, "/query") | (_, "/status") | (_, "/health") | (_, "/") => {
            HttpResponse::new(405).header("Allow", "GET, POST").body(
                "application/json",
                format!(
                    "{{\"error\":\"method-not-allowed\",\"message\":\"{} is not supported \
                     here\"}}",
                    json_escape(&request.method)
                ),
            )
        }
        (_, path) => error_response(404, "not-found", &format!("no endpoint at {path}")),
    }
}

/// The `/query` endpoint's SPARQL text per the W3C protocol (GET
/// parameter, raw `application/sparql-query` body, or form field), or
/// the typed error response when the request carries none.
fn extract_query(request: &HttpRequest) -> Result<String, Box<HttpResponse>> {
    match request.method.as_str() {
        "GET" => match request.param("query") {
            Some(query) => Ok(query.to_string()),
            None => Err(Box::new(error_response(
                400,
                "missing-query",
                "GET /query needs a ?query= parameter",
            ))),
        },
        _ => match request.content_type().as_deref() {
            Some("application/sparql-query") => match std::str::from_utf8(&request.body) {
                Ok(query) => Ok(query.to_string()),
                Err(_) => Err(Box::new(error_response(
                    400,
                    "bad-request",
                    "query body is not UTF-8",
                ))),
            },
            Some("application/x-www-form-urlencoded") => {
                let form = std::str::from_utf8(&request.body)
                    .map(crate::http::parse_form)
                    .unwrap_or_default();
                match form.into_iter().find(|(k, _)| k == "query") {
                    Some((_, query)) => Ok(query),
                    None => Err(Box::new(error_response(
                        400,
                        "missing-query",
                        "form body has no query= field",
                    ))),
                }
            }
            other => Err(Box::new(error_response(
                415,
                "unsupported-media-type",
                &format!(
                    "POST /query takes application/sparql-query or \
                     application/x-www-form-urlencoded, not {}",
                    other.unwrap_or("an unspecified Content-Type")
                ),
            ))),
        },
    }
}

/// Why a `/query` response could not be completed.
enum QueryFailure {
    /// The request failed before its body started; this is its typed
    /// error response.
    Refused(HttpResponse),
    /// The engine failed mid-body.
    Engine(Error),
    /// The body sink failed mid-body (the client went away).
    Io(std::io::Error),
}

/// The one `/query` responder: extract → negotiate → `prepare` →
/// [`gstored::PreparedQuery::stream`] → [`SolutionWriter`] into the body
/// sink `open` returns for the negotiated format. Only that sink differs
/// between HTTP/1.1 ([`stream_query`]) and HTTP/1.0 peers or the unit
/// harness ([`buffered_query`]), so every peer gets the same rows in the
/// same (assembly) order. The engine holds the survivors received so
/// far plus the distinct bindings emitted so far (its join's dedup set),
/// never the serialized document.
///
/// On a mid-body failure the solution iterator drops here, and its
/// `Drop` releases the fleet's per-query state, so a disconnected
/// client's query stops occupying the fleet. `streams_cancelled` counts
/// exactly those mid-body aborts.
fn respond_query<W: Write>(
    session: &GStoreD,
    counters: &ServerCounters,
    request: &HttpRequest,
    open: impl FnOnce(ResultFormat) -> std::io::Result<W>,
) -> Result<(ResultFormat, W), QueryFailure> {
    let query = extract_query(request).map_err(|resp| QueryFailure::Refused(*resp))?;
    let format = negotiate(request.header("accept")).map_err(|header| {
        QueryFailure::Refused(error_response(
            406,
            "not-acceptable",
            &format!(
                "no servable result format in Accept: {header} (supported: {})",
                ResultFormat::ALL.map(|f| f.media_type()).join(", ")
            ),
        ))
    })?;
    // Prepare-time failures (parse, lowering, encoding, shape analysis)
    // are the query's fault: typed 400. Execution failures are ours.
    let prepared = session.prepare(&query).map_err(|e| {
        QueryFailure::Refused(match e {
            Error::Parse(e) => error_response(400, "parse", &e.to_string()),
            e => error_response(400, "unsupported", &e.to_string()),
        })
    })?;
    let mut solutions = prepared
        .stream()
        .map_err(|e| QueryFailure::Refused(engine_error_response(&e)))?;
    counters.streams_started.fetch_add(1, Ordering::Relaxed);
    let variables = solutions.variables().to_vec();
    let body = (|| {
        let sink = open(format).map_err(QueryFailure::Io)?;
        let mut writer =
            SolutionWriter::start(sink, format, &variables).map_err(QueryFailure::Io)?;
        for solution in &mut solutions {
            let solution = solution.map_err(QueryFailure::Engine)?;
            let terms: Vec<Option<&Term>> = solution.iter().map(|(_, term)| Some(term)).collect();
            writer.write_row(&terms).map_err(QueryFailure::Io)?;
        }
        writer.finish().map_err(QueryFailure::Io)
    })();
    let outcome = match body {
        Ok(_) => &counters.streams_completed,
        Err(_) => &counters.streams_cancelled,
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    body.map(|sink| (format, sink))
}

/// Serve one `/query` request to an HTTP/1.1 peer: solutions flow
/// through [`respond_query`] straight into chunked transfer encoding.
///
/// Everything that fails *before the first byte* (bad request, parse
/// error, no acceptable format, engine refusing to start) still goes out
/// as an ordinary buffered error response. Once the `200` head is on the
/// wire the only honest failure mode is truncation: the chunked body is
/// left unterminated and the connection closes.
fn stream_query(
    session: &GStoreD,
    counters: &ServerCounters,
    request: &HttpRequest,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    let body = &mut *stream;
    let outcome = respond_query(session, counters, request, move |format| {
        counters.record_status(200);
        write_chunked_head(body, 200, format.content_type(), close)?;
        Ok(ChunkedWriter::new(body))
    });
    match outcome {
        Ok((_, chunker)) => chunker.finish().map(drop),
        Err(QueryFailure::Refused(response)) => {
            counters.record_status(response.status);
            response.write_to(stream, close)
        }
        Err(QueryFailure::Engine(e)) => Err(std::io::Error::other(format!("engine: {e}"))),
        Err(QueryFailure::Io(e)) => Err(e),
    }
}

/// Serve one `/query` request into a buffer sent with `Content-Length`
/// (HTTP/1.0 peers, which cannot take chunked framing, and the unit
/// harness). The rows are [`stream_query`]'s; because nothing is on the
/// wire until the body is complete, a mid-body engine failure still gets
/// its typed status.
fn buffered_query(
    session: &GStoreD,
    counters: &ServerCounters,
    request: &HttpRequest,
) -> HttpResponse {
    match respond_query(session, counters, request, |_| Ok(Vec::new())) {
        Ok((format, body)) => HttpResponse::new(200).body(format.content_type(), body),
        Err(QueryFailure::Refused(response)) => response,
        Err(QueryFailure::Engine(e)) => engine_error_response(&e),
        Err(QueryFailure::Io(e)) => error_response(500, "io", &e.to_string()),
    }
}

/// The `Retry-After` hint (seconds) on `429` responses.
const OVERLOAD_RETRY_AFTER_SECS: u32 = 1;

/// The `Retry-After` hint (seconds) on degradation `503`s: long enough
/// for the session's capped-backoff repair sequence to complete.
const DEGRADED_RETRY_AFTER_SECS: u32 = 2;

/// Map an execution failure to its HTTP status. Deadline expiry and an
/// unrepairable site are *degradation*, not breakage: the session has
/// already repaired (or is repairing) the implicated site, so a retry is
/// likely to succeed — `503` + `Retry-After` tells the client exactly
/// that. Anything else is an honest `500`.
fn engine_error_response(e: &Error) -> HttpResponse {
    match e {
        Error::Engine(
            err @ (EngineError::Timeout { .. } | EngineError::SiteUnavailable { .. }),
        ) => HttpResponse::new(503)
            .header("Retry-After", DEGRADED_RETRY_AFTER_SECS.to_string())
            .body(
                "application/json",
                format!(
                    "{{\"error\":\"degraded\",\"message\":\"{}\"}}",
                    json_escape(&err.to_string())
                ),
            ),
        e => error_response(500, "engine", &e.to_string()),
    }
}

/// The `GET /health` document: per-site liveness from
/// [`GStoreD::site_health`] probes. `200` with `"status":"ok"` when
/// every site answers; `503` + `Retry-After` with `"status":"degraded"`
/// (and the per-site errors) when any does not — the shape load
/// balancers and orchestration health checks expect.
fn health_response(session: &GStoreD) -> HttpResponse {
    let health = match session.site_health() {
        Ok(health) => health,
        Err(e) => {
            return HttpResponse::new(503)
                .header("Retry-After", DEGRADED_RETRY_AFTER_SECS.to_string())
                .body(
                    "application/json",
                    format!(
                        "{{\"status\":\"down\",\"message\":\"{}\"}}",
                        json_escape(&e.to_string())
                    ),
                )
        }
    };
    let all_alive = health.iter().all(|h| h.is_alive());
    let sites: Vec<String> = health
        .iter()
        .map(|h| match &h.error {
            None => format!("{{\"site\":{},\"alive\":true}}", h.site),
            Some(err) => format!(
                "{{\"site\":{},\"alive\":false,\"error\":\"{}\"}}",
                h.site,
                json_escape(err)
            ),
        })
        .collect();
    let body = format!(
        "{{\"status\":\"{}\",\"sites\":[{}]}}",
        if all_alive { "ok" } else { "degraded" },
        sites.join(",")
    );
    if all_alive {
        HttpResponse::new(200).body("application/json", body)
    } else {
        HttpResponse::new(503)
            .header("Retry-After", DEGRADED_RETRY_AFTER_SECS.to_string())
            .body("application/json", body)
    }
}

/// The `GET /status` document: HTTP admission state, session counters,
/// failure-handling (robustness) counters and per-site fleet occupancy.
fn status_response(
    session: &GStoreD,
    counters: &ServerCounters,
    queue: &BoundedQueue<TcpStream>,
) -> HttpResponse {
    let snap = counters.snapshot();
    let stats = session.stats();
    let robustness = session.robustness_stats();
    // A fleet that cannot be probed (a site is down) must not take the
    // observability endpoint with it — counters still answer, and the
    // probe failure itself is reported in place of the per-site table.
    let fleet_field = match session.fleet_status() {
        Ok(fleet) => {
            let sites: Vec<String> = fleet
                .iter()
                .enumerate()
                .map(|(site, s)| {
                    format!(
                        "{{\"site\":{site},\"resident_queries\":{},\"resident_lpms\":{},\
                         \"capacity\":{},\"evictions\":{}}}",
                        s.resident_queries, s.resident_lpms, s.capacity, s.evictions
                    )
                })
                .collect();
            format!("\"fleet\":[{}]", sites.join(","))
        }
        Err(e) => format!("\"fleet_error\":\"{}\"", json_escape(&e.to_string())),
    };
    // Planner observability: the configured variant, how many times the
    // planner has resolved `Variant::Auto`, and the variant
    // it chose last (absent until the first Auto execution).
    let planner_field = match session.last_planner_decision() {
        Some(decision) => format!(
            ",\"last_planner_choice\":\"{}\"",
            json_escape(decision.chosen.label())
        ),
        None => String::new(),
    };
    let body = format!(
        "{{\"server\":{{\"admitted\":{},\"rejected_429\":{},\"ok\":{},\"client_errors\":{},\
         \"server_errors\":{},\"in_flight\":{},\"streams_started\":{},\
         \"streams_completed\":{},\"streams_cancelled\":{},\"queued\":{},\"queue_depth\":{}}},\
         \"session\":{{\"queries_prepared\":{},\"executions\":{},\"variant\":\"{}\",\
         \"planner_decisions\":{}{}}},\
         \"robustness\":{{\"timeouts\":{},\"retries\":{},\"reconnects\":{},\"repairs\":{},\
         \"repairs_failed\":{}}},\
         {}}}",
        snap.admitted,
        snap.rejected,
        snap.ok,
        snap.client_errors,
        snap.server_errors,
        snap.in_flight,
        snap.streams_started,
        snap.streams_completed,
        snap.streams_cancelled,
        queue.pending(),
        queue.depth(),
        stats.queries_prepared,
        stats.executions,
        json_escape(session.engine().config().variant.label()),
        stats.planner_decisions,
        planner_field,
        robustness.timeouts,
        robustness.retries,
        robustness.reconnects,
        robustness.repairs,
        robustness.repairs_failed,
        fleet_field
    );
    HttpResponse::new(200).body("application/json", body)
}

/// A JSON error body: `{"error": <kind>, "message": <detail>}`.
fn error_response(status: u16, kind: &str, message: &str) -> HttpResponse {
    HttpResponse::new(status).body(
        "application/json",
        format!(
            "{{\"error\":\"{}\",\"message\":\"{}\"}}",
            json_escape(kind),
            json_escape(message)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, query: &[(&str, &str)]) -> HttpRequest {
        HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
            http10: false,
        }
    }

    fn session() -> GStoreD {
        GStoreD::builder()
            .ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .")
            .unwrap()
            .build()
            .unwrap()
    }

    fn handle(session: &GStoreD, request: &HttpRequest) -> HttpResponse {
        let counters = ServerCounters::default();
        let queue = BoundedQueue::new(1);
        handle_request(session, &counters, &queue, request)
    }

    #[test]
    fn get_query_roundtrips() {
        let db = session();
        let req = request(
            "GET",
            "/query",
            &[("query", "SELECT * WHERE { ?s <http://ex/p> ?o }")],
        );
        let resp = handle(&db, &req);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("http://ex/a") && body.contains("http://ex/b"));
    }

    #[test]
    fn typed_errors_per_endpoint() {
        let db = session();
        assert_eq!(handle(&db, &request("GET", "/query", &[])).status, 400);
        assert_eq!(
            handle(&db, &request("GET", "/query", &[("query", "SELECT WHERE")])).status,
            400
        );
        assert_eq!(handle(&db, &request("GET", "/nope", &[])).status, 404);
        assert_eq!(handle(&db, &request("DELETE", "/query", &[])).status, 405);
        let mut req = request("GET", "/query", &[("query", "SELECT * WHERE { ?s ?p ?o }")]);
        req.headers.push(("accept".into(), "image/png".into()));
        assert_eq!(handle(&db, &req).status, 406);
        let mut post = request("POST", "/query", &[]);
        post.headers
            .push(("content-type".into(), "text/yaml".into()));
        assert_eq!(handle(&db, &post).status, 415);
    }

    #[test]
    fn status_reports_fleet_and_counters() {
        let db = session();
        let resp = handle(&db, &request("GET", "/status", &[]));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"queue_depth\":1"));
        assert!(body.contains("\"resident_queries\":0"));
        assert!(body.contains("\"rejected_429\":0"));
        assert!(body.contains(
            "\"robustness\":{\"timeouts\":0,\"retries\":0,\"reconnects\":0,\"repairs\":0,\
             \"repairs_failed\":0}"
        ));
        assert!(body.contains("\"evictions\":0}"));
        assert!(!body.contains("ttl_evictions"));
        // Explicit-variant session: configured variant reported, zero
        // planner decisions, no last choice.
        assert!(body.contains("\"variant\":\"gStoreD\""));
        assert!(body.contains("\"planner_decisions\":0"));
        assert!(!body.contains("last_planner_choice"));
    }

    #[test]
    fn status_reports_planner_choice_on_auto_sessions() {
        let db = GStoreD::builder()
            .ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .")
            .unwrap()
            .variant(gstored::core::Variant::Auto)
            .build()
            .unwrap();
        let before = handle(&db, &request("GET", "/status", &[]));
        let body = String::from_utf8(before.body).unwrap();
        assert!(body.contains("\"variant\":\"gStoreD-Auto\""));
        assert!(!body.contains("last_planner_choice"), "no decision yet");
        // One query through the planner, then the chosen variant shows.
        let run = handle(
            &db,
            &request(
                "GET",
                "/query",
                &[("query", "SELECT * WHERE { ?s <http://ex/p> ?o }")],
            ),
        );
        assert_eq!(run.status, 200);
        let after = handle(&db, &request("GET", "/status", &[]));
        let body = String::from_utf8(after.body).unwrap();
        assert!(body.contains("\"planner_decisions\":1"));
        assert!(body.contains("\"last_planner_choice\":\"gStoreD"));
    }

    #[test]
    fn health_reports_every_site_alive() {
        let db = session();
        let resp = handle(&db, &request("GET", "/health", &[]));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"alive\":true"));
        // /health only takes GET.
        assert_eq!(handle(&db, &request("POST", "/health", &[])).status, 405);
    }

    #[test]
    fn degradation_errors_map_to_503_with_retry_after() {
        let resp = engine_error_response(&Error::Engine(EngineError::Timeout {
            site: 1,
            stage: "assembly",
        }));
        assert_eq!(resp.status, 503);
        assert!(resp
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && !v.is_empty()));
        let resp = engine_error_response(&Error::Engine(EngineError::SiteUnavailable {
            site: 0,
            reason: "4 repair attempts failed".into(),
        }));
        assert_eq!(resp.status, 503);
        // Other engine failures stay 500, without Retry-After.
        let resp = engine_error_response(&Error::Engine(EngineError::Worker("boom".into())));
        assert_eq!(resp.status, 500);
        assert!(!resp.headers.iter().any(|(k, _)| k == "Retry-After"));
    }

    #[test]
    fn index_page_documents_the_endpoints() {
        let db = session();
        let resp = handle(&db, &request("GET", "/", &[]));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("/query"));
    }
}
