//! The closed-loop HTTP load: SPARQL-Protocol callers that each wait
//! for their reply before sending the next query.
//!
//! The client reads the socket itself instead of using
//! `gstored_server::client`: that one opens a connection per request
//! and buffers the whole reply, and this one has to stay on one
//! keep-alive connection and see when the first body chunk lands.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gstored_server::ResultFormat;

use crate::oracle::Oracle;
use crate::workloads::{NamedQuery, Schedule, Workload, CLIENTS, WARMUP_ROUNDS};

/// One response as the client saw it.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Request written → first body byte seen. The server buffers rows
    /// into ≈ 8 KiB chunks, so the first chunk carries the first result
    /// row whenever there is one.
    pub first_byte: Duration,
    /// Request written → last body byte read.
    pub total: Duration,
}

/// One keep-alive connection to the server.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Far above any healthy latency; turns a hung server into a
        // failed operation instead of a hung benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            addr,
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// `POST /query` with an `application/sparql-query` body.
    pub fn post(&mut self, sparql: &str, format: ResultFormat) -> std::io::Result<Reply> {
        let request = format!(
            "POST /query HTTP/1.1\r\nHost: {}\r\nAccept: {}\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
            self.addr,
            format.media_type(),
            sparql.len(),
            sparql
        );
        let started = Instant::now();
        self.reader.get_mut().write_all(request.as_bytes())?;
        self.read_reply(started)
    }

    fn read_reply(&mut self, started: Instant) -> std::io::Result<Reply> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut chunked = false;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated response head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                } else if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                }
            }
        }
        let mut body = Vec::new();
        let mut first_byte = None;
        if chunked {
            loop {
                line.clear();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(bad("truncated chunked body".into()));
                }
                let size = usize::from_str_radix(line.trim_end(), 16)
                    .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
                if size == 0 {
                    // No trailers are ever sent; consume the final CRLF.
                    line.clear();
                    self.reader.read_line(&mut line)?;
                    break;
                }
                first_byte.get_or_insert_with(|| started.elapsed());
                let start = body.len();
                body.resize(start + size + 2, 0);
                self.reader.read_exact(&mut body[start..])?;
                body.truncate(start + size);
            }
        } else {
            let length = length.ok_or_else(|| bad("reply without a length".into()))?;
            body.resize(length, 0);
            self.reader.read_exact(&mut body)?;
        }
        let total = started.elapsed();
        Ok(Reply {
            status,
            body,
            first_byte: first_byte.unwrap_or(total),
            total,
        })
    }
}

/// What one closed-loop window observed, all clients together.
#[derive(Default)]
pub struct WindowStats {
    /// Correct `200`s only.
    pub latencies_ms: Vec<f64>,
    pub first_byte_ms: Vec<f64>,
    /// When each of those replies completed, in ms since the window began.
    pub completed_at_ms: Vec<f64>,
    /// Which query (index into the workload's list) each reply answered.
    pub query_index: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the operator.
    pub failures: Vec<String>,
    /// Window start → last client finished its last request.
    pub elapsed: Duration,
}

impl WindowStats {
    /// `metric(latencies, first_bytes)` over each of `slices` equal time
    /// slices of the window (replies binned by completion time; empty
    /// slices skipped).
    pub fn per_slice(
        &self,
        window: Duration,
        slices: usize,
        metric: impl Fn(&[f64], &[f64]) -> f64,
    ) -> Vec<f64> {
        let slice_ms = window.as_secs_f64() * 1e3 / slices as f64;
        let mut bins: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); slices];
        for (i, at_ms) in self.completed_at_ms.iter().enumerate() {
            let bin = &mut bins[((at_ms / slice_ms) as usize).min(slices - 1)];
            bin.0.push(self.latencies_ms[i]);
            bin.1.push(self.first_byte_ms[i]);
        }
        bins.iter()
            .filter(|(latencies, _)| !latencies.is_empty())
            .map(|(latencies, first_bytes)| metric(latencies, first_bytes))
            .collect()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// Skips re-parsing a body that is byte-identical to one already
/// parsed and found correct for the same (query, format).
struct Verifier<'a> {
    oracle: &'a Oracle,
    verified: Vec<Vec<u8>>,
    formats: usize,
}

impl<'a> Verifier<'a> {
    fn new(oracle: &'a Oracle) -> Verifier<'a> {
        let formats = ResultFormat::ALL.len();
        Verifier {
            oracle,
            verified: vec![Vec::new(); oracle.expected.len() * formats],
            formats,
        }
    }

    fn check(&mut self, query: usize, format: ResultFormat, body: &[u8]) -> Result<(), String> {
        let slot = query * self.formats
            + ResultFormat::ALL
                .iter()
                .position(|f| *f == format)
                .expect("ALL lists every format");
        if !body.is_empty() && self.verified[slot] == body {
            return Ok(());
        }
        self.oracle.check_body(query, format, body)?;
        self.verified[slot] = body.to_vec();
        Ok(())
    }
}

/// Run `CLIENTS` closed-loop clients for `window`, each on its own
/// keep-alive connection following its seeded schedule, checking
/// every response against the oracle.
pub fn run_window(
    workload: &Workload,
    queries: &[NamedQuery],
    oracle: &Oracle,
    addr: SocketAddr,
    seed: u64,
    window: Duration,
) -> WindowStats {
    let started = Instant::now();
    let deadline = started + window;
    let per_client: Vec<WindowStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let schedule = workload.client_schedule(queries.len(), seed, client);
                scope.spawn(move || client_loop(addr, queries, oracle, schedule, started, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = WindowStats {
        elapsed: started.elapsed(),
        ..WindowStats::default()
    };
    for stats in per_client {
        all.latencies_ms.extend(stats.latencies_ms);
        all.first_byte_ms.extend(stats.first_byte_ms);
        all.completed_at_ms.extend(stats.completed_at_ms);
        all.query_index.extend(stats.query_index);
        all.attempted += stats.attempted;
        all.failed += stats.failed;
        all.failures.extend(stats.failures);
    }
    all.failures.truncate(5);
    all
}

/// One client: follow `schedule` until `deadline` passes.
fn client_loop(
    addr: SocketAddr,
    queries: &[NamedQuery],
    oracle: &Oracle,
    schedule: Schedule,
    origin: Instant,
    deadline: Instant,
) -> WindowStats {
    let mut stats = WindowStats::default();
    let mut verifier = Verifier::new(oracle);
    let mut client = None;
    for (query, format) in schedule {
        if Instant::now() >= deadline {
            break;
        }
        stats.attempted += 1;
        let connection = match &mut client {
            Some(connection) => connection,
            None => match Client::connect(addr) {
                Ok(connection) => client.insert(connection),
                Err(e) => {
                    stats.fail(format!("connect: {e}"));
                    continue;
                }
            },
        };
        match connection.post(&queries[query].text, format) {
            Ok(reply) if reply.status == 200 => match verifier.check(query, format, &reply.body) {
                Ok(()) => {
                    stats.latencies_ms.push(reply.total.as_secs_f64() * 1e3);
                    stats
                        .first_byte_ms
                        .push(reply.first_byte.as_secs_f64() * 1e3);
                    stats
                        .completed_at_ms
                        .push(origin.elapsed().as_secs_f64() * 1e3);
                    stats.query_index.push(query);
                }
                Err(e) => stats.fail(format!(
                    "{} as {}: wrong answer: {e}",
                    queries[query].id,
                    format.name()
                )),
            },
            Ok(reply) => stats.fail(format!(
                "{}: status {}: {}",
                queries[query].id,
                reply.status,
                String::from_utf8_lossy(&reply.body)
            )),
            Err(e) => {
                stats.fail(format!("{}: {e}", queries[query].id));
                // The connection's framing is unknown now; start afresh.
                client = None;
            }
        }
    }
    stats.elapsed = origin.elapsed();
    stats
}

/// Run every distinct query `WARMUP_ROUNDS` times on one connection,
/// rotating through the workload's formats, unchecked (the oracle is
/// built outside set-up time; the verification pass and the window
/// check every answer afterwards).
pub fn warm_up(
    workload: &Workload,
    queries: &[NamedQuery],
    addr: SocketAddr,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    for round in 0..WARMUP_ROUNDS {
        for (index, query) in queries.iter().enumerate() {
            let format = workload.formats[(round + index) % workload.formats.len()];
            let reply = client
                .post(&query.text, format)
                .map_err(|e| format!("warm-up {}: {e}", query.id))?;
            if reply.status != 200 {
                return Err(format!("warm-up {}: status {}", query.id, reply.status));
            }
        }
    }
    Ok(())
}
