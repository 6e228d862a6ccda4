//! A minimal HTTP/1.1 layer over blocking streams.
//!
//! The build environment has no network access, so — following the
//! repo's vendored-shim pattern — the server speaks HTTP through a
//! hand-rolled reader/writer pair instead of hyper/tokio: exactly the
//! subset the SPARQL Protocol needs (request line, headers,
//! `Content-Length` bodies, keep-alive), with hard limits on head and
//! body sizes so a hostile peer can never make the server allocate
//! unboundedly.
//!
//! [`read_request`] parses one request off a [`BufRead`];
//! [`HttpResponse`] renders one response onto a [`Write`]. Both ends are
//! plain `std::io`, so unit tests drive them with in-memory buffers and
//! the server drives them with `TcpStream`s.

use std::io::{BufRead, Read, Write};

/// Hard limits applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (`Content-Length` above this is rejected
    /// before reading a single body byte).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The stream failed (or timed out) mid-request.
    Io(std::io::Error),
    /// The bytes were not a well-formed HTTP/1.x request. The string is
    /// safe to echo in a `400` body.
    Malformed(String),
    /// The declared `Content-Length` exceeds [`Limits::max_body_bytes`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
            RequestError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            RequestError::BodyTooLarge(n) => write!(f, "request body of {n} bytes is too large"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// The method verb, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The percent-decoded path component of the request target.
    pub path: String,
    /// Decoded `key=value` pairs of the target's query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.0 (keep-alive must be explicit).
    pub http10: bool,
}

impl HttpRequest {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query-string parameter with this name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `Content-Type` without parameters, lowercased
    /// (`application/sparql-query; charset=utf-8` →
    /// `application/sparql-query`).
    pub fn content_type(&self) -> Option<String> {
        self.header("content-type").map(|v| {
            v.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase()
        })
    }

    /// Whether the connection must close after this exchange
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http10,
        }
    }
}

/// Read one request off the stream.
///
/// Returns `Ok(None)` on a clean end-of-stream before any request byte —
/// the normal way a keep-alive peer hangs up between requests.
pub fn read_request(
    stream: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<HttpRequest>, RequestError> {
    let mut head = Vec::new();
    // Read up to the blank line that ends the head, byte-budgeted.
    loop {
        let before = head.len();
        let take = (limits.max_head_bytes + 1).saturating_sub(before);
        let read = stream
            .by_ref()
            .take(take as u64)
            .read_until(b'\n', &mut head)?;
        if read == 0 {
            if before == 0 {
                return Ok(None);
            }
            return Err(RequestError::Malformed("truncated request head".into()));
        }
        if head.len() > limits.max_head_bytes {
            return Err(RequestError::Malformed("request head too large".into()));
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") || head == b"\r\n" {
            break;
        }
    }
    let head = std::str::from_utf8(&head)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| RequestError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing HTTP version".into()))?;
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => {
            return Err(RequestError::Malformed(format!(
                "unsupported version {other}"
            )))
        }
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("header without colon: {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)
        .ok_or_else(|| RequestError::Malformed("undecodable path".into()))?;
    let query = raw_query.map(parse_form).unwrap_or_default();

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(RequestError::Malformed(
            "chunked request bodies are not supported".into(),
        ));
    }
    let mut body = Vec::new();
    if let Some((_, v)) = headers.iter().find(|(k, _)| k == "content-length") {
        let len: usize = v
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad Content-Length: {v}")))?;
        if len > limits.max_body_bytes {
            return Err(RequestError::BodyTooLarge(len));
        }
        body.resize(len, 0);
        stream.read_exact(&mut body)?;
    }

    Ok(Some(HttpRequest {
        method,
        path,
        query,
        headers,
        body,
        http10,
    }))
}

/// One HTTP response under construction.
///
/// `Content-Length` and `Connection` are added by [`HttpResponse::write_to`];
/// everything else is explicit.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (the reason phrase comes from [`reason_phrase`]).
    pub status: u16,
    /// Extra headers, in insertion order.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// An empty response with this status.
    pub fn new(status: u16) -> HttpResponse {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Add a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> HttpResponse {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Set the body and its `Content-Type`.
    pub fn body(mut self, content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body.into();
        self
    }

    /// Render the response (adding `Content-Length`, and
    /// `Connection: close` when `close` is set) and flush it.
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        if close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Write a response head announcing a `Transfer-Encoding: chunked` body.
///
/// The streaming counterpart of [`HttpResponse::write_to`]: no
/// `Content-Length` — the caller follows up with a [`ChunkedWriter`]
/// over the same stream and must call [`ChunkedWriter::finish`] to
/// terminate the body. Chunked framing is HTTP/1.1-only; for an
/// HTTP/1.0 peer the server falls back to a buffered response.
pub fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", status, reason_phrase(status));
    head.push_str(&format!("Content-Type: {content_type}\r\n"));
    head.push_str("Transfer-Encoding: chunked\r\n");
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

/// A `Transfer-Encoding: chunked` body encoder over any [`Write`] sink.
///
/// Bytes written accumulate in an internal buffer; once it reaches the
/// threshold they ship as one `{len:x}\r\n…\r\n` chunk, so row-at-a-time
/// writers produce sanely-sized chunks instead of one per row. A chunk
/// leaves in **one write**: the buffer keeps room for the size line in
/// front of the payload, and the CRLF goes behind it — the last chunk
/// also carries the terminator. Zero-size chunks are never emitted
/// mid-body (a zero chunk terminates chunked encoding);
/// [`ChunkedWriter::finish`] flushes the tail and writes the `0\r\n\r\n`
/// terminator. Dropping the writer *without* `finish` deliberately
/// leaves the body unterminated — a client then sees a truncated
/// response rather than a silently complete-looking one, which is
/// exactly what a mid-stream engine failure must look like.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    sink: W,
    /// [`SIZE_LINE_ROOM`] bytes of room for the size line, then the
    /// payload so far.
    buf: Vec<u8>,
    threshold: usize,
}

/// Default chunk-size threshold: small enough for quick first bytes,
/// large enough to amortize chunk framing.
pub const DEFAULT_CHUNK_THRESHOLD: usize = 8 * 1024;

/// Room for a chunk's size line: 16 hex digits (a 64-bit length) + CRLF.
const SIZE_LINE_ROOM: usize = 18;

impl<W: Write> ChunkedWriter<W> {
    /// A writer flushing chunks of about [`DEFAULT_CHUNK_THRESHOLD`].
    pub fn new(sink: W) -> ChunkedWriter<W> {
        ChunkedWriter::with_threshold(sink, DEFAULT_CHUNK_THRESHOLD)
    }

    /// A writer flushing a chunk whenever `threshold` bytes accumulate
    /// (clamped to ≥ 1).
    pub fn with_threshold(sink: W, threshold: usize) -> ChunkedWriter<W> {
        ChunkedWriter {
            sink,
            buf: vec![0; SIZE_LINE_ROOM],
            threshold: threshold.max(1),
        }
    }

    /// Send the buffered payload as one chunk — followed by the
    /// terminator when `last` — in one write, and flush.
    fn write_chunk(&mut self, last: bool) -> std::io::Result<()> {
        let len = self.buf.len() - SIZE_LINE_ROOM;
        let mut start = SIZE_LINE_ROOM;
        if len > 0 {
            let mut line = [0u8; SIZE_LINE_ROOM];
            let mut rest = &mut line[..];
            write!(rest, "{len:x}\r\n")?;
            let written = SIZE_LINE_ROOM - rest.len();
            start -= written;
            self.buf[start..SIZE_LINE_ROOM].copy_from_slice(&line[..written]);
            self.buf.extend_from_slice(b"\r\n");
        } else if !last {
            return Ok(());
        }
        if last {
            self.buf.extend_from_slice(b"0\r\n\r\n");
        }
        self.sink.write_all(&self.buf[start..])?;
        self.buf.truncate(SIZE_LINE_ROOM);
        self.sink.flush()
    }

    /// Flush any buffered tail, write the terminating zero chunk, and
    /// return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.write_chunk(true)?;
        Ok(self.sink)
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() - SIZE_LINE_ROOM >= self.threshold {
            self.write_chunk(false)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.write_chunk(false)
    }
}

/// Decode a complete `Transfer-Encoding: chunked` body off a stream:
/// `{len:x}\r\n…\r\n` frames up to the `0\r\n\r\n` terminator (trailer
/// headers are consumed and dropped). Chunk sizes are added up against
/// `max_bytes` *before* each allocation, so a hostile peer announcing a
/// colossal chunk cannot make the caller allocate it.
pub fn read_chunked_body(stream: &mut impl BufRead, max_bytes: usize) -> std::io::Result<Vec<u8>> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        if stream.read_line(&mut size_line)? == 0 {
            return Err(bad("truncated chunked body"));
        }
        // Chunk extensions (`;name=value`) are legal; ignore them.
        let size_text = size_line.trim_end().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| bad(&format!("bad chunk size {size_text:?}")))?;
        if size == 0 {
            // Consume optional trailers up to the blank line.
            loop {
                let mut line = String::new();
                if stream.read_line(&mut line)? == 0 {
                    return Err(bad("truncated chunked trailer"));
                }
                if line.trim_end().is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len().saturating_add(size) > max_bytes {
            return Err(bad(&format!("chunked body exceeds {max_bytes} bytes")));
        }
        let start = body.len();
        body.resize(start + size, 0);
        stream.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        stream.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk data not CRLF-terminated"));
        }
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Percent-decode a string; with `plus_as_space`, `+` decodes to a space
/// (the `application/x-www-form-urlencoded` rule). Returns `None` on a
/// truncated/invalid escape or when the result is not UTF-8.
pub fn percent_decode(s: &str, plus_as_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Parse an `application/x-www-form-urlencoded` document (also the
/// syntax of a URL query string) into decoded `(key, value)` pairs.
/// Pairs whose key or value fail to decode are dropped — the caller sees
/// a missing parameter, never mojibake.
pub fn parse_form(s: &str) -> Vec<(String, String)> {
    s.split('&')
        .filter(|pair| !pair.is_empty())
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            Some((percent_decode(k, true)?, percent_decode(v, true)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<HttpRequest>, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse("GET /query?query=SELECT%20*%20WHERE%20%7B%7D&x=1+2 HTTP/1.1\r\nHost: h\r\nAccept: text/csv\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("query"), Some("SELECT * WHERE {}"));
        assert_eq!(req.param("x"), Some("1 2"));
        assert_eq!(req.header("accept"), Some("text/csv"));
        assert_eq!(req.header("ACCEPT"), Some("text/csv"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(
            "POST /query HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: 17\r\n\r\nSELECT * WHERE {}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"SELECT * WHERE {}");
        assert_eq!(
            req.content_type().as_deref(),
            Some("application/sparql-query")
        );
    }

    #[test]
    fn content_type_strips_parameters() {
        let req = parse(
            "POST /query HTTP/1.1\r\nContent-Type: Application/SPARQL-Query; charset=UTF-8\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            req.content_type().as_deref(),
            Some("application/sparql-query")
        );
    }

    #[test]
    fn clean_eof_is_none_truncated_is_error() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: h"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let huge = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(20_000));
        assert!(matches!(parse(&huge), Err(RequestError::Malformed(_))));
        let big_body = "POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(
            parse(big_body),
            Err(RequestError::BodyTooLarge(999999999))
        ));
    }

    #[test]
    fn rejects_chunked_and_bad_versions() {
        assert!(matches!(
            parse("POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn connection_semantics() {
        let http10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(http10.wants_close(), "HTTP/1.0 defaults to close");
        let keep = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!keep.wants_close());
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(close.wants_close());
    }

    #[test]
    fn response_renders_with_length_and_close() {
        let mut out = Vec::new();
        HttpResponse::new(429)
            .header("Retry-After", "1")
            .body("text/plain", "busy")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\nbusy"));
    }

    #[test]
    fn chunked_writer_round_trips_through_the_decoder() {
        let mut w = ChunkedWriter::with_threshold(Vec::new(), 4);
        w.write_all(b"hello ").unwrap();
        w.write_all(b"chunked ").unwrap();
        w.write_all(b"world").unwrap();
        let encoded = w.finish().unwrap();
        let text = String::from_utf8(encoded.clone()).unwrap();
        assert!(text.ends_with("0\r\n\r\n"), "terminator present: {text:?}");
        let decoded = read_chunked_body(&mut BufReader::new(encoded.as_slice()), 1024).unwrap();
        assert_eq!(decoded, b"hello chunked world");
    }

    #[test]
    fn chunked_writer_emits_nothing_for_an_empty_body_but_still_terminates() {
        let w = ChunkedWriter::new(Vec::new());
        let encoded = w.finish().unwrap();
        assert_eq!(encoded, b"0\r\n\r\n");
        let decoded = read_chunked_body(&mut BufReader::new(encoded.as_slice()), 1024).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn chunked_decoder_rejects_hostile_and_truncated_bodies() {
        // A colossal announced size fails before allocation.
        let huge = b"ffffffffff\r\n".as_slice();
        assert!(read_chunked_body(&mut BufReader::new(huge), 1024).is_err());
        // Sum-of-chunks cap.
        let mut w = ChunkedWriter::with_threshold(Vec::new(), 1);
        w.write_all(b"0123456789").unwrap();
        let encoded = w.finish().unwrap();
        assert!(read_chunked_body(&mut BufReader::new(encoded.as_slice()), 5).is_err());
        // Truncation (no terminator) is an error, not a short body.
        assert!(read_chunked_body(&mut BufReader::new(b"5\r\nhel".as_slice()), 1024).is_err());
        assert!(read_chunked_body(&mut BufReader::new(b"".as_slice()), 1024).is_err());
        // Garbage size line.
        assert!(read_chunked_body(&mut BufReader::new(b"xyz\r\n".as_slice()), 1024).is_err());
    }

    #[test]
    fn chunked_head_announces_transfer_encoding() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "text/csv; charset=utf-8", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn percent_decoding_edge_cases() {
        assert_eq!(percent_decode("a%2Bb", false).as_deref(), Some("a+b"));
        assert_eq!(percent_decode("a+b", true).as_deref(), Some("a b"));
        assert_eq!(percent_decode("a+b", false).as_deref(), Some("a+b"));
        assert_eq!(percent_decode("%E2%82%AC", false).as_deref(), Some("€"));
        assert_eq!(percent_decode("%zz", false), None, "bad hex");
        assert_eq!(percent_decode("%e2", false), None, "invalid UTF-8");
        assert_eq!(percent_decode("%2", false), None, "truncated escape");
    }

    #[test]
    fn form_parsing_drops_undecodable_pairs() {
        let pairs = parse_form("query=SELECT+1&bad=%zz&flag");
        assert_eq!(
            pairs,
            vec![
                ("query".to_string(), "SELECT 1".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
    }
}
