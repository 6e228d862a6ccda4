//! Hostile input never panics or over-allocates: fixed-seed random byte
//! strings, and well-formed inputs under random token edits, fed to the
//! SPARQL front end (`parse_query`, then `QueryGraph::from_query`) and to
//! the HTTP request reader (`read_request` under `Limits::default()`).
//!
//! Every case runs under `catch_unwind`, so a panic names the input that
//! caused it. A counting global allocator measures what each case
//! allocates on its own thread — the bytes it requested in total and its
//! largest single request — and both must stay within a bound linear in
//! the input (plus the configured HTTP limits).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gstored::sparql::{parse_query, QueryGraph};
use gstored_server::http::{read_request, Limits};
use proptest::prelude::*;

/// The system allocator, counting each thread's requests.
struct Counting;

thread_local! {
    /// Bytes requested on this thread since the last [`measure`] began.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// The largest single request on this thread since then.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(size)));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it only
// touches const-initialized thread-locals, which never allocate, and
// `try_with` skips them while a thread is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` on `input`, failing with the input on a panic. Returns the
/// bytes `f` requested in total and its largest single request.
fn measure(what: &str, input: &[u8], f: impl FnOnce()) -> (usize, usize) {
    REQUESTED.with(|r| r.set(0));
    LARGEST.with(|l| l.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    let used = (REQUESTED.with(Cell::get), LARGEST.with(Cell::get));
    assert!(
        outcome.is_ok(),
        "{what} panicked on {:?}",
        String::from_utf8_lossy(input)
    );
    used
}

/// Well-formed queries the SPARQL cases start from.
const SPARQL_TEMPLATES: &[&str] = &[
    "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }",
    "PREFIX ex: <http://e/> SELECT DISTINCT ?x ?y WHERE { ?x a ex:C ; ex:p \"lit\"@en , ?y . } LIMIT 10",
    "SELECT ?s WHERE { ?s ?p ?o . ?o <http://e/q> \"1\"^^<http://t> }",
    "SELECT ?a WHERE { ?a <http://e/p> _:b . _:b <http://e/q> <http://e/c> }",
];

/// Well-formed requests the HTTP cases start from.
const HTTP_TEMPLATES: &[&str] = &[
    "GET /query?query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\nHost: x\r\n\r\n",
    "POST /query HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: 5\r\n\r\nhello",
    "POST /query HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\nquery=x",
    "GET /status HTTP/1.1\r\nAccept: */*\r\n\r\nGET /health HTTP/1.1\r\n\r\n",
];

/// SPARQL fragments the edits splice in: keywords, terms, punctuation
/// and the malformed pieces a lexer must survive (unterminated IRIs and
/// literals, stray escapes, huge numbers, unknown prefixes, unsupported
/// operators).
const SPARQL_TOKENS: &[&str] = &[
    "SELECT ",
    "DISTINCT ",
    "* ",
    "WHERE ",
    "{ ",
    "} ",
    ". ",
    "; ",
    ", ",
    "?x ",
    "?y ",
    "$z ",
    "? ",
    "a ",
    "<http://e/p> ",
    "< ",
    "> ",
    "<http://e/unclosed",
    "\"lit\" ",
    "\"x\"@en ",
    "\"1\"^^<http://t> ",
    "\"unclosed",
    "\"\\\"",
    "\\",
    "'",
    "_:b ",
    "_: ",
    "LIMIT ",
    "10 ",
    "-1 ",
    "99999999999999999999 ",
    "PREFIX ",
    "ex: ",
    "ex:p ",
    "nope:p ",
    ":",
    "@",
    "^^",
    "( ",
    ") ",
    "OPTIONAL ",
    "FILTER ",
    "UNION ",
    "#c\n",
    "\t",
    "é",
    "\u{0}",
];

/// HTTP fragments the edits splice in: request-line and header pieces,
/// overflowing and negative lengths, bad percent escapes, bare CRs and
/// LFs, chunked bodies.
const HTTP_TOKENS: &[&str] = &[
    "GET ",
    "POST ",
    " ",
    "/query",
    "?query=",
    "&",
    "=",
    "%",
    "%2",
    "%zz",
    "%E2%82",
    "+",
    " HTTP/1.1",
    " HTTP/1.0",
    " HTTP/2",
    "\r\n",
    "\n",
    "\r",
    "Content-Length: 99999999999999999999\r\n",
    "Content-Length: -1\r\n",
    "Content-Length: 1048577\r\n",
    "Content-Length: 1048576\r\n",
    "Content-Length: 3\r\n",
    "Transfer-Encoding: chunked\r\n",
    "Connection: close\r\n",
    "X-No-Colon\r\n",
    ":",
    "\u{0}",
    "é",
];

/// One edit of a template's token list: `(kind, position, pick)`.
type Edit = (u16, usize, usize);

/// Split `template` after every space and newline, apply `edits` —
/// insert a token, delete, replace or duplicate one, or insert a raw
/// (possibly non-UTF-8) byte — and render the result.
fn mutate(template: &str, tokens: &[&str], edits: &[Edit]) -> Vec<u8> {
    let mut parts: Vec<Vec<u8>> = template
        .split_inclusive([' ', '\n'])
        .map(|t| t.as_bytes().to_vec())
        .collect();
    for &(kind, position, pick) in edits {
        let at = position % (parts.len() + 1);
        let token = tokens[pick % tokens.len()].as_bytes().to_vec();
        match kind {
            0 => parts.insert(at, token),
            1 if at < parts.len() => drop(parts.remove(at)),
            2 if at < parts.len() => parts[at] = token,
            3 if at < parts.len() => parts.insert(at, parts[at].clone()),
            _ => parts.insert(at, vec![pick as u8]),
        }
    }
    parts.concat()
}

fn parse_sparql(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    if let Ok(query) = parse_query(&text) {
        let _ = QueryGraph::from_query(&query);
    }
}

fn read_all_requests(input: &[u8]) {
    let limits = Limits::default();
    let mut stream = Cursor::new(input);
    // Keep-alive pipelining: read until end of stream or the first error.
    while let Ok(Some(_)) = read_request(&mut stream, &limits) {}
}

/// A parse may allocate a small multiple of its input, never more.
fn sparql_bound(len: usize) -> usize {
    64 * 1024 + 256 * len
}

/// A request may allocate its head and body limits plus a small multiple
/// of its input, never more.
fn http_bound(len: usize) -> usize {
    let limits = Limits::default();
    64 * 1024 + 2 * (limits.max_head_bytes + limits.max_body_bytes) + 64 * len
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3_000, ..ProptestConfig::default() })]

    /// Well-formed queries under random token edits.
    #[test]
    fn edited_sparql_never_panics_or_overallocates(
        template in 0usize..SPARQL_TEMPLATES.len(),
        edits in prop::collection::vec((0u16..5, 0usize..1_000, 0usize..1_000), 0..6),
    ) {
        let input = mutate(SPARQL_TEMPLATES[template], SPARQL_TOKENS, &edits);
        let (total, largest) = measure("parse_query", &input, || parse_sparql(&input));
        prop_assert!(total <= sparql_bound(input.len()), "{total} bytes for {} input bytes", input.len());
        prop_assert!(largest <= sparql_bound(input.len()));
    }

    /// Random bytes, as text, to the SPARQL front end.
    #[test]
    fn sparql_byte_strings_never_panic_or_overallocate(
        bytes in prop::collection::vec(0u16..256, 0..200),
    ) {
        let input: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let (total, largest) = measure("parse_query", &input, || parse_sparql(&input));
        prop_assert!(total <= sparql_bound(input.len()), "{total} bytes for {} input bytes", input.len());
        prop_assert!(largest <= sparql_bound(input.len()));
    }

    /// Well-formed (and pipelined) requests under random token edits.
    #[test]
    fn edited_http_never_panics_or_overallocates(
        template in 0usize..HTTP_TEMPLATES.len(),
        edits in prop::collection::vec((0u16..5, 0usize..1_000, 0usize..1_000), 0..6),
    ) {
        let input = mutate(HTTP_TEMPLATES[template], HTTP_TOKENS, &edits);
        let (total, largest) = measure("read_request", &input, || read_all_requests(&input));
        prop_assert!(total <= http_bound(input.len()), "{total} bytes for {} input bytes", input.len());
        prop_assert!(largest <= http_bound(input.len()));
    }

    /// Random bytes, alone or after a well-formed request line.
    #[test]
    fn http_byte_strings_never_panic_or_overallocate(
        bytes in prop::collection::vec(0u16..256, 0..200),
        prefixed in any::<bool>(),
    ) {
        let mut input = Vec::new();
        if prefixed {
            input.extend_from_slice(b"POST /query HTTP/1.1\r\n");
        }
        input.extend(bytes.iter().map(|&b| b as u8));
        let (total, largest) = measure("read_request", &input, || read_all_requests(&input));
        prop_assert!(total <= http_bound(input.len()), "{total} bytes for {} input bytes", input.len());
        prop_assert!(largest <= http_bound(input.len()));
    }
}

/// The bound is not vacuous: the reader allocates within its limits, and
/// a head past `max_head_bytes` is refused before it grows further.
#[test]
fn oversized_head_is_refused_within_the_bound() {
    let limits = Limits::default();
    let mut input = b"GET /query HTTP/1.1\r\nX: ".to_vec();
    input.resize(input.len() + 4 * limits.max_head_bytes, b'a');
    input.extend_from_slice(b"\r\n\r\n");
    let (_, largest) = measure("read_request", &input, || {
        assert!(read_request(&mut Cursor::new(&input), &limits).is_err());
    });
    assert!(
        largest <= 4 * limits.max_head_bytes,
        "largest request {largest}"
    );
}
