#![deny(missing_docs)]
//! # gstored-server
//!
//! The W3C [SPARQL Protocol](https://www.w3.org/TR/sparql11-protocol/)
//! HTTP front-end for the gStoreD engine: the layer that turns the
//! embedded [`gstored::GStoreD`] session — a crate — into a service that
//! external clients hit with `curl`. Built entirely over
//! `std::net::TcpListener` (the build environment has no network access,
//! so no hyper/tokio; the repo's vendored-shim discipline applies to
//! servers too).
//!
//! The crate is four layers, one module each:
//!
//! * [`http`] — a bounded hand-rolled HTTP/1.1 reader/writer.
//! * [`mod@negotiate`] — the four result formats + `Accept` negotiation.
//! * [`serializer`] — streaming SPARQL JSON/XML/TSV/CSV result writers
//!   (the `sparesults` shape: head once, then row by row).
//! * [`admission`] + [`server`] — the bounded worker pool and queue that
//!   turn overload into immediate `429`s, the endpoint routing, and
//!   graceful shutdown; [`shutdown`] adds the SIGINT/SIGTERM hook the
//!   `gstored-server` binary uses; [`client`] is the tiny blocking HTTP
//!   client the tests drive it with.
//!
//! Every concurrent HTTP request runs as one of the session's
//! multiplexed queries (the query-id runtime): the HTTP pool admits at
//! most the session's `max_concurrent_queries` requests, each of which
//! occupies one engine admission slot while it executes, over one shared
//! worker fleet. See `docs/http.md` for the endpoint and status-code
//! reference, and `ARCHITECTURE.md` for how the server maps onto the
//! concurrency model.

pub mod admission;
pub mod client;
pub mod http;
pub mod negotiate;
pub mod serializer;
pub mod server;
pub mod shutdown;

pub use admission::{BoundedQueue, CountersSnapshot, ServerCounters};
pub use http::{HttpRequest, HttpResponse};
pub use negotiate::{negotiate, ResultFormat};
pub use serializer::{serialize_rows, SolutionWriter};
pub use server::{ServerConfig, ServerHandle, SparqlServer};
