#![deny(missing_docs)]
//! # gstored-core
//!
//! The paper's contribution, on top of the substrate crates:
//!
//! * [`lec`] — local partial match equivalence classes and **LEC features**
//!   (Definitions 6–8, Algorithm 1), with the joinability conditions of
//!   Definition 9 (Theorems 2, 3 and 5 are exercised as tests).
//! * [`prune`] — the LEC feature-based **pruning** of Algorithm 2: group
//!   features by LECSign, build the join graph, DFS-join features and keep
//!   only those participating in an all-ones LECSign combination.
//! * [`assembly`] — the LEC feature-based **assembly** of Algorithm 3,
//!   plus the un-grouped baseline join of \[18\] used by `gStoreD-Basic`.
//! * [`candidates`] — **assembling variables' internal candidates**
//!   (Section VI, Algorithm 4) with fixed-length candidate bit vectors.
//! * [`protocol`] — wire encoding of everything the engine ships: the
//!   payload batches *and* the typed request/response envelopes framing
//!   them, so data shipment is measured on real serialized frames.
//! * [`worker`] — the persistent **site worker**: owns a fragment plus a
//!   table of per-query state slots keyed by [`protocol::QueryId`] (with
//!   an LRU capacity cap), and answers protocol requests; identical
//!   behind every transport backend.
//! * [`runtime`] — the coordinator-side **worker pool** plus the
//!   concurrency substrate: the [`runtime::ReplyRouter`] that
//!   demultiplexes interleaved replies by query id and the
//!   [`runtime::QueryExecutor`] that allocates ids and admits pipelines
//!   onto a shared fleet. The pool has one exchange loop — every phase,
//!   broadcast, release, probe and fragment install goes through it —
//!   so every frame is charged to its stage as it crosses the wire, per
//!   query, and a failed site is marked for repair whichever exchange
//!   meets it.
//! * [`engine`] — the distributed engine with the four variants compared
//!   in Fig. 9: `Basic`, `LA` (LEC assembly), `LO` (+ LEC pruning) and
//!   `Full` (+ candidate exchange), including the star-query fast path of
//!   Section VIII-B, over a pluggable [`Backend`] (in-process workers or
//!   remote `gstored-worker` processes over TCP).
//! * [`prepared`] — the prepare-once / execute-many split:
//!   [`PreparedPlan`] caches encoding and shape analysis so
//!   [`engine::Engine::execute_on`] runs only per-execution work.
//! * [`planner`] — the rule behind [`Variant::Auto`]: run `Full` when
//!   at least half the query's matching edges cross fragments and the
//!   query is cyclic or selective, `LA` otherwise.

pub mod assembly;
pub mod candidates;
pub mod engine;
pub mod error;
pub mod lec;
pub mod planner;
pub mod prepared;
pub mod protocol;
pub mod prune;
pub mod runtime;
pub mod worker;

pub use engine::{Backend, Engine, EngineConfig, QueryOutput, Variant};
pub use error::EngineError;
pub use lec::{LecFeature, MAX_SITES};
pub use planner::{plan_query, PlanExplain, PlannerDecision};
pub use prepared::PreparedPlan;
pub use protocol::{QueryId, WorkerStatus};
pub use runtime::{QueryExecutor, QueryTicket, ReplyRouter, WorkerPool};
pub use worker::SiteWorker;
