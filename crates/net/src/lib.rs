#![deny(missing_docs)]
//! # gstored-net
//!
//! The distributed runtime substrate. The paper runs on a 12-machine
//! MPICH cluster; this crate provides the message-passing layer the
//! engine drives its sites through, with **byte-accurate data-shipment
//! accounting** and an explicit network cost model, preserving exactly
//! what the experiments measure: per-stage response time (max over
//! parallel sites) and per-stage data shipment (bytes on the wire).
//!
//! * [`wire`] — a compact varint-based binary codec; every message the
//!   engine ships is encoded through it, so shipment numbers are real
//!   serialized sizes, not estimates.
//! * [`transport`] — the [`Transport`] trait, the in-process backend
//!   [`InProcessTransport`] (channels, deterministic) and the
//!   length-prefixed TCP frame codec.
//! * [`executor`] — the pool of `min(available_parallelism(), sites)` threads that
//!   runs every in-process site as a step handler.
//! * [`reactor`] — [`ReactorTransport`], the TCP backend: one epoll
//!   I/O thread services every site socket through per-connection
//!   partial-frame state machines (Linux only).
//! * [`chaos`] — [`ChaosTransport`], a fault injector that perturbs any
//!   backend with a deterministic seed-driven schedule of delays,
//!   drops, truncations, corruptions, disconnects, and hangs
//!   (robustness tests and benchmarks).
//! * [`worker`] — generic serve loops that drive a frame handler over
//!   either backend; the engine-specific handler lives in
//!   `gstored_core::worker`.
//! * [`metrics`] — stage timers and shipment meters.
//! * [`cluster`] — the [`NetworkModel`] cost model.

pub mod chaos;
pub mod cluster;
pub mod executor;
pub mod metrics;
pub mod reactor;
pub mod transport;
pub mod wire;
pub mod worker;

pub use chaos::{ChaosConfig, ChaosStats, ChaosTransport, REPLY_TAG_OFFSET};
pub use cluster::NetworkModel;
pub use metrics::{QueryMetrics, StageMetrics};
pub use reactor::ReactorTransport;
pub use transport::{InProcessTransport, Transport, TransportError};
pub use wire::{WireReader, WireWriter};
