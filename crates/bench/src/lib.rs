//! # gstored-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Section VIII), each returning printable rows for the
//! `experiments` binary.
//!
//! | Paper artifact | Harness entry |
//! |---|---|
//! | Table I (LUBM stage breakdown) | [`experiments::table_stage_breakdown`] with [`datasets::lubm`] |
//! | Table II (YAGO2 stage breakdown) | same, with [`datasets::yago`] |
//! | Table III (BTC stage breakdown) | same, with [`datasets::btc`] |
//! | Table IV (partitioning costs) | [`experiments::table_partitioning_costs`] |
//! | Fig. 9 (optimization variants) | [`experiments::fig_optimizations`] |
//! | Fig. 10 (partitioning strategies) | [`experiments::fig_partitionings`] |
//! | Fig. 11 (scalability) | [`experiments::fig_scalability`] |
//! | Fig. 12 (system comparison) | [`experiments::fig_comparison`] |
//!
//! Beside them, [`fixtures`] holds the synthetic stress inputs of the
//! equivalence tests and micro benches. The service's performance is
//! measured by the standalone `benchmark/` package (see
//! `BENCHMARK.json`); the `BENCH_PR*.json` files are the frozen output of
//! the per-PR generators that preceded it.

pub mod datasets;
pub mod experiments;
pub mod fixtures;
pub mod format;

pub use datasets::Dataset;
