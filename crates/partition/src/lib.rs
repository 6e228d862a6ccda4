//! # gstored-partition
//!
//! Vertex-disjoint partitioning of an RDF graph into fragments
//! (Definition 1 of the paper), the partitioning strategies evaluated in
//! Sections VII/VIII-D, and the partitioning cost model of Section VII.
//!
//! The paper's setting is *partitioning-tolerant*: the engine must answer
//! queries correctly under **any** vertex-disjoint partitioning, but
//! different partitionings give different performance. This crate provides:
//!
//! * [`fragment::DistributedGraph`] / [`fragment::Fragment`] — fragments
//!   with internal vertices `V_i`, extended vertices `Ve_i`, internal edges
//!   `E_i` and replicated crossing edges `Ec_i`, exactly per Definition 1.
//! * [`HashPartitioner`] — the paper's default (`H(v) mod N`).
//! * [`SemanticHashPartitioner`] — URI-hierarchy grouping (Lee & Liu);
//!   degenerates to plain hashing when the hierarchy is uniform, matching
//!   the paper's YAGO2 observation.
//! * [`MetisLikePartitioner`] — a from-scratch multilevel min-edge-cut
//!   partitioner (heavy-edge-matching coarsening + greedy refinement)
//!   standing in for METIS.
//! * [`ExplicitPartitioner`] — a fixed assignment, used for the paper's
//!   running example (Fig. 1) and the Fig. 8 cost worked example.
//! * [`cost`] — `Cost(F) = E_F(V) × max_i |E_i ∪ Ec_i|`.

pub mod cost;
pub mod fragment;
pub mod hash;
pub mod metis_like;
pub mod semantic;

pub use cost::{partitioning_cost, CostReport};
pub use fragment::{DistributedGraph, Fragment, FragmentId, PartitionAssignment, PostingKey};
pub use hash::{ExplicitPartitioner, HashPartitioner};
pub use metis_like::MetisLikePartitioner;
pub use semantic::SemanticHashPartitioner;

use gstored_rdf::RdfGraph;

/// A strategy that assigns every vertex of an RDF graph to one of `k`
/// fragments. Implementations must be deterministic for reproducibility.
pub trait Partitioner {
    /// Human-readable strategy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Number of fragments produced.
    fn num_fragments(&self) -> usize;

    /// Assign every vertex to a fragment.
    fn assign(&self, graph: &RdfGraph) -> PartitionAssignment;
}
