//! Algorithm 4 as the engine runs it: a query whose candidate union is
//! empty for some variable ends at the union barrier.
//!
//! * LQ3, the paper's empty selective query, returns no row under the
//!   hash, semantic and METIS-like partitioners of LUBM 40k without a
//!   `PartialEval` frame crossing the transport, and leaves every worker
//!   table empty.
//! * Over random graphs and BGPs: an empty union implies an empty
//!   centralized answer, and `Full` equals the oracle in every case.
//!
//! The LUBM 40k fixture is slow in debug builds; CI runs this file in
//! release too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use proptest::prelude::*;

use gstored::core::engine::{QueryOutput, Variant};
use gstored::core::protocol::{decode_request, QueryId, Request};
use gstored::core::worker::with_in_process_workers;
use gstored::core::{ReplyRouter, WorkerPool};
use gstored::datagen::random::{random_graph, random_query, RandomGraphConfig};
use gstored::net::transport::TransportError;
use gstored::net::{NetworkModel, Transport};
use gstored::partition::ExplicitPartitioner;
use gstored::prelude::*;
use gstored::store::{find_matches, internal_candidates, EncodedQuery};
use gstored_bench::datasets::{self, Dataset};
use gstored_bench::experiments::partition;

/// The benchmark's LUBM data, generated once for the whole binary.
fn lubm() -> &'static Dataset {
    static LUBM: OnceLock<Dataset> = OnceLock::new();
    LUBM.get_or_init(|| datasets::lubm(40_000))
}

fn plan_for(dist: &DistributedGraph, text: &str) -> PreparedPlan {
    let query = QueryGraph::from_query(&parse_query(text).expect("parses")).expect("connected");
    PreparedPlan::new(query, dist.dict()).expect("prepares")
}

/// The variables of `q`, in vertex order: the vertices that get vectors.
fn vars(q: &EncodedQuery) -> Vec<usize> {
    (0..q.vertex_count())
        .filter(|&v| q.vertex(v).is_var())
        .collect()
}

/// A transport that counts the `PartialEval` requests it carries, bare
/// or as a chain step.
struct Watch<'t> {
    inner: &'t dyn Transport,
    partial_evals: AtomicU64,
}

impl Transport for Watch<'_> {
    fn sites(&self) -> usize {
        self.inner.sites()
    }

    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        let steps = match decode_request(frame.clone()).expect("the engine's frames decode") {
            Request::Chain { steps, .. } => steps,
            bare => vec![bare],
        };
        let evals = steps
            .iter()
            .filter(|step| matches!(step, Request::PartialEval { .. }))
            .count();
        self.partial_evals
            .fetch_add(evals as u64, Ordering::Relaxed);
        self.inner.send(site, frame)
    }

    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
        self.inner.recv_deadline(site, deadline)
    }
}

#[test]
fn lq3_ends_at_the_union_under_every_partitioner() {
    let lq3 = lubm()
        .queries
        .iter()
        .find(|query| query.id == "LQ3")
        .expect("LQ3");
    let engine = Engine::with_variant(Variant::Full);
    for strategy in ["hash", "semantic", "metis"] {
        let sites = 8;
        let dist = partition(lubm().graph.clone(), strategy, sites);
        let plan = plan_for(&dist, &lq3.text);
        assert!(
            !plan.encoded().has_unsatisfiable(),
            "LQ3 must reach the union"
        );
        with_in_process_workers(&dist, |fleet| {
            let watch = Watch {
                inner: fleet,
                partial_evals: AtomicU64::new(0),
            };
            let out = engine.execute_on(&watch, &dist, &plan).expect("executes");
            assert!(out.rows.is_empty(), "{strategy}: LQ3 has no match");
            assert_eq!(watch.partial_evals.load(Ordering::Relaxed), 0, "{strategy}");
            // Phase A and the release, one frame each way per site; no
            // other stage moved a byte.
            let m = &out.metrics;
            assert_eq!(m.candidates.messages, 4 * sites as u64, "{strategy}");
            for stage in [&m.partial_evaluation, &m.lec_optimization, &m.assembly] {
                assert_eq!((stage.messages, stage.bytes_shipped), (0, 0), "{strategy}");
            }
            assert_eq!(fleet.counters().frames(), 4 * sites as u64, "{strategy}");
            let router = ReplyRouter::new(sites);
            let probe = WorkerPool::new(fleet, &router, NetworkModel::instant(), QueryId(99));
            for (site, status) in probe.worker_status().unwrap().iter().enumerate() {
                assert_eq!(status.resident_queries, 0, "{strategy}: site {site}");
            }
        });
    }
}

/// Whether some variable of `q` has no internal candidate on any site:
/// the case in which Algorithm 4's union is empty.
fn empty_union(dist: &DistributedGraph, q: &EncodedQuery) -> bool {
    let per_site: Vec<_> = dist
        .fragments
        .iter()
        .map(|f| internal_candidates(f, q))
        .collect();
    vars(q)
        .into_iter()
        .any(|v| per_site.iter().all(|cands| cands[v].is_empty()))
}

/// One random case: a sparse graph (so that some variable often has no
/// candidate anywhere), a random 4-site partitioning and a BGP. Returns
/// whether the union came out empty.
fn full_equals_the_oracle(
    graph_seed: u64,
    query_seed: u64,
    assignment: &[usize],
    n_edges: usize,
    anchored: bool,
) -> bool {
    let g = random_graph(&RandomGraphConfig {
        vertices: 24,
        edges: 20,
        predicates: 3,
        seed: graph_seed,
    });
    let anchor = anchored.then(|| gstored::datagen::random::vertex_iri(0));
    let text = random_query(n_edges, 3, anchor.as_deref(), query_seed);
    let query = QueryGraph::from_query(&parse_query(&text).expect("parses")).expect("connected");
    let oracle = {
        let q = EncodedQuery::encode(&query, g.dict()).expect("no predicate projection");
        let mut rows = find_matches(&g, &q);
        rows.sort_unstable();
        rows
    };
    let mut vertices: Vec<_> = g.vertices().collect();
    vertices.sort_unstable();
    let map = vertices
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, assignment[i % assignment.len()]))
        .collect();
    let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(4, map));
    let plan = PreparedPlan::new(query, dist.dict()).expect("prepares");
    let q = plan.encoded();
    let empty = !q.has_unsatisfiable() && !plan.shape().is_star() && empty_union(&dist, q);
    if empty {
        assert!(oracle.is_empty(), "{text}: an empty union with matches");
    }
    let engine = Engine::with_variant(Variant::Full);
    let out: QueryOutput =
        with_in_process_workers(&dist, |fleet| engine.execute_on(fleet, &dist, &plan))
            .expect("executes");
    let mut got = out.bindings;
    got.sort_unstable();
    assert_eq!(got, oracle, "{text}");
    if empty {
        assert_eq!(out.metrics.partial_evaluation.messages, 0, "{text}: ran on");
    }
    empty
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random graph × random partitioning × random BGP under `Full`.
    #[test]
    fn an_empty_union_means_an_empty_answer(
        graph_seed in 0u64..5000,
        query_seed in 0u64..5000,
        assignment in prop::collection::vec(0usize..4, 16),
        n_edges in 3usize..6,
        anchored in any::<bool>(),
    ) {
        full_equals_the_oracle(graph_seed, query_seed, &assignment, n_edges, anchored);
    }
}

/// The property above is not vacuous: its generator meets empty unions
/// and non-empty ones.
#[test]
fn the_random_cases_meet_both_kinds_of_union() {
    let assignment = [0, 1, 2, 3, 1, 0, 3, 2];
    let empties = (0..40u64)
        .filter(|&seed| {
            full_equals_the_oracle(seed, seed + 7, &assignment, 3 + seed as usize % 2, false)
        })
        .count();
    assert!(
        empties > 0 && empties < 40,
        "{empties} of 40 unions were empty"
    );
}
