//! Definition 5's enumerator allocates per emitted match only the match.
//!
//! `partial_matches_from` sets up its cores, matching orders and
//! candidate buffers once per query and per core, reads a boundary
//! vertex's candidates straight off the sorted adjacency, and records
//! each crossing edge's data label directly; so an emitted LPM costs two
//! allocations — its binding and its crossing list — and the output
//! vector grows by doubling. A counting global allocator checks this on
//! a fixture with thousands of LPMs: a hub with `n` crossing edges per
//! label under a two-leaf star, with a constant and a variable label.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use gstored::partition::{DistributedGraph, ExplicitPartitioner};
use gstored::rdf::{RdfGraph, Term, Triple};
use gstored::sparql::{parse_query, QueryGraph};
use gstored::store::candidates::CandidateFilter;
use gstored::store::{internal_candidates, partial_matches_from, EncodedQuery};

/// Counts the allocations and reallocations made on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A hub internal to F0 with `n` `p`-edges and `n` `q`-edges to leaves
/// internal to F1, every edge crossing.
fn hub(n: usize) -> DistributedGraph {
    let t = |p: &str, i: usize| {
        Triple::new(
            Term::iri("http://hub"),
            Term::iri(format!("http://{p}")),
            Term::iri(format!("http://{p}/{i}")),
        )
    };
    let triples: Vec<Triple> = (0..n).flat_map(|i| [t("p", i), t("q", i)]).collect();
    let g = RdfGraph::from_triples(triples);
    let hub = g.vertex_of(&Term::iri("http://hub")).expect("hub stored");
    let homes: HashMap<_, _> = g.vertices().map(|v| (v, usize::from(v != hub))).collect();
    DistributedGraph::build(g, &ExplicitPartitioner::new(2, homes))
}

/// Per fragment: the LPMs `partial_matches_from` emitted, the
/// allocations it made, and the query's number of candidate cores.
fn count(dist: &DistributedGraph, text: &str) -> Vec<(usize, u64, usize)> {
    let query = QueryGraph::from_query(&parse_query(text).expect("parses")).expect("connected");
    let q = EncodedQuery::encode(&query, dist.dict()).expect("encodable");
    let filter = CandidateFilter::none(q.vertex_count());
    let cores = q.proper_connected_subsets().len();
    dist.fragments
        .iter()
        .map(|f| {
            let cands = internal_candidates(f, &q);
            let before = ALLOCATIONS.with(Cell::get);
            let lpms = partial_matches_from(f, &q, &cands, &filter);
            let after = ALLOCATIONS.with(Cell::get);
            (lpms.len(), after - before, cores)
        })
        .collect()
}

#[test]
fn an_emitted_lpm_costs_two_allocations() {
    let n = 60;
    let dist = hub(n);
    for text in [
        "SELECT * WHERE { ?c <http://p> ?a . ?c <http://q> ?b }",
        "SELECT ?c ?a ?b WHERE { ?c ?x ?a . ?c <http://q> ?b }",
    ] {
        let per_fragment = count(&dist, text);
        let total: usize = per_fragment.iter().map(|&(lpms, _, _)| lpms).sum();
        assert!(
            total >= n * n,
            "{text}: the fixture must emit thousands of LPMs"
        );
        for (lpms, allocations, cores) in per_fragment {
            // Two per match; a constant per core (its order, masks,
            // crossing list, binding and candidate buffers, each growing a
            // few times at most) and per query; the output's doublings.
            let growth = 2 * (usize::BITS - lpms.leading_zeros()) as usize;
            let bound = 2 * lpms + 24 * cores + growth + 32;
            assert!(
                allocations <= bound as u64,
                "{text}: {allocations} allocations for {lpms} LPMs over {cores} cores (bound {bound})"
            );
        }
    }
}
