//! Algorithm 2's heap traffic does not grow with the feature count.
//!
//! `prune_features` keeps its index, its DFS levels, its dedup tables
//! and its derivation DAG in a fixed set of flat arenas, so doubling the
//! input adds about one reallocation per arena, not one allocation (or
//! more) per feature. A counting global allocator checks this on a
//! fixture where every feature joins: a path query over `n` independent
//! three-fragment chains, at `n` and at `2n` chains.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gstored::core::lec::LecFeature;
use gstored::core::prune::prune_features;
use gstored::rdf::{EdgeRef, TermId};

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

/// `n` chains `a_i → b_i → c_i` under the path query `?a -p-> ?b -p->
/// ?c`, one vertex per fragment: a feature with `a` internal on F0, one
/// with `b` internal on F1 carrying both edges, one with `c` internal on
/// F2. Each chain completes, so every feature is useful; ids are the
/// feature indices.
fn chains(n: usize) -> Vec<LecFeature> {
    let p = TermId(500);
    let edge = |from: u64, to: u64| EdgeRef {
        from: TermId(from),
        label: p,
        to: TermId(to),
    };
    let mut features = Vec::with_capacity(3 * n);
    let mut push = |fragment: usize, mapping: Vec<(EdgeRef, usize)>, sign: u64| {
        let id = features.len() as u32;
        features.push(LecFeature {
            fragments: 1 << fragment,
            mapping,
            sign,
            sources: vec![id],
        });
    };
    for i in 0..n as u64 {
        let (a, b, c) = (3 * i, 3 * i + 1, 3 * i + 2);
        push(0, vec![(edge(a, b), 0)], 0b001);
        push(1, vec![(edge(a, b), 0), (edge(b, c), 1)], 0b010);
        push(2, vec![(edge(b, c), 1)], 0b100);
    }
    features
}

/// Allocations made by one `prune_features` call on `chains(n)`, and the
/// number of useful ids it returned.
fn allocations(n: usize) -> (u64, usize) {
    let features = chains(n);
    let query_edges = [(0, 1), (1, 2)];
    let before = ALLOCATIONS.with(Cell::get);
    let useful = prune_features(&features, 3, &query_edges);
    let after = ALLOCATIONS.with(Cell::get);
    let kept = useful.len();
    drop(useful);
    (after - before, kept)
}

#[test]
fn prune_allocations_do_not_scale_with_the_feature_count() {
    let n = 2_000;
    let (at_n, kept_n) = allocations(n);
    let (at_2n, kept_2n) = allocations(2 * n);
    assert_eq!(kept_n, 3 * n, "every chain completes");
    assert_eq!(kept_2n, 6 * n, "every chain completes");
    // Doubling the input may cost each arena one more reallocation.
    assert!(
        at_2n <= at_n + 40,
        "{at_n} allocations at {n} chains, {at_2n} at {}",
        2 * n
    );
}
