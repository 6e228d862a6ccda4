//! Micro-benchmarks for the local store at the benchmark's scale:
//! candidate filtering, a site's partial evaluation and star matching,
//! each summed over every fragment — the work one query costs the whole
//! fleet's site threads — plus the centralized matcher on the same data.
//!
//! LUBM at a 40 k-triple target under 8 hash sites
//! ([`gstored_bench::fixtures::lubm_40k_hash8`], the scale of `lubm_mix`
//! and `lubm_bigresult`) carries `MEMBER_PATH` and LQ7 through partial
//! evaluation and the stars LQ2 and `STUDENT_COURSES` through the star
//! fast path; the 12-site random graph
//! ([`gstored_bench::fixtures::random_12k_hash12`], `random_crossing`'s
//! scale) carries the three-edge path RQ2.

use criterion::{criterion_group, criterion_main, Criterion};
use gstored_bench::fixtures::{self, benchmark_query};
use gstored_partition::DistributedGraph;
use gstored_sparql::analysis;
use gstored_store::candidates::CandidateFilter;
use gstored_store::{
    find_matches, find_star_matches, internal_candidates, matches_from, partial_matches_from,
    EncodedQuery,
};

/// What every site does on `PartialEval`, summed over the fragments: one
/// candidate computation shared by the local complete matches and the
/// LPM enumeration.
fn partial_eval(dist: &DistributedGraph, eq: &EncodedQuery) -> usize {
    let filter = CandidateFilter::none(eq.vertex_count());
    dist.fragments
        .iter()
        .map(|f| {
            let cands = internal_candidates(f, eq);
            matches_from(f, eq, &cands).len() + partial_matches_from(f, eq, &cands, &filter).len()
        })
        .sum()
}

fn bench(c: &mut Criterion) {
    let (dataset, lubm) = fixtures::lubm_40k_hash8();
    let random = fixtures::random_12k_hash12();
    let lubm_text = |id: &str| {
        dataset
            .queries
            .iter()
            .find(|q| q.id == id)
            .map_or_else(|| benchmark_query(id), |q| q.text.clone())
    };

    let mut group = c.benchmark_group("micro_store");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    let (_, lq7) = fixtures::encode(&lubm, &lubm_text("LQ7"));
    group.bench_function("internal_candidates_LQ7", |b| {
        b.iter(|| {
            let sets: usize = lubm
                .fragments
                .iter()
                .map(|f| internal_candidates(f, &lq7).len())
                .sum();
            criterion::black_box(sets)
        })
    });
    for id in ["MEMBER_PATH", "LQ7"] {
        let (_, eq) = fixtures::encode(&lubm, &lubm_text(id));
        group.bench_function(format!("partial_eval_{id}"), |b| {
            b.iter(|| criterion::black_box(partial_eval(&lubm, &eq)))
        });
    }
    let (_, rq2) = fixtures::encode(&random, &benchmark_query("RQ2"));
    group.bench_function("partial_eval_RQ2_random", |b| {
        b.iter(|| criterion::black_box(partial_eval(&random, &rq2)))
    });
    // What every site does on `StarMatches`: seed, then search.
    for id in ["LQ2", "STUDENT_COURSES"] {
        let (query, star) = fixtures::encode(&lubm, &lubm_text(id));
        let center = analysis::analyze(&query)
            .star_center
            .unwrap_or_else(|| panic!("{id} is a star"));
        group.bench_function(format!("star_matches_{id}"), |b| {
            b.iter(|| {
                let rows: usize = lubm
                    .fragments
                    .iter()
                    .map(|f| find_star_matches(f, &star, center).len())
                    .sum();
                criterion::black_box(rows)
            })
        });
    }
    group.bench_function("centralized_matching_LQ7", |b| {
        b.iter(|| criterion::black_box(find_matches(&dataset.graph, &lq7).len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
