//! Micro-benchmarks for the local store: candidate filtering, star
//! matching, a site's partial evaluation, LPM enumeration and full
//! matching on one fragment.

use criterion::{criterion_group, criterion_main, Criterion};
use gstored_bench::{datasets, experiments};
use gstored_sparql::analysis;
use gstored_store::candidates::CandidateFilter;
use gstored_store::{
    enumerate_local_partial_matches, find_matches, find_star_matches, internal_candidates,
    matches_from, partial_matches_from, EncodedQuery,
};

fn bench(c: &mut Criterion) {
    let dataset = datasets::lubm(8_000);
    let dist = experiments::partition(dataset.graph.clone(), "hash", 4);
    let encode = |id: &str| {
        let q = dataset
            .queries
            .iter()
            .find(|q| q.id == id)
            .unwrap_or_else(|| panic!("{id} exists"));
        let query = experiments::query_graph(q);
        let eq = EncodedQuery::encode(&query, dist.dict()).expect("encodable");
        (query, eq)
    };
    let (_, eq) = encode("LQ7");
    let filter = CandidateFilter::none(eq.vertex_count());
    let fragment = &dist.fragments[0];

    let mut group = c.benchmark_group("micro_store");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("internal_candidates", |b| {
        b.iter(|| criterion::black_box(internal_candidates(fragment, &eq).len()))
    });
    // What a site does on `StarMatches`: seed, then search, per fragment.
    for id in ["LQ2", "LQ4"] {
        let (query, star) = encode(id);
        let center = analysis::analyze(&query)
            .star_center
            .unwrap_or_else(|| panic!("{id} is a star"));
        group.bench_function(format!("star_matches_{id}"), |b| {
            b.iter(|| {
                let rows: usize = dist
                    .fragments
                    .iter()
                    .map(|f| find_star_matches(f, &star, center).len())
                    .sum();
                criterion::black_box(rows)
            })
        });
    }
    // What a site does on `PartialEval`: one candidate computation shared
    // by the local complete matches and the LPM enumeration.
    group.bench_function("partial_eval", |b| {
        b.iter(|| {
            let cands = internal_candidates(fragment, &eq);
            let locals = matches_from(fragment, &eq, &cands);
            let lpms = partial_matches_from(fragment, &eq, &cands, &filter);
            criterion::black_box(locals.len() + lpms.len())
        })
    });
    group.bench_function("lpm_enumeration", |b| {
        b.iter(|| {
            criterion::black_box(enumerate_local_partial_matches(fragment, &eq, &filter).len())
        })
    });
    group.bench_function("centralized_matching", |b| {
        b.iter(|| criterion::black_box(find_matches(&dataset.graph, &eq).len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
