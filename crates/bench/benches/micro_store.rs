//! Micro-benchmarks for the local store: candidate filtering, full
//! matching and LPM enumeration on one fragment.

use criterion::{criterion_group, criterion_main, Criterion};
use gstored_bench::{datasets, experiments};
use gstored_store::candidates::CandidateFilter;
use gstored_store::{
    enumerate_local_partial_matches, find_matches, internal_candidates, EncodedQuery,
};

fn bench(c: &mut Criterion) {
    let dataset = datasets::lubm(8_000);
    let dist = experiments::partition(dataset.graph.clone(), "hash", 4);
    let q = dataset
        .queries
        .iter()
        .find(|q| q.id == "LQ7")
        .expect("LQ7 exists");
    let query = experiments::query_graph(q);
    let eq = EncodedQuery::encode(&query, dist.dict()).expect("encodable");
    let filter = CandidateFilter::none(eq.vertex_count());
    let fragment = &dist.fragments[0];

    let mut group = c.benchmark_group("micro_store");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("internal_candidates", |b| {
        b.iter(|| criterion::black_box(internal_candidates(fragment, &eq).len()))
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
