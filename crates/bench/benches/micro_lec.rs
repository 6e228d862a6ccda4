//! Micro-benchmarks for the LEC machinery (ablation: Algorithm 1 feature
//! compression, Algorithm 2 pruning, and Algorithm 3 — the delta join
//! `IncrementalJoin` — beside the basic \[18\] assembly on the YAGO YQ3
//! LPMs). Algorithm 3 is also timed on the fan-in case of
//! [`gstored_bench::fixtures::fan_in_path_lpms`] and the dense-star stress
//! case of [`gstored_bench::fixtures::dense_star_lpms`], and at the
//! benchmark's scale on every LPM of `MEMBER_PATH` (LUBM at a 40 k-triple
//! target, 8 hash sites; [`gstored_bench::fixtures::lubm_member_path`]).
//!
//! The `survivors_codec` group times the frame codec alone on the same
//! query: encoding and decoding the busiest site's `Survivors` reply
//! (every LPM it found) and its `Features` reply.

use criterion::{criterion_group, criterion_main, Criterion};
use gstored_bench::{datasets, experiments, fixtures};
use gstored_core::assembly::{assemble_basic, IncrementalJoin};
use gstored_core::lec::compute_lec_features;
use gstored_core::protocol::{decode_response, encode_response, QueryId, Response, ResponseBody};
use gstored_core::prune::prune_features;
use gstored_store::candidates::CandidateFilter;
use gstored_store::{enumerate_local_partial_matches, EncodedQuery, LocalPartialMatch};

fn bench(c: &mut Criterion) {
    let dataset = datasets::yago(8_000);
    let dist = experiments::partition(dataset.graph.clone(), "hash", 4);
    // YQ3: the LPM-heavy query.
    let q = dataset
        .queries
        .iter()
        .find(|q| q.id == "YQ3")
        .expect("YQ3 exists");
    let query = experiments::query_graph(q);
    let eq = EncodedQuery::encode(&query, dist.dict()).expect("encodable");
    let filter = CandidateFilter::none(eq.vertex_count());
    let lpms: Vec<LocalPartialMatch> = dist
        .fragments
        .iter()
        .flat_map(|f| enumerate_local_partial_matches(f, &eq, &filter))
        .collect();
    let query_edges: Vec<(usize, usize)> = eq.edges().iter().map(|e| (e.from, e.to)).collect();
    let (features, _) = compute_lec_features(&lpms, 0);

    let mut group = c.benchmark_group("micro_lec");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("algorithm1_compress", |b| {
        b.iter(|| criterion::black_box(compute_lec_features(&lpms, 0).0.len()))
    });
    group.bench_function("algorithm2_prune", |b| {
        b.iter(|| {
            criterion::black_box(prune_features(&features, eq.vertex_count(), &query_edges).len())
        })
    });
    group.bench_function("incremental_join", |b| {
        b.iter(|| criterion::black_box(push_all(&lpms, eq.vertex_count(), query_edges.len())))
    });
    group.bench_function("basic_assembly", |b| {
        b.iter(|| criterion::black_box(assemble_basic(&lpms, eq.vertex_count()).len()))
    });
    let (fan_in, fan_nv, fan_edges) = fixtures::fan_in_path_lpms(1_000);
    group.bench_function("fan_in_incremental_join", |b| {
        b.iter(|| criterion::black_box(push_all(&fan_in, fan_nv, fan_edges.len())))
    });
    let (dense, nv, dense_edges) = fixtures::dense_star_lpms(40);
    group.bench_function("dense_star_incremental_join", |b| {
        b.iter(|| criterion::black_box(push_all(&dense, nv, dense_edges.len())))
    });
    let (path_dist, path) = fixtures::lubm_member_path();
    let path_lpms = fixtures::all_lpms(&path_dist, &path);
    group.bench_function("member_path_incremental_join", |b| {
        b.iter(|| {
            criterion::black_box(push_all(&path_lpms, path.vertex_count(), path.edge_count()))
        })
    });
    group.finish();
    codec(c, &path_dist, &path);
}

/// The `survivors_codec` group: one site's `MEMBER_PATH` survivor and
/// feature frames, each encoded and decoded.
fn codec(c: &mut Criterion, dist: &gstored_partition::DistributedGraph, q: &EncodedQuery) {
    let filter = CandidateFilter::none(q.vertex_count());
    let site_lpms = dist
        .fragments
        .iter()
        .map(|f| enumerate_local_partial_matches(f, q, &filter))
        .max_by_key(Vec::len)
        .expect("a fleet has sites");
    let (site_features, _) = compute_lec_features(&site_lpms, 0);
    let reply = |body| Response::new(std::time::Duration::ZERO, QueryId(0), body);
    let survivors = reply(ResponseBody::Survivors(site_lpms.into()));
    let features = reply(ResponseBody::Features(site_features));
    let mut group = c.benchmark_group("survivors_codec");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    for (name, response) in [("survivors", &survivors), ("features", &features)] {
        let frame = encode_response(response);
        println!("survivors_codec/{name}: {} bytes", frame.len());
        group.bench_function(format!("{name}_encode"), |b| {
            b.iter(|| criterion::black_box(encode_response(response).len()))
        });
        group.bench_function(format!("{name}_decode"), |b| {
            b.iter(|| criterion::black_box(decode_response(frame.clone()).is_ok()))
        });
    }
    group.finish();
}

/// Push every LPM through a fresh streaming joiner, in order; returns the
/// number of matches emitted.
fn push_all(lpms: &[LocalPartialMatch], n_vertices: usize, n_edges: usize) -> usize {
    let mut joiner = IncrementalJoin::new(n_vertices, n_edges);
    lpms.iter().map(|m| joiner.push(m).len()).sum()
}

criterion_group!(benches, bench);
criterion_main!(benches);
