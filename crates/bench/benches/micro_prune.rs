//! Micro-benchmarks for LEC pruning: Algorithm 2's `prune_features` and
//! Algorithm 1's `compute_lec_features` on the engine's own feature sets
//! (LUBM LQ7 under hashing), Algorithm 2 on a six-edge LUBM snowflake —
//! the case where its `(visited set, current features)` state memo pays,
//! because many join orders reach one state — and on the crossing-heavy
//! many-feature stress case of
//! [`gstored_bench::fixtures::many_feature_features`] — and on the
//! benchmark's scale: `MEMBER_PATH` on LUBM at a 40 k-triple target
//! under 8 hash sites ([`gstored_bench::fixtures::lubm_member_path`]),
//! where the feature set is as large as the LPM set.

use criterion::{criterion_group, criterion_main, Criterion};
use gstored_bench::{datasets, experiments, fixtures};
use gstored_core::lec::compute_lec_features;
use gstored_core::prune::prune_features;
use gstored_rdf::vocab::lubm;
use gstored_sparql::{parse_query, QueryGraph};
use gstored_store::candidates::CandidateFilter;
use gstored_store::{enumerate_local_partial_matches, EncodedQuery, LocalPartialMatch};

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
    let query_edges: Vec<(usize, usize)> = eq.edges().iter().map(|e| (e.from, e.to)).collect();
    // The exact feature set the coordinator prunes (engine-style per-site
    // Algorithm 1 with disjoint id ranges).
    let features = fixtures::coordinator_features(&dist, &eq);
    // The LPM-heaviest fragment, for Algorithm 1.
    let heaviest: Vec<LocalPartialMatch> = dist
        .fragments
        .iter()
        .map(|f| enumerate_local_partial_matches(f, &eq, &filter))
        .max_by_key(Vec::len)
        .expect("fragments exist");

    let mut group = c.benchmark_group("micro_prune");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("algorithm2_prune_lubm", |b| {
        b.iter(|| {
            criterion::black_box(prune_features(&features, eq.vertex_count(), &query_edges).len())
        })
    });
    group.bench_function("algorithm1_compress", |b| {
        b.iter(|| criterion::black_box(compute_lec_features(&heaviest, 0).0.len()))
    });
    // A faculty star (five edges) plus the department's parent.
    let snowflake = format!(
        "SELECT * WHERE {{ ?f <{w}> ?d . ?f <{n}> ?name . ?f <{e}> ?mail . \
         ?f <{t}> ?tel . ?f <{c}> ?course . ?d <{s}> ?u . }}",
        w = lubm::WORKS_FOR,
        n = lubm::NAME,
        e = lubm::EMAIL_ADDRESS,
        t = lubm::TELEPHONE,
        c = lubm::TEACHER_OF,
        s = lubm::SUB_ORGANIZATION_OF,
    );
    let snowflake =
        QueryGraph::from_query(&parse_query(&snowflake).expect("parses")).expect("connected");
    let snow = EncodedQuery::encode(&snowflake, dist.dict()).expect("encodable");
    let snow_edges: Vec<(usize, usize)> = snow.edges().iter().map(|e| (e.from, e.to)).collect();
    let snow_features = fixtures::coordinator_features(&dist, &snow);
    group.bench_function("algorithm2_prune_snowflake", |b| {
        b.iter(|| {
            criterion::black_box(
                prune_features(&snow_features, snow.vertex_count(), &snow_edges).len(),
            )
        })
    });
    let (many, nv, many_edges) = fixtures::many_feature_features(24);
    group.bench_function("many_feature_prune", |b| {
        b.iter(|| criterion::black_box(prune_features(&many, nv, &many_edges).len()))
    });
    let (path_dist, path) = fixtures::lubm_member_path();
    let path_edges: Vec<(usize, usize)> = path.edges().iter().map(|e| (e.from, e.to)).collect();
    let path_features = fixtures::coordinator_features(&path_dist, &path);
    group.bench_function("algorithm2_prune_member_path", |b| {
        b.iter(|| {
            criterion::black_box(
                prune_features(&path_features, path.vertex_count(), &path_edges).len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
