//! Definition 1 invariants and cost-model sanity under every partitioner
//! on random graphs, the fragment storage's two build paths against each
//! other, and the `InstallFragment` bytes against their recorded value.

use proptest::prelude::*;

use gstored::core::protocol::encode_install_fragment;
use gstored::datagen::random::{random_graph, vertex_iri, RandomGraphConfig};
use gstored::partition::cost::partitioning_cost;
use gstored::partition::{Fragment, PostingKey};
use gstored::prelude::*;
use gstored::rdf::{vocab, Term, TermId, Triple, VertexId};

/// A random graph in which every third vertex also carries one or two
/// of three classes.
fn typed_random_graph(vertices: usize, edges: usize, seed: u64) -> RdfGraph {
    let mut g = random_graph(&RandomGraphConfig {
        vertices,
        edges,
        predicates: 3,
        seed,
    });
    for i in (0..vertices).step_by(3) {
        for c in [i % 3, (i / 3) % 3].into_iter().take(1 + i % 2) {
            g.insert(&Triple::new(
                Term::iri(vertex_iri(i)),
                Term::iri(vocab::rdf::TYPE),
                Term::iri(format!("http://rnd/C{c}")),
            ));
        }
    }
    g
}

fn partitioners(sites: usize) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(HashPartitioner::new(sites)),
        Box::new(SemanticHashPartitioner::new(sites)),
        Box::new(MetisLikePartitioner::new(sites)),
    ]
}

/// `f` rebuilt by `Fragment::from_parts` from its public parts, the way
/// a worker rebuilds a decoded `InstallFragment`.
fn rebuilt(f: &Fragment) -> Fragment {
    Fragment::from_parts(
        f.id,
        f.internal.clone(),
        f.extended.clone(),
        f.internal_edges.clone(),
        f.crossing_edges.clone(),
        f.class_entries()
            .into_iter()
            .map(|(v, cs)| (v, cs.to_vec()))
            .collect(),
    )
}

/// FNV-1a over a frame: a checksum that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Every strategy produces a valid vertex-disjoint partitioning with
    /// replicated crossing edges, for any graph and site count.
    #[test]
    fn definition1_invariants_hold(
        seed in 0u64..10_000,
        vertices in 2usize..60,
        edges in 1usize..120,
        sites in 1usize..7,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices,
            edges,
            predicates: 3,
            seed,
        });
        for p in &partitioners(sites) {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            prop_assert_eq!(dist.validate(), None, "{} violated Definition 1", p.name());
            prop_assert_eq!(dist.fragment_count(), sites);
        }
    }

    /// Cost-model identities: zero cost iff no crossing edges; the
    /// expectation term is exactly Σ deg_c(v)² / (2|Ec|).
    #[test]
    fn cost_model_identities(
        seed in 0u64..10_000,
        sites in 1usize..5,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 30,
            edges: 60,
            predicates: 2,
            seed,
        });
        let dist = DistributedGraph::build(g, &HashPartitioner::new(sites));
        let report = partitioning_cost(&dist);
        let crossing = dist.crossing_edges();
        if crossing.is_empty() {
            prop_assert_eq!(report.cost, 0.0);
        } else {
            // Recompute the expectation independently.
            let mut deg: std::collections::HashMap<_, usize> =
                std::collections::HashMap::new();
            for e in &crossing {
                *deg.entry(e.from).or_insert(0) += 1;
                *deg.entry(e.to).or_insert(0) += 1;
            }
            let expect: f64 = deg.values().map(|&d| (d * d) as f64).sum::<f64>()
                / (2.0 * crossing.len() as f64);
            prop_assert!((report.expectation - expect).abs() < 1e-9);
            prop_assert!(report.expectation >= 0.5, "each edge contributes ≥ 2·1²/(2·|Ec|)");
            prop_assert!(report.cost >= report.expectation);
        }
        // Fragment edge sizes are consistent with the fragments.
        let sizes: Vec<usize> = dist.fragments.iter().map(|f| f.edge_size()).collect();
        prop_assert_eq!(report.fragment_edge_sizes, sizes);
    }

    /// Fragments jointly conserve edges: every edge appears as exactly one
    /// internal copy or exactly two crossing replicas.
    #[test]
    fn edge_conservation(
        seed in 0u64..10_000,
        sites in 2usize..6,
    ) {
        let g = random_graph(&RandomGraphConfig {
            vertices: 25,
            edges: 50,
            predicates: 3,
            seed,
        });
        let total = g.edge_count();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(sites));
        let internal: usize = dist.fragments.iter().map(|f| f.internal_edges.len()).sum();
        let crossing: usize = dist.fragments.iter().map(|f| f.crossing_edges.len()).sum();
        prop_assert_eq!(crossing % 2, 0);
        prop_assert_eq!(internal + crossing / 2, total);
        prop_assert_eq!(dist.crossing_edges().len(), crossing / 2);
    }

    /// Both build paths answer every accessor identically: the
    /// coordinator's `DistributedGraph::build` and a worker's
    /// `Fragment::from_parts` over the same public parts, for every
    /// stored vertex and for ids the fragment does not store; and the
    /// membership tests agree with the sorted vertex lists.
    #[test]
    fn both_build_paths_answer_alike(
        seed in 0u64..10_000,
        vertices in 2usize..50,
        edges in 1usize..100,
        sites in 1usize..6,
    ) {
        let g = typed_random_graph(vertices, edges, seed);
        let mut labels: Vec<TermId> = g.predicates().collect();
        let mut classes: Vec<TermId> =
            g.class_map().values().flat_map(|cs| cs.iter().copied()).collect();
        classes.sort_unstable();
        classes.dedup();
        // Ids no fragment stores as a vertex: the labels, the classes and
        // one past the dictionary.
        let beyond = TermId(g.dict().len() as u64);
        let absent: Vec<VertexId> =
            labels.iter().chain(&classes).copied().chain([beyond]).collect();
        labels.push(beyond);
        for p in &partitioners(sites) {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            for f in &dist.fragments {
                let r = rebuilt(f);
                prop_assert_eq!(r.class_entries(), f.class_entries());
                for &v in f.internal.iter().chain(&f.extended).chain(&absent) {
                    prop_assert_eq!(r.out_edges(v), f.out_edges(v));
                    prop_assert_eq!(r.in_edges(v), f.in_edges(v));
                    prop_assert_eq!(r.classes_of(v), f.classes_of(v));
                    for c in &classes {
                        prop_assert_eq!(r.has_classes(v, &[*c]), f.has_classes(v, &[*c]));
                    }
                    prop_assert_eq!(r.has_classes(v, &classes), f.has_classes(v, &classes));
                    let internal = f.internal.binary_search(&v).is_ok();
                    let extended = f.extended.binary_search(&v).is_ok();
                    for frag in [f, &r] {
                        prop_assert_eq!(frag.is_internal(v), internal);
                        prop_assert_eq!(frag.is_extended(v), extended);
                        prop_assert_eq!(frag.contains(v), internal || extended);
                    }
                }
                for &l in &labels {
                    for key in [PostingKey::Out(l), PostingKey::In(l)] {
                        prop_assert_eq!(r.posting(key), f.posting(key));
                    }
                }
                for &c in classes.iter().chain([&beyond]) {
                    prop_assert_eq!(r.posting(PostingKey::Class(c)), f.posting(PostingKey::Class(c)));
                }
            }
        }
    }
}

/// The `InstallFragment` frames of a fixed fixture keep the length and
/// checksum they had before fragments were stored as CSR arrays: the
/// storage layout never reaches the wire, so
/// `core.protocol.fragment_bytes` cannot move with it.
#[test]
fn install_fragment_bytes_are_pinned() {
    let g = typed_random_graph(40, 90, 7);
    let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
    let frames: Vec<(usize, u64)> = dist
        .fragments
        .iter()
        .map(|f| {
            let frame = encode_install_fragment(f);
            (frame.len(), fnv1a(&frame))
        })
        .collect();
    assert_eq!(frames, PINNED_FRAMES);
}

/// `(length, FNV-1a)` per fragment, recorded before the CSR storage.
const PINNED_FRAMES: [(usize, u64); 3] = [
    (210, 11_956_063_394_203_078_395),
    (265, 16_246_160_235_861_808_761),
    (234, 7_270_304_893_430_588_556),
];
