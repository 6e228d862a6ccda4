//! The LPM enumerator against Definition 5 itself, by brute force.
//!
//! On tiny random fragments (at most 3 sites over 10 vertices, with
//! classes) and random connected queries of at most 4 edges — variable
//! predicates, parallel edges, self-loops, constants and class
//! constraints included — every mapping of the query vertices to the
//! fragment's stored vertices or `NULL` is tried, and those satisfying
//! the conditions in `gstored_store::partial`'s module doc are kept:
//!
//! * the internal core (vertices mapped to internal vertices) is
//!   non-empty and weakly connected in the query;
//! * every query edge incident to the core is matched — Definition 3's
//!   injective label test on each ordered pair of query vertices;
//! * every other bound vertex is a boundary vertex (adjacent to the core)
//!   bound to an extended vertex the candidate filter admits;
//! * at least one query edge crosses from the core to the boundary.
//!
//! `partial_matches_from` must produce exactly that set, each match once
//! and with the same crossing-edge records, under `CandidateFilter::none`
//! and under an Algorithm 4 union filter narrow enough to collide.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use gstored::partition::{DistributedGraph, ExplicitPartitioner, Fragment};
use gstored::rdf::{vocab, EdgeRef, RdfGraph, Term, Triple, VertexId};
use gstored::sparql::{parse_query, QueryGraph};
use gstored::store::candidates::{BitVectorFilter, CandidateFilter};
use gstored::store::labels::{labels_assignment, labels_satisfiable};
use gstored::store::{
    internal_candidates, partial_matches_from, EncodedLabel, EncodedQuery, EncodedVertex,
    LocalPartialMatch,
};

const VERTICES: u64 = 10;
const PREDICATES: u64 = 3;
const CLASSES: u64 = 2;

fn vertex(i: u64) -> String {
    format!("http://v/{i}")
}

fn predicate(i: u64) -> String {
    format!("http://p/{i}")
}

fn class(i: u64) -> String {
    format!("http://C/{i}")
}

/// A SplitMix64 step: the query generator's randomness from one seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A connected query of 1–4 edges over at most 5 vertices. `?v0` is
/// always a variable; other vertices are constants one time in five.
/// Labels are variables one time in four. Later edges either grow the
/// query by a vertex or join two existing ones — in either direction,
/// in parallel with an earlier edge, or as a self-loop.
fn random_query(seed: u64) -> String {
    let mut rng = seed;
    let mut roll = |n: u64| next(&mut rng) % n;
    let n_edges = 1 + roll(4);
    let mut vertices = 1u64;
    let mut edges = Vec::new();
    for _ in 0..n_edges {
        let (a, b) = if vertices == 1 || (vertices < 5 && roll(3) > 0) {
            vertices += 1;
            (roll(vertices - 1), vertices - 1)
        } else {
            (roll(vertices), roll(vertices))
        };
        let (from, to) = if roll(2) == 0 { (a, b) } else { (b, a) };
        edges.push((from, to));
    }
    let terms: Vec<String> = (0..vertices)
        .map(|v| {
            if v > 0 && roll(5) == 0 {
                format!("<{}>", vertex(roll(VERTICES)))
            } else {
                format!("?v{v}")
            }
        })
        .collect();
    let mut patterns = Vec::new();
    for (i, &(from, to)) in edges.iter().enumerate() {
        let label = if roll(4) == 0 {
            format!("?p{i}")
        } else {
            format!("<{}>", predicate(roll(PREDICATES)))
        };
        patterns.push(format!(
            "{} {label} {}",
            terms[from as usize], terms[to as usize]
        ));
    }
    for term in terms.iter().filter(|t| t.starts_with('?')) {
        if roll(4) == 0 {
            patterns.push(format!(
                "{term} <{}> <{}>",
                vocab::rdf::TYPE,
                class(roll(CLASSES))
            ));
        }
    }
    let projection: Vec<&str> = terms
        .iter()
        .filter(|t| t.starts_with('?'))
        .map(String::as_str)
        .collect();
    format!(
        "SELECT {} WHERE {{ {} }}",
        projection.join(" "),
        patterns.join(" . ")
    )
}

fn graph(edges: &[(u64, u64, u64)], typed: &[(u64, u64)]) -> RdfGraph {
    let mut triples: Vec<Triple> = edges
        .iter()
        .map(|&(s, p, o)| {
            Triple::new(
                Term::iri(vertex(s)),
                Term::iri(predicate(p)),
                Term::iri(vertex(o)),
            )
        })
        .collect();
    triples.extend(typed.iter().map(|&(v, c)| {
        Triple::new(
            Term::iri(vertex(v)),
            Term::iri(vocab::rdf::TYPE),
            Term::iri(class(c)),
        )
    }));
    RdfGraph::from_triples(triples)
}

/// Algorithm 4's union filter: every fragment's internal candidates,
/// hashed into 64 bits per variable, so distinct vertices collide.
fn union_filter(dist: &DistributedGraph, q: &EncodedQuery) -> CandidateFilter {
    let mut filter = CandidateFilter::none(q.vertex_count());
    for v in (0..q.vertex_count()).filter(|&v| q.vertex(v).is_var()) {
        let mut bits = BitVectorFilter::new(64);
        for f in &dist.fragments {
            for &u in &internal_candidates(f, q)[v] {
                bits.insert(u);
            }
        }
        filter.extended_bits[v] = Some(bits);
    }
    filter
}

/// The data labels of the edges `from → to`, in adjacency order.
fn data_labels(f: &Fragment, from: VertexId, to: VertexId) -> Vec<gstored::rdf::TermId> {
    f.out_edges(from)
        .iter()
        .filter(|&&(_, t)| t == to)
        .map(|&(l, _)| l)
        .collect()
}

/// The LPM `m` is, if it satisfies Definition 5 on `f`.
fn definition5(
    f: &Fragment,
    q: &EncodedQuery,
    filter: &CandidateFilter,
    m: &[Option<VertexId>],
) -> Option<LocalPartialMatch> {
    let n = q.vertex_count();
    let core: Vec<usize> = (0..n)
        .filter(|&v| m[v].is_some_and(|u| f.is_internal(u)))
        .collect();
    if !q.subset_connected(&core) {
        return None;
    }
    let in_core = |v: usize| core.contains(&v);
    let adjacent_to_core = |v: usize| {
        q.edges()
            .iter()
            .any(|e| (e.from == v && in_core(e.to)) || (e.to == v && in_core(e.from)))
    };
    for v in (0..n).filter(|&v| !in_core(v)) {
        if let Some(u) = m[v] {
            if !f.is_extended(u) || !filter.admits_extended(v, u) || !adjacent_to_core(v) {
                return None;
            }
        }
    }
    // Query edges grouped by ordered pair of query vertices.
    let mut pairs: Vec<(usize, usize)> = q.edges().iter().map(|e| (e.from, e.to)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut crossing = Vec::new();
    for (a, b) in pairs {
        if !in_core(a) && !in_core(b) {
            continue; // condition 3: boundary–boundary edges may stay unmatched
        }
        let (Some(ua), Some(ub)) = (m[a], m[b]) else {
            return None;
        };
        let group: Vec<usize> = (0..q.edge_count())
            .filter(|&i| (q.edge(i).from, q.edge(i).to) == (a, b))
            .collect();
        let q_labels: Vec<EncodedLabel> = group.iter().map(|&i| q.edge(i).label).collect();
        let d_labels = data_labels(f, ua, ub);
        if !labels_satisfiable(&q_labels, &d_labels) {
            return None;
        }
        if in_core(a) != in_core(b) {
            let assignment = labels_assignment(&q_labels, &d_labels).expect("satisfiable");
            for (pos, &i) in group.iter().enumerate() {
                let edge = EdgeRef {
                    from: ua,
                    label: d_labels[assignment[pos]],
                    to: ub,
                };
                crossing.push((edge, i));
            }
        }
    }
    if crossing.is_empty() {
        return None;
    }
    crossing.sort_unstable_by_key(|&(_, i)| i);
    Some(LocalPartialMatch {
        fragment: f.id,
        binding: m.to_vec(),
        crossing,
        internal_mask: core.iter().fold(0, |mask, &v| mask | 1 << v),
    })
}

/// Every mapping of the query vertices to `f`'s stored vertices or
/// `NULL` that passes Definition 5. A vertex's domain is first narrowed
/// by its own constraints only: a constant binds to itself, and a bound
/// vertex carries its required classes.
fn brute_force(f: &Fragment, q: &EncodedQuery, filter: &CandidateFilter) -> Vec<LocalPartialMatch> {
    if q.has_unsatisfiable() {
        // A term missing from the data: no match exists, so no partial
        // match is worth shipping.
        return Vec::new();
    }
    let mut stored = [f.internal.as_slice(), &f.extended].concat();
    stored.sort_unstable();
    let domains: Vec<Vec<Option<VertexId>>> = (0..q.vertex_count())
        .map(|v| {
            let Some(required) = q.required_classes(v).ids() else {
                return vec![None];
            };
            let own = |u: VertexId| match q.vertex(v) {
                EncodedVertex::Var => f.has_classes(u, required),
                EncodedVertex::Const(id) => id == u && f.has_classes(u, required),
                EncodedVertex::Unsatisfiable => false,
            };
            std::iter::once(None)
                .chain(stored.iter().copied().filter(|&u| own(u)).map(Some))
                .collect()
        })
        .collect();
    let mut found = Vec::new();
    let mut m = vec![None; q.vertex_count()];
    fn each(
        depth: usize,
        domains: &[Vec<Option<VertexId>>],
        m: &mut Vec<Option<VertexId>>,
        visit: &mut dyn FnMut(&[Option<VertexId>]),
    ) {
        if depth == domains.len() {
            visit(m);
            return;
        }
        for &u in &domains[depth] {
            m[depth] = u;
            each(depth + 1, domains, m, visit);
        }
    }
    each(0, &domains, &mut m, &mut |m| {
        if let Some(lpm) = definition5(f, q, filter, m) {
            found.push(lpm);
        }
    });
    found
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn lpms_are_exactly_the_definition_5_matches(
        edges in prop::collection::vec((0..VERTICES, 0..PREDICATES, 0..VERTICES), 4..32),
        typed in prop::collection::vec((0..VERTICES, 0..CLASSES), 1..10),
        homes in prop::collection::vec(0usize..3, VERTICES as usize),
        sites in 2usize..4,
        query_seed in any::<u64>(),
    ) {
        let g = graph(&edges, &typed);
        let assignment: HashMap<VertexId, usize> = (0..VERTICES)
            .filter_map(|i| Some((g.vertex_of(&Term::iri(vertex(i)))?, homes[i as usize] % sites)))
            .collect();
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(sites, assignment));
        let text = random_query(query_seed);
        let query = QueryGraph::from_query(&parse_query(&text).expect("generated query parses"))
            .expect("generated query is connected");
        let q = EncodedQuery::encode(&query, dist.dict()).expect("vertex variables projected");
        let filters = [CandidateFilter::none(q.vertex_count()), union_filter(&dist, &q)];
        for f in &dist.fragments {
            let cands = internal_candidates(f, &q);
            for filter in &filters {
                let got = partial_matches_from(f, &q, &cands, filter);
                let got_set: HashSet<&LocalPartialMatch> = got.iter().collect();
                prop_assert_eq!(got_set.len(), got.len(), "{}: an LPM emitted twice", text);
                let want = brute_force(f, &q, filter);
                let want_set: HashSet<&LocalPartialMatch> = want.iter().collect();
                prop_assert_eq!(got_set, want_set, "{} on fragment {}", text, f.id);
            }
        }
    }
}
