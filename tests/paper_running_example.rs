//! The paper's running example, end to end: the distributed RDF graph of
//! Fig. 1, the query of Fig. 2, the local partial matches of Fig. 3
//! (byte-for-byte serialization vectors), the LEC features of Example 6,
//! the grouping of Example 7, the pruning of `LF([PM2_3])`, and the final
//! assembly of Example 8.

use std::collections::HashMap;

use gstored::core::engine::Variant;
use gstored::core::lec::compute_lec_features;
use gstored::core::prune::prune_features;
use gstored::partition::ExplicitPartitioner;
use gstored::prelude::*;
use gstored::rdf::Triple;
use gstored::store::candidates::CandidateFilter;
use gstored::store::{enumerate_local_partial_matches, find_matches, EncodedQuery};

const INFLUENCED: &str = "http://o/influencedBy";
const INTEREST: &str = "http://o/mainInterest";
const LABEL: &str = "http://o/label";
const NAME: &str = "http://o/name";

/// Vertex IRI carrying the Fig. 1 vertex id, e.g. `http://e/001`.
fn e(n: u32) -> String {
    format!("http://e/{n:03}")
}

fn t(s: u32, p: &str, o: u32) -> Triple {
    Triple::new(Term::iri(e(s)), Term::iri(p), Term::iri(e(o)))
}

/// Fig. 1's graph. Literals are modeled as IRI-named vertices carrying
/// the figure's numeric ids so the serialization vectors are literal.
fn paper_graph() -> RdfGraph {
    let mut g = RdfGraph::from_triples(vec![
        // F1: 001 (s1:Phi1), 002, 003 ("Crispin Wright"), 004, 005 (s1:Int1).
        t(1, NAME, 3),
        t(1, "http://o/birthDate", 2),
        t(5, LABEL, 4),
        // F2: 006 (s2:Phi2), 007-011, 014 (s2:Phi4), 018.
        t(6, NAME, 7),
        t(6, INTEREST, 8),
        t(8, LABEL, 9),
        t(6, INTEREST, 10),
        t(10, LABEL, 11),
        t(14, NAME, 18),
        // F3: 012 (s3:Phi3), 013 (s3:Int4), 015-017, 019, 020.
        t(12, NAME, 15),
        t(13, LABEL, 17),
        t(19, LABEL, 20),
        t(14, "http://o/birthPlace", 19),
        // Crossing edges of Fig. 1.
        t(1, INFLUENCED, 6),
        t(6, INTEREST, 5),
        t(1, INFLUENCED, 12),
        t(12, INTEREST, 13),
        t(14, INTEREST, 13),
    ]);
    g.finalize();
    g
}

fn paper_partitioner(g: &RdfGraph) -> ExplicitPartitioner {
    let mut map = HashMap::new();
    for (frag, ids) in [
        (0usize, vec![1, 2, 3, 4, 5]),
        (1, vec![6, 7, 8, 9, 10, 11, 14, 18]),
        (2, vec![12, 13, 15, 16, 17, 19, 20]),
    ] {
        for id in ids {
            if let Some(v) = g.vertex_of(&Term::iri(e(id))) {
                map.insert(v, frag);
            }
        }
    }
    ExplicitPartitioner::new(3, map)
}

/// Fig. 2's query text.
fn paper_query_text() -> String {
    format!(
        "SELECT ?p2 ?l WHERE {{ \
         ?t <{LABEL}> ?l . \
         ?p1 <{INFLUENCED}> ?p2 . \
         ?p2 <{INTEREST}> ?t . \
         ?p1 <{NAME}> <{}> . }}",
        e(3)
    )
}

/// Fig. 2's query. Query vertices in pattern order: v1=?p2, v2=?t,
/// v3=?p1, v4=?l, v5=003 — we order patterns so the vertex indexes are
/// v2,v4,v3,v1,v5 -> see `vid`.
fn paper_query() -> QueryGraph {
    QueryGraph::from_query(&gstored::sparql::parse_query(&paper_query_text()).unwrap()).unwrap()
}

/// Map the paper's v1..v5 naming to our vertex indexes.
fn vid(q: &QueryGraph, paper: &str) -> usize {
    match paper {
        "v1" => q.vertex_of_var("p2").unwrap(),
        "v2" => q.vertex_of_var("t").unwrap(),
        "v3" => q.vertex_of_var("p1").unwrap(),
        "v4" => q.vertex_of_var("l").unwrap(),
        "v5" => (0..q.vertex_count())
            .find(|&v| !q.vertex(v).is_var())
            .unwrap(),
        other => panic!("unknown {other}"),
    }
}

/// Render an LPM's serialization vector in the paper's v1..v5 order using
/// Fig. 1 vertex numbers, e.g. `[006,NULL,001,NULL,003]`.
fn serialization(
    dist: &gstored::partition::DistributedGraph,
    q: &QueryGraph,
    lpm: &gstored::store::LocalPartialMatch,
) -> String {
    let names = ["v1", "v2", "v3", "v4", "v5"];
    let parts: Vec<String> = names
        .iter()
        .map(|n| match lpm.binding[vid(q, n)] {
            Some(u) => {
                let Term::Iri(iri) = dist.dict().resolve(u) else {
                    panic!()
                };
                iri.rsplit('/').next().unwrap().to_string()
            }
            None => "NULL".to_string(),
        })
        .collect();
    format!("[{}]", parts.join(","))
}

#[test]
fn fig3_local_partial_matches_byte_for_byte() {
    let g = paper_graph();
    let query = paper_query();
    let partitioner = paper_partitioner(&g);
    let dist = DistributedGraph::build(g, &partitioner);
    assert_eq!(dist.validate(), None);
    let q = EncodedQuery::encode(&query, dist.dict()).unwrap();
    let filter = CandidateFilter::none(q.vertex_count());

    let mut rendered: Vec<Vec<String>> = Vec::new();
    for f in &dist.fragments {
        let mut lpms: Vec<String> = enumerate_local_partial_matches(f, &q, &filter)
            .iter()
            .map(|m| serialization(&dist, &query, m))
            .collect();
        lpms.sort();
        rendered.push(lpms);
    }
    // Fig. 3, F1: PM1_1, PM2_1, PM3_1.
    assert_eq!(
        rendered[0],
        vec![
            "[006,005,NULL,004,NULL]",
            "[006,NULL,001,NULL,003]",
            "[012,NULL,001,NULL,003]"
        ]
    );
    // Fig. 3, F2: PM1_2, PM2_2, PM3_2.
    assert_eq!(
        rendered[1],
        vec![
            "[006,005,001,NULL,NULL]",
            "[006,008,001,009,NULL]",
            "[006,010,001,011,NULL]"
        ]
    );
    // Fig. 3, F3: PM1_3, PM2_3.
    assert_eq!(
        rendered[2],
        vec!["[012,013,001,017,NULL]", "[014,013,NULL,017,NULL]"]
    );
}

#[test]
fn example6_lec_features_compress_pm12_pm22() {
    let g = paper_graph();
    let query = paper_query();
    let partitioner = paper_partitioner(&g);
    let dist = DistributedGraph::build(g, &partitioner);
    let q = EncodedQuery::encode(&query, dist.dict()).unwrap();
    let filter = CandidateFilter::none(q.vertex_count());

    // F2 has three LPMs but only two LEC features (PM1_2 and PM2_2 share
    // one — Example 6).
    let lpms_f2 = enumerate_local_partial_matches(&dist.fragments[1], &q, &filter);
    assert_eq!(lpms_f2.len(), 3);
    let (features, of) = compute_lec_features(&lpms_f2, 0);
    assert_eq!(features.len(), 2, "Example 6: LF([PM1_2]) = LF([PM2_2])");
    // The two 4-bound LPMs share a feature; the 3-bound one is alone.
    let full: Vec<usize> = lpms_f2
        .iter()
        .enumerate()
        .filter(|(_, m)| m.bound_count() == 4)
        .map(|(i, _)| of[i])
        .collect();
    assert_eq!(full.len(), 2);
    assert_eq!(full[0], full[1]);
}

#[test]
fn algorithm2_prunes_pm23_and_nothing_else_in_f3() {
    let g = paper_graph();
    let query = paper_query();
    let partitioner = paper_partitioner(&g);
    let dist = DistributedGraph::build(g, &partitioner);
    let q = EncodedQuery::encode(&query, dist.dict()).unwrap();
    let filter = CandidateFilter::none(q.vertex_count());
    let query_edges: Vec<(usize, usize)> = q.edges().iter().map(|e| (e.from, e.to)).collect();

    let mut all_features = Vec::new();
    let mut per_lpm: Vec<(usize, String, Vec<u32>)> = Vec::new(); // (frag, serialization, sources)
    let mut next = 0u32;
    for f in &dist.fragments {
        let lpms = enumerate_local_partial_matches(f, &q, &filter);
        let (features, of) = compute_lec_features(&lpms, next);
        next += lpms.len() as u32 + 1;
        for (i, lpm) in lpms.iter().enumerate() {
            per_lpm.push((
                f.id,
                serialization(&dist, &query, lpm),
                features[of[i]].sources.clone(),
            ));
        }
        all_features.extend(features);
    }
    let useful = prune_features(&all_features, q.vertex_count(), &query_edges);
    let pruned: Vec<&str> = per_lpm
        .iter()
        .filter(|(_, _, sources)| !sources.iter().any(|s| useful.contains(s)))
        .map(|(_, s, _)| s.as_str())
        .collect();
    // The paper (after Algorithm 2): "P5 = LF([PM2_3]) ... can be filtered
    // out". PM2_3 = [014,013,NULL,017,NULL]. Everything else survives.
    assert_eq!(pruned, vec!["[014,013,NULL,017,NULL]"]);
}

#[test]
fn final_matches_all_variants_and_baselines_agree() {
    let g = paper_graph();
    let query = paper_query();
    let q = EncodedQuery::encode(&query, g.dict()).unwrap();
    let mut reference = find_matches(&g, &q);
    reference.sort_unstable();
    // The crossing match of Example 3 (003,001,006,008,009) plus the
    // other three interest combinations: 4 matches total.
    assert_eq!(reference.len(), 4);

    let partitioner = paper_partitioner(&g);
    let dist = DistributedGraph::build(g.clone(), &partitioner);
    for variant in Variant::ALL {
        let db = GStoreD::builder()
            .distributed(dist.clone())
            .variant(variant)
            .build()
            .unwrap();
        let results = db.query(&paper_query_text()).unwrap();
        let mut got = results.bindings().to_vec();
        got.sort_unstable();
        assert_eq!(got, reference, "{}", variant.label());
        assert_eq!(
            results.metrics().crossing_matches,
            4,
            "all Fig. 1 matches cross fragments"
        );
    }

    use gstored::baselines::{
        cliquesquare::CliqueSquareLike, dream::DreamLike, s2rdf::S2rdfLike, s2x::S2xLike, Baseline,
    };
    let baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(DreamLike::default()),
        Box::new(S2xLike::default()),
        Box::new(S2rdfLike::default()),
        Box::new(CliqueSquareLike::default()),
    ];
    for b in baselines {
        let out = b.run(&g, &dist, &query);
        assert_eq!(out.bindings, reference, "{}", b.name());
    }
}

#[test]
fn projected_rows_are_p2_l_pairs() {
    let g = paper_graph();
    let partitioner = paper_partitioner(&g);
    let db = GStoreD::builder()
        .graph(g)
        .partitioner(partitioner)
        .variant(Variant::Full)
        .build()
        .unwrap();
    let results = db.query(&paper_query_text()).unwrap();
    assert_eq!(results.len(), 4);
    // ?p2 ∈ {006, 012}; ?l ∈ {009, 011, 004, 017}.
    for sol in &results {
        let p2 = sol["p2"].to_string();
        assert!(p2.contains("/006") || p2.contains("/012"), "{p2}");
        assert_eq!(&sol["p2"], &sol[0], "by-name equals by-index");
        assert_eq!(&sol["l"], &sol[1]);
    }
}

/// Fig. 1 under `Full`, per stage: the bytes each stage's frames carry,
/// pinned exactly. Each chain step's length prefix is charged to that
/// step's own stage, and the stages add up to the query's total.
#[test]
fn full_variant_stage_shipment_is_pinned() {
    let g = paper_graph();
    let partitioner = paper_partitioner(&g);
    let db = GStoreD::builder()
        .graph(g)
        .partitioner(partitioner)
        .variant(Variant::Full)
        .build()
        .unwrap();
    let results = db.query(&paper_query_text()).unwrap();
    let m = results.metrics();
    let shipped = [
        m.candidates.bytes_shipped,
        m.partial_evaluation.bytes_shipped,
        m.lec_optimization.bytes_shipped,
        m.assembly.bytes_shipped,
    ];
    // Candidates, partial evaluation, LEC, assembly.
    assert_eq!(shipped, [675, 66, 271, 182]);
    // The query's total, the same whichever stage a prefix is booked to.
    assert_eq!(shipped.iter().sum::<u64>(), 1194);
    assert_eq!(m.total_shipped(), 1194);
    assert_eq!(results.len(), 4);
}
