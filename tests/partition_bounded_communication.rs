//! Section IV-D's performance guarantee, as an executable check: the LEC
//! optimization's communication depends on the *query size and the
//! partitioning* (number of crossing edges), **not** on the total graph
//! size. We grow a dataset while holding the crossing structure fixed and
//! assert the feature shipment stays flat while the LPM volume grows; we
//! then grow only the crossing structure and assert feature shipment
//! grows with it. And the pruning verdict ships each surviving feature
//! id once, to the site that owns it — not once per site.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use gstored::core::engine::Variant;
use gstored::core::protocol::{decode_request, decode_response, Request, ResponseBody};
use gstored::core::prune::prune_features;
use gstored::core::worker::with_in_process_workers;
use gstored::net::{Transport, TransportError};
use gstored::partition::ExplicitPartitioner;
use gstored::prelude::*;
use gstored::rdf::Triple;

const P: &str = "http://x/p";
const Q: &str = "http://x/q";

/// Two fragments joined by `bridges` crossing p-edges; each fragment also
/// holds `bulk` internal p/q/p chains that inflate the graph (and the LPM
/// count) without touching the crossing structure. A 3-edge query keeps
/// us off the star fast path.
fn build(bulk: usize, bridges: usize) -> (RdfGraph, ExplicitPartitioner) {
    let mut triples = Vec::new();
    let t = |s: String, p: &str, o: String| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
    // Crossing bridges: a{i} (F0) -p-> b{i} (F1) -q-> c{i} (F1) -p-> d{i}.
    for i in 0..bridges {
        triples.push(t(format!("http://f0/a{i}"), P, format!("http://f1/b{i}")));
        triples.push(t(format!("http://f1/b{i}"), Q, format!("http://f1/c{i}")));
        triples.push(t(format!("http://f1/c{i}"), P, format!("http://f1/d{i}")));
    }
    // Internal bulk in both fragments: x -p-> y -q-> z -p-> w chains.
    for f in 0..2 {
        for i in 0..bulk {
            triples.push(t(
                format!("http://f{f}/x{i}"),
                P,
                format!("http://f{f}/y{i}"),
            ));
            triples.push(t(
                format!("http://f{f}/y{i}"),
                Q,
                format!("http://f{f}/z{i}"),
            ));
            triples.push(t(
                format!("http://f{f}/z{i}"),
                P,
                format!("http://f{f}/w{i}"),
            ));
        }
    }
    let mut g = RdfGraph::from_triples(triples);
    g.finalize();
    let mut map = HashMap::new();
    for v in g.vertices() {
        let Term::Iri(iri) = g.term(v) else { continue };
        map.insert(v, usize::from(iri.starts_with("http://f1/")));
    }
    (g.clone(), ExplicitPartitioner::new(2, map))
}

fn run(bulk: usize, bridges: usize) -> gstored::net::QueryMetrics {
    let (g, p) = build(bulk, bridges);
    // The builder validates the Definition 1 invariants.
    let db = GStoreD::builder()
        .graph(g)
        .partitioner(p)
        .variant(Variant::LecOptimization)
        .build()
        .unwrap();
    let results = db
        .query(&format!(
            "SELECT * WHERE {{ ?x <{P}> ?y . ?y <{Q}> ?z . ?z <{P}> ?w }}"
        ))
        .unwrap();
    results.metrics().clone()
}

#[test]
fn feature_shipment_is_independent_of_graph_size() {
    // Grow the graph 16x while the crossing structure stays fixed.
    let small = run(50, 8);
    let large = run(800, 8);
    assert!(
        large.local_partial_matches >= small.local_partial_matches,
        "bulk should not shrink LPM counts"
    );
    // LEC feature shipment must stay flat: the features depend only on
    // the 8 bridges and the 2-edge query.
    assert_eq!(
        small.lec_features, large.lec_features,
        "feature count must depend on crossing edges only"
    );
    let (s, l) = (
        small.lec_optimization.bytes_shipped,
        large.lec_optimization.bytes_shipped,
    );
    assert!(
        l <= s + s / 4,
        "feature shipment grew with graph size: {s} -> {l} bytes"
    );
}

#[test]
fn feature_shipment_grows_with_crossing_edges() {
    let few = run(100, 4);
    let many = run(100, 32);
    assert!(
        many.lec_features > few.lec_features,
        "more crossing edges must mean more features: {} vs {}",
        few.lec_features,
        many.lec_features
    );
    assert!(
        many.lec_optimization.bytes_shipped > few.lec_optimization.bytes_shipped,
        "feature shipment must scale with the crossing structure"
    );
}

#[test]
fn analytical_size_bound_holds() {
    // Every shipped feature respects the O(|E^Q| + |V^Q|) size bound of
    // Section IV-D (constant factor: serialized varints per component),
    // measured as the whole `Features` reply that would ship it alone.
    use gstored::core::lec::compute_lec_features;
    use gstored::core::protocol::{encode_response, QueryId, Response, ResponseBody};
    use gstored::store::candidates::CandidateFilter;
    use gstored::store::{enumerate_local_partial_matches, EncodedQuery};
    use std::time::Duration;

    let (g, p) = build(100, 16);
    let dist = DistributedGraph::build(g, &p);
    let query = QueryGraph::from_query(
        &gstored::sparql::parse_query(&format!(
            "SELECT * WHERE {{ ?x <{P}> ?y . ?y <{Q}> ?z . ?z <{P}> ?w }}"
        ))
        .unwrap(),
    )
    .unwrap();
    let q = EncodedQuery::encode(&query, dist.dict()).unwrap();
    let filter = CandidateFilter::none(q.vertex_count());
    for f in &dist.fragments {
        let lpms = enumerate_local_partial_matches(f, &q, &filter);
        let (features, _) = compute_lec_features(&lpms, 0);
        for feat in &features {
            let reply = ResponseBody::Features(vec![feat.clone()]);
            let wire = encode_response(&Response::new(Duration::ZERO, QueryId(0), reply)).len();
            // Generous constant: ≤ 64 bytes per (edge + vertex) unit.
            let bound = 64 * (q.edge_count() + q.vertex_count());
            assert!(
                wire <= bound,
                "feature wire size {wire} exceeds bound {bound}"
            );
        }
    }
}

/// A transport that keeps a copy of every frame it moves, per site.
struct Recording<'t> {
    inner: &'t dyn Transport,
    sent: Mutex<Vec<(usize, Bytes)>>,
    received: Mutex<Vec<(usize, Bytes)>>,
}

impl Transport for Recording<'_> {
    fn sites(&self) -> usize {
        self.inner.sites()
    }
    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        self.sent.lock().unwrap().push((site, frame.clone()));
        self.inner.send(site, frame)
    }
    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_deadline(site, deadline)?;
        self.received.lock().unwrap().push((site, frame.clone()));
        Ok(frame)
    }
}

/// Chains a{i} -p-> b{i} -q-> c{i} -p-> d{i}, plus dead ends e{i} -p->
/// f{i} -q-> g{i} that match the query's first two edges and nothing
/// more, so pruning has features to drop. Hash-partitioned, nearly
/// every edge crosses.
fn crossing_graph() -> RdfGraph {
    let t = |s: String, p: &str, o: String| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
    let mut triples = Vec::new();
    for i in 0..40 {
        triples.push(t(format!("http://v/a{i}"), P, format!("http://v/b{i}")));
        triples.push(t(format!("http://v/b{i}"), Q, format!("http://v/c{i}")));
        triples.push(t(format!("http://v/c{i}"), P, format!("http://v/d{i}")));
        triples.push(t(format!("http://v/e{i}"), P, format!("http://v/f{i}")));
        triples.push(t(format!("http://v/f{i}"), Q, format!("http://v/g{i}")));
    }
    RdfGraph::from_triples(triples)
}

/// Section IV-D bounds the LEC stage's shipment by the features, not by
/// features × sites: every `DropPruned` step sent to site *s* carries
/// only ids of *s*'s own features, and across the fleet the verdicts
/// hold the surviving set, each id exactly once.
#[test]
fn each_site_hears_only_its_own_pruning_verdict() {
    const SITES: usize = 8;
    let dist = DistributedGraph::build(crossing_graph(), &HashPartitioner::new(SITES));
    let query = format!("SELECT * WHERE {{ ?x <{P}> ?y . ?y <{Q}> ?z . ?z <{P}> ?w }}");
    let plan = PreparedPlan::new(
        QueryGraph::from_query(&parse_query(&query).unwrap()).unwrap(),
        dist.dict(),
    )
    .unwrap();
    let q = plan.encoded();
    let query_edges: Vec<(usize, usize)> = q.edges().iter().map(|e| (e.from, e.to)).collect();
    for variant in [Variant::LecOptimization, Variant::Full] {
        let label = variant.label();
        let (rows, sent, received) = with_in_process_workers(&dist, |transport| {
            let recording = Recording {
                inner: transport,
                sent: Mutex::default(),
                received: Mutex::default(),
            };
            let out = Engine::with_variant(variant)
                .execute_on(&recording, &dist, &plan)
                .unwrap();
            let Recording { sent, received, .. } = recording;
            (
                out.bindings.len(),
                sent.into_inner().unwrap(),
                received.into_inner().unwrap(),
            )
        });
        assert_eq!(rows, 40, "{label}: one row per chain");

        // What each site shipped as features, and what it was told.
        let mut features = vec![Vec::new(); SITES];
        for (site, frame) in received {
            let ResponseBody::Chain(replies) = decode_response(frame).unwrap().body else {
                continue;
            };
            for reply in replies {
                if let ResponseBody::Features(f) = decode_response(reply).unwrap().body {
                    features[site].extend(f);
                }
            }
        }
        let mut verdicts: Vec<Vec<Vec<u32>>> = vec![Vec::new(); SITES];
        for (site, frame) in sent {
            let Request::Chain { steps, .. } = decode_request(frame).unwrap() else {
                continue;
            };
            for step in steps {
                if let Request::DropPruned { useful, .. } = step {
                    verdicts[site].push(useful);
                }
            }
        }

        let all: Vec<_> = features.concat();
        let mut useful: Vec<u32> = prune_features(&all, q.vertex_count(), &query_edges)
            .into_iter()
            .collect();
        useful.sort_unstable();
        assert!(
            !useful.is_empty() && useful.len() < all.len(),
            "{label}: pruning kept {} of {} features; the test needs both",
            useful.len(),
            all.len()
        );
        let mut heard = Vec::new();
        for site in 0..SITES {
            assert_eq!(verdicts[site].len(), 1, "{label}: site {site} verdicts");
            let own: Vec<u32> = features[site]
                .iter()
                .flat_map(|f| f.sources.iter().copied())
                .collect();
            for &id in &verdicts[site][0] {
                assert_eq!(
                    id / (u32::MAX / SITES as u32),
                    site as u32,
                    "{label}: site {site} was sent feature id {id}, outside its range"
                );
                assert!(
                    own.contains(&id),
                    "{label}: site {site} was sent feature id {id}, which is not its own"
                );
            }
            heard.extend(verdicts[site][0].iter().copied());
        }
        heard.sort_unstable();
        assert_eq!(heard, useful, "{label}: each surviving id, exactly once");
    }
}
