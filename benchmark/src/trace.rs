//! The traced run: the per-layer metrics.
//!
//! Nothing inside the program records a latency yet (ROADMAP item 1),
//! so this pass drives the pipeline by hand, from here, through each
//! layer's public functions — one span around every call — and then
//! runs the same query through the session and over HTTP. Single
//! client, sites evaluated one after another, so a span is one layer's
//! undisturbed compute; `_max` over the sites is what blocks a parallel
//! fleet, `_sum` is the work. End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gstored::core::assembly::{assemble_basic, assemble_lec, IncrementalJoin};
use gstored::core::candidates::exchange_candidates;
use gstored::core::lec::compute_lec_features;
use gstored::core::protocol::{
    decode_request, decode_response, encode_install_fragment, encode_install_query, encode_request,
    encode_response, QueryId, Request,
};
use gstored::core::prune::prune_features;
use gstored::core::runtime::{expect_acks, ReplyRouter, WorkerPool};
use gstored::core::worker::with_in_process_workers;
use gstored::core::{plan_query, PreparedPlan, SiteWorker, Variant};
use gstored::net::worker::{serve_endpoint, serve_stream};
use gstored::net::{InProcessTransport, NetworkModel, ReactorTransport, StageMetrics, Transport};
use gstored::partition::{DistributedGraph, HashPartitioner, Partitioner};
use gstored::rdf::{RdfGraph, Term, VertexId};
use gstored::sparql::{parse_query, QueryGraph};
use gstored::store::candidates::BitVectorFilter;
use gstored::store::{
    enumerate_local_partial_matches, find_star_matches, internal_candidates,
    local_complete_matches, CandidateFilter, LocalPartialMatch,
};
use gstored_server::http::{read_request, Limits};
use gstored_server::{serialize_rows, ResultFormat};

use crate::load::Client;
use crate::oracle::Oracle;
use crate::report::{median, Metric, Span};
use crate::stack::Stack;
use crate::workloads::{NamedQuery, Workload};

/// Repetitions of each distinct query (fewer when the run's time budget
/// ends first, never fewer than `MIN_REPS`).
const MAX_REPS: usize = 20;
const MIN_REPS: usize = 3;

/// Records spans in memory; the stack of open spans gives each new span
/// its parent. Disabled, it records nothing — the same by-hand pass runs
/// both ways and the difference is `trace.overhead_ratio`.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    query: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled: true,
            query: "setup".into(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            query: self.query.clone(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end without begin");
        self.spans[index].end_us = self.now_us();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }
}

/// Durations (ms) of a run of recorded spans, by name.
struct Durations<'a>(&'a [Span]);

impl Durations<'_> {
    fn each<'s>(&'s self, name: &'s str) -> impl Iterator<Item = f64> + 's {
        self.0
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
    }

    fn sum(&self, name: &str) -> f64 {
        self.each(name).sum()
    }

    fn max(&self, name: &str) -> f64 {
        self.each(name).fold(0.0, f64::max)
    }
}

/// Counts one by-hand evaluation makes; they repeat exactly.
#[derive(Default, Clone)]
struct Counts {
    lpms: u64,
    features: u64,
    survivors: u64,
    rows: u64,
    peak_states: u64,
    /// Crossing matches the incremental join emitted beyond (or short
    /// of) the batch join's; anything but 0 is a wrong answer.
    join_disagreement: i64,
    candidate_bytes: u64,
    /// The planner's LPM estimate, when the planner ran.
    est_lpms: Option<f64>,
    general: bool,
}

/// What the traced pass needs besides the recorder.
struct Ctx<'a> {
    workload: &'a Workload,
    dist: &'a DistributedGraph,
    fleet: &'a InProcessTransport,
    candidate_bits: usize,
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drive one query through every layer by hand. Returns the projected
/// rows (vertex ids) and the counts.
fn drive_by_hand(
    rec: &mut Recorder,
    ctx: &Ctx<'_>,
    query: &NamedQuery,
) -> (Vec<String>, Vec<Vec<VertexId>>, Counts) {
    let dist = ctx.dist;
    let mut counts = Counts::default();

    // server.http: what the server reads off the socket for this query.
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: localhost\r\nAccept: application/sparql-results+json\r\n\
         Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
        query.text.len(),
        query.text
    );
    let request = rec.span("server.http.read_request", |_| {
        read_request(&mut BufReader::new(raw.as_bytes()), &Limits::default())
    });
    let request = request.expect("well-formed request").expect("one request");
    let text = std::str::from_utf8(&request.body).expect("UTF-8 query");

    let graph = rec.span("sparql.parse", |_| {
        let ast = parse_query(text).expect("workload queries parse");
        QueryGraph::from_query(&ast).expect("workload queries are connected")
    });
    let plan = rec.span("core.prepared.new", |_| {
        PreparedPlan::new(graph, dist.dict()).expect("workload queries prepare")
    });
    let variant = if ctx.workload.variant.is_auto() {
        let decision = rec.span("core.planner.plan", |_| plan_query(dist, &plan));
        counts.est_lpms = Some(decision.est_lpms);
        decision.chosen
    } else {
        ctx.workload.variant
    };
    let q = plan.encoded();
    let n = q.vertex_count();
    let variables = plan.projection().to_vec();
    let sites = dist.fragment_count();
    // Each site's request sequence, replayed through `SiteWorker::handle`
    // below (frames encoded outside the spans: that is coordinator work).
    let id = QueryId(1);
    let mut site_frames: Vec<Vec<Bytes>> = vec![vec![encode_install_query(id, q)]; sites];
    let push_all = |frames: &mut Vec<Vec<Bytes>>, request: &Request| {
        let frame = encode_request(request);
        frames.iter_mut().for_each(|f| f.push(frame.clone()));
    };

    let mut bindings: Vec<Vec<VertexId>> = Vec::new();
    if q.has_unsatisfiable() {
        // A constant the data lacks: the engine answers without a frame.
        site_frames.clear();
    } else if plan.shape().is_star() {
        let center = plan.shape().star_center.expect("stars have centers");
        for fragment in &dist.fragments {
            bindings.extend(rec.span("store.star", |_| find_star_matches(fragment, q, center)));
        }
        push_all(
            &mut site_frames,
            &Request::StarMatches { query: id, center },
        );
    } else {
        counts.general = true;
        let full = variant == Variant::Full;
        let pruning = matches!(variant, Variant::Full | Variant::LecOptimization);

        // Stage 1 (Full): Algorithm 4, site side then the exchange.
        let mut filter = CandidateFilter::none(n);
        if full {
            for fragment in &dist.fragments {
                rec.span("store.candidates", |_| {
                    let candidates = internal_candidates(fragment, q);
                    (0..n)
                        .filter(|&v| q.vertex(v).is_var())
                        .map(|v| {
                            let mut bits = BitVectorFilter::new(ctx.candidate_bits);
                            candidates[v].iter().for_each(|&c| bits.insert(c));
                            bits
                        })
                        .collect::<Vec<_>>()
                });
            }
            let router = ReplyRouter::new(sites);
            let pool = WorkerPool::new(ctx.fleet, &router, NetworkModel::default(), id);
            let mut scratch = StageMetrics::default();
            expect_acks(
                pool.broadcast_frame(encode_install_query(id, q), &mut scratch)
                    .expect("install on the in-process fleet"),
            )
            .expect("install acked");
            let (exchanged, stage) = rec.span("core.candidates.exchange", |_| {
                exchange_candidates(&pool, q, ctx.candidate_bits).expect("candidate exchange")
            });
            pool.release_quietly(&mut scratch);
            counts.candidate_bytes = stage.bytes_shipped;
            filter = exchanged;
            push_all(
                &mut site_frames,
                &Request::ComputeCandidates {
                    query: id,
                    bits: ctx.candidate_bits,
                },
            );
            let vectors = filter
                .extended_bits
                .iter()
                .enumerate()
                .filter_map(|(v, bits)| bits.clone().map(|b| (v, b)))
                .collect();
            push_all(
                &mut site_frames,
                &Request::SetCandidateFilter { query: id, vectors },
            );
        }

        // Stage 2: partial evaluation at every site.
        let mut site_lpms: Vec<Vec<LocalPartialMatch>> = Vec::with_capacity(sites);
        for fragment in &dist.fragments {
            bindings.extend(rec.span("store.local_matches", |_| {
                local_complete_matches(fragment, q)
            }));
            site_lpms.push(rec.span("store.lpm", |_| {
                enumerate_local_partial_matches(fragment, q, &filter)
            }));
        }
        counts.lpms = site_lpms.iter().map(|l| l.len() as u64).sum();
        push_all(&mut site_frames, &Request::PartialEval { query: id });

        // Stage 3 (LO/Full): LEC features at the sites, pruning here.
        let query_edges: Vec<(usize, usize)> = q.edges().iter().map(|e| (e.from, e.to)).collect();
        let survivors: Vec<LocalPartialMatch> = if pruning {
            let mut all_features = Vec::new();
            let mut site_features = Vec::with_capacity(sites);
            for (site, lpms) in site_lpms.iter().enumerate() {
                let first_id = all_features.len() as u32;
                let (features, feature_of_lpm) = rec.span("core.lec.features", |_| {
                    compute_lec_features(lpms, first_id)
                });
                site_frames[site].push(encode_request(&Request::ComputeLecFeatures {
                    query: id,
                    first_id,
                }));
                all_features.extend(features.iter().cloned());
                site_features.push((features, feature_of_lpm));
            }
            counts.features = all_features.len() as u64;
            let useful = rec.span("core.prune.prune", |_| {
                prune_features(&all_features, n, &query_edges)
            });
            let mut useful_ids: Vec<u32> = useful.iter().copied().collect();
            useful_ids.sort_unstable();
            push_all(
                &mut site_frames,
                &Request::DropPruned {
                    query: id,
                    useful: useful_ids,
                },
            );
            site_lpms
                .into_iter()
                .zip(site_features)
                .flat_map(|(lpms, (features, feature_of_lpm))| {
                    let useful = &useful;
                    lpms.into_iter()
                        .zip(feature_of_lpm)
                        .filter(move |(_, fi)| {
                            features[*fi].sources.iter().any(|s| useful.contains(s))
                        })
                        .map(|(lpm, _)| lpm)
                        .collect::<Vec<_>>()
                })
                .collect()
        } else {
            site_lpms.into_iter().flatten().collect()
        };
        counts.survivors = survivors.len() as u64;
        push_all(&mut site_frames, &Request::ShipSurvivors { query: id });

        // Stage 4: assembly — the batch join `execute()` runs, then the
        // incremental join the streaming (HTTP) path runs.
        let crossing = rec.span("core.assembly.join", |_| {
            if variant == Variant::Basic {
                assemble_basic(&survivors, n)
            } else {
                assemble_lec(&survivors, n, &query_edges)
            }
        });
        let (streamed, peak) = rec.span("core.assembly.incremental", |_| {
            let mut join = IncrementalJoin::new(n, q.edge_count());
            let emitted: usize = survivors.iter().map(|lpm| join.push(lpm).len()).sum();
            (emitted, join.resident_states())
        });
        counts.join_disagreement = streamed as i64 - crossing.len() as i64;
        counts.peak_states = peak as u64;
        bindings.extend(crossing);
    }

    // core.worker: the same request sequence through the real handler,
    // i.e. the stores' compute plus the frame codec on both sides.
    push_all(&mut site_frames, &Request::ReleaseQuery { query: id });
    for (fragment, frames) in dist.fragments.iter().zip(site_frames) {
        let replies: Vec<Bytes> = rec.span("core.worker.handle", |_| {
            let mut worker = SiteWorker::for_fragment(fragment);
            frames
                .iter()
                .filter_map(|frame| worker.handle(frame.clone()))
                .collect()
        });
        // core.protocol: the codec's part of that — the worker decodes
        // each request and encodes each reply.
        rec.span("core.protocol.codec", |_| {
            for frame in frames {
                std::hint::black_box(decode_request(frame).expect("own frame decodes"));
            }
            for reply in replies {
                let response = decode_response(reply).expect("worker reply decodes");
                std::hint::black_box(encode_response(&response));
            }
        });
    }

    let rows: Vec<Vec<VertexId>> = bindings
        .iter()
        .map(|b| q.projection().iter().map(|&v| b[v]).collect())
        .collect();
    counts.rows = rows.len() as u64;

    // Output: dictionary decode, then each serializer over the same rows.
    let dict = dist.dict();
    let decoded: Vec<Vec<&Term>> = rec.span("rdf.dictionary.decode", |_| {
        rows.iter()
            .map(|row| row.iter().map(|&v| dict.resolve(v)).collect())
            .collect()
    });
    for format in ResultFormat::ALL {
        rec.span(serializer_span(format), |_| {
            std::hint::black_box(serialize_rows(
                format,
                &variables,
                decoded.iter().map(|r| r.iter().map(|t| Some(*t)).collect()),
            ))
        });
    }
    (variables, rows, counts)
}

fn serializer_span(format: ResultFormat) -> &'static str {
    match format {
        ResultFormat::Json => "server.serializer.json",
        ResultFormat::Xml => "server.serializer.xml",
        ResultFormat::Tsv => "server.serializer.tsv",
        ResultFormat::Csv => "server.serializer.csv",
    }
}

/// Blocking-path compute of one by-hand evaluation, in ms: per stage the
/// slowest site, plus the coordinator's own steps. `streaming` picks the
/// join (and, for stars, the site-after-site pulls) of the HTTP path.
fn blocking_compute_ms(d: &Durations<'_>, streaming: bool) -> f64 {
    let star = if streaming {
        d.sum("store.star")
    } else {
        d.max("store.star")
    };
    let join = if streaming {
        d.sum("core.assembly.incremental")
    } else {
        d.sum("core.assembly.join")
    };
    star + d.max("store.candidates")
        + d.max("store.local_matches")
        + d.max("store.lpm")
        + d.max("core.lec.features")
        + d.sum("core.prune.prune")
        + join
}

/// One repetition's numbers for one query. Keys in `PER_QUERY_MEANS`
/// are metric names; the rest are inputs of derived metrics.
type Sample = BTreeMap<&'static str, f64>;

/// Per-layer metrics that are the plain mean, over the workload's
/// queries, of the per-query median of the sample with the same name.
const PER_QUERY_MEANS: &[(&str, &str)] = &[
    ("server.http.read_request_us", "us"),
    ("sparql.parse_us", "us"),
    ("core.prepared.new_us", "us"),
    ("core.planner.plan_us", "us"),
    ("session.prepare_us", "us"),
    ("store.candidates_ms_max", "ms"),
    ("store.candidates_ms_sum", "ms"),
    ("store.lpm_ms_max", "ms"),
    ("store.lpm_ms_sum", "ms"),
    ("store.star_ms_max", "ms"),
    ("store.local_matches_ms_max", "ms"),
    ("core.lec.features_ms_max", "ms"),
    ("core.worker.handle_ms_sum", "ms"),
    ("core.candidates.exchange_ms", "ms"),
    ("core.prune.prune_ms", "ms"),
    ("core.assembly.join_ms", "ms"),
    ("core.assembly.incremental_ms", "ms"),
    ("core.runtime.overhead_ms", "ms"),
    ("session.execute_ms", "ms"),
    ("session.stream_first_row_ms", "ms"),
    ("session.stream_total_ms", "ms"),
    ("session.stage.candidates_ms", "ms"),
    ("session.stage.partial_eval_ms", "ms"),
    ("session.stage.lec_ms", "ms"),
    ("session.stage.assembly_ms", "ms"),
    ("net.messages_per_query", "count"),
    ("net.bytes.candidates", "bytes"),
    ("net.bytes.partial_eval", "bytes"),
    ("net.bytes.lec", "bytes"),
    ("net.bytes.assembly", "bytes"),
];

/// Run one repetition for `query`: the traced by-hand pass, the same
/// pass untraced, then the session and one HTTP POST. Returns the
/// sample, or what went wrong (a wrong answer on any path).
#[allow(clippy::too_many_arguments)]
fn one_repetition(
    rec: &mut Recorder,
    ctx: &Ctx<'_>,
    stack: &Stack,
    client: &mut Client,
    oracle: &Oracle,
    index: usize,
    query: &NamedQuery,
    format: ResultFormat,
) -> Result<(Sample, Counts), String> {
    let dict = ctx.dist.dict();
    let first_span = rec.spans.len();
    let (variables, rows, counts) = rec.span("trace.by_hand", |rec| drive_by_hand(rec, ctx, query));
    if variables != oracle.expected[index].variables {
        return Err(format!("{}: by-hand variables {variables:?}", query.id));
    }
    oracle
        .check_terms(
            index,
            rows.iter()
                .map(|row| row.iter().map(|&v| dict.resolve(v)).collect()),
        )
        .map_err(|e| format!("{}: by-hand pipeline: {e}", query.id))?;
    if counts.join_disagreement != 0 {
        return Err(format!(
            "{}: IncrementalJoin and the batch join differ by {} matches",
            query.id, counts.join_disagreement
        ));
    }

    rec.enabled = false;
    let untraced = Instant::now();
    std::hint::black_box(drive_by_hand(rec, ctx, query));
    let untraced_ms = millis(untraced.elapsed());
    rec.enabled = true;

    let session = &stack.session;
    let prepared = rec
        .span("session.prepare", |_| session.prepare(&query.text))
        .map_err(|e| format!("{}: prepare: {e}", query.id))?;
    let results = rec
        .span("session.execute", |_| prepared.execute())
        .map_err(|e| format!("{}: execute: {e}", query.id))?;
    oracle
        .check_terms(
            index,
            results
                .iter()
                .map(|sol| sol.iter().map(|(_, term)| term).collect()),
        )
        .map_err(|e| format!("{}: execute: {e}", query.id))?;
    let metrics = results.metrics().clone();

    rec.begin("session.stream");
    rec.begin("session.stream.first_row");
    let mut stream = prepared
        .stream()
        .map_err(|e| format!("{}: stream: {e}", query.id))?;
    let mut streamed = u64::from(stream.next().is_some());
    rec.end();
    streamed += stream.by_ref().count() as u64;
    rec.end();
    drop(stream);
    if streamed != counts.rows {
        return Err(format!(
            "{}: stream yielded {streamed} rows, expected {}",
            query.id, counts.rows
        ));
    }

    let reply = rec
        .span("http.post", |_| client.post(&query.text, format))
        .map_err(|e| format!("{}: POST: {e}", query.id))?;
    if reply.status != 200 {
        return Err(format!("{}: POST status {}", query.id, reply.status));
    }
    oracle
        .check_body(index, format, &reply.body)
        .map_err(|e| format!("{}: POST: {e}", query.id))?;

    let d = Durations(&rec.spans[first_span..]);
    let fixed = d.sum("server.http.read_request")
        + d.sum("sparql.parse")
        + d.sum("core.prepared.new")
        + d.sum("core.planner.plan");
    let output = d.sum("rdf.dictionary.decode") + d.sum(serializer_span(format));
    let mut s = Sample::new();
    s.insert(
        "server.http.read_request_us",
        d.sum("server.http.read_request") * 1e3,
    );
    s.insert("sparql.parse_us", d.sum("sparql.parse") * 1e3);
    s.insert("core.prepared.new_us", d.sum("core.prepared.new") * 1e3);
    s.insert("core.planner.plan_us", d.sum("core.planner.plan") * 1e3);
    s.insert("session.prepare_us", d.sum("session.prepare") * 1e3);
    s.insert("store.candidates_ms_max", d.max("store.candidates"));
    s.insert("store.candidates_ms_sum", d.sum("store.candidates"));
    s.insert("store.lpm_ms_max", d.max("store.lpm"));
    s.insert("store.lpm_ms_sum", d.sum("store.lpm"));
    s.insert("store.star_ms_max", d.max("store.star"));
    s.insert("store.local_matches_ms_max", d.max("store.local_matches"));
    s.insert("core.lec.features_ms_max", d.max("core.lec.features"));
    s.insert("core.worker.handle_ms_sum", d.sum("core.worker.handle"));
    s.insert("codec_sum", d.sum("core.protocol.codec"));
    s.insert(
        "core.candidates.exchange_ms",
        d.sum("core.candidates.exchange"),
    );
    s.insert("core.prune.prune_ms", d.sum("core.prune.prune"));
    s.insert("core.assembly.join_ms", d.sum("core.assembly.join"));
    s.insert(
        "core.assembly.incremental_ms",
        d.sum("core.assembly.incremental"),
    );
    s.insert("decode", d.sum("rdf.dictionary.decode"));
    s.insert("ser_json", d.sum("server.serializer.json"));
    s.insert("ser_xml", d.sum("server.serializer.xml"));
    s.insert("ser_tsv", d.sum("server.serializer.tsv"));
    s.insert("ser_csv", d.sum("server.serializer.csv"));
    s.insert("session.execute_ms", d.sum("session.execute"));
    s.insert(
        "session.stream_first_row_ms",
        d.sum("session.stream.first_row"),
    );
    s.insert("session.stream_total_ms", d.sum("session.stream"));
    s.insert("http", d.sum("http.post"));
    s.insert("by_hand_traced", d.sum("trace.by_hand"));
    s.insert("by_hand_untraced", untraced_ms);
    s.insert("accounted", fixed + blocking_compute_ms(&d, true) + output);
    s.insert(
        "core.runtime.overhead_ms",
        d.sum("session.execute") - blocking_compute_ms(&d, false),
    );
    s.insert(
        "session.stage.candidates_ms",
        millis(metrics.candidates.response_time()),
    );
    s.insert(
        "session.stage.partial_eval_ms",
        millis(metrics.partial_evaluation.response_time()),
    );
    s.insert(
        "session.stage.lec_ms",
        millis(metrics.lec_optimization.response_time()),
    );
    s.insert(
        "session.stage.assembly_ms",
        millis(metrics.assembly.response_time()),
    );
    // Counts of the session's own execution (exact, from QueryMetrics).
    let messages = metrics.candidates.messages
        + metrics.partial_evaluation.messages
        + metrics.lec_optimization.messages
        + metrics.assembly.messages;
    s.insert("net.messages_per_query", messages as f64);
    s.insert(
        "net.bytes.candidates",
        metrics.candidates.bytes_shipped as f64,
    );
    s.insert(
        "net.bytes.partial_eval",
        metrics.partial_evaluation.bytes_shipped as f64,
    );
    s.insert(
        "net.bytes.lec",
        metrics.lec_optimization.bytes_shipped as f64,
    );
    s.insert("net.bytes.assembly", metrics.assembly.bytes_shipped as f64);
    Ok((s, counts))
}

/// Median µs of `rounds` send→recv round trips of a `size`-byte frame
/// against an echoing peer.
fn echo_roundtrip_us(transport: &dyn Transport, size: usize, rounds: usize) -> f64 {
    let frame = Bytes::from(vec![0x5a_u8; size]);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        transport.send(0, frame.clone()).expect("echo send");
        let reply = transport.recv(0).expect("echo recv");
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        assert_eq!(reply.len(), size);
    }
    median(&samples)
}

const ECHO_SMALL: usize = 64;
const ECHO_LARGE: usize = 64 * 1024;
const ECHO_ROUNDS: usize = 300;

/// `net` alone: frame round trips over both transports, no engine.
fn transport_roundtrips() -> [(&'static str, f64); 4] {
    let (inproc, mut endpoints) = InProcessTransport::pair(1);
    let endpoint = endpoints.pop().expect("one endpoint");
    let echo = std::thread::spawn(move || serve_endpoint(endpoint, Some));
    let inproc_small = echo_roundtrip_us(&inproc, ECHO_SMALL, ECHO_ROUNDS);
    let inproc_large = echo_roundtrip_us(&inproc, ECHO_LARGE, ECHO_ROUNDS);
    drop(inproc);
    let _ = echo.join();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept echo peer");
        stream.set_nodelay(true).expect("nodelay");
        let _ = serve_stream(&mut stream, Some);
    });
    let reactor = ReactorTransport::connect(&[addr]).expect("connect echo peer");
    let reactor_small = echo_roundtrip_us(&reactor, ECHO_SMALL, ECHO_ROUNDS);
    let reactor_large = echo_roundtrip_us(&reactor, ECHO_LARGE, ECHO_ROUNDS);
    drop(reactor);
    let _ = echo.join();
    [
        ("net.inproc.roundtrip_us_small", inproc_small),
        ("net.inproc.roundtrip_us_large", inproc_large),
        ("net.reactor.roundtrip_us_small", reactor_small),
        ("net.reactor.roundtrip_us_large", reactor_large),
    ]
}

pub struct TraceOutcome {
    pub per_layer: Vec<Metric>,
    /// The set-up spans plus the last repetition of each query.
    pub trace: Vec<Span>,
    pub spans_recorded: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The whole traced pass for one workload: set-up layer by layer, then
/// every distinct query `MAX_REPS` times (or until `budget` runs out).
pub fn run_traced(workload: &Workload, seed: u64, budget: Duration) -> TraceOutcome {
    let mut rec = Recorder::new();
    let mut metrics: Vec<Metric> = Vec::new();

    // --- set-up, one span per layer ---
    let inputs = rec.span("datagen.generate", |_| workload.generate(seed));
    let queries = inputs.queries;
    let oracle_triples = inputs.triples.clone();
    let graph = rec.span("rdf.graph_build", |_| {
        let mut graph = RdfGraph::from_triples(inputs.triples);
        graph.finalize();
        graph
    });
    let partitioner = HashPartitioner::new(workload.sites);
    let assignment = rec.span("partition.assign", |_| partitioner.assign(&graph));
    let dist = rec.span("partition.fragments", |_| {
        DistributedGraph::build_with_assignment(graph, assignment)
    });
    rec.span("partition.stats", |_| {
        std::hint::black_box(dist.stats());
    });
    let crossing_ratio = dist.crossing_edges().len() as f64 / dist.total_edges.max(1) as f64;
    let fragment_bytes: usize = rec.span("core.protocol.fragment_encode", |_| {
        dist.fragments
            .iter()
            .map(|f| encode_install_fragment(f).len())
            .sum()
    });
    let stack = rec.span("session.build", |_| {
        let stack = Stack::start_distributed(workload, dist);
        // The fleet is established lazily; this is what connects the
        // workers and installs the fragments.
        stack.session.fleet_status().expect("fleet comes up");
        stack
    });
    let setup = Durations(&rec.spans);
    for (name, span) in [
        ("datagen.generate_ms", "datagen.generate"),
        ("rdf.graph_build_ms", "rdf.graph_build"),
        ("partition.assign_ms", "partition.assign"),
        ("partition.fragments_ms", "partition.fragments"),
        ("partition.stats_ms", "partition.stats"),
        (
            "core.protocol.fragment_encode_ms",
            "core.protocol.fragment_encode",
        ),
        ("session.build_ms", "session.build"),
    ] {
        metrics.push(Metric::new(name, setup.sum(span), "ms"));
    }
    metrics.push(Metric::new(
        "partition.crossing_edge_ratio",
        crossing_ratio,
        "ratio",
    ));
    metrics.push(Metric::new(
        "core.protocol.fragment_bytes",
        fragment_bytes as f64,
        "bytes",
    ));
    let setup_spans = rec.spans.len();

    let oracle = Oracle::build(oracle_triples, &queries);
    let session = std::sync::Arc::clone(&stack.session);
    let dist = session.distributed_graph();
    let candidate_bits = session.engine().config().candidate_bits;

    // --- the queries ---
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); queries.len()];
    let mut query_counts: Vec<Counts> = vec![Counts::default(); queries.len()];
    let mut last_rep_start = vec![setup_spans; queries.len()];
    let mut last_rep_end = vec![setup_spans; queries.len()];
    let started = Instant::now();
    with_in_process_workers(dist, |fleet| {
        let ctx = Ctx {
            workload,
            dist,
            fleet,
            candidate_bits,
        };
        let mut client = Client::connect(stack.addr()).expect("connect to the server");
        'reps: for rep in 0..MAX_REPS {
            for (index, query) in queries.iter().enumerate() {
                if rep >= MIN_REPS && started.elapsed() >= budget {
                    break 'reps;
                }
                let format = workload.formats[(rep + index) % workload.formats.len()];
                rec.query = query.id.clone();
                attempted += 1;
                last_rep_start[index] = rec.spans.len();
                match one_repetition(
                    &mut rec,
                    &ctx,
                    &stack,
                    &mut client,
                    &oracle,
                    index,
                    query,
                    format,
                ) {
                    Ok((sample, counts)) => {
                        samples[index].push(sample);
                        query_counts[index] = counts;
                    }
                    Err(failure) => {
                        failures.push(failure);
                        // A failed repetition may leave spans open.
                        rec.open.clear();
                    }
                }
                last_rep_end[index] = rec.spans.len();
            }
        }
    });
    let counters = stack.counters();
    drop(session);
    stack.shutdown();

    // --- aggregate: median over repetitions, mean over queries ---
    let per_query: Vec<Sample> = samples
        .iter()
        .map(|reps| {
            let mut medians = Sample::new();
            if let Some(first) = reps.first() {
                for key in first.keys() {
                    let values: Vec<f64> = reps.iter().map(|r| r[key]).collect();
                    medians.insert(key, median(&values));
                }
            }
            medians
        })
        .collect();
    let measured: Vec<&Sample> = per_query.iter().filter(|s| !s.is_empty()).collect();
    let mean = |key: &str| -> f64 {
        if measured.is_empty() {
            return 0.0;
        }
        measured.iter().map(|s| s[key]).sum::<f64>() / measured.len() as f64
    };
    let total = |key: &str| -> f64 { measured.iter().map(|s| s[key]).sum() };
    let count_mean = |f: fn(&Counts) -> u64| -> f64 {
        query_counts.iter().map(|c| f(c) as f64).sum::<f64>() / query_counts.len().max(1) as f64
    };
    let rows_total: f64 = query_counts.iter().map(|c| c.rows as f64).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Sampled under their own names: the mean of the per-query medians.
    for (name, unit) in PER_QUERY_MEANS {
        metrics.push(Metric::new(*name, mean(name), unit));
    }
    // Counts of the by-hand evaluation, mean over the queries.
    for (name, count) in [
        ("store.lpm_count", (|c| c.lpms) as fn(&Counts) -> u64),
        ("core.lec.feature_count", |c| c.features),
        ("core.assembly.peak_states", |c| c.peak_states),
        ("core.assembly.rows", |c| c.rows),
    ] {
        metrics.push(Metric::new(name, count_mean(count), "count"));
    }
    metrics.push(Metric::new(
        "core.candidates.bytes",
        count_mean(|c| c.candidate_bytes),
        "bytes",
    ));
    // Planner quality: |log2(estimated / actual LPMs)| over the queries
    // the planner priced and that enumerate LPMs at all.
    let log2_errors: Vec<f64> = query_counts
        .iter()
        .filter_map(|c| match c.est_lpms {
            Some(est) if c.general && est > 0.0 && c.lpms > 0 => {
                Some((est / c.lpms as f64).log2().abs())
            }
            _ => None,
        })
        .collect();
    metrics.push(Metric::new(
        "core.planner.lpm_est_log2_err",
        ratio(log2_errors.iter().sum(), log2_errors.len() as f64),
        "log2",
    ));
    let enumerated: f64 = query_counts.iter().map(|c| c.lpms as f64).sum();
    let surviving: f64 = query_counts.iter().map(|c| c.survivors as f64).sum();
    metrics.push(Metric::new(
        "core.prune.keep_ratio",
        ratio(surviving, enumerated),
        "ratio",
    ));
    metrics.push(Metric::new(
        "core.protocol.codec_share",
        ratio(total("codec_sum"), total("core.worker.handle_ms_sum")),
        "ratio",
    ));
    // Output rates: all rows of the workload's queries over all the ms.
    for (name, key) in [
        ("server.serializer.json_rows_per_ms", "ser_json"),
        ("server.serializer.xml_rows_per_ms", "ser_xml"),
        ("server.serializer.tsv_rows_per_ms", "ser_tsv"),
        ("server.serializer.csv_rows_per_ms", "ser_csv"),
        ("rdf.dictionary.decode_rows_per_ms", "decode"),
    ] {
        metrics.push(Metric::new(name, ratio(rows_total, total(key)), "rows/ms"));
    }
    for (name, value) in transport_roundtrips() {
        metrics.push(Metric::new(name, value, "us"));
    }
    metrics.push(Metric::new(
        "server.http_overhead_ms",
        mean("http") - mean("session.prepare_us") / 1e3 - mean("session.stream_total_ms"),
        "ms",
    ));
    metrics.push(Metric::new(
        "server.rejected_429",
        counters.rejected as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "server.status_5xx",
        counters.server_errors as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "trace.unaccounted_ratio",
        1.0 - ratio(total("accounted"), total("http")),
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        ratio(total("by_hand_traced"), total("by_hand_untraced")) - 1.0,
        "ratio",
    ));

    // Keep the set-up spans and each query's last repetition; parents
    // are re-indexed into the kept list.
    let spans_recorded = rec.spans.len();
    let mut keep: Vec<usize> = (0..setup_spans).collect();
    for (start, end) in last_rep_start.iter().zip(&last_rep_end) {
        keep.extend(*start..*end);
    }
    let position: BTreeMap<usize, usize> = keep
        .iter()
        .enumerate()
        .map(|(new, old)| (*old, new))
        .collect();
    let trace = keep
        .iter()
        .map(|&old| {
            let mut span = rec.spans[old].clone();
            span.parent = span.parent.and_then(|p| position.get(&p).copied());
            span
        })
        .collect();
    TraceOutcome {
        per_layer: metrics,
        trace,
        spans_recorded,
        attempted,
        failures,
    }
}
