//! The chaos battery: every query against a fault-injected fleet must
//! either return exactly the fault-free oracle's rows or fail with a
//! typed engine error in bounded time — never panic, never hang, never
//! return wrong rows. Afterwards the workers' state tables must drain
//! to empty (possibly via the session's repair path), so a faulty run
//! cannot leak per-query state into the fleet.
//!
//! Faults come from [`ChaosTransport`] wrapped around the in-process
//! backend via `GStoreDBuilder::chaos`; the schedule is a pure function
//! of the proptest-chosen seed, so failures shrink and replay.

use std::time::{Duration, Instant};

use gstored::core::protocol::{decode_response, encode_request, Request};
use gstored::core::worker::SiteWorker;
use gstored::core::EngineError;
use gstored::net::worker::serve_endpoint;
use gstored::net::{ChaosConfig, ChaosTransport, InProcessTransport, Transport};
use gstored::prelude::*;
use gstored::rdf::{Triple, VertexId};
use proptest::prelude::*;

const P: &str = "http://x/p";
const Q: &str = "http://x/q";

/// Chains a{i} -p-> b{i} -q-> c{i} -p-> d{i}: crossing matches under
/// every partitioner, so all pipeline stages carry real traffic.
fn graph() -> RdfGraph {
    let t = |s: String, p: &str, o: String| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
    let mut triples = Vec::new();
    for i in 0..12 {
        triples.push(t(format!("http://v/a{i}"), P, format!("http://v/b{i}")));
        triples.push(t(format!("http://v/b{i}"), Q, format!("http://v/c{i}")));
        triples.push(t(format!("http://v/c{i}"), P, format!("http://v/d{i}")));
    }
    RdfGraph::from_triples(triples)
}

const PATH_QUERY: &str =
    "SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z . ?z <http://x/p> ?w }";
const STAR_QUERY: &str = "SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z }";
const QUERIES: [&str; 2] = [PATH_QUERY, STAR_QUERY];

const SITES: usize = 3;
/// Short enough that injected hangs surface fast, long enough that an
/// unfaulted pipeline on a loaded CI box never trips it spuriously.
const DEADLINE: Duration = Duration::from_secs(2);
/// Generous per-call wall bound: deadline + a full repair cycle. A call
/// exceeding this means something blocked past its deadline.
const CALL_BOUND: Duration = Duration::from_secs(60);

fn session(chaos: Option<ChaosConfig>) -> GStoreD {
    let mut builder = GStoreD::builder()
        .graph(graph())
        .partitioner(HashPartitioner::new(SITES))
        .variant(Variant::Full)
        .query_deadline(Some(DEADLINE));
    if let Some(config) = chaos {
        builder = builder.chaos(config);
    }
    builder.build().unwrap()
}

fn sorted_rows(rows: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
    let mut sorted = rows.to_vec();
    sorted.sort();
    sorted
}

/// The fault-free answer for each query in `QUERIES`.
fn oracle() -> Vec<Vec<Vec<VertexId>>> {
    let db = session(None);
    QUERIES
        .iter()
        .map(|q| {
            let rows = sorted_rows(db.query(q).unwrap().vertex_rows());
            assert!(!rows.is_empty(), "oracle for {q} is trivial");
            rows
        })
        .collect()
}

/// Bounded-retry drain check: the workers' state tables must reach
/// all-empty. Probe errors are fine — each one routes through the
/// session's repair path, which is exactly what clears sticky simulated
/// faults — but the tables must drain within the retry budget.
fn assert_fleet_drains(db: &GStoreD) {
    let mut last = String::new();
    for _ in 0..40 {
        match db.fleet_status() {
            Ok(statuses) if statuses.iter().all(|s| s.resident_queries == 0) => return,
            Ok(statuses) => {
                last = format!(
                    "resident: {:?}",
                    statuses
                        .iter()
                        .map(|s| s.resident_queries)
                        .collect::<Vec<_>>()
                );
            }
            Err(e) => last = format!("probe error: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("worker tables never drained after chaos battery ({last})");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The headline robustness property. Three rounds per query so
    /// sticky faults injected in one round exercise repair in the next.
    #[test]
    fn chaos_queries_match_oracle_or_fail_typed(
        seed in any::<u64>(),
        per_mille in 0u32..40,
    ) {
        let expected = oracle();
        let db = session(Some(ChaosConfig::uniform(seed, per_mille)));
        for (qi, query) in QUERIES.iter().enumerate() {
            for round in 0..3 {
                let start = Instant::now();
                let outcome = db.query(query);
                let elapsed = start.elapsed();
                prop_assert!(
                    elapsed < CALL_BOUND,
                    "{query} round {round}: call blocked {elapsed:?} (> {CALL_BOUND:?})"
                );
                match outcome {
                    Ok(results) => prop_assert_eq!(
                        sorted_rows(results.vertex_rows()),
                        expected[qi].clone(),
                        "{} round {}: wrong rows under chaos", query, round
                    ),
                    // Typed engine failures are the contract; anything
                    // else (parse, config) means chaos corrupted state
                    // it must not reach.
                    Err(gstored::Error::Engine(_)) => {}
                    Err(other) => {
                        panic!("{query} round {round}: non-engine error under chaos: {other}")
                    }
                }
            }
        }
        assert_fleet_drains(&db);
    }

    /// Same property through the streaming path, which repairs on the
    /// iterator's error arm instead of `execute()`'s whole-query retry.
    #[test]
    fn chaos_streams_match_oracle_or_fail_typed(
        seed in any::<u64>(),
        per_mille in 0u32..40,
    ) {
        let expected = oracle();
        let db = session(Some(ChaosConfig::uniform(seed, per_mille)));
        for (qi, query) in QUERIES.iter().enumerate() {
            for round in 0..2 {
                let prepared = db.prepare(query).unwrap();
                let start = Instant::now();
                let mut rows = Vec::new();
                let mut failed = false;
                match prepared.stream() {
                    Ok(iter) => {
                        for item in iter {
                            match item {
                                Ok(solution) => rows.push(solution.into_vertex_row()),
                                Err(gstored::Error::Engine(_)) => {
                                    failed = true;
                                    break;
                                }
                                Err(other) => panic!(
                                    "{query} round {round}: non-engine stream error: {other}"
                                ),
                            }
                        }
                    }
                    Err(gstored::Error::Engine(_)) => failed = true,
                    Err(other) => panic!(
                        "{query} round {round}: non-engine stream setup error: {other}"
                    ),
                }
                let elapsed = start.elapsed();
                prop_assert!(
                    elapsed < CALL_BOUND,
                    "{query} round {round}: stream blocked {elapsed:?} (> {CALL_BOUND:?})"
                );
                if !failed {
                    prop_assert_eq!(
                        sorted_rows(&rows),
                        expected[qi].clone(),
                        "{} round {}: wrong streamed rows under chaos", query, round
                    );
                }
            }
        }
        assert_fleet_drains(&db);
    }
}

/// Faults are survivable and the counters witness the recovery
/// machinery, on two schedules. Sticky hangs and disconnects: a hang
/// surfaces as `Timeout {site}`, and a disconnected site's send fails,
/// its receive then marks the site failed in the router; either way the
/// one site is repaired (reconnect + router reset + fragment re-install)
/// and the query retried. Truncated and corrupted replies: a reply that
/// will not decode marks its site, which is repaired the same way. Both
/// must leave the session able to answer correctly.
#[test]
fn sticky_faults_are_repaired_and_counted() {
    let expected = oracle();
    let sticky = ChaosConfig {
        seed: 11,
        hang_per_mille: 25,
        disconnect_per_mille: 25,
        ..ChaosConfig::default()
    };
    let mangled = ChaosConfig {
        seed: 11,
        truncate_per_mille: 100,
        corrupt_per_mille: 100,
        ..ChaosConfig::default()
    };
    for (schedule, hangs) in [(sticky, true), (mangled, false)] {
        let db = session(Some(schedule));
        let mut successes = 0;
        for _ in 0..20 {
            match db.query(PATH_QUERY) {
                Ok(results) => {
                    assert_eq!(sorted_rows(results.vertex_rows()), expected[0]);
                    successes += 1;
                }
                Err(gstored::Error::Engine(_)) => {}
                Err(other) => panic!("non-engine error under chaos: {other}"),
            }
        }
        assert!(successes > 0, "no query ever survived chaos");
        let stats = db.robustness_stats();
        if hangs {
            assert!(
                stats.timeouts > 0,
                "no hang ever surfaced as a timeout: {stats:?}"
            );
        }
        assert!(stats.reconnects > 0, "repair never reconnected: {stats:?}");
        assert!(stats.repairs > 0, "no repair ever completed: {stats:?}");
        assert!(
            stats.retries > 0,
            "no execution was ever retried: {stats:?}"
        );
    }
}

/// A permanently hung site surfaces as a typed timeout-then-unavailable
/// error in bounded time — the coordinator never blocks indefinitely.
/// With `hang_per_mille: 1000` every outgoing frame wedges its site, so
/// even the repair path's re-install probes hang; the session must give
/// up with `SiteUnavailable` once the repair's deadline is spent: one
/// deadline for the query, at most one for the repair.
#[test]
fn total_hang_fails_typed_in_bounded_time() {
    let db = session(Some(ChaosConfig {
        seed: 5,
        hang_per_mille: 1000,
        ..ChaosConfig::default()
    }));
    let start = Instant::now();
    let outcome = db.query(PATH_QUERY);
    let elapsed = start.elapsed();
    assert!(
        elapsed < 3 * DEADLINE,
        "hung fleet blocked the coordinator for {elapsed:?}"
    );
    match outcome {
        Err(gstored::Error::Engine(
            EngineError::SiteUnavailable { .. } | EngineError::Timeout { .. },
        )) => {}
        other => panic!("hung fleet produced {other:?}, want timeout/site-unavailable"),
    }
    let stats = db.robustness_stats();
    assert!(
        stats.timeouts > 0,
        "hang never surfaced as a timeout: {stats:?}"
    );
    assert!(
        stats.repairs_failed > 0,
        "repair of a dead site never reported failure: {stats:?}"
    );
}

/// A corrupted reply is detectably corrupt: with `corrupt_per_mille:
/// 1000` every reply, whatever it answers, fails to decode, and so the
/// engine's exchange fails with a typed protocol error rather than
/// returning rows or a skewed stage time.
#[test]
fn total_corruption_fails_every_reply_typed() {
    let dist = DistributedGraph::build(graph(), &HashPartitioner::new(SITES));
    let plan = PreparedPlan::new(
        QueryGraph::from_query(&parse_query(PATH_QUERY).unwrap()).unwrap(),
        dist.dict(),
    )
    .unwrap();
    let (inner, endpoints) = InProcessTransport::pair(SITES);
    std::thread::scope(|scope| {
        for (endpoint, fragment) in endpoints.into_iter().zip(&dist.fragments) {
            scope.spawn(move || {
                let mut worker = SiteWorker::for_fragment(fragment);
                serve_endpoint(endpoint, |frame| worker.handle(frame))
            });
        }
        let chaos = ChaosTransport::new(
            inner,
            ChaosConfig {
                seed: 17,
                corrupt_per_mille: 1000,
                ..ChaosConfig::default()
            },
        );
        for site in 0..SITES {
            let probe = Request::WorkerStatus {
                query: QueryId(site as u32),
            };
            chaos.send(site, encode_request(&probe)).unwrap();
            let reply = chaos.recv(site).unwrap();
            assert!(
                decode_response(reply).is_err(),
                "site {site}: reply decoded"
            );
        }
        for variant in Variant::ALL {
            let err = Engine::with_variant(variant)
                .execute_on(&chaos, &dist, &plan)
                .unwrap_err();
            assert!(
                matches!(err, EngineError::Protocol(_)),
                "{}: {err}",
                variant.label()
            );
        }
        assert!(chaos.stats().corrupts() > SITES as u64);
        assert_eq!(chaos.stats().total(), chaos.stats().corrupts());
    });
}

/// Chaos disabled is a true pass-through: a schedule wrapped around the
/// fleet but configured all-zero changes nothing — same rows, no
/// robustness events. (The happy-path overhead gate lives in the
/// availability benchmark; this pins semantics.)
#[test]
fn zero_schedule_is_transparent() {
    let expected = oracle();
    let db = session(Some(ChaosConfig {
        seed: 99,
        ..ChaosConfig::default()
    }));
    for (qi, query) in QUERIES.iter().enumerate() {
        let results = db.query(query).unwrap();
        assert_eq!(sorted_rows(results.vertex_rows()), expected[qi]);
    }
    assert_eq!(db.robustness_stats(), RobustnessStats::default());
    let statuses = db.fleet_status().unwrap();
    assert!(statuses.iter().all(|s| s.resident_queries == 0));
}
