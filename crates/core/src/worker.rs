//! The site worker: one persistent state machine per fragment, run as a
//! step handler on the in-process site executor's pool or on its own
//! thread per TCP connection in a `gstored-worker` process.
//!
//! A [`SiteWorker`] owns its [`Fragment`] plus a **table of per-query
//! state slots** keyed by [`QueryId`] (the installed query, its internal
//! candidates until partial evaluation has read them, the candidate
//! filter, the enumerated LPMs with each one's LEC feature number and
//! survivor flag) and answers the typed [`Request`] messages of the
//! engine's four stages. Because every per-query request names its
//! query, one worker connection can serve the interleaved frames of many
//! in-flight queries — the substrate of the concurrent multi-query
//! runtime (see `docs/concurrency.md`). The same handler serves both transport
//! backends, so the frames — and therefore the shipment metrics — are
//! identical whether sites are threads or remote processes.
//!
//! State-slot lifecycle: `InstallQuery` creates a slot (re-installing a
//! resident id is rejected — a duplicate install must never clobber an
//! in-flight query's LPMs), the per-query stages operate on it, and the
//! `ShipSurvivorsChunk` reply with `last = true` or `ReleaseQuery` drops
//! it (the latter idempotently). The engine sends
//! a site the steps of one phase as a single `Chain` frame; the worker
//! runs them in order through the same dispatch and stops at the first
//! step that fails. A capacity cap bounds the table: installing past it
//! evicts the least recently used slot, so a crashed coordinator that
//! never releases cannot leak site memory forever. A frame referencing an
//! unknown or evicted id gets the typed `UnknownQuery` reply — never a
//! panic.
//!
//! The key locality property: **local partial matches never leave the
//! site until pruning has happened.** Partial evaluation replies with
//! only the local complete matches and an LPM count; features ship in
//! place of LPMs (Algorithm 1's whole point); the LPMs themselves ship
//! once, in `ShipSurvivorsChunk` replies, after `DropPruned` has marked
//! the losers. (`ShipSurvivors`, the whole set in one reply, is still
//! answered but no longer sent by the engine.)

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fxhash::FxHashMap;
use gstored_net::worker::{serve_stream, wake_addr, ServeOutcome};
use gstored_net::InProcessTransport;
use gstored_partition::{DistributedGraph, Fragment};
use gstored_rdf::VertexId;
use gstored_store::candidates::{BitVectorFilter, CandidateFilter};
use gstored_store::{
    find_star_matches, internal_candidates, matches_from, partial_matches_from, EncodedQuery,
    LocalPartialMatch, LpmBatch,
};

use crate::lec::compute_lec_features;
use crate::protocol::{self, QueryId, Request, Response, ResponseBody, WorkerStatus};

/// Default bound on resident queries per worker. Far above what the
/// coordinator's admission cap admits concurrently; the headroom exists
/// so a release lost to a torn connection degrades to an eviction, not
/// an error.
pub const DEFAULT_QUERY_CAPACITY: usize = 64;

/// The fragment a worker evaluates over: borrowed from the coordinator's
/// [`DistributedGraph`] (in-process backend: by reference for a one-shot
/// fleet, through the session's shared graph for a persistent one) or
/// owned after an `InstallFragment` message (remote backend).
#[derive(Debug)]
enum FragmentSlot<'a> {
    Empty,
    Borrowed(&'a Fragment),
    Shared(Arc<DistributedGraph>, usize),
    Owned(Box<Fragment>),
}

impl FragmentSlot<'_> {
    fn get(&self) -> Option<&Fragment> {
        match self {
            FragmentSlot::Empty => None,
            FragmentSlot::Borrowed(f) => Some(f),
            FragmentSlot::Shared(dist, site) => Some(&dist.fragments[*site]),
            FragmentSlot::Owned(f) => Some(f),
        }
    }
}

/// Everything one in-flight query keeps resident at a site between
/// stages.
#[derive(Debug)]
struct QueryState {
    query: EncodedQuery,
    filter: CandidateFilter,
    /// The query's internal candidates `C(Q, v)` on this fragment,
    /// computed by the first step that needs them (`ComputeCandidates` or
    /// `PartialEval`) and taken by `PartialEval`, the last step that reads
    /// them; they go with the slot otherwise.
    candidates: Option<Vec<Vec<VertexId>>>,
    lpms: Vec<LocalPartialMatch>,
    /// The global id of this site's first LEC feature; feature *i* is
    /// `first_id + i` ([`compute_lec_features`]), so the features
    /// themselves need not stay once they have shipped.
    first_id: u32,
    feature_of_lpm: Vec<usize>,
    keep: Vec<bool>,
    /// Streaming ship cursor: index into `lpms` of the first survivor not
    /// yet shipped by a `ShipSurvivorsChunk`.
    ship_pos: usize,
    /// Next expected `ShipSurvivorsChunk` sequence number. A request with
    /// any other `seq` is rejected so a replayed or reordered chunk frame
    /// can never skip or duplicate survivors.
    ship_seq: u64,
    /// Logical touch stamp for LRU eviction (monotone per worker).
    last_touch: u64,
}

impl QueryState {
    /// The kept LPMs from position `from` on, at most `max` of them, as
    /// one reply batch of `fragment`, and the position after the last
    /// LPM walked.
    fn survivors(&self, fragment: usize, from: usize, max: usize) -> (LpmBatch, usize) {
        let mut batch = LpmBatch::new(fragment, self.query.vertex_count());
        let mut pos = from;
        while pos < self.lpms.len() && batch.len() < max {
            if self.keep[pos] {
                let lpm = &self.lpms[pos];
                // Definition 5: a crossing edge joins two vertices the LPM
                // binds, so its endpoints ship as binding references and
                // the wire's explicit-endpoint form stays unused.
                debug_assert!(
                    lpm.crossing.iter().all(|(e, _)| {
                        lpm.binding.contains(&Some(e.from)) && lpm.binding.contains(&Some(e.to))
                    }),
                    "a crossing endpoint of an LPM is unbound: {lpm:?}"
                );
                batch.push(lpm);
            }
            pos += 1;
        }
        (batch, pos)
    }

    fn new(query: EncodedQuery, touch: u64) -> QueryState {
        let filter = CandidateFilter::none(query.vertex_count());
        QueryState {
            query,
            filter,
            candidates: None,
            lpms: Vec::new(),
            first_id: 0,
            feature_of_lpm: Vec::new(),
            keep: Vec::new(),
            ship_pos: 0,
            ship_seq: 0,
            last_touch: touch,
        }
    }
}

/// One site's message handler: fragment + the per-query state table.
#[derive(Debug)]
pub struct SiteWorker<'a> {
    fragment: FragmentSlot<'a>,
    queries: FxHashMap<u32, QueryState>,
    capacity: usize,
    clock: u64,
    evictions: u64,
}

impl<'a> SiteWorker<'a> {
    /// A worker with no fragment yet; expects `InstallFragment` first
    /// (the remote deployment shape, used by `gstored-worker`).
    pub fn empty() -> SiteWorker<'static> {
        SiteWorker::serving(FragmentSlot::Empty)
    }

    /// A worker serving a borrowed fragment (the in-process backend).
    pub fn for_fragment(fragment: &'a Fragment) -> SiteWorker<'a> {
        SiteWorker::serving(FragmentSlot::Borrowed(fragment))
    }

    /// A worker serving fragment `site` of a shared graph: the
    /// in-process backend of a session, whose handlers outlive any one
    /// borrow.
    pub fn for_site(dist: Arc<DistributedGraph>, site: usize) -> SiteWorker<'static> {
        assert!(site < dist.fragment_count(), "no fragment {site}");
        SiteWorker::serving(FragmentSlot::Shared(dist, site))
    }

    fn serving<'f>(fragment: FragmentSlot<'f>) -> SiteWorker<'f> {
        SiteWorker {
            fragment,
            queries: FxHashMap::default(),
            capacity: DEFAULT_QUERY_CAPACITY,
            clock: 0,
            evictions: 0,
        }
    }

    /// Bound the state table to `capacity` resident queries (at least 1).
    /// Installing past the bound evicts the least recently touched slot.
    pub fn with_capacity(mut self, capacity: usize) -> SiteWorker<'a> {
        self.capacity = capacity.max(1);
        self
    }

    /// Snapshot of the worker's state-table occupancy.
    pub fn status(&self) -> WorkerStatus {
        WorkerStatus {
            resident_queries: self.queries.len() as u64,
            resident_lpms: self.queries.values().map(|s| s.lpms.len() as u64).sum(),
            capacity: self.capacity as u64,
            evictions: self.evictions,
        }
    }

    /// Serve one frame: decode the request, run it, encode the reply.
    /// Returns `None` for `Shutdown` (ending the serve loop) and an
    /// `Error` response frame for anything malformed — a bad frame must
    /// not kill a persistent worker.
    pub fn handle(&mut self, frame: Bytes) -> Option<Bytes> {
        let started = Instant::now();
        let (query, body) = match protocol::decode_request(frame) {
            Ok(Request::Shutdown) => return None,
            Ok(req) => (req.query_id(), self.dispatch(req)),
            Err(e) => (
                QueryId::CONTROL,
                ResponseBody::Error(format!("bad request frame: {e}")),
            ),
        };
        Some(protocol::encode_response(&Response::new(
            started.elapsed(),
            query,
            body,
        )))
    }

    /// The installed fragment's id (0 before any is installed, when no
    /// query can be resident either).
    fn fragment_id(&self) -> usize {
        self.fragment.get().map_or(0, |f| f.id)
    }

    /// Touch `query`'s slot and return it, or the typed `UnknownQuery`
    /// reply for an id that was never installed, released, or evicted.
    fn state_mut(&mut self, query: QueryId) -> Result<&mut QueryState, ResponseBody> {
        touch(&mut self.queries, &mut self.clock, query)
    }

    fn dispatch(&mut self, req: Request) -> ResponseBody {
        match req {
            Request::InstallFragment(fragment) => {
                // A new fragment invalidates every resident query's
                // state — their LPMs were computed over the old data.
                self.queries.clear();
                self.fragment = FragmentSlot::Owned(fragment);
                ResponseBody::Ack
            }
            Request::InstallQuery { query, encoded } => {
                if self.fragment.get().is_none() {
                    return ResponseBody::Error("no fragment installed".into());
                }
                if self.queries.contains_key(&query.0) {
                    return ResponseBody::Error(format!(
                        "query {query} is already installed on this site; \
                         release it before re-installing"
                    ));
                }
                if self.queries.len() >= self.capacity {
                    self.evict_lru();
                }
                self.clock += 1;
                self.queries
                    .insert(query.0, QueryState::new(*encoded, self.clock));
                ResponseBody::Ack
            }
            Request::StarMatches { query, center } => {
                let Some(f) = self.fragment.get() else {
                    return ResponseBody::Error("no fragment installed".into());
                };
                let state = match touch(&mut self.queries, &mut self.clock, query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                if center >= state.query.vertex_count() {
                    return ResponseBody::Error("star center out of range".into());
                }
                ResponseBody::Bindings(find_star_matches(f, &state.query, center))
            }
            Request::ComputeCandidates { query, bits } => {
                let Some(f) = self.fragment.get() else {
                    return ResponseBody::Error("no fragment installed".into());
                };
                let state = match touch(&mut self.queries, &mut self.clock, query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                let q = &state.query;
                let vars: Vec<usize> = (0..q.vertex_count())
                    .filter(|&v| q.vertex(v).is_var())
                    .collect();
                // The reply must fit the budget its decoder enforces.
                if !protocol::candidate_vectors_fit(bits, vars.len()) {
                    return ResponseBody::Error(format!(
                        "{} candidate vectors of {bits} bits exceed MAX_CANDIDATE_BITS",
                        vars.len()
                    ));
                }
                let cands = state
                    .candidates
                    .get_or_insert_with(|| internal_candidates(f, q));
                let vectors = vars
                    .into_iter()
                    .map(|v| {
                        let mut bv = BitVectorFilter::new(bits);
                        for &c in &cands[v] {
                            bv.insert(c);
                        }
                        bv
                    })
                    .collect();
                ResponseBody::BitVectors(vectors)
            }
            Request::SetCandidateFilter { query, vectors } => {
                let state = match self.state_mut(query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                let n = state.query.vertex_count();
                for (v, bv) in vectors {
                    if v >= n {
                        return ResponseBody::Error("filter vertex out of range".into());
                    }
                    state.filter.extended_bits[v] = Some(bv);
                }
                ResponseBody::Ack
            }
            Request::PartialEval { query } => {
                let Some(f) = self.fragment.get() else {
                    return ResponseBody::Error("no fragment installed".into());
                };
                let state = match touch(&mut self.queries, &mut self.clock, query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                let cands = state
                    .candidates
                    .take()
                    .unwrap_or_else(|| internal_candidates(f, &state.query));
                let locals = matches_from(f, &state.query, &cands);
                let lpms = partial_matches_from(f, &state.query, &cands, &state.filter);
                state.keep = vec![true; lpms.len()];
                state.lpms = lpms;
                ResponseBody::PartialEval {
                    locals,
                    lpm_count: state.lpms.len() as u64,
                }
            }
            Request::ComputeLecFeatures { query, first_id } => {
                let state = match self.state_mut(query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                // Feature i gets id `first_id + i`, and there are at most
                // as many features as LPMs.
                let last = u32::try_from(state.lpms.len().saturating_sub(1))
                    .ok()
                    .and_then(|n| first_id.checked_add(n));
                if last.is_none() {
                    return ResponseBody::Error("LEC feature ids would leave the u32 range".into());
                }
                let (features, feature_of_lpm) = compute_lec_features(&state.lpms, first_id);
                state.first_id = first_id;
                state.feature_of_lpm = feature_of_lpm;
                ResponseBody::Features(features)
            }
            Request::DropPruned { query, useful } => {
                let state = match self.state_mut(query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                if state.feature_of_lpm.len() != state.lpms.len() {
                    return ResponseBody::Error("DropPruned before ComputeLecFeatures".into());
                }
                // Feature i is `first_id + i`; ids outside this site's
                // features (another site's, in a full-fleet list) match
                // none. There are at most as many features as LPMs.
                let mut useful_feature = vec![false; state.lpms.len()];
                for id in useful {
                    let i = id.wrapping_sub(state.first_id) as usize;
                    if let Some(flag) = useful_feature.get_mut(i) {
                        *flag = true;
                    }
                }
                for (keep, &fi) in state.keep.iter_mut().zip(&state.feature_of_lpm) {
                    *keep = useful_feature[fi];
                }
                ResponseBody::Ack
            }
            Request::ShipSurvivors { query } => {
                let fragment = self.fragment_id();
                let state = match self.state_mut(query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                ResponseBody::Survivors(state.survivors(fragment, 0, usize::MAX).0)
            }
            Request::ShipSurvivorsChunk { query, seq, max } => {
                let fragment = self.fragment_id();
                let state = match self.state_mut(query) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                if seq != state.ship_seq {
                    return ResponseBody::Error(format!(
                        "survivor chunk seq {seq} does not match the site's \
                         cursor (expected {})",
                        state.ship_seq
                    ));
                }
                // The cursor only ever advances, so each survivor ships
                // exactly once across the chunk sequence.
                let (lpms, pos) = state.survivors(fragment, state.ship_pos, max);
                let last = !state.keep[pos..].iter().any(|&k| k);
                state.ship_pos = pos;
                state.ship_seq += 1;
                if last {
                    // Nothing is left to ship: the last chunk releases the
                    // slot exactly as `ReleaseQuery` would.
                    self.queries.remove(&query.0);
                }
                ResponseBody::SurvivorsChunk { lpms, seq, last }
            }
            Request::ReleaseQuery { query } => {
                // Idempotent: a release (a star chain's last step, an
                // abandoned stream's cancel, error cleanup) must succeed
                // even after an eviction or a duplicate release.
                self.queries.remove(&query.0);
                ResponseBody::Ack
            }
            Request::WorkerStatus { .. } => ResponseBody::Status(self.status()),
            Request::Chain { query, steps } => {
                let mut replies = Vec::with_capacity(steps.len());
                for step in steps {
                    let started = Instant::now();
                    let body = self.dispatch(step);
                    let failed =
                        matches!(body, ResponseBody::Error(_) | ResponseBody::UnknownQuery(_));
                    replies.push(protocol::encode_response(&Response::new(
                        started.elapsed(),
                        query,
                        body,
                    )));
                    if failed {
                        break;
                    }
                }
                ResponseBody::Chain(replies)
            }
            Request::Shutdown => unreachable!("handled in SiteWorker::handle"),
        }
    }

    fn evict_lru(&mut self) {
        if let Some(&lru) = self
            .queries
            .iter()
            .min_by_key(|(_, s)| s.last_touch)
            .map(|(id, _)| id)
        {
            self.queries.remove(&lru);
            self.evictions += 1;
        }
    }
}

/// Touch `query`'s slot (refresh its LRU stamp) and return it, or the
/// typed `UnknownQuery` reply. A free function over the table and clock
/// — not a method — so dispatch arms that also hold the fragment borrow
/// can split the borrow across disjoint fields.
fn touch<'q>(
    queries: &'q mut FxHashMap<u32, QueryState>,
    clock: &mut u64,
    query: QueryId,
) -> Result<&'q mut QueryState, ResponseBody> {
    *clock += 1;
    match queries.get_mut(&query.0) {
        Some(state) => {
            state.last_touch = *clock;
            Ok(state)
        }
        None => Err(ResponseBody::UnknownQuery(query)),
    }
}

/// Serve a worker on a TCP listener: accept coordinator connections and
/// serve each on its own thread with its own [`SiteWorker`] (connections
/// are isolated — two sessions sharing a worker process cannot collide
/// on query ids or fragments), until some connection sends `Shutdown`.
///
/// Frames *within* one connection may interleave the requests of many
/// concurrent queries; the per-query state table keeps them apart.
///
/// This is the body of the `gstored-worker` binary and of the test
/// harnesses that stand up a local worker fleet. After `Shutdown` the
/// listener stops accepting and the call returns; connections still being
/// served are reaped when the hosting process exits.
///
/// Failure containment per connection: the socket gets a write timeout,
/// so a coordinator that stops draining its socket cannot pin a worker
/// thread in `write` forever; the write timing out ends that
/// connection's serve loop and frees its state, leaving every other
/// connection untouched. A connection's [`SiteWorker`] — and with it
/// every query slot it holds — is dropped when its socket closes.
pub fn serve_tcp(listener: TcpListener) -> std::io::Result<()> {
    serve_tcp_with_options(listener, DEFAULT_QUERY_CAPACITY)
}

/// How long a worker waits for the coordinator to drain a reply before
/// declaring the connection dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// [`serve_tcp`] with an explicit state-table capacity per connection.
pub fn serve_tcp_with_options(listener: TcpListener, capacity: usize) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    // The handler thread that serves `Shutdown` connects here.
    let wake = wake_addr(&listener)?;
    loop {
        let (mut stream, _) = listener.accept()?;
        if stop.load(Ordering::SeqCst) {
            // Woken by the handler that served the Shutdown frame.
            return Ok(());
        }
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("gstored-conn".into())
            .spawn(move || {
                let mut worker = SiteWorker::empty().with_capacity(capacity);
                if let Ok(ServeOutcome::Stopped) =
                    serve_stream(&mut stream, |frame| worker.handle(frame))
                {
                    stop.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the stop flag.
                    let _ = TcpStream::connect(wake);
                }
            })
            .expect("spawn a worker connection thread");
    }
}

/// Ask the worker listening on `addr` to shut down.
pub fn send_shutdown<A: std::net::ToSocketAddrs>(addr: A) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    gstored_net::transport::write_frame(&mut stream, &protocol::encode_request(&Request::Shutdown))
}

/// Stand up one in-process worker per fragment of `dist` (step handlers
/// on the site executor's pool, scoped to this call, behind an
/// [`InProcessTransport`]), run `f` against the transport, then tear the
/// workers down. The workers borrow their fragments; no
/// `InstallFragment` setup frames are exchanged.
///
/// The one-shot fleet for tests, experiments and harnesses that drive
/// `Engine::execute_on` against a transport they can inspect (e.g. to
/// compare shipment metrics with the transport's own frame counters).
/// Long-lived sessions keep the equivalent persistent fleet in
/// `gstored::GStoreD` instead, so concurrent queries share one set of
/// workers; both run on the same executor.
pub fn with_in_process_workers<T>(
    dist: &DistributedGraph,
    f: impl FnOnce(&InProcessTransport) -> T,
) -> T {
    std::thread::scope(|scope| {
        let transport = InProcessTransport::pooled_in(scope, dist.fragment_count(), |site| {
            let mut worker = SiteWorker::for_fragment(&dist.fragments[site]);
            move |frame| worker.handle(frame)
        });
        // Dropping the transport (here, or while unwinding out of `f`)
        // stops the pool; the scope joins its threads.
        f(&transport)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use gstored_partition::HashPartitioner;
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use gstored_store::enumerate_local_partial_matches;

    const Q0: QueryId = QueryId(0);

    fn setup() -> (DistributedGraph, EncodedQuery) {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://q", "http://c"),
            t("http://c", "http://p", "http://d"),
        ]);
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        (dist, q)
    }

    fn roundtrip(worker: &mut SiteWorker<'_>, req: &Request) -> ResponseBody {
        let reply = worker.handle(protocol::encode_request(req)).unwrap();
        let resp = protocol::decode_response(reply).unwrap();
        assert_eq!(
            resp.query,
            req.query_id(),
            "replies must echo the request's query id"
        );
        resp.body
    }

    fn install(worker: &mut SiteWorker<'_>, id: QueryId, q: &EncodedQuery) -> ResponseBody {
        roundtrip(
            worker,
            &Request::InstallQuery {
                query: id,
                encoded: Box::new(q.clone()),
            },
        )
    }

    #[test]
    fn worker_requires_fragment_and_query() {
        let mut w = SiteWorker::empty();
        assert!(matches!(
            roundtrip(&mut w, &Request::PartialEval { query: Q0 }),
            ResponseBody::Error(_)
        ));
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        assert!(matches!(
            roundtrip(&mut w, &Request::StarMatches { query: Q0, center: 0 }),
            ResponseBody::UnknownQuery(id) if id == Q0
        ));
        assert!(matches!(install(&mut w, Q0, &q), ResponseBody::Ack));
    }

    #[test]
    fn owned_and_borrowed_fragments_answer_identically() {
        let (dist, q) = setup();
        for (site, fragment) in dist.fragments.iter().enumerate() {
            let mut borrowed = SiteWorker::for_fragment(fragment);
            let mut owned = SiteWorker::empty();
            assert!(matches!(
                roundtrip(
                    &mut owned,
                    &Request::InstallFragment(Box::new(fragment.clone()))
                ),
                ResponseBody::Ack
            ));
            for w in [&mut borrowed, &mut owned] {
                install(w, Q0, &q);
            }
            let a = roundtrip(&mut borrowed, &Request::PartialEval { query: Q0 });
            let b = roundtrip(&mut owned, &Request::PartialEval { query: Q0 });
            assert_eq!(a, b, "site {site}");
            let a = roundtrip(&mut borrowed, &Request::ShipSurvivors { query: Q0 });
            let b = roundtrip(&mut owned, &Request::ShipSurvivors { query: Q0 });
            assert_eq!(a, b, "site {site}");
        }
    }

    #[test]
    fn drop_pruned_filters_survivors() {
        let (dist, q) = setup();
        // Find a site with at least one LPM.
        for fragment in &dist.fragments {
            let mut w = SiteWorker::for_fragment(fragment);
            install(&mut w, Q0, &q);
            let ResponseBody::PartialEval { lpm_count, .. } =
                roundtrip(&mut w, &Request::PartialEval { query: Q0 })
            else {
                panic!("wrong response");
            };
            if lpm_count == 0 {
                continue;
            }
            let ResponseBody::Features(features) = roundtrip(
                &mut w,
                &Request::ComputeLecFeatures {
                    query: Q0,
                    first_id: 100,
                },
            ) else {
                panic!("wrong response");
            };
            let own = 100..100 + features.len() as u32;
            let mut survivors = |mut useful: Vec<u32>| {
                useful.sort_unstable();
                roundtrip(&mut w, &Request::DropPruned { query: Q0, useful });
                match roundtrip(&mut w, &Request::ShipSurvivors { query: Q0 }) {
                    ResponseBody::Survivors(lpms) => lpms.to_lpms(),
                    other => panic!("wrong response: {other:?}"),
                }
            };
            // A full-fleet list, as a replay sends it: other sites' ids on
            // either side of this site's range match nothing here.
            let others = [0, 99, own.end, u32::MAX];
            let all = survivors(own.clone().chain(others).collect());
            assert_eq!(all.len() as u64, lpm_count);
            let (_, feature_of_lpm) = compute_lec_features(&all, 100);
            let first: Vec<_> = all
                .iter()
                .zip(&feature_of_lpm)
                .filter(|&(_, &fi)| fi == 0)
                .map(|(lpm, _)| lpm.clone())
                .collect();
            assert_eq!(survivors([100].into_iter().chain(others).collect()), first);
            // Dropping everything leaves no survivors.
            roundtrip(
                &mut w,
                &Request::DropPruned {
                    query: Q0,
                    useful: vec![],
                },
            );
            let ResponseBody::Survivors(none) =
                roundtrip(&mut w, &Request::ShipSurvivors { query: Q0 })
            else {
                panic!("wrong response");
            };
            assert!(none.is_empty());
            return;
        }
        panic!("no site produced LPMs");
    }

    /// A `first_id` whose feature ids would run past `u32::MAX` is
    /// answered with an `Error`, never with wrapped ids or a panic.
    #[test]
    fn feature_ids_past_u32_are_an_error() {
        let (dist, q) = setup();
        for fragment in &dist.fragments {
            let mut w = SiteWorker::for_fragment(fragment);
            install(&mut w, Q0, &q);
            let ResponseBody::PartialEval { lpm_count, .. } =
                roundtrip(&mut w, &Request::PartialEval { query: Q0 })
            else {
                panic!("wrong response");
            };
            if lpm_count < 2 {
                continue;
            }
            let mut features = |first_id| {
                roundtrip(
                    &mut w,
                    &Request::ComputeLecFeatures {
                        query: Q0,
                        first_id,
                    },
                )
            };
            assert!(matches!(features(u32::MAX), ResponseBody::Error(_)));
            let fits = u32::MAX - (lpm_count as u32 - 1);
            assert!(matches!(features(fits), ResponseBody::Features(_)));
            return;
        }
        panic!("no site produced two LPMs");
    }

    #[test]
    fn concurrent_queries_keep_disjoint_state() {
        let (dist, q) = setup();
        let star = {
            let qg = QueryGraph::from_query(
                &parse_query("SELECT * WHERE { ?x <http://p> ?y }").unwrap(),
            )
            .unwrap();
            EncodedQuery::encode(&qg, dist.dict()).unwrap()
        };
        for fragment in &dist.fragments {
            // Reference: each query alone on a fresh worker.
            let solo = |eq: &EncodedQuery| {
                let mut w = SiteWorker::for_fragment(fragment);
                install(&mut w, Q0, eq);
                roundtrip(&mut w, &Request::PartialEval { query: Q0 });
                roundtrip(&mut w, &Request::ShipSurvivors { query: Q0 })
            };
            let path_alone = solo(&q);
            let star_alone = solo(&star);

            // Interleaved: both resident at once, stages alternating.
            let mut w = SiteWorker::for_fragment(fragment);
            let (a, b) = (QueryId(7), QueryId(8));
            install(&mut w, a, &q);
            install(&mut w, b, &star);
            roundtrip(&mut w, &Request::PartialEval { query: a });
            roundtrip(&mut w, &Request::PartialEval { query: b });
            let path_inter = roundtrip(&mut w, &Request::ShipSurvivors { query: a });
            let star_inter = roundtrip(&mut w, &Request::ShipSurvivors { query: b });
            assert_eq!(path_inter, path_alone);
            assert_eq!(star_inter, star_alone);

            // Releasing one leaves the other intact.
            roundtrip(&mut w, &Request::ReleaseQuery { query: a });
            assert!(matches!(
                roundtrip(&mut w, &Request::ShipSurvivors { query: a }),
                ResponseBody::UnknownQuery(_)
            ));
            assert_eq!(
                roundtrip(&mut w, &Request::ShipSurvivors { query: b }),
                star_alone
            );
        }
    }

    /// Drain one site's survivors through the chunked cursor; every chunk
    /// before the last keeps the query's slot, the last drops it.
    fn drain_chunks(
        w: &mut SiteWorker<'_>,
        id: QueryId,
        max: usize,
    ) -> (Vec<LocalPartialMatch>, u64) {
        let mut all = Vec::new();
        let mut seq = 0u64;
        let resident = w.status().resident_queries;
        loop {
            let ResponseBody::SurvivorsChunk {
                lpms,
                seq: echo,
                last,
            } = roundtrip(
                w,
                &Request::ShipSurvivorsChunk {
                    query: id,
                    seq,
                    max,
                },
            )
            else {
                panic!("wrong response");
            };
            assert_eq!(echo, seq, "chunk replies echo the request seq");
            assert!(lpms.len() <= max, "chunk respects the batch bound");
            all.extend(lpms.to_lpms());
            seq += 1;
            let left = w.status().resident_queries;
            assert_eq!(left, resident - u64::from(last), "chunk {seq} of max {max}");
            if last {
                return (all, seq);
            }
        }
    }

    #[test]
    fn chunked_shipping_equals_one_shot_for_every_chunk_size() {
        let (dist, q) = setup();
        for fragment in &dist.fragments {
            let mut w = SiteWorker::for_fragment(fragment);
            install(&mut w, Q0, &q);
            roundtrip(&mut w, &Request::PartialEval { query: Q0 });
            let ResponseBody::Survivors(reference) =
                roundtrip(&mut w, &Request::ShipSurvivors { query: Q0 })
            else {
                panic!("wrong response");
            };
            for max in [1usize, 2, 7, usize::MAX] {
                // A fresh slot per chunk size: the cursor is one-way.
                let id = QueryId(100 + max.min(50) as u32);
                install(&mut w, id, &q);
                roundtrip(&mut w, &Request::PartialEval { query: id });
                let (chunked, chunks) = drain_chunks(&mut w, id, max);
                assert_eq!(chunked, reference.to_lpms(), "max {max}");
                if max == usize::MAX {
                    assert_eq!(chunks, 1, "unbounded chunk drains in one frame");
                }
            }
        }
    }

    #[test]
    fn out_of_sequence_chunk_request_is_rejected() {
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        install(&mut w, Q0, &q);
        roundtrip(&mut w, &Request::PartialEval { query: Q0 });
        // The cursor starts at seq 0; asking for 1 (a replay of a lost
        // reply, or a reordered frame) must not ship anything.
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ShipSurvivorsChunk {
                    query: Q0,
                    seq: 1,
                    max: 8,
                }
            ),
            ResponseBody::Error(_)
        ));
        // The cursor is untouched: seq 0 still works.
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ShipSurvivorsChunk {
                    query: Q0,
                    seq: 0,
                    max: usize::MAX,
                }
            ),
            ResponseBody::SurvivorsChunk { last: true, .. }
        ));
        // Replaying seq 0 after it was consumed ships nothing either: that
        // last chunk released the slot.
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ShipSurvivorsChunk {
                    query: Q0,
                    seq: 0,
                    max: usize::MAX,
                }
            ),
            ResponseBody::UnknownQuery(id) if id == Q0
        ));
        assert!(matches!(
            roundtrip(&mut w, &Request::ReleaseQuery { query: Q0 }),
            ResponseBody::Ack
        ));
    }

    #[test]
    fn chunked_shipping_respects_drop_pruned() {
        let (dist, q) = setup();
        for fragment in &dist.fragments {
            let mut w = SiteWorker::for_fragment(fragment);
            install(&mut w, Q0, &q);
            let ResponseBody::PartialEval { lpm_count, .. } =
                roundtrip(&mut w, &Request::PartialEval { query: Q0 })
            else {
                panic!("wrong response");
            };
            if lpm_count == 0 {
                continue;
            }
            roundtrip(
                &mut w,
                &Request::ComputeLecFeatures {
                    query: Q0,
                    first_id: 0,
                },
            );
            roundtrip(
                &mut w,
                &Request::DropPruned {
                    query: Q0,
                    useful: vec![],
                },
            );
            let (chunked, _) = drain_chunks(&mut w, Q0, 1);
            assert!(chunked.is_empty(), "pruned LPMs must not ship in chunks");
            return;
        }
        panic!("no site produced LPMs");
    }

    #[test]
    fn duplicate_install_is_rejected_not_clobbered() {
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        install(&mut w, Q0, &q);
        let before = roundtrip(&mut w, &Request::PartialEval { query: Q0 });
        // A duplicate install must not reset the in-flight state...
        assert!(matches!(install(&mut w, Q0, &q), ResponseBody::Error(_)));
        // ...so the enumerated LPMs are still there.
        let after = roundtrip(&mut w, &Request::ShipSurvivors { query: Q0 });
        if let ResponseBody::PartialEval { lpm_count, .. } = before {
            if let ResponseBody::Survivors(s) = &after {
                assert_eq!(s.len() as u64, lpm_count);
            } else {
                panic!("wrong response");
            }
        }
    }

    #[test]
    fn release_is_idempotent_and_empties_the_table() {
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        install(&mut w, Q0, &q);
        roundtrip(&mut w, &Request::PartialEval { query: Q0 });
        assert!(w.status().resident_queries == 1);
        assert!(matches!(
            roundtrip(&mut w, &Request::ReleaseQuery { query: Q0 }),
            ResponseBody::Ack
        ));
        assert_eq!(w.status().resident_queries, 0);
        assert_eq!(w.status().resident_lpms, 0);
        // Releasing again (or a never-installed id) still acks.
        assert!(matches!(
            roundtrip(&mut w, &Request::ReleaseQuery { query: Q0 }),
            ResponseBody::Ack
        ));
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ReleaseQuery {
                    query: QueryId(999)
                }
            ),
            ResponseBody::Ack
        ));
    }

    #[test]
    fn cancel_query_drops_the_slot_idempotently() {
        // An abandoned stream cancels its query with ReleaseQuery; the
        // cancel may race the stream's own end or an eviction.
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        install(&mut w, Q0, &q);
        roundtrip(&mut w, &Request::PartialEval { query: Q0 });
        assert_eq!(w.status().resident_queries, 1);
        assert!(matches!(
            roundtrip(&mut w, &Request::ReleaseQuery { query: Q0 }),
            ResponseBody::Ack
        ));
        assert_eq!(w.status().resident_queries, 0);
        assert_eq!(w.status().resident_lpms, 0);
        // Cancelling again, or a never-installed id, still acks.
        assert!(matches!(
            roundtrip(&mut w, &Request::ReleaseQuery { query: Q0 }),
            ResponseBody::Ack
        ));
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ReleaseQuery {
                    query: QueryId(424242)
                }
            ),
            ResponseBody::Ack
        ));
        // The cancelled query's chunk cursor is gone with the slot.
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ShipSurvivorsChunk {
                    query: Q0,
                    seq: 0,
                    max: 1,
                }
            ),
            ResponseBody::UnknownQuery(id) if id == Q0
        ));
    }

    #[test]
    fn capacity_cap_evicts_least_recently_used() {
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]).with_capacity(2);
        install(&mut w, QueryId(1), &q);
        install(&mut w, QueryId(2), &q);
        // Touch 1 so 2 becomes the LRU.
        roundtrip(&mut w, &Request::PartialEval { query: QueryId(1) });
        install(&mut w, QueryId(3), &q);
        assert_eq!(w.status().evictions, 1);
        assert_eq!(w.status().resident_queries, 2);
        // 2 was evicted; 1 and 3 survive.
        assert!(matches!(
            roundtrip(&mut w, &Request::PartialEval { query: QueryId(2) }),
            ResponseBody::UnknownQuery(id) if id == QueryId(2)
        ));
        assert!(matches!(
            roundtrip(&mut w, &Request::PartialEval { query: QueryId(3) }),
            ResponseBody::PartialEval { .. }
        ));
    }

    #[test]
    fn status_reports_occupancy() {
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        let ResponseBody::Status(s) = roundtrip(&mut w, &Request::WorkerStatus { query: Q0 })
        else {
            panic!("wrong response");
        };
        assert_eq!(s.resident_queries, 0);
        assert_eq!(s.capacity, DEFAULT_QUERY_CAPACITY as u64);
        install(&mut w, Q0, &q);
        roundtrip(&mut w, &Request::PartialEval { query: Q0 });
        let ResponseBody::Status(s) = roundtrip(&mut w, &Request::WorkerStatus { query: Q0 })
        else {
            panic!("wrong response");
        };
        assert_eq!(s.resident_queries, 1);
        let expected = {
            let filter = CandidateFilter::none(q.vertex_count());
            enumerate_local_partial_matches(&dist.fragments[0], &q, &filter).len() as u64
        };
        assert_eq!(s.resident_lpms, expected);
    }

    #[test]
    fn malformed_frame_yields_error_not_death() {
        let (dist, _) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        let reply = w.handle(Bytes::from_static(&[0xff, 0xff])).unwrap();
        let resp = protocol::decode_response(reply).unwrap();
        assert_eq!(resp.query, QueryId::CONTROL);
        assert!(matches!(resp.body, ResponseBody::Error(_)));
    }

    /// A fragment id past `MAX_SITES` would alias another site's bit in
    /// the LEC feature masks, so its `InstallFragment` is refused when it
    /// decodes; the worker keeps the fragment it had and keeps serving.
    #[test]
    fn install_fragment_beyond_max_sites_is_an_error() {
        let (dist, q) = setup();
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        let beyond = Fragment::from_parts(crate::MAX_SITES, vec![], vec![], vec![], vec![], vec![]);
        let reply = w
            .handle(protocol::encode_install_fragment(&beyond))
            .unwrap();
        let resp = protocol::decode_response(reply).unwrap();
        assert!(
            matches!(&resp.body, ResponseBody::Error(msg) if msg.contains("MAX_SITES")),
            "{:?}",
            resp.body
        );
        assert!(matches!(install(&mut w, Q0, &q), ResponseBody::Ack));
        assert!(matches!(
            roundtrip(&mut w, &Request::PartialEval { query: Q0 }),
            ResponseBody::PartialEval { .. }
        ));
    }

    /// A query too large for the LPM enumerator's subset loop is refused
    /// when its `InstallQuery` frame decodes, so no later step can reach
    /// the enumerator with it; the worker keeps serving.
    #[test]
    fn oversized_install_query_is_an_error_not_a_panic() {
        use gstored_store::{EncodedEdge, EncodedLabel, EncodedVertex, RequiredClasses};
        let (dist, q) = setup();
        let n = gstored_store::MAX_QUERY_VERTICES + 13;
        let path = EncodedQuery::from_parts(
            vec![EncodedVertex::Var; n],
            (0..n - 1)
                .map(|i| EncodedEdge {
                    from: i,
                    to: i + 1,
                    label: EncodedLabel::Any,
                })
                .collect(),
            vec![RequiredClasses::Resolved(Vec::new()); n],
            (0..n).collect(),
        );
        let mut w = SiteWorker::for_fragment(&dist.fragments[0]);
        let reply = w.handle(protocol::encode_install_query(Q0, &path)).unwrap();
        let resp = protocol::decode_response(reply).unwrap();
        assert!(
            matches!(&resp.body, ResponseBody::Error(msg) if msg.contains("MAX_QUERY_VERTICES")),
            "{:?}",
            resp.body
        );
        assert_eq!(w.status().resident_queries, 0);
        assert!(matches!(install(&mut w, Q0, &q), ResponseBody::Ack));
        assert!(matches!(
            roundtrip(&mut w, &Request::PartialEval { query: Q0 }),
            ResponseBody::PartialEval { .. }
        ));
    }

    /// Twelve vertices wired by two labels over three sites: enough
    /// crossing edges that every site has LPMs for a two-edge path.
    fn crossing_setup() -> (DistributedGraph, EncodedQuery) {
        let v = |i: usize| Term::iri(format!("http://v/{i}"));
        let mut triples = Vec::new();
        for i in 0..12 {
            triples.push(Triple::new(
                v(i),
                Term::iri("http://p"),
                v((i * 5 + 1) % 12),
            ));
            triples.push(Triple::new(
                v(i),
                Term::iri("http://q"),
                v((i * 7 + 3) % 12),
            ));
        }
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let dist =
            DistributedGraph::build(RdfGraph::from_triples(triples), &HashPartitioner::new(3));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        (dist, q)
    }

    /// A reply frame with the timing zeroed, for byte comparisons.
    fn frame(body: ResponseBody) -> Bytes {
        protocol::encode_response(&Response::new(Duration::ZERO, Q0, body))
    }

    /// Reusing the candidates `ComputeCandidates` cached cannot be seen
    /// from outside: a site that ran it answers `PartialEval` and
    /// `ComputeLecFeatures` byte for byte like a site that got the same
    /// filter without ever computing candidates for Algorithm 4.
    #[test]
    fn candidate_reuse_is_invisible_in_replies() {
        let (dist, q) = crossing_setup();
        let bits = 256;
        // The coordinator's side of Algorithm 4: OR every site's vectors.
        let mut union: Vec<BitVectorFilter> = Vec::new();
        for f in &dist.fragments {
            let mut w = SiteWorker::for_fragment(f);
            install(&mut w, Q0, &q);
            let ResponseBody::BitVectors(vectors) =
                roundtrip(&mut w, &Request::ComputeCandidates { query: Q0, bits })
            else {
                panic!("wrong response");
            };
            if union.is_empty() {
                union = vectors;
            } else {
                for (u, v) in union.iter_mut().zip(&vectors) {
                    u.union_with(v);
                }
            }
        }
        let vectors: Vec<(usize, BitVectorFilter)> = (0..q.vertex_count())
            .filter(|&v| q.vertex(v).is_var())
            .zip(union)
            .collect();
        let mut lpms = 0;
        for f in &dist.fragments {
            let replies = |compute_first: bool| {
                let mut w = SiteWorker::for_fragment(f);
                install(&mut w, Q0, &q);
                if compute_first {
                    roundtrip(&mut w, &Request::ComputeCandidates { query: Q0, bits });
                    assert!(
                        w.queries[&Q0.0].candidates.is_some(),
                        "cached by the first step"
                    );
                }
                roundtrip(
                    &mut w,
                    &Request::SetCandidateFilter {
                        query: Q0,
                        vectors: vectors.clone(),
                    },
                );
                let eval = roundtrip(&mut w, &Request::PartialEval { query: Q0 });
                assert!(
                    w.queries[&Q0.0].candidates.is_none(),
                    "taken by the last reader"
                );
                let features = roundtrip(
                    &mut w,
                    &Request::ComputeLecFeatures {
                        query: Q0,
                        first_id: 0,
                    },
                );
                (eval, features)
            };
            let (eval, features) = replies(true);
            if let ResponseBody::PartialEval { lpm_count, .. } = &eval {
                lpms += lpm_count;
            }
            let (fresh_eval, fresh_features) = replies(false);
            assert_eq!(frame(eval), frame(fresh_eval), "site {}", f.id);
            assert_eq!(frame(features), frame(fresh_features), "site {}", f.id);
        }
        assert!(lpms > 0, "the fixture must produce LPMs");
    }

    /// Cached candidates go with their slot: after the last survivor
    /// chunk, a release, an LRU eviction or a new fragment, the query
    /// holds nothing and `status()` no longer counts it.
    #[test]
    fn cached_candidates_do_not_outlive_their_slot() {
        let (dist, q) = crossing_setup();
        let fragment = &dist.fragments[0];
        let cached = |w: &mut SiteWorker<'_>, id: QueryId| {
            install(w, id, &q);
            roundtrip(
                w,
                &Request::ComputeCandidates {
                    query: id,
                    bits: 64,
                },
            );
            assert!(w.queries[&id.0].candidates.is_some());
        };
        let gone = |w: &SiteWorker<'_>, id: QueryId, how: &str| {
            assert!(!w.queries.contains_key(&id.0), "{how}");
            assert_eq!(w.status().resident_queries, 0, "{how}");
        };

        let mut w = SiteWorker::for_fragment(fragment);
        cached(&mut w, Q0);
        // No PartialEval ran, so there is nothing to ship: chunk 0 is last.
        assert!(matches!(
            roundtrip(
                &mut w,
                &Request::ShipSurvivorsChunk {
                    query: Q0,
                    seq: 0,
                    max: 8
                }
            ),
            ResponseBody::SurvivorsChunk { last: true, .. }
        ));
        gone(&w, Q0, "last chunk");

        cached(&mut w, Q0);
        roundtrip(&mut w, &Request::ReleaseQuery { query: Q0 });
        gone(&w, Q0, "release");

        let mut w = SiteWorker::for_fragment(fragment).with_capacity(1);
        cached(&mut w, Q0);
        install(&mut w, QueryId(1), &q);
        assert_eq!(w.status().evictions, 1);
        assert!(!w.queries.contains_key(&Q0.0), "eviction");
        roundtrip(&mut w, &Request::ReleaseQuery { query: QueryId(1) });
        gone(&w, QueryId(1), "eviction, then release");

        let mut w = SiteWorker::empty();
        roundtrip(
            &mut w,
            &Request::InstallFragment(Box::new(fragment.clone())),
        );
        cached(&mut w, Q0);
        roundtrip(
            &mut w,
            &Request::InstallFragment(Box::new(fragment.clone())),
        );
        gone(&w, Q0, "InstallFragment");
    }

    #[test]
    fn shutdown_ends_the_loop() {
        let mut w = SiteWorker::empty();
        assert!(w
            .handle(protocol::encode_request(&Request::Shutdown))
            .is_none());
    }
}
