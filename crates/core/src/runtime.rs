//! The coordinator-side runtime: a [`WorkerPool`] that sends typed
//! requests over a [`Transport`] — a [`Chain`] per site per pipeline
//! phase, or one request broadcast to all — and meters every frame, plus the two
//! pieces that make the runtime **multi-query concurrent** — the
//! [`ReplyRouter`] that demultiplexes interleaved replies by query id,
//! and the [`QueryExecutor`] that allocates query ids and admits up to a
//! configured number of pipelines onto a shared worker fleet.
//!
//! ## One exchange
//!
//! Every message round between the coordinator and its sites — a
//! pipeline phase, a broadcast, a release, a status or health probe, a
//! fragment install — is one call of the pool's single exchange loop:
//! send every addressed site its frame, then receive from every
//! addressed site, whatever failed at another. A site whose send failed
//! is received from too, so a broken connection always marks the site
//! failed in the router and the session repairs that one site,
//! whichever request met it first. Each site's outcome is kept; callers
//! that need all of them take the first failure in site order. The loop
//! is built from a send half and a receive half; a stream uses the two
//! halves directly to keep pulls in flight between them, under the same
//! rule (a pull whose send failed is still received from).
//!
//! Shipment accounting happens in that loop, once, at the send/receive
//! boundary: each encoded frame's length is charged to the stage it
//! belongs to as it crosses the transport, so the metrics are
//! byte-for-byte the frames that were actually exchanged — never a
//! re-encoded estimate. Stage wall time uses the **maximum**
//! worker-reported compute time across sites (sites run concurrently;
//! the stage ends when the slowest site does), plus the simulated
//! [`NetworkModel`] transfer time per frame. Metrics stay **per query**:
//! each pipeline owns its `QueryMetrics`, so concurrent queries never
//! bleed into each other's numbers. Exchanges outside a query (status,
//! health, fragment installs) charge a throwaway cell that nobody reads.
//!
//! ## How interleaving works
//!
//! Each site connection is FIFO, and a worker answers frames in arrival
//! order — but when several pipelines share the fleet, the next frame on
//! a site's stream may answer *another* pipeline's request. Every reply
//! echoes its request's [`QueryId`], so the router lets whichever
//! pipeline reads a frame either keep it (its own id) or park it for the
//! owning pipeline and keep reading. One reader per site at a time; a
//! condvar hands the reader role over when a pipeline leaves with its
//! frame. No dedicated I/O threads, no reordering, no busy waiting.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use fxhash::FxHashMap;
use gstored_net::{NetworkModel, QueryMetrics, StageMetrics, Transport};
use gstored_partition::Fragment;

use crate::error::EngineError;
use crate::protocol::{self, QueryId, Request, Response, ResponseBody, WorkerStatus};

/// Per-site routing state: replies read off the stream but owned by
/// another in-flight query, plus the "someone is reading" flag.
#[derive(Debug, Default)]
struct SiteSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    /// Replies received for queries other than the reader's, keyed by
    /// query id, with the frame length for shipment charging. A *queue*
    /// per query, not a slot: nothing stops a pipeline from having several
    /// requests in flight per (query, site), so a reader may park two or
    /// more of another pipeline's replies back to back — they hand over
    /// in stream order, which per site is that query's request order.
    parked: FxHashMap<u32, VecDeque<(usize, Response)>>,
    /// Whether some pipeline currently holds the site's reader role.
    reading: bool,
    /// Set when a read failed (transport broke, or a frame would not
    /// decode so its owner is unknowable). A failed site stays failed:
    /// the stream can no longer be trusted to route replies, so every
    /// later `recv` on it reports the error instead of blocking on a
    /// reply that may already have been consumed.
    failed: Option<String>,
}

/// Demultiplexes worker replies on a shared fleet connection by query id.
///
/// One router guards one connected fleet (it holds no transport itself;
/// callers pass the transport in, which keeps the router usable with any
/// [`Transport`] backend). All pipelines sharing a fleet must share its
/// router — reading a multiplexed stream around the router would steal
/// other queries' replies.
#[derive(Debug)]
pub struct ReplyRouter {
    sites: Vec<SiteSlot>,
}

impl ReplyRouter {
    /// A router for a fleet of `sites` workers.
    pub fn new(sites: usize) -> ReplyRouter {
        ReplyRouter {
            sites: (0..sites).map(|_| SiteSlot::default()).collect(),
        }
    }

    /// Number of sites the router demultiplexes.
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// Receive `query`'s next reply from `site`: either a parked frame
    /// another pipeline already read, or frames read off the transport —
    /// parking any that belong to other queries — until ours arrives.
    ///
    /// Returns the decoded response plus the frame length (for shipment
    /// charging). Replies stamped [`QueryId::CONTROL`] (errors for
    /// frames too malformed to name a query) are delivered to whichever
    /// pipeline is reading, since they cannot be routed.
    ///
    /// A read failure — the transport broke, or a frame would not
    /// decode (so nobody can know whose reply was consumed) — marks the
    /// site failed **for every pipeline**: all current and future
    /// `recv`s on it return the error instead of blocking on a reply
    /// that may never be distinguishable again. The session reacts by
    /// repairing that one site (reconnect + fragment re-install +
    /// [`ReplyRouter::reset`]), so the failure is bounded to the
    /// queries in flight on it, not to the whole fleet.
    pub fn recv(
        &self,
        transport: &dyn Transport,
        site: usize,
        query: QueryId,
    ) -> Result<(usize, Response), EngineError> {
        self.recv_deadline(transport, site, query, None)
    }

    /// [`ReplyRouter::recv`] with an optional hard deadline.
    ///
    /// A deadline expiry surfaces as [`EngineError::Timeout`] and is
    /// **per query, not per site**: whether this pipeline was parked on
    /// the condvar or holding the reader role, giving up consumes no
    /// frame and leaves the slot healthy, so concurrent pipelines with
    /// laxer deadlines keep reading (our reply, if it ever arrives,
    /// parks for nobody and is reclaimed by [`ReplyRouter::forget`]).
    /// Only a genuine transport/decode failure marks the site failed.
    pub fn recv_deadline(
        &self,
        transport: &dyn Transport,
        site: usize,
        query: QueryId,
        deadline: Option<Instant>,
    ) -> Result<(usize, Response), EngineError> {
        let slot = self.sites.get(site).ok_or_else(|| {
            EngineError::Transport(format!("router has {} sites; no site {site}", self.sites()))
        })?;
        let mut state = slot.state.lock().expect("reply router poisoned");
        loop {
            if let Some(queue) = state.parked.get_mut(&query.0) {
                let hit = queue.pop_front().expect("parked queues are never empty");
                if queue.is_empty() {
                    state.parked.remove(&query.0);
                }
                return Ok(hit);
            }
            if let Some(msg) = &state.failed {
                return Err(EngineError::Transport(format!("site {site}: {msg}")));
            }
            if state.reading {
                // Another pipeline holds the reader role; it will either
                // park our reply or hand the role over when it leaves.
                state = match deadline {
                    None => slot.ready.wait(state).expect("reply router poisoned"),
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Err(EngineError::Timeout {
                                site,
                                stage: ROUTER_WAIT_STAGE,
                            });
                        }
                        let (next, _) = slot
                            .ready
                            .wait_timeout(state, remaining)
                            .expect("reply router poisoned");
                        next
                    }
                };
                continue;
            }
            state.reading = true;
            drop(state);
            let raw = match deadline {
                None => transport.recv(site),
                Some(d) => transport.recv_deadline(site, d),
            };
            state = slot.state.lock().expect("reply router poisoned");
            state.reading = false;
            match raw {
                Ok(frame) => {
                    let len = frame.len();
                    match protocol::decode_response(frame) {
                        Ok(resp) => {
                            slot.ready.notify_all();
                            if resp.query == query || resp.query == QueryId::CONTROL {
                                return Ok((len, resp));
                            }
                            state
                                .parked
                                .entry(resp.query.0)
                                .or_default()
                                .push_back((len, resp));
                            // Loop: maybe our reply is already parked,
                            // else read again (or wait, if someone
                            // grabbed the role).
                        }
                        Err(e) => {
                            // Undecodable: whose reply was consumed is
                            // unknowable, so the stream can no longer
                            // route — fail the site for everyone.
                            let e = EngineError::from(e);
                            state.failed = Some(e.to_string());
                            slot.ready.notify_all();
                            return Err(e);
                        }
                    }
                }
                Err(gstored_net::TransportError::TimedOut { .. }) => {
                    // Clean boundary: no frame was consumed. This query
                    // gives up; the slot stays healthy and another
                    // pipeline takes over the reader role.
                    slot.ready.notify_all();
                    return Err(EngineError::Timeout {
                        site,
                        stage: ROUTER_WAIT_STAGE,
                    });
                }
                Err(e) => {
                    let e = EngineError::Transport(e.to_string());
                    state.failed = Some(e.to_string());
                    slot.ready.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Clear `site`'s routing state after a repair: parked frames from
    /// the dead connection are dropped (their queries have already
    /// failed or timed out) and the sticky failure is lifted so fresh
    /// pipelines can use the reconnected stream. Call only once the
    /// transport connection has actually been re-established.
    pub fn reset(&self, site: usize) {
        if let Some(slot) = self.sites.get(site) {
            let mut state = slot.state.lock().expect("reply router poisoned");
            state.parked.clear();
            state.failed = None;
            slot.ready.notify_all();
        }
    }

    /// Drop any parked replies addressed to `query` on every site.
    /// Called when a pipeline abandons (error or timeout) with replies
    /// possibly still in flight: its id is never reused, so frames that
    /// straggle in afterwards would otherwise park forever.
    pub fn forget(&self, query: QueryId) {
        for slot in &self.sites {
            let mut state = slot.state.lock().expect("reply router poisoned");
            state.parked.remove(&query.0);
        }
    }

    /// Whether `site` is currently marked failed (a transport or decode
    /// error poisoned its stream and no repair has reset it yet).
    pub fn is_failed(&self, site: usize) -> bool {
        self.sites
            .get(site)
            .map(|slot| {
                slot.state
                    .lock()
                    .expect("reply router poisoned")
                    .failed
                    .is_some()
            })
            .unwrap_or(false)
    }
}

/// Stage label the router uses for timeouts it raises itself; the
/// [`WorkerPool`] rewrites it with the pipeline stage it was waiting in.
const ROUTER_WAIT_STAGE: &str = "reply wait";

/// Allocates query ids and admits pipelines onto a shared fleet.
///
/// Admission is a counting gate: at most `max_concurrent` queries run
/// their pipelines at once; further [`QueryExecutor::admit`] calls block
/// until a ticket drops. Ids are never reused within an executor and
/// never collide with [`QueryId::CONTROL`].
#[derive(Debug)]
pub struct QueryExecutor {
    next_id: AtomicU32,
    max_concurrent: usize,
    running: Mutex<usize>,
    freed: Condvar,
}

impl QueryExecutor {
    /// An executor admitting up to `max_concurrent` pipelines (min 1).
    pub fn new(max_concurrent: usize) -> QueryExecutor {
        QueryExecutor {
            next_id: AtomicU32::new(0),
            max_concurrent: max_concurrent.max(1),
            running: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// The admission bound.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Block until an execution slot frees up, then claim it and a fresh
    /// query id. The slot is held until the returned ticket drops.
    pub fn admit(&self) -> QueryTicket<'_> {
        let mut running = self.running.lock().expect("query executor poisoned");
        while *running >= self.max_concurrent {
            running = self.freed.wait(running).expect("query executor poisoned");
        }
        *running += 1;
        drop(running);
        QueryTicket {
            query: self.allocate_id(),
            executor: self,
        }
    }

    fn allocate_id(&self) -> QueryId {
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            if id != QueryId::CONTROL.0 {
                return QueryId(id);
            }
        }
    }
}

/// An admitted query: its id plus the RAII execution slot.
#[derive(Debug)]
pub struct QueryTicket<'e> {
    query: QueryId,
    executor: &'e QueryExecutor,
}

impl QueryTicket<'_> {
    /// The query id this ticket was admitted under.
    pub fn query(&self) -> QueryId {
        self.query
    }
}

impl Drop for QueryTicket<'_> {
    fn drop(&mut self) {
        let mut running = self
            .executor
            .running
            .lock()
            .expect("query executor poisoned");
        *running -= 1;
        drop(running);
        self.executor.freed.notify_one();
    }
}

/// Coordinator handle over `k` site workers reachable through a
/// transport, scoped to **one query**: every request it sends carries the
/// pool's query id and every reply is routed back through the shared
/// [`ReplyRouter`], so any number of pools (one per in-flight query) can
/// drive the same fleet concurrently.
pub struct WorkerPool<'t> {
    transport: &'t dyn Transport,
    router: &'t ReplyRouter,
    network: NetworkModel,
    query: QueryId,
    paced: bool,
    /// Absolute deadline for every receive in this query's pipeline
    /// (`None` = wait forever, the pre-robustness behavior).
    deadline: Option<Instant>,
    /// The pipeline stage currently in flight, stamped into
    /// [`EngineError::Timeout`]s so operators see *where* a site went
    /// silent. A `Cell` because the pool is a per-query, per-thread
    /// handle (concurrent pipelines each build their own pool).
    stage_label: Cell<&'static str>,
}

impl<'t> WorkerPool<'t> {
    /// Wrap a connected fleet for one query's pipeline.
    pub fn new(
        transport: &'t dyn Transport,
        router: &'t ReplyRouter,
        network: NetworkModel,
        query: QueryId,
    ) -> WorkerPool<'t> {
        WorkerPool {
            transport,
            router,
            network,
            query,
            paced: false,
            deadline: None,
            stage_label: Cell::new("setup"),
        }
    }

    /// Make the pool *wait out* each frame's simulated transfer time
    /// instead of only recording it, so wall-clock behavior matches the
    /// [`NetworkModel`] — the closed-loop throughput benchmarks run this
    /// way to emulate the paper's cluster interconnect.
    pub fn with_pacing(mut self, paced: bool) -> WorkerPool<'t> {
        self.paced = paced;
        self
    }

    /// Give every receive in this pipeline a hard deadline. Past it,
    /// receives stop blocking and return [`EngineError::Timeout`] naming
    /// the current [stage](WorkerPool::set_stage). `None` (the default)
    /// waits forever.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> WorkerPool<'t> {
        self.deadline = deadline;
        self
    }

    /// Name the pipeline stage now in flight; timeouts raised from this
    /// point on carry it.
    pub fn set_stage(&self, stage: &'static str) {
        self.stage_label.set(stage);
    }

    /// Receive through the router, honouring the pool deadline and
    /// stamping timeouts with the current stage label.
    fn recv_routed(&self, site: usize) -> Result<(usize, Response), EngineError> {
        self.router
            .recv_deadline(self.transport, site, self.query, self.deadline)
            .map_err(|e| match e {
                EngineError::Timeout { site, .. } => EngineError::Timeout {
                    site,
                    stage: self.stage_label.get(),
                },
                other => other,
            })
    }

    /// Number of sites behind the pool.
    pub fn sites(&self) -> usize {
        self.transport.sites()
    }

    /// The query this pool's frames belong to.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Send the same encoded request frame to every site and gather the
    /// replies in site order: a one-step phase whose frames are all
    /// charged to `stage`, which also gets the slowest site's compute
    /// time.
    pub fn broadcast_frame(
        &self,
        frame: Bytes,
        stage: &mut StageMetrics,
    ) -> Result<Vec<ResponseBody>, EngineError> {
        self.broadcast_each(frame, None, stage)
            .into_iter()
            .collect()
    }

    /// [`WorkerPool::broadcast_frame`]'s per-site outcomes, in site
    /// order, to every site but `skip`.
    fn broadcast_each(
        &self,
        frame: Bytes,
        skip: Option<usize>,
        stage: &mut StageMetrics,
    ) -> Vec<Result<ResponseBody, EngineError>> {
        let chain = Chain::new(self.query, &[(frame, ONE_CELL)]);
        let chains: Vec<(usize, Chain)> = (0..self.sites())
            .filter(|&site| Some(site) != skip)
            .map(|site| (site, chain.clone()))
            .collect();
        let mut metrics = QueryMetrics::default();
        let outcomes = self.exchange(&chains, &mut metrics);
        stage.absorb(ONE_CELL.of(&mut metrics));
        outcomes
            .into_iter()
            .map(|outcome| outcome.map(|mut bodies| bodies.pop().expect("one reply per step")))
            .collect()
    }

    /// Run one **phase** of a pipeline: send every listed site its
    /// [`Chain`] — one frame each — then collect every site's one reply
    /// frame, returning the step replies per site in `chains` order.
    /// Sites run their chains concurrently and never wait for the
    /// coordinator between steps, so a straggler delays only this
    /// phase's single collection point.
    ///
    /// Charging: each step's request and reply bytes, with the length
    /// prefixes they travel under, go to that step's [`Stage`]; the rest
    /// of the chain envelopes and the two messages go to the first
    /// step's. Each step's slowest site is added to its
    /// stage's wall (sites overlap; a stage ends when its slowest site
    /// does). All chains of one phase must have the same step stages.
    ///
    /// Every listed site is sent its frame and received from, whatever
    /// failed at another site, so no reply of this query is left on a
    /// stream. The first failure in `chains` order — a transport error,
    /// a timeout, or a step's `Error`/`UnknownQuery`, which also stopped
    /// that site's chain — is then returned as the typed
    /// [`EngineError`].
    pub fn run_phase(
        &self,
        chains: &[(usize, Chain)],
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<Vec<ResponseBody>>, EngineError> {
        self.exchange(chains, metrics).into_iter().collect()
    }

    /// The one exchange with the fleet, behind every other method of
    /// the pool: [send](WorkerPool::send) every chain, then
    /// [receive](WorkerPool::receive) every listed site's reply as one
    /// [`Wave`], returning each site's outcome in `chains` order.
    ///
    /// A site whose send failed is still received from: a broken
    /// connection fails that receive at once, which marks the site
    /// failed in the [`ReplyRouter`], so recovery repairs that one site
    /// whichever exchange met it first.
    fn exchange(
        &self,
        chains: &[(usize, Chain)],
        metrics: &mut QueryMetrics,
    ) -> Vec<Result<Vec<ResponseBody>, EngineError>> {
        let sent: Vec<Result<(), EngineError>> = chains
            .iter()
            .map(|(site, chain)| self.send(*site, chain, metrics))
            .collect();
        let Some((_, first)) = chains.first() else {
            return Vec::new();
        };
        let mut wave = Wave::new(first);
        let outcomes = chains
            .iter()
            .zip(sent)
            .map(|((site, chain), sent)| match sent {
                Ok(()) => self.receive(*site, chain, &mut wave, metrics),
                Err(e) => {
                    let _ = self.recv_routed(*site);
                    Err(e)
                }
            })
            .collect();
        wave.finish(metrics);
        outcomes
    }

    /// The send half of an exchange: charge, pace and send `site` its
    /// chain. The reply is [`WorkerPool::receive`]'s; a stream keeps
    /// pulls in flight between the two halves.
    pub(crate) fn send(
        &self,
        site: usize,
        chain: &Chain,
        metrics: &mut QueryMetrics,
    ) -> Result<(), EngineError> {
        let envelope = chain.frame.len() - chain.steps.iter().map(|s| s.0).sum::<usize>();
        let mut transfer = self.charge(chain.steps[0].1.of(metrics), 1, envelope);
        for &(len, stage) in &chain.steps {
            transfer += self.charge(stage.of(metrics), 0, len);
        }
        self.pace(transfer);
        Ok(self.transport.send(site, chain.frame.clone())?)
    }

    /// The receive half of an exchange: `site`'s reply to `chain` under
    /// the pool deadline, charged, paced and unpacked into its step
    /// replies. A chain is answered by its step replies' frames; a bare
    /// step — or a frame the worker refused whole — by one reply that is
    /// the entire frame. `wave` keeps each step's slowest site.
    pub(crate) fn receive(
        &self,
        site: usize,
        chain: &Chain,
        wave: &mut Wave,
        metrics: &mut QueryMetrics,
    ) -> Result<Vec<ResponseBody>, EngineError> {
        debug_assert!(
            chain
                .steps
                .iter()
                .map(|s| s.1)
                .eq(wave.steps.iter().map(|s| s.1)),
            "the chains of one wave must have the same step stages"
        );
        let (len, response) = self.recv_routed(site)?;
        let mut undecodable = None;
        let steps: Vec<(usize, Response)> = match response.body {
            ResponseBody::Chain(frames) if wave.steps.len() > 1 => frames
                .into_iter()
                .map(|frame| Ok((prefixed(frame.len()), protocol::decode_response(frame)?)))
                .collect::<Result<_, EngineError>>()
                .unwrap_or_else(|e| {
                    undecodable = Some(e);
                    Vec::new()
                }),
            _ => vec![(len, response)],
        };
        let envelope = len.saturating_sub(steps.iter().map(|s| s.0).sum());
        let mut transfer = self.charge(wave.steps[0].1.of(metrics), 1, envelope);
        let answered = steps.len();
        let mut bodies = Vec::with_capacity(answered);
        for ((len, reply), (slowest, stage)) in steps.into_iter().zip(wave.steps.iter_mut()) {
            transfer += self.charge(stage.of(metrics), 0, len);
            *slowest = (*slowest).max(reply.elapsed_nanos);
            bodies.push(reply.body);
        }
        self.pace(transfer);
        if let Some(e) = undecodable {
            return Err(e);
        }
        match bodies.last().and_then(|body| worker_failure(site, body)) {
            Some(e) => Err(e),
            None if answered != wave.steps.len() => Err(EngineError::Protocol(format!(
                "site {site} sent {answered} replies to a {}-step chain",
                wave.steps.len()
            ))),
            None => Ok(bodies),
        }
    }

    /// Best-effort release of the pool's query on every site, ignoring
    /// every site's outcome — used on pipeline error paths, where the
    /// transport may already be gone, and when a stream is abandoned (an
    /// iterator dropped or a `LIMIT` filled) with survivor chunks still
    /// unpulled. Frames still charge to `stage` so shipment metrics
    /// cover everything that crossed the wire. A dead site does not stop
    /// the release: every exchange reaches every site.
    pub fn release_quietly(&self, stage: &mut StageMetrics) {
        self.release_quietly_skipping(None, stage);
    }

    /// [`WorkerPool::release_quietly`] to every site but `skip`: a site
    /// that just timed out is left to the repair that follows, which
    /// re-dials it (a worker's state is per connection), so the release
    /// does not wait on it a second time.
    pub(crate) fn release_quietly_skipping(&self, skip: Option<usize>, stage: &mut StageMetrics) {
        let frame = protocol::encode_request(&Request::ReleaseQuery { query: self.query });
        let _ = self.broadcast_each(frame, skip, stage);
    }

    /// Probe every site's state-table occupancy ([`WorkerStatus`]),
    /// failing with the first site's error. An operational query, not
    /// part of any pipeline stage: frames are not charged to per-query
    /// metrics.
    pub fn worker_status(&self) -> Result<Vec<WorkerStatus>, EngineError> {
        self.site_statuses().into_iter().collect()
    }

    /// [`WorkerPool::worker_status`] per site, in site order: one dead
    /// site fails only its own entry.
    pub fn site_statuses(&self) -> Vec<Result<WorkerStatus, EngineError>> {
        let frame = protocol::encode_request(&Request::WorkerStatus { query: self.query });
        let outcomes = self.broadcast_each(frame, None, &mut StageMetrics::default());
        outcomes
            .into_iter()
            .map(|outcome| match outcome? {
                ResponseBody::Status(s) => Ok(s),
                other => Err(EngineError::Protocol(format!(
                    "expected Status reply to WorkerStatus, got {other:?}"
                ))),
            })
            .collect()
    }

    /// Ship each listed site its fragment and wait for every `Ack`:
    /// deployment setup, charged to no query, with timeouts naming the
    /// `"install_fragment"` stage. Workers stamp the reply
    /// [`QueryId::CONTROL`], so build the pool under that id.
    pub fn ship_fragments<'f>(
        &self,
        fragments: impl IntoIterator<Item = (usize, &'f Fragment)>,
    ) -> Result<(), EngineError> {
        self.set_stage("install_fragment");
        let chains: Vec<(usize, Chain)> = fragments
            .into_iter()
            .map(|(site, fragment)| {
                let frame = protocol::encode_install_fragment(fragment);
                (site, Chain::new(self.query, &[(frame, ONE_CELL)]))
            })
            .collect();
        let replies = self.run_phase(&chains, &mut QueryMetrics::default())?;
        expect_acks(replies.into_iter().flatten().collect())
    }

    /// Book `messages` messages totalling `len` bytes to `stage`; returns
    /// their simulated transfer time for [`pace`].
    ///
    /// [`pace`]: WorkerPool::pace
    fn charge(&self, stage: &mut StageMetrics, messages: u64, len: usize) -> Duration {
        stage.bytes_shipped += len as u64;
        stage.messages += messages;
        let transfer = self.network.transfer_time(messages, len as u64);
        stage.network += transfer;
        transfer
    }

    /// Emulate the interconnect when pacing is on: actually wait a
    /// frame's transfer time out. No router or transport locks are held
    /// here, so concurrent pipelines overlap their network waits — which
    /// is exactly what the multi-client throughput benchmark measures.
    fn pace(&self, transfer: Duration) {
        if self.paced && transfer > Duration::ZERO {
            std::thread::sleep(transfer);
        }
    }
}

/// The stage cell that one-step exchanges outside the four-stage
/// pipeline ([`WorkerPool::broadcast`] and what is built on it) charge
/// to before their metrics move into the caller's one cell.
const ONE_CELL: Stage = Stage::Candidates;

/// Which of a query's four stage cells ([`QueryMetrics`]) a chain step's
/// bytes and compute time are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Section VI candidate exchange.
    Candidates,
    /// Partial evaluation (and the star fast path).
    PartialEvaluation,
    /// LEC features and pruning.
    LecOptimization,
    /// Survivor shipping and assembly.
    Assembly,
}

impl Stage {
    /// This stage's cell of `metrics`.
    pub fn of(self, metrics: &mut QueryMetrics) -> &mut StageMetrics {
        match self {
            Stage::Candidates => &mut metrics.candidates,
            Stage::PartialEvaluation => &mut metrics.partial_evaluation,
            Stage::LecOptimization => &mut metrics.lec_optimization,
            Stage::Assembly => &mut metrics.assembly,
        }
    }
}

/// What one site is sent in one phase: its steps as a single frame — a
/// [`Request::Chain`], or the bare step when there is only one — plus
/// what the pool needs to charge each step to its stage.
#[derive(Debug, Clone)]
pub struct Chain {
    frame: Bytes,
    /// Per step: its bytes on the wire (with its length prefix inside a
    /// [`Request::Chain`]) and the stage they are charged to.
    steps: Vec<(usize, Stage)>,
}

impl Chain {
    /// A chain of `query`'s already-encoded step frames (at least one).
    pub fn new(query: QueryId, steps: &[(Bytes, Stage)]) -> Chain {
        assert!(!steps.is_empty(), "a chain has at least one step");
        let frame = match steps {
            [(only, _)] => only.clone(),
            _ => {
                let frames: Vec<Bytes> = steps.iter().map(|(frame, _)| frame.clone()).collect();
                protocol::encode_chain(query, &frames)
            }
        };
        let chained = steps.len() > 1;
        Chain {
            frame,
            steps: steps
                .iter()
                .map(|(f, stage)| (if chained { prefixed(f.len()) } else { f.len() }, *stage))
                .collect(),
        }
    }
}

/// What a chain step of `len` bytes takes on the wire: the step and the
/// varint length prefix it travels under, both charged to its stage.
fn prefixed(len: usize) -> usize {
    let bits = usize::BITS - (len | 1).leading_zeros();
    len + bits.div_ceil(7) as usize
}

/// The replies of one wave of same-shaped chains — a phase, or a
/// stream's pulls received together: each step's slowest site, which
/// becomes that step's stage wall once the wave is in (sites overlap; a
/// step ends when its slowest site does).
#[derive(Debug)]
pub(crate) struct Wave {
    /// Per step: the slowest site's compute so far, in nanoseconds, and
    /// the stage it is charged to.
    steps: Vec<(u64, Stage)>,
}

impl Wave {
    /// An empty wave of chains shaped like `chain`.
    pub(crate) fn new(chain: &Chain) -> Wave {
        Wave {
            steps: chain.steps.iter().map(|&(_, stage)| (0, stage)).collect(),
        }
    }

    /// Add each step's slowest site to its stage's wall.
    pub(crate) fn finish(self, metrics: &mut QueryMetrics) {
        for (nanos, stage) in self.steps {
            stage.of(metrics).wall += Duration::from_nanos(nanos);
        }
    }
}

/// The typed error a worker-side failure reply maps to: `Error` bodies
/// become [`EngineError::Worker`], `UnknownQuery` the matching typed
/// variant, anything else `None`.
fn worker_failure(site: usize, body: &ResponseBody) -> Option<EngineError> {
    match body {
        ResponseBody::Error(msg) => Some(EngineError::Worker(format!("site {site}: {msg}"))),
        ResponseBody::UnknownQuery(q) => Some(EngineError::UnknownQuery { site, query: q.0 }),
        _ => None,
    }
}

/// Unwrap a batch of replies that must all be plain acknowledgements.
pub fn expect_acks(bodies: Vec<ResponseBody>) -> Result<(), EngineError> {
    for body in bodies {
        if !matches!(body, ResponseBody::Ack) {
            return Err(EngineError::Protocol(format!("expected Ack, got {body:?}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::with_in_process_workers;
    use gstored_net::transport::TransportError;
    use gstored_partition::{DistributedGraph, HashPartitioner};
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use gstored_store::EncodedQuery;

    const Q0: QueryId = QueryId(0);

    fn setup() -> (DistributedGraph, EncodedQuery) {
        setup_sites(2)
    }

    fn setup_sites(sites: usize) -> (DistributedGraph, EncodedQuery) {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://p", "http://c"),
        ]);
        let qg =
            QueryGraph::from_query(&parse_query("SELECT * WHERE { ?x <http://p> ?y }").unwrap())
                .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(sites));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        (dist, q)
    }

    #[test]
    fn broadcast_charges_every_frame_and_takes_max_wall() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let mut stage = StageMetrics::default();
            expect_acks(
                pool.broadcast_frame(protocol::encode_install_query(Q0, &q), &mut stage)
                    .unwrap(),
            )
            .unwrap();
            let bodies = pool
                .broadcast_frame(
                    protocol::encode_request(&Request::PartialEval { query: Q0 }),
                    &mut stage,
                )
                .unwrap();
            assert_eq!(bodies.len(), 2);
            // 2 installs + 2 acks + 2 partial-eval requests + 2 replies.
            assert_eq!(stage.messages, 8);
            assert_eq!(
                stage.bytes_shipped,
                transport.counters().bytes(),
                "charged bytes are exactly the frames on the transport"
            );
            assert_eq!(stage.messages, transport.counters().frames());
        });
    }

    #[test]
    fn worker_errors_surface_with_site_id() {
        let (dist, _) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let mut stage = StageMetrics::default();
            // PartialEval without an installed query is the typed
            // unknown-query error, with the offending site.
            let err = pool.broadcast_frame(
                protocol::encode_request(&Request::PartialEval { query: Q0 }),
                &mut stage,
            );
            assert!(matches!(
                err,
                Err(EngineError::UnknownQuery { site: 0, query: 0 })
            ));
        });
    }

    #[test]
    fn gather_drains_all_sites_after_a_worker_error() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let mut stage = StageMetrics::default();
            // Every site errors (no query installed yet)...
            assert!(matches!(
                pool.broadcast_frame(
                    protocol::encode_request(&Request::PartialEval { query: Q0 }),
                    &mut stage
                ),
                Err(EngineError::UnknownQuery { .. })
            ));
            // ...but every reply was drained, so the same transport
            // serves the next exchanges without any off-by-one replies.
            expect_acks(
                pool.broadcast_frame(protocol::encode_install_query(Q0, &q), &mut stage)
                    .unwrap(),
            )
            .unwrap();
            let bodies = pool
                .broadcast_frame(
                    protocol::encode_request(&Request::PartialEval { query: Q0 }),
                    &mut stage,
                )
                .unwrap();
            assert_eq!(bodies.len(), 2);
        });
    }

    #[test]
    fn router_parks_interleaved_replies_for_their_owners() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let (qa, qb) = (QueryId(10), QueryId(11));
            let pool_a = WorkerPool::new(transport, &router, NetworkModel::instant(), qa);
            let pool_b = WorkerPool::new(transport, &router, NetworkModel::instant(), qb);
            let mut sa = StageMetrics::default();
            let mut sb = StageMetrics::default();
            // Interleave the two queries' frames on the same connections:
            // send a's install, then b's, then receive b's first — the
            // router must park a's acks for pool_a.
            for site in 0..transport.sites() {
                transport
                    .send(site, protocol::encode_install_query(qa, &q))
                    .unwrap();
            }
            for site in 0..transport.sites() {
                transport
                    .send(site, protocol::encode_install_query(qb, &q))
                    .unwrap();
            }
            expect_acks(recv_each_site(&router, transport, qb)).unwrap();
            expect_acks(recv_each_site(&router, transport, qa)).unwrap();
            // Both proceed independently to partial evaluation.
            let a = pool_a
                .broadcast_frame(
                    protocol::encode_request(&Request::PartialEval { query: qa }),
                    &mut sa,
                )
                .unwrap();
            let b = pool_b
                .broadcast_frame(
                    protocol::encode_request(&Request::PartialEval { query: qb }),
                    &mut sb,
                )
                .unwrap();
            assert_eq!(a, b, "same query text, same answers");
            pool_a.release_quietly(&mut sa);
            pool_b.release_quietly(&mut sb);
            for s in pool_a.worker_status().unwrap() {
                assert_eq!(s.resident_queries, 0, "releases drained the tables");
            }
        });
    }

    #[test]
    fn router_queues_multiple_parked_replies_per_query() {
        // A pipeline may have several replies in flight per (query,
        // site). If another pipeline drains the stream first it must
        // park ALL of them — a single-slot map would overwrite the first
        // reply with the second and strand the owner forever.
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let (qa, qb) = (QueryId(20), QueryId(21));
            let pool_b = WorkerPool::new(transport, &router, NetworkModel::instant(), qb);
            let mut sb = StageMetrics::default();
            // A queues three frames per site, then B queues its own
            // install behind them.
            for site in 0..transport.sites() {
                for frame in [
                    protocol::encode_install_query(qa, &q),
                    protocol::encode_request(&Request::PartialEval { query: qa }),
                    protocol::encode_request(&Request::ReleaseQuery { query: qa }),
                ] {
                    transport.send(site, frame).unwrap();
                }
            }
            for site in 0..transport.sites() {
                transport
                    .send(site, protocol::encode_install_query(qb, &q))
                    .unwrap();
            }
            // B reads first: it must park all three of A's replies per
            // site before reaching its own ack.
            expect_acks(recv_each_site(&router, transport, qb)).unwrap();
            // A's replies hand over from the parked queues, in order.
            for site in 0..transport.sites() {
                let next = || router.recv(transport, site, qa).unwrap().1.body;
                assert!(matches!(next(), ResponseBody::Ack), "install ack first");
                assert!(matches!(next(), ResponseBody::PartialEval { .. }));
                assert!(matches!(next(), ResponseBody::Ack), "release ack last");
            }
            pool_b.release_quietly(&mut sb);
            for s in pool_b.worker_status().unwrap() {
                assert_eq!(s.resident_queries, 0);
            }
        });
    }

    /// `query`'s next reply from every site, in site order, read
    /// straight through the router.
    fn recv_each_site(
        router: &ReplyRouter,
        transport: &dyn Transport,
        query: QueryId,
    ) -> Vec<ResponseBody> {
        (0..transport.sites())
            .map(|site| router.recv(transport, site, query).unwrap().1.body)
            .collect()
    }

    /// A fleet whose site 0 is unreachable both ways — a dead link.
    struct DeadLink<'t>(&'t dyn Transport);

    impl Transport for DeadLink<'_> {
        fn sites(&self) -> usize {
            self.0.sites()
        }
        fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
            if site == 0 {
                return Err(TransportError::Closed { site });
            }
            self.0.send(site, frame)
        }
        fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
            if site == 0 {
                return Err(TransportError::Closed { site });
            }
            self.0.recv_deadline(site, deadline)
        }
    }

    /// A fleet whose site 1 takes every frame but whose replies from it
    /// never arrive: each receive fails at once.
    struct DeafLink<'t>(&'t dyn Transport);

    impl Transport for DeafLink<'_> {
        fn sites(&self) -> usize {
            self.0.sites()
        }
        fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
            self.0.send(site, frame)
        }
        fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
            if site == 1 {
                return Err(TransportError::Io("connection reset".into()));
            }
            self.0.recv_deadline(site, deadline)
        }
    }

    #[test]
    fn a_failed_send_still_reaches_and_drains_every_other_site() {
        let (dist, q) = setup_sites(3);
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let dead = DeadLink(transport);
            let pool = WorkerPool::new(&dead, &router, NetworkModel::instant(), Q0);
            let err = pool.broadcast_frame(
                protocol::encode_install_query(Q0, &q),
                &mut StageMetrics::default(),
            );
            assert!(matches!(err, Err(EngineError::Transport(_))), "{err:?}");
            // The dead site is marked for repair, and the live sites got
            // the install and had their acks read: one frame each way.
            assert!(router.is_failed(0));
            assert!(!router.is_failed(1) && !router.is_failed(2));
            assert_eq!(transport.counters().frames(), 4);
            for slot in &router.sites {
                assert!(slot.state.lock().unwrap().parked.is_empty());
            }
            let healthy = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let resident: Vec<Option<u64>> = healthy
                .site_statuses()
                .into_iter()
                .map(|s| s.ok().map(|s| s.resident_queries))
                .collect();
            assert_eq!(resident, [None, Some(1), Some(1)]);
        });
    }

    #[test]
    fn a_failed_receive_still_drains_the_phase_so_a_release_reads_its_acks() {
        let (dist, q) = setup_sites(3);
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let deaf = DeafLink(transport);
            let pool = WorkerPool::new(&deaf, &router, NetworkModel::instant(), Q0);
            let mut metrics = QueryMetrics::default();
            let err = pool.run_phase(&three_stage_chains(&pool, &q), &mut metrics);
            assert!(matches!(err, Err(EngineError::Transport(_))), "{err:?}");
            // Sites 0 and 2 were drained, so the release reads their
            // release acks and the next exchange of the same query
            // lines up: each of them answers the status probe.
            pool.release_quietly(&mut metrics.assembly);
            let statuses = pool.site_statuses();
            for site in [0, 2] {
                let status = statuses[site].as_ref().expect("a live site answers");
                assert_eq!(status.resident_queries, 0, "site {site}");
            }
            assert!(statuses[1].is_err() && router.is_failed(1));
        });
    }

    #[test]
    fn a_quiet_release_reaches_the_sites_behind_a_dead_one() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let healthy = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let mut stage = StageMetrics::default();
            expect_acks(
                healthy
                    .broadcast_frame(protocol::encode_install_query(Q0, &q), &mut stage)
                    .unwrap(),
            )
            .unwrap();
            let dead = DeadLink(transport);
            WorkerPool::new(&dead, &router, NetworkModel::instant(), Q0)
                .release_quietly(&mut stage);
            // The release marked the dead site failed; a repair would
            // reconnect it and lift the mark before the next probe.
            assert!(router.is_failed(0));
            router.reset(0);
            let resident: Vec<u64> = healthy
                .worker_status()
                .unwrap()
                .iter()
                .map(|s| s.resident_queries)
                .collect();
            assert_eq!(resident, [1, 0], "only the unreachable site keeps it");
            healthy.release_quietly(&mut stage);
        });
    }

    /// `[InstallQuery, PartialEval, ShipSurvivors]` for every site, each
    /// step charged to a different stage.
    fn three_stage_chains(pool: &WorkerPool<'_>, q: &EncodedQuery) -> Vec<(usize, Chain)> {
        let query = pool.query();
        let chain = Chain::new(
            query,
            &[
                (protocol::encode_install_query(query, q), Stage::Candidates),
                (
                    protocol::encode_request(&Request::PartialEval { query }),
                    Stage::PartialEvaluation,
                ),
                (
                    protocol::encode_request(&Request::ShipSurvivors { query }),
                    Stage::Assembly,
                ),
            ],
        );
        (0..pool.sites())
            .map(|site| (site, chain.clone()))
            .collect()
    }

    #[test]
    fn a_phase_is_one_frame_each_way_charged_step_by_step() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let mut metrics = QueryMetrics::default();
            let replies = pool
                .run_phase(&three_stage_chains(&pool, &q), &mut metrics)
                .unwrap();
            for bodies in &replies {
                assert!(matches!(
                    bodies[..],
                    [
                        ResponseBody::Ack,
                        ResponseBody::PartialEval { .. },
                        ResponseBody::Survivors(_)
                    ]
                ));
            }
            // One frame out and one back per site, booked on the first
            // step's stage; the other steps' stages get bytes only.
            assert_eq!(metrics.candidates.messages, 4);
            assert_eq!(transport.counters().frames(), 4);
            for stage in [&metrics.partial_evaluation, &metrics.assembly] {
                assert_eq!(stage.messages, 0);
                assert!(stage.bytes_shipped > 0);
            }
            assert_eq!(metrics.total_shipped(), transport.counters().bytes());
            pool.release_quietly(&mut metrics.assembly);
        });
    }

    /// Each step's length prefix is charged to that step's own stage, in
    /// both directions: a later step past 127 bytes (a two-byte prefix)
    /// moves only its own stage, and the stages still add up to the
    /// frames on the transport.
    #[test]
    fn a_chain_step_carries_its_own_length_prefix() {
        use gstored_net::InProcessTransport;
        let (transport, endpoints) = InProcessTransport::pair(1);
        let router = ReplyRouter::new(1);
        let pool = WorkerPool::new(&transport, &router, NetworkModel::instant(), Q0);
        let release = protocol::encode_request(&Request::ReleaseQuery { query: Q0 });
        let bulky = protocol::encode_request(&Request::PartialEval { query: Q0 });
        let mut bulky = bulky.to_vec();
        bulky.resize(200, 0);
        let bulky = Bytes::from(bulky);
        let chain = Chain::new(
            Q0,
            &[
                (release.clone(), Stage::Candidates),
                (bulky.clone(), Stage::Assembly),
            ],
        );
        let mut metrics = QueryMetrics::default();
        pool.send(0, &chain, &mut metrics).unwrap();
        assert_eq!(metrics.assembly.bytes_shipped, 200 + 2);
        assert_eq!(
            metrics.candidates.bytes_shipped,
            chain.frame.len() as u64 - 202
        );

        let reply = |body: ResponseBody| {
            protocol::encode_response(&Response {
                elapsed_nanos: 0,
                query: Q0,
                body,
            })
        };
        let ack = reply(ResponseBody::Ack);
        let error = reply(ResponseBody::Error("x".repeat(300)));
        assert!(endpoints[0].send(reply(ResponseBody::Chain(vec![ack.clone(), error.clone()]))));
        let mut metrics = QueryMetrics::default();
        let mut wave = Wave::new(&chain);
        let got = pool.receive(0, &chain, &mut wave, &mut metrics);
        assert!(matches!(got, Err(EngineError::Worker(_))), "{got:?}");
        assert_eq!(
            metrics.assembly.bytes_shipped,
            error.len() as u64 + 2,
            "the error step and its two-byte prefix"
        );
        assert_eq!(
            metrics.total_shipped() + chain.frame.len() as u64,
            transport.counters().bytes()
        );
        assert_eq!(prefixed(127), 128);
        assert_eq!(prefixed(128), 130);
        assert_eq!(prefixed(0), 1);
    }

    #[test]
    fn a_failed_step_ends_its_chain_and_the_phase_still_drains() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, NetworkModel::instant(), Q0);
            let mut metrics = QueryMetrics::default();
            // The query is already resident on site 1, so that site's
            // chain fails at its install while site 0's runs through.
            let resident = Chain::new(
                Q0,
                &[(protocol::encode_install_query(Q0, &q), Stage::Candidates)],
            );
            pool.run_phase(&[(1, resident)], &mut metrics).unwrap();
            let err = pool.run_phase(&three_stage_chains(&pool, &q), &mut metrics);
            assert!(
                matches!(&err, Err(EngineError::Worker(msg)) if msg.contains("site 1")),
                "{err:?}"
            );
            // Both replies were drained: the next exchange lines up.
            pool.release_quietly(&mut metrics.assembly);
            for s in pool.worker_status().unwrap() {
                assert_eq!(s.resident_queries, 0);
            }
        });
    }

    #[test]
    fn undecodable_reply_fails_every_site_reader_instead_of_deadlocking() {
        use gstored_net::{InProcessTransport, Transport as _};
        // A "worker" that answers every frame with garbage: the reply's
        // owner is unknowable, so the router must fail the site for ALL
        // pipelines — including one whose reply can now never arrive.
        let (transport, mut endpoints) = InProcessTransport::pair(1);
        let ep = endpoints.pop().unwrap();
        let garbler = std::thread::spawn(move || {
            while let Some(_frame) = ep.recv() {
                if !ep.send(Bytes::from_static(&[0xff, 0xff, 0xff])) {
                    break;
                }
            }
        });
        let router = ReplyRouter::new(1);
        transport.send(0, Bytes::from_static(b"a")).unwrap();
        transport.send(0, Bytes::from_static(b"b")).unwrap();
        std::thread::scope(|scope| {
            let waiters: Vec<_> = [QueryId(1), QueryId(2)]
                .into_iter()
                .map(|q| {
                    let router = &router;
                    let transport = &transport;
                    scope.spawn(move || router.recv(transport, 0, q))
                })
                .collect();
            for w in waiters {
                // Both the reader that consumed the garbage and the
                // pipeline whose reply is lost get an error promptly.
                assert!(w.join().unwrap().is_err());
            }
        });
        drop(transport);
        garbler.join().unwrap();
    }

    #[test]
    fn disconnect_mid_stage_fails_every_in_flight_query() {
        use gstored_net::{InProcessTransport, Transport as _};
        // A worker that dies mid-stage: consumes one request, replies to
        // nothing, hangs up. Both in-flight queries must get the typed
        // Transport error instead of one of them blocking forever.
        let (transport, mut endpoints) = InProcessTransport::pair(1);
        let ep = endpoints.pop().unwrap();
        let worker = std::thread::spawn(move || {
            let _ = ep.recv();
            drop(ep);
        });
        let router = ReplyRouter::new(1);
        transport.send(0, Bytes::from_static(b"a")).unwrap();
        std::thread::scope(|scope| {
            let waiters: Vec<_> = [QueryId(1), QueryId(2)]
                .into_iter()
                .map(|q| {
                    let router = &router;
                    let transport = &transport;
                    scope.spawn(move || router.recv(transport, 0, q))
                })
                .collect();
            for w in waiters {
                let err = w.join().unwrap();
                assert!(matches!(err, Err(EngineError::Transport(_))));
            }
        });
        worker.join().unwrap();
    }

    #[test]
    fn executor_caps_concurrent_admissions() {
        let executor = QueryExecutor::new(2);
        let t1 = executor.admit();
        let t2 = executor.admit();
        assert_ne!(t1.query(), t2.query());
        // A third admission must block until a ticket drops.
        let blocked = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let t3 = executor.admit();
                blocked.store(false, Ordering::SeqCst);
                t3.query()
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(blocked.load(Ordering::SeqCst), "third admission waits");
            drop(t1);
            let q3 = handle.join().unwrap();
            assert_ne!(q3, t2.query());
        });
    }

    #[test]
    fn executor_never_allocates_the_control_id() {
        let executor = QueryExecutor::new(1);
        // Force the counter to the reserved value and check it is skipped.
        executor.next_id.store(u32::MAX, Ordering::Relaxed);
        let t = executor.admit();
        assert_ne!(t.query(), QueryId::CONTROL);
    }

    #[test]
    fn expect_acks_rejects_data_replies() {
        assert!(expect_acks(vec![ResponseBody::Ack, ResponseBody::Ack]).is_ok());
        assert!(matches!(
            expect_acks(vec![ResponseBody::Bindings(vec![])]),
            Err(EngineError::Protocol(_))
        ));
    }

    #[test]
    fn network_model_prices_frames() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let model = NetworkModel::new(Duration::from_millis(1), 1_000_000);
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, model.clone(), Q0);
            let mut stage = StageMetrics::default();
            expect_acks(
                pool.broadcast_frame(protocol::encode_install_query(Q0, &q), &mut stage)
                    .unwrap(),
            )
            .unwrap();
            // 4 frames => at least 4 ms of simulated latency, plus the
            // bandwidth-limited transfer of the actual bytes.
            assert!(stage.network >= Duration::from_millis(4));
            let batch = model.transfer_time(stage.messages, stage.bytes_shipped);
            let diff = stage.network.abs_diff(batch);
            assert!(diff < Duration::from_micros(1), "per-frame pricing sums");
        });
    }

    #[test]
    fn paced_pool_waits_out_the_simulated_network() {
        let (dist, q) = setup();
        with_in_process_workers(&dist, |transport| {
            let model = NetworkModel::new(Duration::from_millis(2), u64::MAX);
            let router = ReplyRouter::new(transport.sites());
            let pool = WorkerPool::new(transport, &router, model, Q0).with_pacing(true);
            let mut stage = StageMetrics::default();
            let started = std::time::Instant::now();
            expect_acks(
                pool.broadcast_frame(protocol::encode_install_query(Q0, &q), &mut stage)
                    .unwrap(),
            )
            .unwrap();
            // 4 frames x 2 ms of latency actually slept.
            assert!(started.elapsed() >= Duration::from_millis(8));
        });
    }
}
