//! The `GStoreD` session facade: prepare once, execute many.
//!
//! [`GStoreD`] is the top-level handle of the system. It owns the
//! partitioned data ([`DistributedGraph`]) and the distributed engine,
//! and exposes the production query path:
//!
//! 1. [`GStoreD::builder`] — load triples / N-Triples, pick a
//!    [`Partitioner`] and [`EngineConfig`], build the handle.
//! 2. [`GStoreD::prepare`] — parse → lower to a query graph → encode
//!    against the dictionary → analyze shape, **exactly once**, yielding
//!    a reusable [`PreparedQuery`].
//! 3. [`PreparedQuery::execute`] — run only the per-execution engine
//!    stages, yielding [`QueryResults`] whose [`QuerySolution`] rows are
//!    addressable by variable name (`sol["x"]`) or projection index, with
//!    terms decoded lazily from the dictionary.
//!
//! See [`gstored_core::prepared`] for the exact prepare-time /
//! execution-time split.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gstored_core::engine::{Backend, Engine, EngineConfig, QueryOutput, StreamState, Variant};
use gstored_core::planner::{plan_query, PlanExplain, PlannerDecision};
use gstored_core::prepared::PreparedPlan;
use gstored_core::protocol::QueryId;
use gstored_core::runtime::{QueryExecutor, QueryTicket, ReplyRouter, WorkerPool};
use gstored_core::worker::SiteWorker;
use gstored_core::{EngineError, WorkerStatus, MAX_SITES};
use gstored_net::{
    ChaosConfig, ChaosTransport, InProcessTransport, NetworkModel, QueryMetrics, Transport,
};
use gstored_partition::{DistributedGraph, HashPartitioner, PartitionAssignment, Partitioner};
use gstored_rdf::{parse_ntriples, Dictionary, RdfGraph, Term, Triple, VertexId};
use gstored_sparql::{parse_query, QueryGraph, ShapeReport};

use crate::error::Error;

/// Running counters of a session's query activity.
///
/// `queries_prepared` moves once per [`GStoreD::prepare`] call;
/// `executions` moves once per [`PreparedQuery::execute`]. The gap between
/// the two is the amortization the prepared path exists for — tests assert
/// on it to prove that re-executing a [`PreparedQuery`] never re-parses,
/// re-encodes or re-analyzes. `planner_decisions` moves once per
/// planner variant resolution, which only [`Variant::Auto`] sessions
/// perform — tests assert it stays zero for explicit variants, proving
/// they never pay for planning or partition-statistics collection.
#[derive(Debug, Default)]
struct SessionCounters {
    queries_prepared: AtomicU64,
    executions: AtomicU64,
    planner_decisions: AtomicU64,
}

/// A point-in-time snapshot of [`GStoreD::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Number of `prepare` calls (parse + encode + analyze cycles).
    pub queries_prepared: u64,
    /// Number of engine executions.
    pub executions: u64,
    /// Number of planner resolutions (always zero unless the
    /// session was built with [`Variant::Auto`]).
    pub planner_decisions: u64,
}

/// Running counters of the fleet's failure handling, mirrored into
/// [`RobustnessStats`] snapshots.
#[derive(Debug, Default)]
struct RobustnessCounters {
    timeouts: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    repairs: AtomicU64,
    repairs_failed: AtomicU64,
}

/// A point-in-time snapshot of [`GStoreD::robustness_stats`]: how often
/// the session's failure-handling machinery has fired. All zeros on a
/// healthy fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessStats {
    /// Query pipelines that hit their [`EngineConfig::query_deadline`].
    pub timeouts: u64,
    /// Executions retried after a successful recovery (each retry runs
    /// under a fresh query id; a retry is attempted at most once per
    /// execution).
    pub retries: u64,
    /// Successful transport-level reconnects to individual sites.
    pub reconnects: u64,
    /// Completed single-site repairs (reconnect + router reset +
    /// fragment re-install).
    pub repairs: u64,
    /// Repairs abandoned after exhausting every backoff attempt or the
    /// query deadline; the triggering query surfaced
    /// [`EngineError::SiteUnavailable`].
    pub repairs_failed: u64,
}

/// Liveness and state-table occupancy of one site worker, as reported by
/// [`GStoreD::site_health`]. Exactly one of `status` / `error` is `Some`.
#[derive(Debug, Clone)]
pub struct SiteHealth {
    /// The site (fragment) index.
    pub site: usize,
    /// The worker's status reply, when it answered within the probe
    /// deadline.
    pub status: Option<WorkerStatus>,
    /// Why the probe failed (timeout, transport breakage), when it did.
    pub error: Option<String>,
}

impl SiteHealth {
    /// Whether the site answered its status probe.
    pub fn is_alive(&self) -> bool {
        self.status.is_some()
    }
}

/// Bounded retry schedule for single-site repair: up to
/// [`REPAIR_ATTEMPTS`] reconnect attempts, sleeping [`REPAIR_BACKOFF`]
/// before each retry and doubling up to [`REPAIR_BACKOFF_CAP`], all
/// within one [`EngineConfig::query_deadline`] from the repair's start.
const REPAIR_ATTEMPTS: u32 = 4;
const REPAIR_BACKOFF: Duration = Duration::from_millis(50);
const REPAIR_BACKOFF_CAP: Duration = Duration::from_secs(1);
/// The longest a repair attempt waits for the re-installed fragment's
/// `Ack`; less when the repair's deadline is nearer.
const REINSTALL_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-site deadline of one [`GStoreD::site_health`] probe.
const HEALTH_PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// The session's connected worker fleet, shared by every concurrent
/// query, and the owner of its recovery: the transport (in-process
/// channels or TCP sockets), the reply router demultiplexing
/// interleaved replies, what a repair needs, and the counters it moves.
/// In-process site handlers run on the transport's executor pool.
///
/// Established on first execution and kept for the session's lifetime:
/// a broken site is repaired in place, so the fleet is never replaced.
/// For TCP, the fragments ship once at establishment (deployment setup);
/// in-process workers borrow them through the session's
/// `Arc<DistributedGraph>`.
struct Fleet {
    transport: Box<dyn Transport>,
    router: ReplyRouter,
    /// One lock per site, serializing repairs of that site: concurrent
    /// pipelines that all tripped over the same dead worker take turns
    /// instead of racing reconnects against each other.
    repair_locks: Vec<Mutex<()>>,
    /// The fragments a repair re-installs.
    dist: Arc<DistributedGraph>,
    /// The budget of one repair: the session's query deadline.
    repair_deadline: Option<Duration>,
    robustness: RobustnessCounters,
}

impl Fleet {
    /// Wrap a connected fleet transport, behind the fault-injection
    /// wrapper when the config asks for it; the fault-free path gets the
    /// bare transport, no indirection.
    fn new(
        transport: impl Transport + 'static,
        dist: &Arc<DistributedGraph>,
        config: &EngineConfig,
    ) -> Fleet {
        let sites = transport.sites();
        let transport: Box<dyn Transport> = match &config.chaos {
            Some(chaos) => Box::new(ChaosTransport::new(transport, chaos.clone())),
            None => Box::new(transport),
        };
        Fleet {
            transport,
            router: ReplyRouter::new(sites),
            repair_locks: (0..sites).map(|_| Mutex::new(())).collect(),
            dist: Arc::clone(dist),
            repair_deadline: config.query_deadline,
            robustness: RobustnessCounters::default(),
        }
    }

    fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    /// An unpaced handle on the fleet for `query`'s operational
    /// exchanges (status, health, fragment installs), every receive
    /// bounded by `timeout` from now.
    fn pool(&self, query: QueryId, timeout: Option<Duration>) -> WorkerPool<'_> {
        WorkerPool::new(
            self.transport(),
            &self.router,
            NetworkModel::default(),
            query,
        )
        .with_deadline(timeout.map(|t| Instant::now() + t))
    }

    /// React to an execution failure: repair every site it implicates —
    /// the router-marked sites (a broken connection or an undecodable
    /// frame), plus the site of a [`EngineError::Timeout`], whose
    /// connection may be wedged (a hung worker never produces the reply,
    /// so re-dialing is the only way back to a known-clean frame
    /// boundary). Returns whether any site was repaired, so a retry is
    /// worthwhile; a failure that implicates no site repairs nothing. A
    /// repair that fails surfaces as its [`EngineError::SiteUnavailable`].
    fn recover(&self, error: &EngineError) -> Result<bool, EngineError> {
        let timed_out = match error {
            EngineError::Timeout { site, .. } => {
                self.robustness.timeouts.fetch_add(1, Ordering::Relaxed);
                Some(*site)
            }
            EngineError::Transport(_) | EngineError::Protocol(_) => None,
            _ => return Ok(false),
        };
        let sites: Vec<usize> = (0..self.router.sites())
            .filter(|&site| timed_out == Some(site) || self.router.is_failed(site))
            .collect();
        for &site in &sites {
            self.repair_site(site)?;
        }
        Ok(!sites.is_empty())
    }

    /// Bring one dead site back: reconnect the transport, clear the
    /// router's sticky failure, and re-ship the site's fragment, waiting
    /// for the worker's `Ack` — a one-site exchange under
    /// [`QueryId::CONTROL`], the id the reply is stamped with. Runs
    /// under capped exponential backoff ([`REPAIR_ATTEMPTS`] attempts)
    /// and within one query deadline from the start. Serialized per site
    /// by the repair lock, so concurrent queries that all tripped over
    /// the same dead worker produce one repair sequence, not a stampede
    /// of reconnects. In the rare race where a concurrently reading
    /// pipeline consumes the `Ack` first, the attempt times out and the
    /// next one retries after backoff.
    ///
    /// Exhausting every attempt or the deadline surfaces
    /// [`EngineError::SiteUnavailable`] — the typed signal the HTTP
    /// layer maps to `503 Service Unavailable` + `Retry-After`.
    fn repair_site(&self, site: usize) -> Result<(), EngineError> {
        let _guard = self.repair_locks[site]
            .lock()
            .expect("repair lock poisoned");
        let deadline = self.repair_deadline.map(|d| Instant::now() + d);
        // What is left of the repair's deadline, capped at `cap`; `None`
        // once it has passed.
        let left = |cap: Duration| {
            let left = deadline.map_or(cap, |d| {
                d.saturating_duration_since(Instant::now()).min(cap)
            });
            (!left.is_zero()).then_some(left)
        };
        let mut backoff = REPAIR_BACKOFF;
        let mut last_err = String::from("never connected");
        for attempt in 0..REPAIR_ATTEMPTS {
            if attempt > 0 {
                let Some(pause) = left(backoff) else { break };
                std::thread::sleep(pause);
                backoff = (backoff * 2).min(REPAIR_BACKOFF_CAP);
            }
            let Some(wait) = left(REINSTALL_TIMEOUT) else {
                break;
            };
            if let Err(e) = self.transport().reconnect(site) {
                last_err = e.to_string();
                continue;
            }
            self.robustness.reconnects.fetch_add(1, Ordering::Relaxed);
            self.router.reset(site);
            match self
                .pool(QueryId::CONTROL, Some(wait))
                .ship_fragments([(site, &self.dist.fragments[site])])
            {
                Ok(()) => {
                    self.robustness.repairs.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => last_err = e.to_string(),
            }
        }
        self.robustness
            .repairs_failed
            .fetch_add(1, Ordering::Relaxed);
        Err(EngineError::SiteUnavailable {
            site,
            reason: format!("repair gave up; last error: {last_err}"),
        })
    }
}

/// Persistent in-process workers: one step handler per fragment on the
/// site executor's pool of `min(available_parallelism(), sites)` threads, borrowing
/// the fragments through the session's shared graph. The state-table
/// capacity must exceed the session's admission bound, or legitimate
/// concurrent load would LRU-evict in-flight queries; remote
/// `gstored-worker` processes need the same headroom via `--capacity`.
fn in_process_workers(dist: &Arc<DistributedGraph>, max_concurrent: usize) -> InProcessTransport {
    let capacity =
        gstored_core::worker::DEFAULT_QUERY_CAPACITY.max(max_concurrent.saturating_mul(2));
    let dist = Arc::clone(dist);
    InProcessTransport::pooled(dist.fragment_count(), move |site| {
        let mut worker = SiteWorker::for_site(Arc::clone(&dist), site).with_capacity(capacity);
        move |frame| worker.handle(frame)
    })
}

/// How the builder receives its data.
enum DataSource {
    Empty,
    Triples(Vec<Triple>),
    Graph(Box<RdfGraph>),
}

/// Builder for a [`GStoreD`] session.
///
/// Data source, partitioning strategy and engine knobs are all optional;
/// the defaults are an empty graph, [`HashPartitioner`] over 3 sites and
/// the full gStoreD variant.
pub struct GStoreDBuilder {
    data: DataSource,
    partitioner: Option<Box<dyn Partitioner>>,
    assignment: Option<PartitionAssignment>,
    prebuilt: Option<DistributedGraph>,
    config: EngineConfig,
}

impl GStoreDBuilder {
    fn new() -> Self {
        GStoreDBuilder {
            data: DataSource::Empty,
            partitioner: None,
            assignment: None,
            prebuilt: None,
            config: EngineConfig::default(),
        }
    }

    /// Load data from an N-Triples document.
    pub fn ntriples(mut self, text: &str) -> Result<Self, Error> {
        let triples = parse_ntriples(text)?;
        self.data = DataSource::Triples(triples);
        Ok(self)
    }

    /// Load data from decoded triples.
    pub fn triples(mut self, triples: Vec<Triple>) -> Self {
        self.data = DataSource::Triples(triples);
        self
    }

    /// Load a pre-built RDF graph.
    pub fn graph(mut self, graph: RdfGraph) -> Self {
        self.data = DataSource::Graph(Box::new(graph));
        self
    }

    /// Partitioning strategy (default: [`HashPartitioner`] over 3 sites).
    pub fn partitioner(mut self, partitioner: impl Partitioner + 'static) -> Self {
        self.partitioner = Some(Box::new(partitioner));
        self
    }

    /// Boxed form of [`GStoreDBuilder::partitioner`], for strategies
    /// picked at runtime (e.g. the `gstored-server --partitioner` flag).
    pub fn partitioner_boxed(mut self, partitioner: Box<dyn Partitioner>) -> Self {
        self.partitioner = Some(partitioner);
        self
    }

    /// Fixed vertex→fragment assignment, overriding the partitioner
    /// (used for explicit layouts such as the paper's Fig. 1).
    pub fn assignment(mut self, assignment: PartitionAssignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Adopt an already-partitioned graph (used when the partitioning is
    /// computed separately, e.g. selected by the Section VII cost model).
    /// Mutually exclusive with the data-source and partitioning options;
    /// combining them is an [`Error::InvalidConfig`] at build time.
    pub fn distributed(mut self, dist: DistributedGraph) -> Self {
        self.prebuilt = Some(dist);
        self
    }

    /// Full engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Engine variant shorthand (keeps the other knobs at their defaults
    /// or previously set values).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Per-query deadline budget (`None` waits forever). See
    /// [`EngineConfig::query_deadline`].
    pub fn query_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.query_deadline = deadline;
        self
    }

    /// Inject deterministic transport faults (latency, drops, truncated
    /// and corrupted frames, disconnects, hangs) between the session and
    /// its fleet — the chaos-testing hook. See [`EngineConfig::chaos`].
    pub fn chaos(mut self, config: ChaosConfig) -> Self {
        self.config.chaos = Some(config);
        self
    }

    /// How many query pipelines the session admits onto its shared
    /// worker fleet at once (minimum 1; default 8). Further concurrent
    /// callers queue until a slot frees.
    pub fn max_concurrent_queries(mut self, max: usize) -> Self {
        self.config.max_concurrent_queries = max;
        self
    }

    /// Distributed runtime backend: in-process worker threads (default)
    /// or remote `gstored-worker` processes over TCP. Both exchange
    /// byte-identical protocol frames, so results and shipment metrics
    /// do not depend on this choice.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Shorthand for [`GStoreDBuilder::backend`] with [`Backend::Tcp`]:
    /// one worker address per fragment, in fragment order.
    pub fn tcp_workers<S: Into<String>>(self, workers: impl IntoIterator<Item = S>) -> Self {
        self.backend(Backend::Tcp {
            workers: workers.into_iter().map(Into::into).collect(),
        })
    }

    /// Build the session: materialize the graph, partition it, validate
    /// the Definition 1 invariants, and stand up the engine. A fleet of
    /// more than [`MAX_SITES`] sites is refused with
    /// [`EngineError::TooManySites`].
    pub fn build(self) -> Result<GStoreD, Error> {
        let dist = match self.prebuilt {
            Some(dist) => {
                if !matches!(self.data, DataSource::Empty)
                    || self.partitioner.is_some()
                    || self.assignment.is_some()
                {
                    return Err(Error::InvalidConfig(
                        "distributed() supplies already-partitioned data; it cannot be \
                         combined with a data source, partitioner or assignment"
                            .into(),
                    ));
                }
                dist
            }
            None => {
                let mut graph = match self.data {
                    DataSource::Empty => RdfGraph::new(),
                    DataSource::Triples(triples) => RdfGraph::from_triples(triples),
                    DataSource::Graph(g) => *g,
                };
                graph.finalize();
                match (self.assignment, self.partitioner) {
                    (Some(assignment), _) => {
                        if assignment.k == 0 {
                            return Err(Error::InvalidConfig(
                                "partition assignment must target at least one fragment".into(),
                            ));
                        }
                        DistributedGraph::build_with_assignment(graph, assignment)
                    }
                    (None, Some(p)) => {
                        if p.num_fragments() == 0 {
                            return Err(Error::InvalidConfig(format!(
                                "partitioner {} produces zero fragments",
                                p.name()
                            )));
                        }
                        DistributedGraph::build(graph, p.as_ref())
                    }
                    (None, None) => DistributedGraph::build(graph, &HashPartitioner::new(3)),
                }
            }
        };
        if dist.fragment_count() > MAX_SITES {
            return Err(EngineError::TooManySites(dist.fragment_count()).into());
        }
        if let Some(violation) = dist.validate() {
            return Err(Error::InvalidConfig(format!(
                "partitioning violates Definition 1: {violation}"
            )));
        }
        Ok(GStoreD::assemble(dist, self.config))
    }
}

/// A gStoreD session: partitioned data + engine + the concurrent query
/// scheduler. All methods take `&self`; sessions are `Send + Sync` and
/// serve **concurrent queries**: any number of threads can prepare and
/// execute at once, sharing one persistent worker fleet, with up to
/// [`EngineConfig::max_concurrent_queries`] pipelines admitted at a time
/// (further callers queue).
///
/// ```
/// use gstored::prelude::*;
///
/// let db = GStoreD::builder()
///     .ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .")?
///     .build()?;
/// std::thread::scope(|scope| {
///     for _ in 0..2 {
///         scope.spawn(|| db.query("SELECT * WHERE { ?s <http://ex/p> ?o }").unwrap().len());
///     }
/// });
/// # Ok::<(), gstored::Error>(())
/// ```
pub struct GStoreD {
    dist: Arc<DistributedGraph>,
    engine: Engine,
    counters: SessionCounters,
    /// Allocates query ids and admits up to `max_concurrent_queries`
    /// pipelines onto the shared fleet at once.
    executor: QueryExecutor,
    /// The session's worker fleet (both backends), established on first
    /// execution and kept for the session's lifetime, so for TCP the
    /// fragments ship exactly once. A failure that implicates a site is
    /// repaired in place (reconnect and fragment re-install).
    fleet: OnceLock<Fleet>,
    /// Held while the fleet is being established, so concurrent first
    /// executions dial the workers once.
    dialing: Mutex<()>,
    /// The most recent [`Variant::Auto`] planner verdict, surfaced via
    /// [`GStoreD::last_planner_decision`] and the server's `/status`.
    /// Stays `None` forever on explicit-variant sessions.
    last_planner: Mutex<Option<PlannerDecision>>,
}

impl GStoreD {
    /// Start configuring a session.
    pub fn builder() -> GStoreDBuilder {
        GStoreDBuilder::new()
    }

    fn assemble(dist: DistributedGraph, config: EngineConfig) -> GStoreD {
        let executor = QueryExecutor::new(config.max_concurrent_queries);
        GStoreD {
            dist: Arc::new(dist),
            engine: Engine::new(config),
            counters: SessionCounters::default(),
            executor,
            fleet: OnceLock::new(),
            dialing: Mutex::new(()),
            last_planner: Mutex::new(None),
        }
    }

    /// Prepare a SPARQL query for repeated execution.
    ///
    /// Parsing, lowering, dictionary encoding and shape analysis happen
    /// here, exactly once; the returned handle only re-runs the
    /// per-execution engine stages.
    pub fn prepare(&self, sparql: &str) -> Result<PreparedQuery<'_>, Error> {
        let ast = parse_query(sparql)?;
        let query = QueryGraph::from_query(&ast)?;
        let plan = PreparedPlan::new(query, self.dist.dict())?;
        self.counters
            .queries_prepared
            .fetch_add(1, Ordering::Relaxed);
        Ok(PreparedQuery {
            session: self,
            plan: Arc::new(plan),
            text: sparql.to_string(),
        })
    }

    /// One-shot convenience: prepare and execute once.
    pub fn query(&self, sparql: &str) -> Result<QueryResults<'_>, Error> {
        self.prepare(sparql)?.execute()
    }

    /// The partitioned data.
    pub fn distributed_graph(&self) -> &DistributedGraph {
        &self.dist
    }

    /// The term dictionary shared by all fragments.
    pub fn dictionary(&self) -> &Dictionary {
        self.dist.dict()
    }

    /// The engine (read-only; variant and knobs are fixed at build time).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of fragments the data is partitioned into.
    pub fn fragment_count(&self) -> usize {
        self.dist.fragment_count()
    }

    /// Run `attempt` as one of the session's concurrent queries on
    /// `fleet`: wait for an admission slot, then drive it under a fresh
    /// query id. Returns the ticket (held until the caller is done with
    /// the fleet), the attempt's value, and whether the one retry was
    /// spent. `failed` is a first attempt that already failed — a stream
    /// that broke before delivering anything — to recover from before
    /// the retry.
    ///
    /// Every failure goes through [`Fleet::recover`]: the sites it
    /// implicates are repaired (reconnect + fragment re-install) and the
    /// attempt is **retried once** under a fresh query id — an attempt
    /// that has delivered nothing is idempotent, so a retry is always
    /// safe. A failed retry is repaired too, so the next execution finds
    /// the fleet healthy. A failure that implicates no site (worker
    /// errors, evicted query ids, plan validation, an unattributed
    /// transport or protocol error) is returned as it is: repairing what
    /// every concurrent caller shares over one query's error would turn
    /// a local failure into a global stall.
    fn admitted<T>(
        &self,
        fleet: &Fleet,
        mut failed: Option<EngineError>,
        mut attempt: impl FnMut(QueryId) -> Result<T, EngineError>,
    ) -> Result<(QueryTicket<'_>, T, bool), EngineError> {
        let mut recovered = false;
        loop {
            if let Some(err) = failed.take() {
                let repaired = fleet.recover(&err)?;
                if recovered || !repaired {
                    return Err(err);
                }
                fleet.robustness.retries.fetch_add(1, Ordering::Relaxed);
                recovered = true;
            }
            // The ticket of a failed attempt drops before the repair
            // above, so a slow repair does not hold an admission slot.
            let ticket = self.executor.admit();
            match attempt(ticket.query()) {
                Ok(value) => return Ok((ticket, value, recovered)),
                Err(e) => failed = Some(e),
            }
        }
    }

    /// Admit `plan` and start its stream: [`GStoreD::admitted`] around
    /// the stream's eager front half.
    fn start_stream(
        &self,
        fleet: &Fleet,
        plan: &PreparedPlan,
        chunk: usize,
        failed: Option<EngineError>,
    ) -> Result<(QueryTicket<'_>, StreamState, bool), Error> {
        Ok(self.admitted(fleet, failed, |query| {
            let (transport, router) = (fleet.transport(), &fleet.router);
            self.engine
                .start_stream(transport, router, &self.dist, plan, query, chunk)
        })?)
    }

    /// The session's fleet, establishing it if this is the first
    /// execution. A failed establishment leaves nothing behind, so the
    /// next call dials again.
    fn fleet(&self) -> Result<&Fleet, EngineError> {
        let _dialing = self.dialing.lock().expect("fleet dial lock poisoned");
        if let Some(fleet) = self.fleet.get() {
            return Ok(fleet);
        }
        let config = self.engine.config();
        let fleet = match &config.backend {
            Backend::InProcess => Fleet::new(
                in_process_workers(&self.dist, config.max_concurrent_queries),
                &self.dist,
                config,
            ),
            // The fragment install waits under the query deadline, so a
            // silent worker costs this (dial-locked) call one deadline,
            // not forever.
            Backend::Tcp { .. } => {
                Fleet::new(self.engine.connect_workers(&self.dist)?, &self.dist, config)
            }
        };
        Ok(self.fleet.get_or_init(|| fleet))
    }

    /// Probe every site worker's state-table occupancy (resident
    /// queries, resident LPMs, capacity, evictions).
    ///
    /// An operational observability call — it takes an admission slot
    /// like a query (so the probe itself is flow-controlled) but charges
    /// nothing to any query's metrics. Establishes the fleet if no query
    /// has run yet. The no-leak tests assert through this that completed
    /// queries leave every site's table empty.
    pub fn fleet_status(&self) -> Result<Vec<WorkerStatus>, Error> {
        let ticket = self.executor.admit();
        let fleet = self.fleet()?;
        let deadline = self.engine.config().query_deadline;
        let status = fleet.pool(ticket.query(), deadline).worker_status();
        if let Err(e) = &status {
            // Same containment as queries: repair the implicated sites.
            let _ = fleet.recover(e);
        }
        Ok(status?)
    }

    /// Probe each site worker individually for liveness: send every site
    /// a status request, then collect the replies under one shared
    /// `HEALTH_PROBE_TIMEOUT` deadline, so k hung sites cost one timeout,
    /// not k. Unlike [`GStoreD::fleet_status`], one dead site does not
    /// fail the call — its entry reports the error and the remaining
    /// sites are still probed. This is the `/health` endpoint's data
    /// source.
    ///
    /// Takes an admission slot like a query (the probe itself is
    /// flow-controlled) and establishes the fleet if no query has run
    /// yet.
    pub fn site_health(&self) -> Result<Vec<SiteHealth>, Error> {
        let ticket = self.executor.admit();
        let fleet = self.fleet()?;
        let pool = fleet.pool(ticket.query(), Some(HEALTH_PROBE_TIMEOUT));
        pool.set_stage("health");
        let statuses = pool.site_statuses();
        Ok(statuses
            .into_iter()
            .enumerate()
            .map(|(site, status)| SiteHealth {
                site,
                error: status.as_ref().err().map(ToString::to_string),
                status: status.ok(),
            })
            .collect())
    }

    /// Snapshot of the session's failure-handling counters: deadline
    /// expiries, retried executions, and per-site reconnects/repairs.
    pub fn robustness_stats(&self) -> RobustnessStats {
        let Some(fleet) = self.fleet.get() else {
            return RobustnessStats::default();
        };
        let counters = &fleet.robustness;
        RobustnessStats {
            timeouts: counters.timeouts.load(Ordering::Relaxed),
            retries: counters.retries.load(Ordering::Relaxed),
            reconnects: counters.reconnects.load(Ordering::Relaxed),
            repairs: counters.repairs.load(Ordering::Relaxed),
            repairs_failed: counters.repairs_failed.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the session's prepare/execute counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries_prepared: self.counters.queries_prepared.load(Ordering::Relaxed),
            executions: self.counters.executions.load(Ordering::Relaxed),
            planner_decisions: self.counters.planner_decisions.load(Ordering::Relaxed),
        }
    }

    /// The most recent [`Variant::Auto`] planner verdict, when the
    /// session has resolved one (`None` on explicit-variant sessions and
    /// before the first Auto execution). Surfaced in the server's
    /// `/status`.
    pub fn last_planner_decision(&self) -> Option<PlannerDecision> {
        self.last_planner.lock().expect("planner lock").clone()
    }

    /// Account one planner verdict: bump the counter and remember the
    /// decision for [`GStoreD::last_planner_decision`]. No-op for
    /// explicit-variant executions (which carry no decision).
    fn record_planner(&self, decision: Option<&PlannerDecision>) {
        if let Some(decision) = decision {
            self.counters
                .planner_decisions
                .fetch_add(1, Ordering::Relaxed);
            *self.last_planner.lock().expect("planner lock") = Some(decision.clone());
        }
    }
}

impl std::fmt::Debug for GStoreD {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GStoreD")
            .field("fragments", &self.dist.fragment_count())
            .field("dictionary_terms", &self.dist.dict().len())
            .field("variant", &self.engine.config().variant)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A query prepared against one session, executable any number of times.
///
/// Holds the cached [`PreparedPlan`] (encoded query + shape analysis) and
/// borrows the session, so a prepared query can never outlive — or be run
/// against — a different graph than the one it was encoded for.
#[derive(Debug)]
pub struct PreparedQuery<'s> {
    session: &'s GStoreD,
    /// Shared with the streams started from it, which may restart.
    plan: Arc<PreparedPlan>,
    text: String,
}

impl<'s> PreparedQuery<'s> {
    /// Execute the prepared plan, running only per-execution stages: the
    /// same pipeline as [`PreparedQuery::stream_with_chunk`]`(usize::MAX)`,
    /// drained, with the rows sorted. Unlike a stream, a failure anywhere
    /// in it is repaired and retried once, since nothing was delivered.
    pub fn execute(&self) -> Result<QueryResults<'s>, Error> {
        let session = self.session;
        let fleet = session.fleet()?;
        let (_, output, _) = session.admitted(fleet, None, |query| {
            let (transport, router) = (fleet.transport(), &fleet.router);
            let (engine, dist) = (&session.engine, &session.dist);
            engine.execute_routed(transport, router, dist, &self.plan, query)
        })?;
        session.record_planner(output.planner.as_ref());
        session.counters.executions.fetch_add(1, Ordering::Relaxed);
        Ok(QueryResults {
            dict: session.dist.dict(),
            variables: self.plan.projection().to_vec(),
            output,
        })
    }

    /// Execute the prepared plan as a **pull-based stream**: solutions
    /// surface as soon as they are assembled, with survivors crossing
    /// the fleet in bounded chunks instead of one full-fleet gather. The
    /// coordinator holds the survivors received so far plus the distinct
    /// bindings emitted so far (the join's dedup set). Under
    /// [`Variant::Basic`] the crossing matches all arrive after the last
    /// site is drained: the \[18\] join it measures has no incremental
    /// form.
    ///
    /// Differences from [`PreparedQuery::execute`]:
    /// - Solutions arrive in **assembly order**, not sorted. The solution
    ///   *set* is identical (the equivalence property tests pin this),
    ///   but under a `LIMIT` the stream keeps the *first k assembled*
    ///   rather than the k smallest.
    /// - `LIMIT` (and dropping the iterator early) short-circuits the
    ///   pipeline: the fleet gets a `ReleaseQuery` broadcast and the
    ///   admission slot frees immediately, instead of after a full
    ///   evaluation.
    ///
    /// The iterator holds one of the session's
    /// [`EngineConfig::max_concurrent_queries`] admission slots until it
    /// is exhausted, errors, or drops.
    pub fn stream(&self) -> Result<QuerySolutionIter<'s>, Error> {
        self.stream_with_chunk(DEFAULT_STREAM_CHUNK)
    }

    /// [`PreparedQuery::stream`] with an explicit survivor-chunk size:
    /// at most `chunk` LPMs per `SurvivorsChunk` reply (clamped to ≥ 1),
    /// one site per pull, up to two pulls in flight. `usize::MAX` means each site ships everything
    /// in one chunk and every site is pulled at once — what
    /// [`PreparedQuery::execute`] runs. Chunk size never changes the
    /// solution set — only frame sizes and the arrival interleaving.
    pub fn stream_with_chunk(&self, chunk: usize) -> Result<QuerySolutionIter<'s>, Error> {
        let session = self.session;
        let fleet = session.fleet()?;
        let (ticket, stream, recovered) = session.start_stream(fleet, &self.plan, chunk, None)?;
        session.counters.executions.fetch_add(1, Ordering::Relaxed);
        session.record_planner(stream.planner());
        let query = self.plan.query();
        Ok(QuerySolutionIter {
            session,
            fleet,
            ticket: Some(ticket),
            stream,
            plan: Arc::clone(&self.plan),
            chunk,
            recovered,
            yielded: false,
            variables: self.plan.projection().to_vec().into(),
            proj: self.plan.encoded().projection().to_vec(),
            distinct: query.distinct,
            seen: HashSet::new(),
            remaining: query.limit,
            done: false,
        })
    }

    /// Execute once and report the planner's estimates next to what the
    /// execution actually measured: estimated vs. actual cardinalities,
    /// the chosen variant and the inputs of the rule that chose it.
    ///
    /// On a [`Variant::Auto`] session the decision is the one that
    /// picked the executed variant. On an explicit-variant session the
    /// planner runs *advisorily* here — `explain` is an explicit request
    /// for its verdict, and the one place an explicit-variant session
    /// does pay for partition statistics — while `chosen` reports the
    /// configured variant that actually executed.
    pub fn explain(&self) -> Result<PlanExplain, Error> {
        let results = self.execute()?;
        let output = results.output();
        let configured = self.session.engine.config().variant;
        let (decision, chosen) = match &output.planner {
            Some(d) => (d.clone(), d.chosen),
            None => (plan_query(&self.session.dist, &self.plan), configured),
        };
        Ok(PlanExplain {
            configured,
            chosen,
            decision,
            actual_lpms: output.metrics.local_partial_matches,
            actual_survivors: output.metrics.surviving_partial_matches,
            actual_crossing_matches: output.metrics.crossing_matches,
            rows: output.rows.len() as u64,
        })
    }

    /// The original SPARQL text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Projected variable names, in projection order.
    pub fn variables(&self) -> &[String] {
        self.plan.projection()
    }

    /// The cached shape/selectivity analysis.
    pub fn shape(&self) -> &ShapeReport {
        self.plan.shape()
    }

    /// The underlying cached plan.
    pub fn plan(&self) -> &PreparedPlan {
        &self.plan
    }
}

/// Default survivor-chunk size for [`PreparedQuery::stream`]: how many
/// LPMs a site ships per `SurvivorsChunk` reply. Large enough to
/// amortize frame overhead, small enough that the coordinator's buffer
/// stays bounded regardless of result-set size.
pub const DEFAULT_STREAM_CHUNK: usize = 256;

/// A pull-based stream of query solutions: the session-level surface of
/// the chunked ship-and-join pipeline ([`PreparedQuery::stream`]).
///
/// Yields `Result<StreamSolution, Error>` in assembly order, applying
/// projection, `DISTINCT` and `LIMIT` incrementally. Exhaustion,
/// `LIMIT`, an error, or dropping the iterator all release the fleet's
/// per-query state (each site's last survivor chunk, or `ReleaseQuery`)
/// and the admission slot — a stream can never leak worker-side state.
/// After an error the iterator is fused (further `next()` calls return
/// `None`).
pub struct QuerySolutionIter<'s> {
    session: &'s GStoreD,
    fleet: &'s Fleet,
    /// `Some` while the stream holds its admission slot.
    ticket: Option<QueryTicket<'s>>,
    stream: StreamState,
    /// What a restart needs: a stream that fails before it has yielded
    /// anything (a star stream first meets its sites while pulling) is
    /// repaired and started again, once, like a failed startup.
    plan: Arc<PreparedPlan>,
    chunk: usize,
    recovered: bool,
    yielded: bool,
    variables: Arc<[String]>,
    /// Projection: indices into the complete binding, in output order.
    proj: Vec<usize>,
    distinct: bool,
    /// Projected rows already emitted (`DISTINCT` only).
    seen: HashSet<Vec<VertexId>>,
    /// Solutions still to emit under a `LIMIT` (`None` = unlimited).
    remaining: Option<usize>,
    done: bool,
}

impl<'s> QuerySolutionIter<'s> {
    /// Projected variable names, in projection order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Stage metrics accumulated so far (complete once the stream is
    /// exhausted; partial — covering only the work actually done — when
    /// `LIMIT` or a drop short-circuited the pipeline). The coordinator's
    /// join buffers exactly `surviving_partial_matches` LPMs.
    pub fn metrics(&self) -> &QueryMetrics {
        self.stream.metrics()
    }

    /// Stop the stream now: cancel the fleet's per-query state and
    /// release the admission slot. Equivalent to dropping the iterator,
    /// but callable mid-iteration and idempotent.
    pub fn close(&mut self) {
        if !self.stream.is_finished() {
            self.stream
                .cancel(self.fleet.transport(), &self.fleet.router);
        }
        self.ticket.take();
        self.done = true;
    }
}

impl<'s> Iterator for QuerySolutionIter<'s> {
    type Item = Result<StreamSolution<'s>, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.remaining == Some(0) {
            // LIMIT 0: short-circuit before pulling anything.
            self.close();
            return None;
        }
        loop {
            let binding = match self
                .stream
                .next_binding(self.fleet.transport(), &self.fleet.router)
            {
                Ok(Some(binding)) => binding,
                Ok(None) => {
                    // Drained: the stream has already released the sites.
                    self.ticket.take();
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    // The stream has already cancelled its fleet state.
                    self.ticket.take();
                    if !self.yielded && !self.recovered {
                        // Nothing delivered yet: as good as a failed
                        // startup, so repair and start over.
                        let session = self.session;
                        match session.start_stream(self.fleet, &self.plan, self.chunk, Some(e)) {
                            Ok((ticket, stream, recovered)) => {
                                self.ticket = Some(ticket);
                                self.stream = stream;
                                self.recovered = recovered;
                                continue;
                            }
                            Err(e) => {
                                self.done = true;
                                return Some(Err(e));
                            }
                        }
                    }
                    // Rows have been yielded, so a retry could duplicate
                    // them — but repair the implicated site anyway
                    // (mirroring `admitted`) so the *next* execution
                    // finds a healthy fleet, then fuse.
                    let _ = self.fleet.recover(&e);
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            let row: Vec<VertexId> = self.proj.iter().map(|&v| binding[v]).collect();
            if self.distinct && !self.seen.insert(row.clone()) {
                continue;
            }
            if let Some(remaining) = &mut self.remaining {
                *remaining -= 1;
            }
            self.yielded = true;
            let solution = StreamSolution {
                variables: Arc::clone(&self.variables),
                row,
                dict: self.session.dist.dict(),
            };
            if self.remaining == Some(0) {
                // The LIMIT is filled by the row we are about to yield:
                // cancel the fleet *now* so its state and the admission
                // slot free without waiting for another `next()` call.
                self.close();
                self.done = true;
            }
            return Some(Ok(solution));
        }
    }
}

impl Drop for QuerySolutionIter<'_> {
    fn drop(&mut self) {
        if !self.stream.is_finished() {
            self.stream
                .cancel(self.fleet.transport(), &self.fleet.router);
        }
    }
}

impl std::fmt::Debug for QuerySolutionIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySolutionIter")
            .field("variables", &self.variables)
            .field("distinct", &self.distinct)
            .field("remaining", &self.remaining)
            .field("done", &self.done)
            .finish()
    }
}

/// One streamed solution: an owned projected row, decoded lazily against
/// the session's dictionary (the owning sibling of [`QuerySolution`],
/// which borrows its row from a materialized result set).
#[derive(Debug, Clone)]
pub struct StreamSolution<'s> {
    variables: Arc<[String]>,
    row: Vec<VertexId>,
    dict: &'s Dictionary,
}

impl<'s> StreamSolution<'s> {
    /// Borrow as a [`QuerySolution`] for name/index addressing.
    pub fn solution(&self) -> QuerySolution<'_> {
        QuerySolution {
            variables: &self.variables,
            row: &self.row,
            dict: self.dict,
        }
    }

    /// Projected variable names, in projection order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The projected row, dictionary-encoded.
    pub fn vertex_row(&self) -> &[VertexId] {
        &self.row
    }

    /// Take the projected row, dictionary-encoded.
    pub fn into_vertex_row(self) -> Vec<VertexId> {
        self.row
    }

    /// The binding of a variable by name, if projected.
    pub fn get(&self, name: &str) -> Option<&'s Term> {
        let i = self.variables.iter().position(|v| v == name)?;
        self.row.get(i).map(|&v| self.dict.resolve(v))
    }

    /// Iterate `(variable name, term)` pairs in projection order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &'s Term)> + '_ {
        let dict = self.dict;
        self.variables
            .iter()
            .zip(self.row.iter())
            .map(move |(name, &v)| (name.as_str(), dict.resolve(v)))
    }
}

impl std::ops::Index<&str> for StreamSolution<'_> {
    type Output = Term;

    /// `sol["x"]`: the binding of `?x`. Panics when `?x` is not
    /// projected (use [`StreamSolution::get`] for the fallible form).
    fn index(&self, name: &str) -> &Term {
        self.get(name).unwrap_or_else(|| {
            panic!(
                "variable ?{name} is not projected (projection: {:?})",
                self.variables
            )
        })
    }
}

/// The result set of one execution: solutions + per-stage metrics.
///
/// Rows stay dictionary-encoded internally; [`QuerySolution`] decodes
/// terms lazily on access, so iterating a large result set without
/// touching every column never materializes unused terms.
#[derive(Debug)]
pub struct QueryResults<'s> {
    dict: &'s Dictionary,
    variables: Vec<String>,
    output: QueryOutput,
}

impl<'s> QueryResults<'s> {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.output.rows.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.output.rows.is_empty()
    }

    /// Projected variable names, in projection order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Per-stage metrics of this execution (the paper's table columns).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.output.metrics
    }

    /// One solution by row index.
    pub fn solution(&self, index: usize) -> Option<QuerySolution<'_>> {
        self.output.rows.get(index).map(|row| QuerySolution {
            variables: &self.variables,
            row,
            dict: self.dict,
        })
    }

    /// Iterate the solutions.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = QuerySolution<'_>> + '_ {
        self.output.rows.iter().map(move |row| QuerySolution {
            variables: &self.variables,
            row,
            dict: self.dict,
        })
    }

    /// The projected rows, still dictionary-encoded (projection order).
    pub fn vertex_rows(&self) -> &[Vec<VertexId>] {
        &self.output.rows
    }

    /// Complete bindings over all query vertices, pre-projection —
    /// the representation the correctness tests compare against the
    /// centralized reference evaluation.
    pub fn bindings(&self) -> &[Vec<VertexId>] {
        &self.output.bindings
    }

    /// The raw engine output (rows, bindings, metrics).
    pub fn output(&self) -> &QueryOutput {
        &self.output
    }

    /// Decode every solution eagerly into term rows.
    pub fn decoded_rows(&self) -> Vec<Vec<Term>> {
        self.output.decoded_rows(self.dict)
    }
}

impl<'s, 'r> IntoIterator for &'r QueryResults<'s> {
    type Item = QuerySolution<'r>;
    type IntoIter = Box<dyn ExactSizeIterator<Item = QuerySolution<'r>> + 'r>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// One solution row, addressable by variable name or projection index.
///
/// Terms decode lazily: `sol["x"]` resolves the dictionary id on access
/// and borrows the term from the session's dictionary.
#[derive(Debug, Clone, Copy)]
pub struct QuerySolution<'r> {
    variables: &'r [String],
    row: &'r [VertexId],
    dict: &'r Dictionary,
}

impl<'r> QuerySolution<'r> {
    /// Number of projected columns.
    pub fn len(&self) -> usize {
        self.row.len()
    }

    /// Whether the solution has no columns.
    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
    }

    /// Projected variable names, in projection order.
    pub fn variables(&self) -> &'r [String] {
        self.variables
    }

    /// The binding of a variable by name, if the variable is projected.
    pub fn get(&self, name: &str) -> Option<&'r Term> {
        let i = self.variables.iter().position(|v| v == name)?;
        self.get_index(i)
    }

    /// The binding of the `i`-th projected variable.
    pub fn get_index(&self, i: usize) -> Option<&'r Term> {
        self.row.get(i).map(|&v| self.dict.resolve(v))
    }

    /// The dictionary-encoded binding of the `i`-th projected variable.
    pub fn vertex_id(&self, i: usize) -> Option<VertexId> {
        self.row.get(i).copied()
    }

    /// Iterate `(variable name, term)` pairs in projection order.
    pub fn iter(&self) -> impl Iterator<Item = (&'r str, &'r Term)> + use<'r> {
        let dict = self.dict;
        self.variables
            .iter()
            .zip(self.row.iter())
            .map(move |(name, &v)| (name.as_str(), dict.resolve(v)))
    }
}

impl<'r> std::ops::Index<&str> for QuerySolution<'r> {
    type Output = Term;

    /// `sol["x"]`: the binding of `?x`. Panics when `?x` is not projected
    /// (use [`QuerySolution::get`] for the fallible form).
    fn index(&self, name: &str) -> &Term {
        self.get(name).unwrap_or_else(|| {
            panic!(
                "variable ?{name} is not projected (projection: {:?})",
                self.variables
            )
        })
    }
}

impl<'r> std::ops::Index<usize> for QuerySolution<'r> {
    type Output = Term;

    /// `sol[0]`: the binding of the first projected variable.
    fn index(&self, i: usize) -> &Term {
        self.get_index(i).unwrap_or_else(|| {
            panic!(
                "column {i} out of bounds (projection width {})",
                self.row.len()
            )
        })
    }
}

impl std::fmt::Display for QuerySolution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, term) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "?{name} = {term}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NT: &str = r#"
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/knows> <http://ex/carol> .
<http://ex/carol> <http://ex/name> "Carol" .
"#;

    fn session() -> GStoreD {
        GStoreD::builder()
            .ntriples(NT)
            .unwrap()
            .partitioner(HashPartitioner::new(3))
            .build()
            .unwrap()
    }

    #[test]
    fn prepare_once_execute_many_counts() {
        let db = session();
        let prepared = db
            .prepare("SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }")
            .unwrap();
        for _ in 0..5 {
            let results = prepared.execute().unwrap();
            assert_eq!(results.len(), 1);
        }
        let stats = db.stats();
        assert_eq!(stats.queries_prepared, 1, "prepare ran exactly once");
        assert_eq!(stats.executions, 5);
    }

    /// Satellite regression: explicit-variant sessions perform zero
    /// planner work — no decisions counted, no partition statistics
    /// computed — no matter how much they execute.
    #[test]
    fn explicit_variant_sessions_pay_no_planner_work() {
        let db = session(); // default config: explicit Variant::Full
        let prepared = db
            .prepare("SELECT ?x WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }")
            .unwrap();
        for _ in 0..3 {
            prepared.execute().unwrap();
        }
        let _ = prepared.stream().unwrap().count();
        assert_eq!(db.stats().planner_decisions, 0);
        assert!(db.last_planner_decision().is_none());
        assert!(
            !db.distributed_graph().stats_computed(),
            "explicit variants must never trigger partition-statistics collection"
        );
    }

    #[test]
    fn auto_sessions_resolve_plan_and_match_explicit_rows() {
        let auto = GStoreD::builder()
            .ntriples(NT)
            .unwrap()
            .partitioner(HashPartitioner::new(3))
            .variant(Variant::Auto)
            .build()
            .unwrap();
        let text = "SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }";
        let results = auto.query(text).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(auto.stats().planner_decisions, 1);
        let decision = auto
            .last_planner_decision()
            .expect("a decision was recorded");
        assert!(
            !decision.chosen.is_auto(),
            "Auto resolves to a concrete variant"
        );
        assert!(auto.distributed_graph().stats_computed());
        // Streaming resolves (and records) too.
        let streamed = auto.prepare(text).unwrap().stream().unwrap().count();
        assert_eq!(streamed, 1);
        assert_eq!(auto.stats().planner_decisions, 2);
        // Rows agree with the explicit default-variant session.
        let explicit_db = session();
        let explicit = explicit_db.query(text).unwrap();
        assert_eq!(results.len(), explicit.len());
    }

    #[test]
    fn explain_reports_estimates_and_actuals() {
        let auto = GStoreD::builder()
            .ntriples(NT)
            .unwrap()
            .partitioner(HashPartitioner::new(3))
            .variant(Variant::Auto)
            .build()
            .unwrap();
        let prepared = auto
            .prepare("SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }")
            .unwrap();
        let explain = prepared.explain().unwrap();
        assert_eq!(explain.configured, Variant::Auto);
        assert!(!explain.chosen.is_auto());
        assert_eq!(explain.rows, 1);
        let report = explain.report();
        assert!(report.contains("configured: gStoreD-Auto"));
        assert!(report.contains("rule:"));
        // Explicit sessions get an advisory decision; `chosen` is what ran.
        let explicit = session();
        let exp = explicit
            .prepare("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b }")
            .unwrap()
            .explain()
            .unwrap();
        assert_eq!(exp.configured, Variant::Full);
        assert_eq!(exp.chosen, Variant::Full);
        assert_eq!(exp.rows, 2);
    }

    #[test]
    fn solutions_address_by_name_and_index() {
        let db = session();
        let results = db
            .query("SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }")
            .unwrap();
        assert_eq!(results.variables(), &["x".to_string(), "n".to_string()]);
        let sol = results.solution(0).unwrap();
        assert_eq!(sol["x"], Term::iri("http://ex/bob"));
        assert_eq!(sol[1], Term::lit("Carol"));
        assert_eq!(sol.get("n"), Some(&Term::lit("Carol")));
        assert_eq!(sol.get("missing"), None);
        assert_eq!(sol["x"], sol[0]);
        assert_eq!(sol.to_string(), "?x = <http://ex/bob>, ?n = \"Carol\"");
    }

    #[test]
    fn solution_iteration_matches_projection_order() {
        let db = session();
        let results = db
            .query("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b }")
            .unwrap();
        assert_eq!(results.len(), 2);
        for sol in &results {
            let pairs: Vec<_> = sol.iter().collect();
            assert_eq!(pairs.len(), 2);
            assert_eq!(pairs[0].0, "a");
            assert_eq!(pairs[1].0, "b");
            assert_eq!(pairs[0].1, &sol["a"]);
        }
    }

    #[test]
    fn parse_errors_surface_as_unified_error() {
        let db = session();
        assert!(matches!(db.prepare("SELECT WHERE"), Err(Error::Parse(_))));
        assert!(matches!(
            db.prepare("SELECT ?p WHERE { <http://ex/alice> ?p ?y }"),
            Err(Error::Engine(_))
        ));
    }

    #[test]
    fn builder_rejects_bad_ntriples() {
        assert!(matches!(
            GStoreD::builder().ntriples("not n-triples"),
            Err(Error::Data(_))
        ));
    }

    #[test]
    fn sessions_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<GStoreD>();
    }

    #[test]
    fn stream_yields_the_same_solution_set_as_execute() {
        let db = session();
        let prepared = db
            .prepare("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b }")
            .unwrap();
        let executed: Vec<Vec<VertexId>> = prepared.execute().unwrap().vertex_rows().to_vec();
        for chunk in [1usize, 7, usize::MAX] {
            let mut streamed: Vec<Vec<VertexId>> = prepared
                .stream_with_chunk(chunk)
                .unwrap()
                .map(|sol| sol.unwrap().into_vertex_row())
                .collect();
            streamed.sort_unstable();
            assert_eq!(streamed, executed, "chunk {chunk}");
        }
        // Streamed solutions address by name like materialized ones.
        let sol = prepared.stream().unwrap().next().unwrap().unwrap();
        assert!(sol.get("a").is_some());
        assert_eq!(sol.variables(), &["a".to_string(), "b".to_string()]);
        assert_eq!(sol["a"], *sol.solution().get("a").unwrap());
    }

    #[test]
    fn limit_short_circuits_and_releases_the_fleet() {
        let db = session();
        let prepared = db
            .prepare("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b } LIMIT 1")
            .unwrap();
        let mut stream = prepared.stream_with_chunk(1).unwrap();
        let first = stream.next();
        assert!(matches!(first, Some(Ok(_))));
        // The LIMIT filled on that row: the iterator is already fused and
        // the fleet's state tables are empty without another next() call.
        assert!(stream.next().is_none());
        for status in db.fleet_status().unwrap() {
            assert_eq!(status.resident_queries, 0);
        }
    }

    #[test]
    fn dropping_a_stream_midway_releases_the_fleet() {
        let db = session();
        let prepared = db
            .prepare("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b }")
            .unwrap();
        {
            let mut stream = prepared.stream_with_chunk(1).unwrap();
            assert!(matches!(stream.next(), Some(Ok(_))));
            // Dropped mid-stream here.
        }
        for status in db.fleet_status().unwrap() {
            assert_eq!(status.resident_queries, 0);
        }
        // And the admission slot is free: max_concurrent streams in a
        // row would deadlock if any of them leaked its ticket.
        for _ in 0..db.engine().config().max_concurrent_queries + 1 {
            let mut s = prepared.stream().unwrap();
            let _ = s.next();
        }
    }

    #[test]
    fn site_health_reports_every_site_alive() {
        let db = session();
        let health = db.site_health().unwrap();
        assert_eq!(health.len(), 3);
        for h in &health {
            assert!(
                h.is_alive(),
                "site {} should be alive: {:?}",
                h.site,
                h.error
            );
            assert_eq!(h.status.as_ref().unwrap().resident_queries, 0);
        }
        // A healthy in-process fleet never trips the failure machinery.
        assert_eq!(db.robustness_stats(), RobustnessStats::default());
    }

    /// An in-process site whose worker is gone is repaired alone, like a
    /// TCP site: a fresh channel and worker thread, the fragment
    /// re-installed, and the query retried once.
    #[test]
    fn a_stopped_in_process_site_is_repaired_not_rebuilt() {
        use gstored_core::protocol::{encode_request, Request};
        let db = session();
        let text = "SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n . }";
        let healthy = db.query(text).unwrap().vertex_rows().to_vec();
        // Shutdown ends site 1's serve loop without a reply.
        let fleet = db.fleet().unwrap();
        fleet
            .transport()
            .send(1, encode_request(&Request::Shutdown))
            .unwrap();
        assert_eq!(db.query(text).unwrap().vertex_rows(), healthy.as_slice());
        let stats = db.robustness_stats();
        assert_eq!(
            (stats.repairs, stats.reconnects, stats.retries),
            (1, 1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn distinct_and_limit_apply_incrementally_on_streams() {
        let db = session();
        let prepared = db
            .prepare("SELECT DISTINCT ?a WHERE { ?a <http://ex/knows> ?b } LIMIT 2")
            .unwrap();
        let rows: Vec<Vec<VertexId>> = prepared
            .stream_with_chunk(1)
            .unwrap()
            .map(|sol| sol.unwrap().into_vertex_row())
            .collect();
        assert!(rows.len() <= 2);
        let unique: HashSet<_> = rows.iter().collect();
        assert_eq!(unique.len(), rows.len(), "DISTINCT deduplicates");
    }
}
