//! The distributed query engine (Fig. 4 of the paper).
//!
//! Execution for a general (non-star) query, as messages to persistent
//! site workers (every frame serialized through [`crate::protocol`] and
//! charged to the stage it belongs to). The steps of Fig. 4:
//!
//! 0. **Query distribution** — `InstallQuery` ships the encoded query to
//!    every site.
//! 1. *(Full only)* Algorithm 4 — `ComputeCandidates` /
//!    `SetCandidateFilter` exchange candidate bit vectors.
//! 2. **Partial evaluation** — `PartialEval`: every site finds its
//!    intra-fragment complete matches (shipped back immediately — they
//!    are final) and its local partial matches (Definition 5), which
//!    **stay at the site**.
//! 3. *(LO/Full)* **LEC optimization** — `ComputeLecFeatures` ships only
//!    the features (Algorithm 1); the coordinator prunes (Algorithm 2)
//!    and tells each site, via its own `DropPruned`, which of *its*
//!    features survived — every surviving id crosses the wire once.
//! 4. **Assembly** — `ShipSurvivorsChunk` moves the surviving LPMs to
//!    the coordinator, which joins them: the LECSign delta join of
//!    Algorithm 3 ([`IncrementalJoin`]) as they arrive for LA/LO/Full,
//!    the \[18\] partition join once the last site is drained for Basic.
//!
//! Only two of those steps need another site's data — the candidate
//! union and the pruning verdict — so the steps travel as **one
//! [`Request::Chain`] frame per site per phase**, three phases around the
//! two barriers (variants omit the steps they do not use):
//!
//! ```text
//! A  [InstallQuery, ComputeCandidates]                  → union barrier
//! B  [SetCandidateFilter, PartialEval, ComputeLecFeatures] → prune barrier
//! C  [DropPruned, ShipSurvivorsChunk], then bare ShipSurvivorsChunk pulls
//! ```
//!
//! An empty union ends after A plus a release: a variable whose unioned
//! vector has no bit set has no internal candidate on any site, so the
//! query has no match, and one acked `ReleaseQuery` broadcast replaces
//! phases B and C.
//!
//! A site runs its chain without waiting for the coordinator, so a
//! straggler delays a phase's one collection point, not every step.
//!
//! There is **one pipeline**: [`Engine::start_stream`] runs phases A and
//! B eagerly and returns a [`StreamState`] that pulls phase C on demand,
//! ahead of consumption: a bounded stream keeps up to two pulls in
//! flight (one until its caller has drained the first reply), each
//! non-final survivor chunk re-pulling its site as it lands, so the
//! sites compute while the coordinator joins and the caller writes rows
//! out; an unbounded one (`chunk == usize::MAX`) pulls every undone
//! site at once. [`Engine::execute_routed`] is the unbounded stream,
//! drained. A chunk reply with `last = true` drops the site's per-query
//! state, so a drained stream sends no closing release.
//!
//! Star queries short-circuit per Section VIII-B: every match lives in
//! the fragment where the star's center is internal, so the whole
//! evaluation is the single chain `[InstallQuery, StarMatches,
//! ReleaseQuery]` per site and only the result bindings ship.
//!
//! The workers are reached through a pluggable [`Transport`]: the
//! [`Backend::InProcess`] default runs every site as a step handler on
//! one pool of `min(available_parallelism(), sites)` threads (the site executor of
//! `gstored_net::executor`), answering over channels; [`Backend::Tcp`]
//! speaks the same frames to remote `gstored-worker` processes. Both exchange byte-identical frames, so
//! results *and* shipment metrics are independent of the backend.
//!
//! Every per-query frame carries a [`QueryId`], and a pipeline ends with
//! each site's per-query state dropped — by its last survivor chunk or by
//! a `ReleaseQuery` (a star chain's last step, or an abort's broadcast) — so
//! **many queries can run their pipelines concurrently over one shared
//! fleet**, their stage messages interleaved on the same connections and
//! demultiplexed by the [`ReplyRouter`]. [`Engine::execute_routed`] is
//! that concurrent entry point; the `GStoreD` session drives it through
//! its `QueryExecutor` admission gate (see `docs/concurrency.md`).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use gstored_net::{ChaosConfig, NetworkModel, QueryMetrics, ReactorTransport, Transport};
use gstored_partition::DistributedGraph;
use gstored_rdf::{Term, VertexId};
use gstored_store::candidates::BitVectorFilter;
use gstored_store::{EncodedQuery, LocalPartialMatch, LpmBatch};

use crate::assembly::{assemble_basic, IncrementalJoin};
use crate::candidates::{union_bit_vectors, var_vertices};
use crate::error::EngineError;
use crate::lec::MAX_SITES;
use crate::planner::{plan_query, PlannerDecision};
use crate::prepared::PreparedPlan;
use crate::protocol::{self, QueryId, Request, ResponseBody};
use crate::prune::useful_ids;
use crate::runtime::{expect_acks, Chain, ReplyRouter, Stage, Wave, WorkerPool};

/// Query ids for executions that bypass a session's `QueryExecutor`
/// ([`Engine::execute_on`] used directly). Process-wide
/// so two engines accidentally sharing a fleet still cannot collide.
static ONE_SHOT_QUERY_IDS: AtomicU32 = AtomicU32::new(0);

fn one_shot_query_id() -> QueryId {
    loop {
        let id = ONE_SHOT_QUERY_IDS.fetch_add(1, Ordering::Relaxed);
        if id != QueryId::CONTROL.0 {
            return QueryId(id);
        }
    }
}

/// The four engine variants compared in the paper's Fig. 9, plus
/// [`Variant::Auto`], which defers the choice to the planner per query
/// (see [`crate::planner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `gStoreD-Basic`: partial evaluation + the \[18\] partition join.
    Basic,
    /// `gStoreD-LA`: + LEC feature-based assembly (Algorithm 3).
    LecAssembly,
    /// `gStoreD-LO`: + LEC feature-based pruning (Algorithm 2).
    LecOptimization,
    /// `gStoreD`: + assembling variables' internal candidates (Alg. 4).
    Full,
    /// Pick `LA` or `Full` per query via the planner's rule
    /// ([`crate::planner::plan_query`]). Resolved at
    /// the top of each execution; the pipeline itself always runs a
    /// concrete variant, and the decision is attached to the
    /// [`QueryOutput`].
    Auto,
}

impl Variant {
    /// The explicit variants, in the order of Fig. 9's legend
    /// ([`Variant::Auto`] is a selection policy, not a fifth pipeline,
    /// so it is deliberately not listed here).
    pub const ALL: [Variant; 4] = [
        Variant::Basic,
        Variant::LecAssembly,
        Variant::LecOptimization,
        Variant::Full,
    ];

    /// The paper's label for the variant.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Basic => "gStoreD-Basic",
            Variant::LecAssembly => "gStoreD-LA",
            Variant::LecOptimization => "gStoreD-LO",
            Variant::Full => "gStoreD",
            Variant::Auto => "gStoreD-Auto",
        }
    }

    /// Whether this is the planner-resolved [`Variant::Auto`] policy.
    pub fn is_auto(&self) -> bool {
        matches!(self, Variant::Auto)
    }

    fn uses_lec_pruning(&self) -> bool {
        matches!(self, Variant::LecOptimization | Variant::Full)
    }

    fn uses_candidate_exchange(&self) -> bool {
        matches!(self, Variant::Full)
    }

    fn uses_lec_assembly(&self) -> bool {
        !matches!(self, Variant::Basic)
    }
}

/// Which distributed runtime executes the sites.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Backend {
    /// Persistent in-process site workers, run as step handlers on one
    /// pool of `min(available_parallelism(), sites)` threads and answering over
    /// channels (the default). Deterministic and dependency-free, yet
    /// every inter-site payload is a real serialized frame.
    #[default]
    InProcess,
    /// Remote `gstored-worker` processes over TCP, one address per
    /// fragment in fragment order. Fragments are installed on connect
    /// (deployment setup, not charged as query shipment); the query
    /// stages then exchange exactly the same frames as
    /// [`Backend::InProcess`]. The coordinator drives every socket from
    /// one [`ReactorTransport`] I/O thread, which is Linux-only.
    Tcp {
        /// Worker addresses (`host:port`), one per fragment.
        workers: Vec<String>,
    },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which optimizations run (default: the full gStoreD).
    pub variant: Variant,
    /// Bits per candidate bit vector (Algorithm 4). The paper uses a
    /// "fixed length"; 64 Ki bits (8 KiB) is our default.
    pub candidate_bits: usize,
    /// Which runtime backend drives the site workers.
    pub backend: Backend,
    /// How many query pipelines a `GStoreD` session admits onto its
    /// shared worker fleet at once (further callers queue). The engine
    /// itself runs whatever pipelines callers drive; this bound lives in
    /// the session's `QueryExecutor`.
    pub max_concurrent_queries: usize,
    /// When set, the coordinator *waits out* each frame's simulated
    /// transfer time under the default [`NetworkModel`] instead of only
    /// recording it, so wall-clock latency matches what the modeled
    /// interconnect would deliver. Off by default (tests and interactive use want raw
    /// speed); the closed-loop throughput benchmarks turn it on.
    pub pace_network: bool,
    /// Deadline budget per query pipeline (default 30 s; `None` waits
    /// forever, the pre-deadline behaviour). The budget starts when the
    /// pipeline starts — for streams, afresh at every pull — and every
    /// reply wait inside it is bounded by what remains, so a dead or
    /// hung site surfaces as a typed [`EngineError::Timeout`] naming the
    /// site and stage instead of blocking the caller indefinitely. The
    /// session's repair path then probes the implicated site.
    pub query_deadline: Option<Duration>,
    /// When set, the session wraps its fleet transport in a
    /// [`gstored_net::ChaosTransport`] injecting this deterministic,
    /// seed-driven fault schedule — the hook behind the chaos test
    /// batteries. `None` (default) means no wrapper at all: zero
    /// overhead on the fault-free path.
    pub chaos: Option<ChaosConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            variant: Variant::Full,
            candidate_bits: 1 << 16,
            backend: Backend::InProcess,
            max_concurrent_queries: 8,
            pace_network: false,
            query_deadline: Some(Duration::from_secs(30)),
            chaos: None,
        }
    }
}

impl EngineConfig {
    /// Config for a specific variant with defaults otherwise.
    pub fn variant(v: Variant) -> Self {
        EngineConfig {
            variant: v,
            ..Default::default()
        }
    }
}

/// The result of a query: projected rows plus full metrics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Projected rows (one entry per projected variable, in order).
    pub rows: Vec<Vec<VertexId>>,
    /// Complete bindings over all query vertices (pre-projection).
    pub bindings: Vec<Vec<VertexId>>,
    /// Per-stage metrics (the columns of Tables I–III).
    pub metrics: QueryMetrics,
    /// The planner's verdict when the engine ran with [`Variant::Auto`]
    /// (`None` for explicit variants, which never consult the planner).
    pub planner: Option<PlannerDecision>,
}

impl QueryOutput {
    /// Decode the projected rows to terms against the graph's dictionary.
    pub fn decoded_rows(&self, dict: &gstored_rdf::Dictionary) -> Vec<Vec<Term>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(|&v| dict.resolve(v).clone()).collect())
            .collect()
    }
}

/// The distributed SPARQL engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// An engine running a specific variant with default settings.
    pub fn with_variant(variant: Variant) -> Self {
        Engine::new(EngineConfig::variant(variant))
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Connect to the configured [`Backend::Tcp`] workers through the
    /// epoll-multiplexed [`ReactorTransport`] — one coordinator I/O
    /// thread for the whole fleet — and install the fragments
    /// (deployment-time setup, not charged as query shipment).
    ///
    /// Connect once and drive [`Engine::execute_on`] against the
    /// returned transport; the `GStoreD` facade does exactly that,
    /// caching the connection for the session's lifetime. The install's
    /// `Ack` waits share one [`EngineConfig::query_deadline`] budget
    /// (`None` waits forever): a worker that accepts the connection but
    /// never answers surfaces as [`EngineError::Timeout`] naming its site
    /// and the `"install_fragment"` stage instead of wedging the caller.
    /// Errors when the backend is not TCP or the worker count does not
    /// match the partitioning.
    pub fn connect_workers(
        &self,
        dist: &DistributedGraph,
    ) -> Result<ReactorTransport, EngineError> {
        let Backend::Tcp { workers } = &self.config.backend else {
            return Err(EngineError::Transport(
                "connect_workers requires Backend::Tcp".into(),
            ));
        };
        if workers.len() != dist.fragment_count() {
            return Err(EngineError::Transport(format!(
                "{} worker addresses for {} fragments",
                workers.len(),
                dist.fragment_count()
            )));
        }
        let addrs: Vec<&str> = workers.iter().map(|w| w.as_str()).collect();
        let transport = ReactorTransport::connect(&addrs)?;
        let router = ReplyRouter::new(transport.sites());
        WorkerPool::new(
            &transport,
            &router,
            NetworkModel::default(),
            QueryId::CONTROL,
        )
        .with_deadline(self.config.query_deadline.map(|d| Instant::now() + d))
        .ship_fragments(dist.fragments.iter().enumerate())?;
        Ok(transport)
    }

    /// Evaluate a prepared plan against workers reachable through a
    /// caller-provided transport.
    ///
    /// The workers must already hold their fragments (borrowed for the
    /// in-process backend, via `InstallFragment` for remote ones) and be
    /// serving; this method drives only the query stages. Exposed so
    /// harnesses can run the engine over an instrumented transport —
    /// e.g. to assert that shipment metrics equal the frames that
    /// actually crossed it.
    ///
    /// Allocates a one-shot query id and a private [`ReplyRouter`]; when
    /// several pipelines share one fleet concurrently they must share a
    /// router instead — use [`Engine::execute_routed`], as the `GStoreD`
    /// session does.
    pub fn execute_on(
        &self,
        transport: &dyn Transport,
        dist: &DistributedGraph,
        plan: &PreparedPlan,
    ) -> Result<QueryOutput, EngineError> {
        let router = ReplyRouter::new(transport.sites());
        self.execute_routed(transport, &router, dist, plan, one_shot_query_id())
    }

    /// Evaluate a prepared plan as **one of many concurrent queries** on
    /// a shared fleet: all frames carry `query`, and replies come back
    /// through the fleet's shared `router`, so this method can run from
    /// any number of threads against the same transport at once.
    ///
    /// The caller owns id allocation and admission (see
    /// `runtime::QueryExecutor`); `query` must be unique among the
    /// queries in flight on this fleet. On success **and** on error the
    /// sites' per-query state is released before returning, so a
    /// completed pipeline leaves no residue in any worker's state table.
    /// This is [`Engine::start_stream`] with unbounded chunks, drained.
    pub fn execute_routed(
        &self,
        transport: &dyn Transport,
        router: &ReplyRouter,
        dist: &DistributedGraph,
        plan: &PreparedPlan,
        query: QueryId,
    ) -> Result<QueryOutput, EngineError> {
        let started = Instant::now();
        let mut stream = self.start_stream(transport, router, dist, plan, query, usize::MAX)?;
        // One deadline for the whole execution, not one per pull: the
        // drain gets what the front half left of the budget.
        let budget = &mut stream.deadline_budget;
        *budget = budget.map(|d| d.saturating_sub(started.elapsed()));
        let mut bindings = Vec::new();
        while let Some(binding) = stream.next_binding(transport, router)? {
            bindings.push(binding);
        }
        Ok(finish(plan, bindings, stream))
    }

    /// Start a **streaming** evaluation of a prepared plan as one of many
    /// concurrent queries on a shared fleet.
    ///
    /// Runs the pipeline's front half eagerly — phases A and B for general
    /// queries (so pruning has spoken and every site holds its LPMs; the
    /// verdict reaches a site with its first pull), nothing at all for the
    /// star fast path — and returns
    /// a [`StreamState`] that pulls the rest on demand: survivors arrive
    /// in [`Request::ShipSurvivorsChunk`] batches of at most `chunk` LPMs
    /// per reply (clamped to ≥ 1), one site per pull, with up to two
    /// pulls in flight. `usize::MAX` means unbounded: every site ships
    /// everything in one chunk, and all sites are pulled at once.
    /// LA/LO/Full join each chunk as it lands, so complete bindings
    /// surface as soon as their last LPM does; Basic
    /// (\[18\] has no incremental form) joins once the last site is
    /// drained.
    ///
    /// The caller owns id allocation and admission exactly as for
    /// [`Engine::execute_routed`], plus the streaming obligations spelled
    /// out on [`StreamState`]: keep pumping
    /// [`StreamState::next_binding`] to exhaustion, or call
    /// [`StreamState::cancel`] — otherwise the sites' per-query state
    /// leaks until fleet teardown. If *this method* errors, the sites
    /// have already been released.
    pub fn start_stream(
        &self,
        transport: &dyn Transport,
        router: &ReplyRouter,
        dist: &DistributedGraph,
        plan: &PreparedPlan,
        query: QueryId,
        chunk: usize,
    ) -> Result<StreamState, EngineError> {
        // The plan must have been prepared against `dist`'s dictionary,
        // and the transport must reach one worker per fragment.
        if plan.dict_uid() != dist.dict().uid() {
            return Err(EngineError::PlanGraphMismatch {
                plan_dict: plan.dict_uid(),
                graph_dict: dist.dict().uid(),
            });
        }
        if transport.sites() != dist.fragment_count() {
            return Err(EngineError::Transport(format!(
                "transport has {} sites but the graph has {} fragments",
                transport.sites(),
                dist.fragment_count()
            )));
        }
        if transport.sites() > MAX_SITES {
            return Err(EngineError::TooManySites(transport.sites()));
        }
        // Resolve `Auto` before any frame moves: the planner's pick selects
        // the stages and the join, and the decision rides on the state.
        let planner = self
            .config
            .variant
            .is_auto()
            .then(|| plan_query(dist, plan));
        let variant = planner.as_ref().map_or(self.config.variant, |d| d.chosen);
        let q = plan.encoded();
        let sites = transport.sites();
        let shape = plan.shape();
        let join = if variant.uses_lec_assembly() {
            Join::Lec(Box::new(IncrementalJoin::new(
                q.vertex_count(),
                q.edge_count(),
            )))
        } else {
            Join::Basic(Vec::new())
        };
        let mut metrics = QueryMetrics::default();
        let mut pending = VecDeque::new();
        let mut born_drained = q.has_unsatisfiable();
        let mode = if born_drained {
            // Nothing was installed anywhere; no site is ever pulled.
            StreamMode::General {
                drop_pruned: Vec::new(),
                join,
            }
        } else if shape.is_star() {
            // Nothing moves until the first pull, so a site an earlier
            // exchange already found broken would only fail mid-stream,
            // after rows went out. Fail now instead, while the caller can
            // still repair and retry, or answer with a typed error.
            if let Some(site) = (0..sites).find(|&site| router.is_failed(site)) {
                return Err(EngineError::Transport(format!(
                    "site {site} failed in an earlier exchange"
                )));
            }
            let center = shape.star_center.expect("stars have centers");
            StreamMode::Star {
                chain: star_chain(query, q, center),
            }
        } else {
            let pool = WorkerPool::new(transport, router, NetworkModel::default(), query)
                .with_pacing(self.config.pace_network)
                .with_deadline(self.config.query_deadline.map(|d| Instant::now() + d));
            match self.prepare_survivors(&pool, plan, variant, &mut metrics) {
                Ok(Some((complete, drop_pruned))) => {
                    pending.extend(complete);
                    StreamMode::General { drop_pruned, join }
                }
                Ok(None) => {
                    // Ended at the union barrier; every site is released.
                    born_drained = true;
                    StreamMode::General {
                        drop_pruned: Vec::new(),
                        join,
                    }
                }
                Err(e) => {
                    // Best-effort and uncharged: a failed query has no
                    // metrics consumer. Straggler replies under the
                    // retired id would park forever; drop them.
                    pool.release_quietly(&mut gstored_net::StageMetrics::default());
                    router.forget(query);
                    return Err(e);
                }
            }
        };
        Ok(StreamState {
            query,
            paced: self.config.pace_network,
            chunk: chunk.max(1),
            vertex_count: q.vertex_count(),
            edge_count: q.edge_count(),
            mode,
            site_done: vec![born_drained; sites],
            site_seq: vec![0; sites],
            in_flight: VecDeque::new(),
            pending,
            metrics,
            deadline_budget: self.config.query_deadline,
            planner,
        })
    }

    /// Stages 0–3 of the general pipeline, run eagerly by
    /// [`Engine::start_stream`]: query distribution, candidate exchange
    /// (Full), partial evaluation and LEC pruning (LO/Full), in two
    /// phases around the two genuinely global steps:
    ///
    /// 1. **Phase A** (Full): `[InstallQuery, ComputeCandidates]`.
    /// 2. **Union barrier**: the candidate filter is the OR over *all*
    ///    sites' vectors (Algorithm 4 lines 2–6). A variable whose union
    ///    is empty has no internal candidate on any site; candidates are
    ///    exact for internal vertices and every vertex is internal
    ///    somewhere, so the query has no match: one acked `ReleaseQuery`
    ///    broadcast ends it here.
    /// 3. **Phase B**: `[SetCandidateFilter | InstallQuery, PartialEval,
    ///    ComputeLecFeatures]` — feature ids are assigned statically
    ///    ([`lec_first_id`]), so the feature request waits on no other
    ///    site's LPM count.
    /// 4. **Prune barrier** (LO/Full): Algorithm 2 ranks features across
    ///    the whole fleet.
    ///
    /// `variant` is the explicit variant to run (`Auto` already
    /// resolved). Returns `None` when the query ended at the union
    /// barrier; otherwise the local complete matches and, when pruning
    /// ran, one encoded `DropPruned` verdict per site holding only the
    /// surviving ids in that site's range — *not yet sent*: each heads
    /// the stream's first pull of its site, so every surviving id
    /// crosses the wire once. Afterwards every site holds its LPMs.
    fn prepare_survivors(
        &self,
        pool: &WorkerPool<'_>,
        plan: &PreparedPlan,
        variant: Variant,
        metrics: &mut QueryMetrics,
    ) -> Result<Option<Survivors>, EngineError> {
        let q = plan.encoded();
        let query = pool.query();
        let sites = pool.sites();
        let install = protocol::encode_install_query(query, q);

        // --- Phase A + union barrier (Full only) ---
        let filter_frame: Option<Bytes> = if variant.uses_candidate_exchange() {
            pool.set_stage("install+candidates");
            let vars = var_vertices(q);
            let bits = self.config.candidate_bits;
            if !protocol::candidate_vectors_fit(bits, vars.len()) {
                let vectors = vars.len();
                return Err(EngineError::CandidateVectorsTooLarge { bits, vectors });
            }
            let compute = protocol::encode_request(&Request::ComputeCandidates { query, bits });
            let chain = Chain::new(
                query,
                &[
                    (install.clone(), Stage::Candidates),
                    (compute, Stage::Candidates),
                ],
            );
            let chains: Vec<_> = (0..sites).map(|site| (site, chain.clone())).collect();
            let mut vector_bodies = Vec::with_capacity(sites);
            for bodies in pool.run_phase(&chains, metrics)? {
                let mut replies = bodies.into_iter();
                expect_ack(replies.next(), "InstallQuery")?;
                vector_bodies.extend(replies.next());
            }
            let unioned = metrics
                .candidates
                .time(|| union_bit_vectors(&vector_bodies, vars.len(), bits))?;
            if unioned.iter().any(BitVectorFilter::is_empty) {
                let release = protocol::encode_request(&Request::ReleaseQuery { query });
                expect_acks(pool.broadcast_frame(release, &mut metrics.candidates)?)?;
                return Ok(None);
            }
            let vectors: Vec<_> = vars.iter().copied().zip(unioned).collect();
            Some(protocol::encode_request(&Request::SetCandidateFilter {
                query,
                vectors,
            }))
        } else {
            None
        };

        // --- Phase B: up to the features ---
        pool.set_stage("partial_evaluation");
        let pruning = variant.uses_lec_pruning();
        let head = match filter_frame {
            Some(frame) => (frame, Stage::Candidates),
            None => (install, Stage::PartialEvaluation),
        };
        let partial_eval = protocol::encode_request(&Request::PartialEval { query });
        let chains: Vec<(usize, Chain)> = (0..sites)
            .map(|site| {
                let mut steps = vec![
                    head.clone(),
                    (partial_eval.clone(), Stage::PartialEvaluation),
                ];
                if pruning {
                    let first_id = lec_first_id(site, sites);
                    steps.push((
                        protocol::encode_request(&Request::ComputeLecFeatures { query, first_id }),
                        Stage::LecOptimization,
                    ));
                }
                (site, Chain::new(query, &steps))
            })
            .collect();
        let mut complete: Vec<Vec<VertexId>> = Vec::new();
        let mut all_features = Vec::new();
        for (site, bodies) in pool.run_phase(&chains, metrics)?.into_iter().enumerate() {
            let mut replies = bodies.into_iter();
            expect_ack(replies.next(), "InstallQuery/SetCandidateFilter")?;
            match replies.next() {
                Some(ResponseBody::PartialEval { locals, lpm_count }) => {
                    for row in &locals {
                        check_binding_row(row, q.vertex_count())?;
                    }
                    metrics.local_matches += locals.len() as u64;
                    metrics.local_partial_matches += lpm_count;
                    complete.extend(locals);
                }
                other => return Err(unexpected("PartialEval", "PartialEval", other)),
            }
            if pruning {
                match replies.next() {
                    Some(ResponseBody::Features(features)) => {
                        check_features(&features, q, site, sites)?;
                        all_features.extend(features);
                    }
                    other => return Err(unexpected("Features", "ComputeLecFeatures", other)),
                }
            }
        }
        if !pruning {
            return Ok(Some((complete, Vec::new())));
        }

        // --- Prune barrier: the coordinator ranks the features of the
        // whole fleet (Algorithm 2); each site will hear the ids of its
        // own surviving features and drop the LPMs of the rest ---
        metrics.lec_features = all_features.len() as u64;
        let query_edges: Vec<(usize, usize)> = q.edges().iter().map(|e| (e.from, e.to)).collect();
        let useful: Vec<u32> = metrics
            .lec_optimization
            .time(|| useful_ids(&all_features, q.vertex_count(), &query_edges));
        // Site s owns ids `lec_first_id(s)..lec_first_id(s + 1)`, and
        // `check_features` held every site's features to consecutive ids
        // from the start of its range, so the useful ids come out of
        // Algorithm 2 ascending.
        let start = |site| useful.partition_point(|&id| id < lec_first_id(site, sites));
        let drop_pruned = (0..sites)
            .map(|site| {
                let useful = useful[start(site)..start(site + 1)].to_vec();
                protocol::encode_request(&Request::DropPruned { query, useful })
            })
            .collect();
        Ok(Some((complete, drop_pruned)))
    }
}

/// What phases A and B leave for a stream's pulls: the local complete
/// matches and, when pruning ran, each site's unsent `DropPruned`
/// verdict.
type Survivors = (Vec<Vec<VertexId>>, Vec<Bytes>);

/// Apply projection / DISTINCT / LIMIT to a drained stream's bindings and
/// package them with its metrics and planner verdict.
fn finish(plan: &PreparedPlan, bindings: Vec<Vec<VertexId>>, stream: StreamState) -> QueryOutput {
    let query = plan.query();
    let proj = plan.encoded().projection();
    let mut rows: Vec<Vec<VertexId>> = bindings
        .iter()
        .map(|b| proj.iter().map(|&v| b[v]).collect())
        .collect();
    if query.distinct {
        let mut seen: HashSet<Vec<VertexId>> = HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    rows.sort_unstable();
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    QueryOutput {
        rows,
        bindings,
        metrics: stream.metrics,
        planner: stream.planner,
    }
}

/// Which half of the pipeline a [`StreamState`] is pulling from.
#[derive(Debug)]
enum StreamMode {
    /// Section VIII-B stars: a site is sent its whole chain —
    /// `[InstallQuery, StarMatches, ReleaseQuery]` — when it is pulled,
    /// so no site holds state between pulls.
    Star {
        /// The chain, identical for every site.
        chain: Chain,
    },
    /// General queries: `ShipSurvivorsChunk` pulls, joined at the
    /// coordinator.
    General {
        /// The pruning verdicts (LO/Full), one per site, each sent at the
        /// head of that site's first pull; empty when no pruning ran.
        drop_pruned: Vec<Bytes>,
        join: Join,
    },
}

/// How a general stream joins its survivors, fixed once `Auto` has
/// resolved.
#[derive(Debug)]
enum Join {
    /// LA/LO/Full: Algorithm 3's LECSign delta join, fed as chunks land.
    Lec(Box<IncrementalJoin>),
    /// Basic: the survivors received so far; the \[18\] partition join
    /// runs over them once the last site is drained.
    Basic(Vec<LocalPartialMatch>),
}

/// How many pulls a bounded stream keeps in flight once its caller has
/// drained the first reply: the one being joined or written out, and
/// the next one being computed, so the sites, the coordinator and the
/// socket overlap instead of taking turns. It also bounds what a stream
/// holds beyond its pending rows: two chunks of LPMs, or two sites' star
/// rows.
///
/// Why not more, and why not from the start: on a 2-core host, keeping
/// every undone site in flight measured `lubm_bigresult` `ttfr_p50_ms`
/// ×1.07–1.17, because a concurrent client's first rows queue behind
/// eight busy site threads; opening two pulls before the first reply
/// measured ×1.35–1.50.
const PULL_DEPTH: usize = 2;

/// A pull a stream has sent and not yet received.
#[derive(Debug)]
struct Pull {
    site: usize,
    chain: Chain,
    /// Its receive deadline, counted from its send.
    deadline: Option<Instant>,
}

/// The coordinator side of an in-flight streaming query: the pull-based
/// tail of the pipeline started by [`Engine::start_stream`].
///
/// Holds no transport borrow — every pump call takes the fleet's
/// transport and router as arguments, so the state can live inside an
/// iterator that also owns (a handle to) the fleet. The obligations:
///
/// - Pump [`StreamState::next_binding`] until it returns `Ok(None)`
///   (every site has then dropped its state with its last chunk), **or**
///   call [`StreamState::cancel`] to stop early — otherwise every
///   undrained site of a general query keeps its state table entry until
///   fleet teardown.
/// - After an `Err`, the state has already cancelled the fleet and is
///   fused: further pumps return `Ok(None)`.
///
/// **The pull pipeline.** Pulls are sent ahead of consumption and kept
/// in a FIFO. A bounded stream sends one pull until its caller has
/// drained a reply, then keeps two (`PULL_DEPTH`) in flight: a survivor
/// chunk that is not its site's last re-pulls that site as it lands,
/// before it is joined, and a site that finishes makes room for the
/// next undone one. An unbounded stream (`chunk == usize::MAX`) pulls
/// every site at once and receives them as one wave. Each pull's
/// deadline runs from its send.
///
/// Shipment charging: star pulls are charged to `partial_evaluation`
/// (they *are* the evaluation), the verdict heading a first pull to
/// `lec_optimization`, survivor chunks and a cancel's `ReleaseQuery`
/// frames to `assembly`.
#[derive(Debug)]
pub struct StreamState {
    query: QueryId,
    paced: bool,
    /// Maximum LPMs per `SurvivorsChunk` reply (≥ 1); `usize::MAX` also
    /// means every undone site is pulled at once.
    chunk: usize,
    vertex_count: usize,
    edge_count: usize,
    mode: StreamMode,
    /// Per-site: has the site reported its last chunk / star reply? A
    /// done site holds no state for this query; the stream is finished
    /// once every site is done.
    site_done: Vec<bool>,
    /// Per-site next expected `ShipSurvivorsChunk` sequence number.
    site_seq: Vec<u64>,
    /// Pulls sent and not yet received, oldest first; at most one per
    /// site.
    in_flight: VecDeque<Pull>,
    /// Bindings produced but not yet pulled by the caller.
    pending: VecDeque<Vec<VertexId>>,
    metrics: QueryMetrics,
    /// Deadline budget of **each pull**, from its send (a stream may sit
    /// idle between pulls for as long as the caller likes; only the time
    /// spent waiting on sites counts).
    deadline_budget: Option<Duration>,
    /// The planner's verdict when the stream was started under
    /// [`Variant::Auto`] (`None` for explicit variants).
    planner: Option<PlannerDecision>,
}

impl StreamState {
    /// The planner's verdict when this stream was started under
    /// [`Variant::Auto`] (`None` for explicit variants).
    pub fn planner(&self) -> Option<&PlannerDecision> {
        self.planner.as_ref()
    }

    /// Pull the next complete binding (over **all** query vertices, not
    /// yet projected), fetching more survivor chunks from the fleet as
    /// needed. `Ok(None)` means the stream is exhausted and the sites
    /// have been released. On `Err` the fleet has been cancelled and the
    /// stream is fused.
    pub fn next_binding(
        &mut self,
        transport: &dyn Transport,
        router: &ReplyRouter,
    ) -> Result<Option<Vec<VertexId>>, EngineError> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            if self.is_finished() {
                return Ok(None);
            }
            if let Err(e) = self.advance(transport, router) {
                self.abort(transport, router, &e);
                return Err(e);
            }
        }
    }

    /// This query's handle on the fleet, with receives due by
    /// `deadline` and timeouts naming the stream's stage.
    fn pool<'t>(
        &self,
        transport: &'t dyn Transport,
        router: &'t ReplyRouter,
        deadline: Option<Instant>,
    ) -> WorkerPool<'t> {
        let pool = WorkerPool::new(transport, router, NetworkModel::default(), self.query)
            .with_pacing(self.paced)
            .with_deadline(deadline);
        pool.set_stage(match self.mode {
            StreamMode::Star { .. } => "star",
            StreamMode::General { .. } => "assembly",
        });
        pool
    }

    /// One round of progress: top the pipeline up, then receive the
    /// oldest pull — or, unbounded, every pull in flight, as one wave.
    /// The round in which the last site answers finishes the stream;
    /// every site has dropped its state by then, so nothing is left to
    /// release.
    fn advance(
        &mut self,
        transport: &dyn Transport,
        router: &ReplyRouter,
    ) -> Result<(), EngineError> {
        let sites = self.site_done.len();
        let unbounded = self.chunk == usize::MAX;
        let landed = self.site_seq.iter().any(|&seq| seq > 0) || self.site_done.contains(&true);
        let depth = match (unbounded, landed) {
            (true, _) => sites,
            (false, true) => PULL_DEPTH,
            (false, false) => 1,
        };
        while self.in_flight.len() < depth {
            let fresh = (0..sites).find(|&site| {
                !self.site_done[site] && !self.in_flight.iter().any(|pull| pull.site == site)
            });
            match fresh {
                Some(site) => self.pull(transport, router, site)?,
                None => break,
            }
        }
        let wave_len = if unbounded { self.in_flight.len() } else { 1 };
        let mut wave: Option<Wave> = None;
        for _ in 0..wave_len {
            let pull = self
                .in_flight
                .pop_front()
                .expect("an unfinished stream has a pull in flight");
            let wave = wave.get_or_insert_with(|| Wave::new(&pull.chain));
            let bodies = self.pool(transport, router, pull.deadline).receive(
                pull.site,
                &pull.chain,
                wave,
                &mut self.metrics,
            )?;
            self.land(transport, router, pull.site, bodies)?;
        }
        if let Some(wave) = wave {
            wave.finish(&mut self.metrics);
        }
        match &mut self.mode {
            StreamMode::General {
                join: Join::Basic(survivors),
                ..
            } if !self.site_done.contains(&false) => {
                let survivors = std::mem::take(survivors);
                let rows = self
                    .metrics
                    .assembly
                    .time(|| assemble_basic(&survivors, self.vertex_count));
                self.metrics.crossing_matches = rows.len() as u64;
                self.pending.extend(rows);
            }
            _ => {}
        }
        Ok(())
    }

    /// Send `site` its next pull — a star stream's whole chain, or the
    /// next survivor chunk request, headed by the pruning verdict on a
    /// site's first — and queue it. A pull whose send failed is queued
    /// too, so the receive that follows marks a broken site failed.
    fn pull(
        &mut self,
        transport: &dyn Transport,
        router: &ReplyRouter,
        site: usize,
    ) -> Result<(), EngineError> {
        let chain = match &self.mode {
            StreamMode::Star { chain } => chain.clone(),
            StreamMode::General { drop_pruned, .. } => {
                let seq = self.site_seq[site];
                let pull = protocol::encode_request(&Request::ShipSurvivorsChunk {
                    query: self.query,
                    seq,
                    max: self.chunk,
                });
                let verdict = drop_pruned.get(site).filter(|_| seq == 0);
                let mut steps = Vec::with_capacity(2);
                steps.extend(verdict.map(|frame| (frame.clone(), Stage::LecOptimization)));
                steps.push((pull, Stage::Assembly));
                Chain::new(self.query, &steps)
            }
        };
        let deadline = self.deadline_budget.map(|d| Instant::now() + d);
        let sent = self
            .pool(transport, router, deadline)
            .send(site, &chain, &mut self.metrics);
        self.in_flight.push_back(Pull {
            site,
            chain,
            deadline,
        });
        sent
    }

    /// Take `site`'s reply to its pull: star rows, or a survivor chunk —
    /// which, unless it is the site's last, re-pulls the site before it
    /// is joined.
    fn land(
        &mut self,
        transport: &dyn Transport,
        router: &ReplyRouter,
        site: usize,
        bodies: Vec<ResponseBody>,
    ) -> Result<(), EngineError> {
        let verdict = match &self.mode {
            StreamMode::Star { .. } => {
                let rows = star_matches(bodies, self.vertex_count)?;
                self.metrics.local_matches += rows.len() as u64;
                self.site_done[site] = true;
                self.pending.extend(rows);
                return Ok(());
            }
            StreamMode::General { drop_pruned, .. } => !drop_pruned.is_empty(),
        };
        let seq = self.site_seq[site];
        let mut replies = bodies.into_iter();
        if verdict && seq == 0 {
            expect_ack(replies.next(), "DropPruned")?;
        }
        let (lpms, last) = match replies.next() {
            Some(ResponseBody::SurvivorsChunk {
                lpms,
                seq: got,
                last,
            }) if got == seq => (lpms, last),
            Some(ResponseBody::SurvivorsChunk { seq: got, .. }) => {
                return Err(EngineError::Protocol(format!(
                    "site {site} answered survivor chunk seq {got}, expected {seq}"
                )))
            }
            other => return Err(unexpected("SurvivorsChunk", "ShipSurvivorsChunk", other)),
        };
        self.site_seq[site] += 1;
        self.site_done[site] = last;
        if !last {
            self.pull(transport, router, site)?;
        }
        self.metrics.surviving_partial_matches += lpms.len() as u64;
        check_lpms(&lpms, self.vertex_count, self.edge_count)?;
        let StreamMode::General { join, .. } = &mut self.mode else {
            unreachable!("star replies returned above");
        };
        match join {
            Join::Lec(joiner) => {
                for lpm in lpms.rows() {
                    let emitted = self.metrics.assembly.time(|| joiner.push(lpm));
                    self.metrics.crossing_matches += emitted.len() as u64;
                    self.pending.extend(emitted);
                }
            }
            Join::Basic(survivors) => survivors.extend(lpms.rows().map(|row| row.to_lpm())),
        }
        Ok(())
    }

    /// Stop the stream early and fuse it; safe to call repeatedly. Every
    /// pull still in flight is received first (charged, then dropped),
    /// so a release's `Ack` is never mistaken for a chunk reply. Then
    /// `ReleaseQuery` goes to every site (idempotent; errors swallowed —
    /// the fleet may already be gone) unless no site holds state: every
    /// site drained, or a star stream, whose chains release their sites
    /// — unless one of them failed.
    pub fn cancel(&mut self, transport: &dyn Transport, router: &ReplyRouter) {
        let mut metrics = std::mem::take(&mut self.metrics);
        let drained = self.drain(transport, router, None, &mut metrics);
        let general = matches!(self.mode, StreamMode::General { .. });
        if (general || !drained) && !self.is_finished() {
            let pool = self.pool(transport, router, self.fresh_deadline());
            pool.release_quietly(&mut metrics.assembly);
        }
        self.metrics = metrics;
        router.forget(self.query);
        self.fuse();
    }

    /// Post-error cleanup, uncharged: receive the pulls still in flight,
    /// release the fleet (a failed chain may have stopped short of
    /// dropping its state), drop any straggler replies parked under the
    /// retired query id, and fuse. A site that timed out is neither
    /// drained nor released: the repair that follows re-dials it, and a
    /// worker's state is per connection, so waiting on it again would
    /// only spend a second deadline.
    fn abort(&mut self, transport: &dyn Transport, router: &ReplyRouter, error: &EngineError) {
        let silent = match error {
            EngineError::Timeout { site, .. } => Some(*site),
            _ => None,
        };
        let mut scratch = QueryMetrics::default();
        self.drain(transport, router, silent, &mut scratch);
        if !self.is_finished() {
            let pool = self.pool(transport, router, self.fresh_deadline());
            pool.release_quietly_skipping(silent, &mut scratch.assembly);
        }
        router.forget(self.query);
        self.fuse();
    }

    /// Receive and drop every pull in flight, each under its own
    /// deadline, except those to `skip`. Returns whether every one of
    /// them was answered without a failure.
    fn drain(
        &mut self,
        transport: &dyn Transport,
        router: &ReplyRouter,
        skip: Option<usize>,
        metrics: &mut QueryMetrics,
    ) -> bool {
        let mut answered = true;
        for pull in std::mem::take(&mut self.in_flight) {
            if Some(pull.site) == skip {
                continue;
            }
            let mut wave = Wave::new(&pull.chain);
            let pool = self.pool(transport, router, pull.deadline);
            answered &= pool
                .receive(pull.site, &pull.chain, &mut wave, metrics)
                .is_ok();
            wave.finish(metrics);
        }
        answered
    }

    /// A deadline one budget from now, for a cancel's release.
    fn fresh_deadline(&self) -> Option<Instant> {
        self.deadline_budget.map(|d| Instant::now() + d)
    }

    /// Mark every site done (none holds state any more), which finishes
    /// the stream, and drop undelivered rows.
    fn fuse(&mut self) {
        self.site_done.fill(true);
        self.pending.clear();
    }

    /// True once the stream is drained, cancelled, or errored — the
    /// sites hold no state for this query anymore.
    pub fn is_finished(&self) -> bool {
        !self.site_done.contains(&false)
    }

    /// The stage metrics accumulated so far (complete once
    /// [`StreamState::next_binding`] has returned `Ok(None)`).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }
}

/// Statically pre-assigned disjoint LEC feature-id range start for
/// `site` in a fleet of `sites`. Deliberately independent of any LPM
/// count: `ComputeLecFeatures` rides in the same chain as `PartialEval`,
/// *before* any site has reported how many LPMs it found. Each site owns
/// `u32::MAX / sites` ids, `lec_first_id(site)..lec_first_id(site + 1)`
/// — orders of magnitude beyond any realistic per-site feature count.
fn lec_first_id(site: usize, sites: usize) -> u32 {
    (u32::MAX / sites as u32) * site as u32
}

/// The star fast path's whole evaluation at one site, as one chain
/// (charged to `partial_evaluation`: for a star it *is* the evaluation).
fn star_chain(query: QueryId, q: &EncodedQuery, center: usize) -> Chain {
    let stage = Stage::PartialEvaluation;
    Chain::new(
        query,
        &[
            (protocol::encode_install_query(query, q), stage),
            (
                protocol::encode_request(&Request::StarMatches { query, center }),
                stage,
            ),
            (
                protocol::encode_request(&Request::ReleaseQuery { query }),
                stage,
            ),
        ],
    )
}

/// A step that must be answered by a plain acknowledgement.
fn expect_ack(reply: Option<ResponseBody>, request: &str) -> Result<(), EngineError> {
    match reply {
        Some(ResponseBody::Ack) => Ok(()),
        other => Err(unexpected("Ack", request, other)),
    }
}

/// One site's replies to [`star_chain`]: the star matches, every row
/// checked to fit a `vertex_count`-vertex query.
fn star_matches(
    bodies: Vec<ResponseBody>,
    vertex_count: usize,
) -> Result<Vec<Vec<VertexId>>, EngineError> {
    let mut replies = bodies.into_iter();
    expect_ack(replies.next(), "InstallQuery")?;
    let rows = match replies.next() {
        Some(ResponseBody::Bindings(rows)) => rows,
        other => return Err(unexpected("Bindings", "StarMatches", other)),
    };
    for row in &rows {
        check_binding_row(row, vertex_count)?;
    }
    expect_ack(replies.next(), "ReleaseQuery")?;
    Ok(rows)
}

/// Reject a wire-supplied binding row that does not fit the query. A
/// malformed-but-decodable worker reply must surface as a protocol error
/// at the boundary, never as an out-of-bounds panic in projection.
fn check_binding_row(row: &[VertexId], vertex_count: usize) -> Result<(), EngineError> {
    if row.len() != vertex_count {
        return Err(EngineError::Protocol(format!(
            "binding row has {} entries for a {vertex_count}-vertex query",
            row.len(),
        )));
    }
    Ok(())
}

/// Reject a wire-supplied LPM batch whose rows do not fit the query
/// (short binding vectors, or a crossing entry mapped to a nonexistent
/// query edge) before assembly indexes into them.
fn check_lpms(lpms: &LpmBatch, vertex_count: usize, edge_count: usize) -> Result<(), EngineError> {
    if !lpms.is_empty() && lpms.width() != vertex_count {
        return Err(EngineError::Protocol(format!(
            "LPM binds {} vertices of a {vertex_count}-vertex query",
            lpms.width(),
        )));
    }
    for row in lpms.rows() {
        for &(_, qe) in row.crossing {
            if qe >= edge_count {
                return Err(EngineError::Protocol(format!(
                    "LPM crossing entry maps query edge {qe} of {edge_count}"
                )));
            }
        }
    }
    Ok(())
}

/// Reject a site's wire-supplied LEC features before pruning uses them.
/// A feature batch ships one `fragments` mask and its first id, and the
/// decoder gives feature *i* the one id `first + i` (Algorithm 1's
/// numbering), so the header is checked once, on the first feature: the
/// mask must be `site`'s own fragment, or condition 1 of Definition 9
/// would misjudge the features; the ids must start at
/// `lec_first_id(site)` and fit the site's range. That keeps the sites'
/// ids disjoint, and the fleet's ids ascending in reply order. Every
/// mapping entry must name a query edge, or pruning would index past the
/// query-edge table.
fn check_features(
    features: &[crate::lec::LecFeature],
    q: &EncodedQuery,
    site: usize,
    sites: usize,
) -> Result<(), EngineError> {
    let Some(head) = features.first() else {
        return Ok(());
    };
    if head.fragments != 1 << site {
        return Err(EngineError::Protocol(format!(
            "site {site} sent LEC features spanning fragments {:#x}",
            head.fragments
        )));
    }
    let first = lec_first_id(site, sites);
    if head.sources != [first] {
        return Err(EngineError::Protocol(format!(
            "site {site}'s LEC features start at id {:?}, not {first}",
            head.sources
        )));
    }
    if features.len() as u64 > u64::from(u32::MAX / sites as u32) {
        return Err(EngineError::Protocol(format!(
            "site {site} sent {} LEC features, more than its id range holds",
            features.len()
        )));
    }
    for &(_, qe) in features.iter().flat_map(|f| &f.mapping) {
        if qe >= q.edge_count() {
            return Err(EngineError::Protocol(format!(
                "LEC feature maps query edge {qe} of {}",
                q.edge_count()
            )));
        }
    }
    Ok(())
}

/// A reply of the wrong kind (or none where one was due) is a protocol
/// violation, not a worker error.
fn unexpected(wanted: &str, request: &str, got: Option<ResponseBody>) -> EngineError {
    let kind = match got {
        None => "nothing",
        Some(ResponseBody::Ack) => "Ack",
        Some(ResponseBody::Bindings(_)) => "Bindings",
        Some(ResponseBody::BitVectors(_)) => "BitVectors",
        Some(ResponseBody::PartialEval { .. }) => "PartialEval",
        Some(ResponseBody::Features(_)) => "Features",
        Some(ResponseBody::Survivors(_)) => "Survivors",
        Some(ResponseBody::SurvivorsChunk { .. }) => "SurvivorsChunk",
        Some(ResponseBody::Status(_)) => "Status",
        Some(ResponseBody::UnknownQuery(_)) => "UnknownQuery",
        Some(ResponseBody::Error(_)) => "Error",
        Some(ResponseBody::Chain(_)) => "Chain",
    };
    EngineError::Protocol(format!("expected {wanted} reply to {request}, got {kind}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::with_in_process_workers;
    use gstored_net::TransportError;
    use gstored_partition::{
        DistributedGraph, ExplicitPartitioner, HashPartitioner, MetisLikePartitioner, Partitioner,
        SemanticHashPartitioner,
    };
    use gstored_rdf::{RdfGraph, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use gstored_store::find_matches;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;

    /// Evaluate `plan` once on a fresh in-process fleet.
    fn execute(
        engine: &Engine,
        dist: &DistributedGraph,
        plan: &PreparedPlan,
    ) -> Result<QueryOutput, EngineError> {
        with_in_process_workers(dist, |transport| engine.execute_on(transport, dist, plan))
    }

    /// Prepare `query` and evaluate it once on a fresh in-process fleet.
    fn run(
        engine: &Engine,
        dist: &DistributedGraph,
        query: &QueryGraph,
    ) -> Result<QueryOutput, EngineError> {
        execute(
            engine,
            dist,
            &PreparedPlan::new(query.clone(), dist.dict())?,
        )
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// The paper's running example graph (Fig. 1), with the vertex ids of
    /// the figure as IRI names for readability.
    fn paper_graph() -> RdfGraph {
        let influenced = "http://o/influencedBy";
        let interest = "http://o/mainInterest";
        let label = "http://o/label";
        let name = "http://o/name";
        let birth_date = "http://o/birthDate";
        let birth_place = "http://o/birthPlace";
        let e = |n: u32| format!("http://e/{n:03}");
        let mut g = RdfGraph::new();
        // F1 content.
        g.insert(&t(&e(1), name, &e(3))); // 003 = "Crispin Wright"@en
        g.insert(&t(&e(1), birth_date, &e(2)));
        g.insert(&t(&e(5), label, &e(4))); // 004 = "Philosophy of language"

        // F2 content.
        g.insert(&t(&e(6), name, &e(7))); // 006 = Michael Dummett
        g.insert(&t(&e(6), interest, &e(8)));
        g.insert(&t(&e(8), label, &e(9)));
        g.insert(&t(&e(6), interest, &e(10)));
        g.insert(&t(&e(10), label, &e(11)));
        g.insert(&t(&e(14), name, &e(18))); // 014 = s2:Phi4 (Rudolf Carnap)

        // F3 content.
        g.insert(&t(&e(12), name, &e(15))); // 012 = Wittgenstein... (name at 015)
        g.insert(&t(&e(12), birth_date, &e(15)));
        g.insert(&t(&e(13), label, &e(17))); // 013 = s3:Int4, 017 = "Logic"@en
        g.insert(&t(&e(19), label, &e(20)));
        g.insert(&t(&e(14), birth_place, &e(19)));
        // Crossing edges.
        g.insert(&t(&e(1), influenced, &e(6))); // 001 -> 006
        g.insert(&t(&e(6), interest, &e(5))); // 006 -> 005
        g.insert(&t(&e(1), influenced, &e(12))); // 001 -> 012
        g.insert(&t(&e(12), interest, &e(13))); // 012 -> 013
        g.insert(&t(&e(14), interest, &e(13))); // 014 -> 013
        g.finalize();
        g
    }

    fn paper_partitioner(g: &RdfGraph) -> ExplicitPartitioner {
        let e = |n: u32| Term::iri(format!("http://e/{n:03}"));
        let mut map = HashMap::new();
        // Fig. 1 layout: 014 (s2:Phi4) and 018 belong to F2, not F3.
        for (frag, ids) in [
            (0usize, vec![1, 2, 3, 4, 5]),
            (1, vec![6, 7, 8, 9, 10, 11, 14, 18]),
            (2, vec![12, 13, 15, 16, 17, 19, 20]),
        ] {
            for id in ids {
                if let Some(v) = g.vertex_of(&e(id)) {
                    map.insert(v, frag);
                }
            }
        }
        ExplicitPartitioner::new(3, map)
    }

    fn paper_query() -> QueryGraph {
        QueryGraph::from_query(
            &parse_query(
                r#"SELECT ?p2 ?l WHERE {
                    ?t <http://o/label> ?l .
                    ?p1 <http://o/influencedBy> ?p2 .
                    ?p2 <http://o/mainInterest> ?t .
                    ?p1 <http://o/name> <http://e/003> .
                }"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn paper_example_all_variants_match_centralized() {
        let g = paper_graph();
        let query = paper_query();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let reference = {
            let mut m = find_matches(&g, &q);
            m.sort_unstable();
            m
        };
        assert!(!reference.is_empty(), "the running example has matches");
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        assert_eq!(dist.validate(), None);
        for variant in Variant::ALL {
            let engine = Engine::with_variant(variant);
            let out = run(&engine, &dist, &query).unwrap();
            let mut got = out.bindings.clone();
            got.sort_unstable();
            assert_eq!(got, reference, "variant {}", variant.label());
        }
    }

    #[test]
    fn paper_example_lpm_counts_match_fig3() {
        // The paper's Fig. 3 lists 3 LPMs in F1, 3 in F2, 2 in F3 for the
        // running example (with the literal spelled as vertex 003).
        use gstored_store::candidates::CandidateFilter;
        use gstored_store::enumerate_local_partial_matches;
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let q = EncodedQuery::encode(&query, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let counts: Vec<usize> = dist
            .fragments
            .iter()
            .map(|f| enumerate_local_partial_matches(f, &q, &filter).len())
            .collect();
        assert_eq!(counts, vec![3, 3, 2], "Fig. 3 structure");
    }

    #[test]
    fn distributed_equals_centralized_on_random_partitionings() {
        let g = paper_graph();
        let query = paper_query();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let reference = {
            let mut m = find_matches(&g, &q);
            m.sort_unstable();
            m
        };
        for seed in 0..6 {
            let dist = DistributedGraph::build(g.clone(), &HashPartitioner::with_seed(3, seed));
            let out = run(&Engine::with_variant(Variant::Full), &dist, &query).unwrap();
            let mut got = out.bindings.clone();
            got.sort_unstable();
            assert_eq!(got, reference, "seed {seed}");
        }
    }

    #[test]
    fn star_fast_path_agrees_with_centralized_oracle() {
        let g = paper_graph();
        let query = QueryGraph::from_query(
            &parse_query(
                "SELECT * WHERE { ?x <http://o/mainInterest> ?a . ?x <http://o/name> ?b }",
            )
            .unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let mut reference = find_matches(&g, &q);
        reference.sort_unstable();
        assert!(!reference.is_empty());
        let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
        let fast = run(&Engine::with_variant(Variant::Full), &dist, &query).unwrap();
        let mut got = fast.bindings.clone();
        got.sort_unstable();
        assert_eq!(got, reference);
        // The fast path ships no LPMs at all.
        assert_eq!(fast.metrics.local_partial_matches, 0);
    }

    #[test]
    fn variants_agree_across_partitioning_strategies() {
        let g = paper_graph();
        let query = paper_query();
        let q = EncodedQuery::encode(&query, g.dict()).unwrap();
        let reference = {
            let mut m = find_matches(&g, &q);
            m.sort_unstable();
            m
        };
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(HashPartitioner::new(4)),
            Box::new(SemanticHashPartitioner::new(4)),
            Box::new(MetisLikePartitioner::new(4)),
        ];
        for p in &partitioners {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            assert_eq!(dist.validate(), None, "{}", p.name());
            for variant in [Variant::Basic, Variant::Full] {
                let out = run(&Engine::with_variant(variant), &dist, &query).unwrap();
                let mut got = out.bindings.clone();
                got.sort_unstable();
                assert_eq!(got, reference, "{} / {}", p.name(), variant.label());
            }
        }
    }

    #[test]
    fn lec_pruning_reduces_shipped_lpms() {
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let basic = run(&Engine::with_variant(Variant::Basic), &dist, &query).unwrap();
        let lo = run(
            &Engine::with_variant(Variant::LecOptimization),
            &dist,
            &query,
        )
        .unwrap();
        assert_eq!(basic.rows, lo.rows);
        assert_eq!(
            basic.metrics.surviving_partial_matches,
            basic.metrics.local_partial_matches
        );
        assert!(
            lo.metrics.surviving_partial_matches < lo.metrics.local_partial_matches,
            "the paper's example prunes PM2_3: {} vs {}",
            lo.metrics.surviving_partial_matches,
            lo.metrics.local_partial_matches
        );
        // Assembly shipment shrinks accordingly.
        assert!(lo.metrics.assembly.bytes_shipped < basic.metrics.assembly.bytes_shipped);
    }

    #[test]
    fn unsatisfiable_query_returns_empty() {
        let g = paper_graph();
        let query = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://o/doesNotExist> ?y }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        let out = run(&Engine::with_variant(Variant::Full), &dist, &query).unwrap();
        assert!(out.rows.is_empty());
        // The short-circuit never messages the workers.
        assert_eq!(out.metrics.total_shipped(), 0);
    }

    #[test]
    fn projection_distinct_and_limit_apply() {
        let g = paper_graph();
        let query = QueryGraph::from_query(
            &parse_query("SELECT DISTINCT ?p WHERE { ?p <http://o/mainInterest> ?t } LIMIT 2")
                .unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
        let out = run(&Engine::with_variant(Variant::Full), &dist, &query).unwrap();
        assert!(out.rows.len() <= 2);
        let unique: HashSet<_> = out.rows.iter().collect();
        assert_eq!(unique.len(), out.rows.len());
    }

    #[test]
    fn predicate_only_projection_is_an_error() {
        let g = paper_graph();
        let query = QueryGraph::from_query(
            &parse_query("SELECT ?p WHERE { <http://e/001> ?p ?y }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        let err = run(&Engine::with_variant(Variant::Full), &dist, &query);
        assert!(matches!(err, Err(EngineError::PredicateOnlyProjection(_))));
    }

    #[test]
    fn metrics_are_populated() {
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let out = run(&Engine::with_variant(Variant::Full), &dist, &query).unwrap();
        let m = &out.metrics;
        assert!(m.local_partial_matches > 0);
        assert!(m.lec_features > 0);
        assert!(
            m.candidates.bytes_shipped > 0,
            "Algorithm 4 ships bit vectors"
        );
        assert!(m.lec_optimization.bytes_shipped > 0, "features ship");
        assert!(m.assembly.bytes_shipped > 0, "surviving LPMs ship");
        assert!(m.total_time() > std::time::Duration::ZERO);
        assert_eq!(m.total_matches(), out.bindings.len() as u64);
    }

    #[test]
    fn shipment_metrics_are_deterministic_across_runs() {
        // Frame-accurate charging must not wobble with thread timing:
        // the fixed-width elapsed stamp keeps every frame length stable.
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let engine = Engine::with_variant(Variant::Full);
        let a = run(&engine, &dist, &query).unwrap();
        let b = run(&engine, &dist, &query).unwrap();
        for (x, y) in [
            (&a.metrics.candidates, &b.metrics.candidates),
            (&a.metrics.partial_evaluation, &b.metrics.partial_evaluation),
            (&a.metrics.lec_optimization, &b.metrics.lec_optimization),
            (&a.metrics.assembly, &b.metrics.assembly),
        ] {
            assert_eq!(x.bytes_shipped, y.bytes_shipped);
            assert_eq!(x.messages, y.messages);
        }
    }

    #[test]
    fn plan_from_other_graph_is_rejected() {
        let g = paper_graph();
        let query = paper_query();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        // A plan encoded against a *different* (smaller) graph's dictionary.
        let other =
            RdfGraph::from_triples(vec![t("http://o/x", "http://o/influencedBy", "http://o/y")]);
        let foreign_plan = PreparedPlan::new(query, other.dict()).unwrap();
        let err = execute(&Engine::with_variant(Variant::Full), &dist, &foreign_plan);
        assert!(matches!(err, Err(EngineError::PlanGraphMismatch { .. })));
    }

    #[test]
    fn malformed_reply_shapes_are_protocol_errors() {
        use gstored_rdf::{EdgeRef, TermId};
        let g = paper_graph();
        let q = EncodedQuery::encode(&paper_query(), g.dict()).unwrap();
        let (n, m) = (q.vertex_count(), q.edge_count());
        // Binding row of the wrong width cannot reach projection.
        assert!(check_binding_row(&[TermId(1)], n).is_err());
        assert!(check_binding_row(&vec![TermId(1); n], n).is_ok());
        // An LPM mapping a nonexistent query edge cannot reach assembly.
        let edge = EdgeRef {
            from: TermId(1),
            label: TermId(2),
            to: TermId(3),
        };
        let mut lpm = LocalPartialMatch {
            fragment: 0,
            binding: vec![None; n],
            crossing: vec![(edge, m)],
            internal_mask: 0,
        };
        let check = |lpm: &LocalPartialMatch| check_lpms(&vec![lpm.clone()].into(), n, m);
        assert!(check(&lpm).is_err());
        lpm.crossing[0].1 = m - 1;
        assert!(check(&lpm).is_ok());
        lpm.binding.pop();
        assert!(check(&lpm).is_err());
        // A feature mapping a nonexistent query edge cannot reach pruning.
        let mut feature = crate::lec::LecFeature {
            fragments: 1,
            mapping: vec![(edge, m + 7)],
            sign: 1,
            sources: vec![0],
        };
        assert!(check_features(&[feature.clone()], &q, 0, 3).is_err());
        // Nor can one whose id strays into another site's range.
        feature.mapping[0].1 = 0;
        assert!(check_features(&[feature.clone()], &q, 0, 3).is_ok());
        feature.fragments = 1 << 1;
        assert!(check_features(&[feature.clone()], &q, 1, 3).is_err());
        feature.sources = vec![lec_first_id(1, 3)];
        assert!(check_features(&[feature.clone()], &q, 1, 3).is_ok());
        feature.sources = vec![lec_first_id(2, 3)];
        assert!(check_features(&[feature.clone()], &q, 1, 3).is_err());
        // Nor one that claims a fragment other than its site's own.
        feature.sources = vec![lec_first_id(1, 3)];
        for fragments in [1, 0b110, 0] {
            feature.fragments = fragments;
            assert!(check_features(&[feature.clone()], &q, 1, 3).is_err());
        }
    }

    /// Algorithm 1's numbering contract at the prune barrier: a site's
    /// feature batch numbers its features from `lec_first_id(site)`. A
    /// batch ships only its first id, so out-of-order, duplicate, skipped
    /// and multi-source ids cannot be written at all; a batch that starts
    /// anywhere else, inside the site's range or in another's, is a
    /// protocol error.
    #[test]
    fn feature_numbering_violations_are_protocol_errors() {
        use crate::protocol::{decode_response, encode_response, Response, ResponseBody};
        use gstored_rdf::{EdgeRef, TermId};
        let g = paper_graph();
        let q = EncodedQuery::encode(&paper_query(), g.dict()).unwrap();
        let edge = EdgeRef {
            from: TermId(1),
            label: TermId(2),
            to: TermId(3),
        };
        let (site, sites) = (1, 3);
        let first = lec_first_id(site, sites);
        // Three features numbered from `start`, through a reply frame.
        let check = |start: u32| {
            let features = (start..start + 3)
                .map(|id| crate::lec::LecFeature {
                    fragments: 1 << site,
                    mapping: vec![(edge, 0)],
                    sign: 1,
                    sources: vec![id],
                })
                .collect();
            let frame = encode_response(&Response::new(
                Duration::ZERO,
                QueryId(0),
                ResponseBody::Features(features),
            ));
            let ResponseBody::Features(features) = decode_response(frame).unwrap().body else {
                panic!("Features decodes as Features");
            };
            check_features(&features, &q, site, sites)
        };
        assert!(check(first).is_ok());
        assert!(check_features(&[], &q, site, sites).is_ok());
        for bad in [
            first + 1,              // not from the range start
            first - 1,              // from the previous site's range
            lec_first_id(2, sites), // from the next site's range
        ] {
            let err = check(bad).expect_err("numbering violation");
            assert!(matches!(err, EngineError::Protocol(_)), "{err:?}");
        }
    }

    #[test]
    fn oversized_candidate_vectors_are_refused_before_any_frame_moves() {
        let g = paper_graph();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(paper_query(), dist.dict()).unwrap();
        let engine = Engine::new(EngineConfig {
            candidate_bits: protocol::MAX_CANDIDATE_BITS,
            ..EngineConfig::variant(Variant::Full)
        });
        with_in_process_workers(&dist, |transport| {
            let err = engine.execute_on(transport, &dist, &plan).unwrap_err();
            assert!(
                matches!(err, EngineError::CandidateVectorsTooLarge { vectors, .. } if vectors > 1),
                "{err}"
            );
            // Only the error path's best-effort release crossed the wire.
            assert_eq!(transport.counters().frames(), 2 * transport.sites() as u64);
        });
    }

    #[test]
    fn wrong_worker_count_is_a_transport_error() {
        let g = paper_graph();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
        let engine = Engine::new(EngineConfig {
            backend: Backend::Tcp {
                workers: vec!["127.0.0.1:1".into()], // 1 address, 3 fragments
            },
            ..EngineConfig::variant(Variant::Full)
        });
        let err = engine.connect_workers(&dist);
        assert!(matches!(err, Err(EngineError::Transport(_))));
    }

    /// A fleet whose every reply reaches the coordinator `.1` late.
    struct Lagging<'t>(&'t dyn Transport, Duration);

    impl Transport for Lagging<'_> {
        fn sites(&self) -> usize {
            self.0.sites()
        }
        fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
            self.0.send(site, frame)
        }
        fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
            std::thread::sleep(self.1);
            if Instant::now() >= deadline {
                return Err(TransportError::TimedOut { site });
            }
            self.0.recv_deadline(site, deadline)
        }
    }

    #[test]
    fn execute_spends_one_deadline_across_its_phases() {
        let g = paper_graph();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(paper_query(), dist.dict()).unwrap();
        // Three phases of three 50 ms replies: each phase fits in the
        // deadline, the front two leave the last only 75 ms.
        let engine = Engine::new(EngineConfig {
            query_deadline: Some(Duration::from_millis(375)),
            ..EngineConfig::variant(Variant::Full)
        });
        with_in_process_workers(&dist, |transport| {
            let lagging = Lagging(transport, Duration::from_millis(50));
            let err = engine.execute_on(&lagging, &dist, &plan).unwrap_err();
            let at_c = matches!(
                err,
                EngineError::Timeout {
                    stage: "assembly",
                    ..
                }
            );
            assert!(at_c, "{err}");
        });
    }

    /// A fleet whose site `.1` stops answering once `.2` is set: each of
    /// its receives waits out its deadline and times out.
    struct GoesDeaf<'t>(&'t dyn Transport, usize, AtomicBool);

    impl Transport for GoesDeaf<'_> {
        fn sites(&self) -> usize {
            self.0.sites()
        }
        fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
            self.0.send(site, frame)
        }
        fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
            if site == self.1 && self.2.load(Ordering::Relaxed) {
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                return Err(TransportError::TimedOut { site });
            }
            self.0.recv_deadline(site, deadline)
        }
    }

    #[test]
    fn an_abort_after_a_timeout_does_not_wait_on_the_silent_site_again() {
        let g = paper_graph();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(paper_query(), dist.dict()).unwrap();
        let deadline = Duration::from_millis(300);
        let engine = Engine::new(EngineConfig {
            query_deadline: Some(deadline),
            ..EngineConfig::variant(Variant::Full)
        });
        with_in_process_workers(&dist, |transport| {
            let deaf = GoesDeaf(transport, 1, AtomicBool::new(false));
            let router = ReplyRouter::new(transport.sites());
            let mut stream = engine
                .start_stream(&deaf, &router, &dist, &plan, one_shot_query_id(), 1)
                .unwrap();
            deaf.2.store(true, Ordering::Relaxed);
            let (err, waited) = loop {
                let started = Instant::now();
                match stream.next_binding(&deaf, &router) {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("site 1 was never pulled"),
                    Err(e) => break (e, started.elapsed()),
                }
            };
            assert!(matches!(err, EngineError::Timeout { site: 1, .. }), "{err}");
            // The pull's own deadline, and no second one for the abort's
            // drain or release.
            assert!(
                waited < deadline * 3 / 2,
                "the failing pull took {waited:?}"
            );
            assert!(stream.is_finished());
        });
    }

    /// Drain a stream to completion, returning sorted bindings.
    fn drain_stream(
        engine: &Engine,
        dist: &DistributedGraph,
        plan: &PreparedPlan,
        chunk: usize,
    ) -> Vec<Vec<VertexId>> {
        with_in_process_workers(dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let mut stream = engine
                .start_stream(transport, &router, dist, plan, one_shot_query_id(), chunk)
                .unwrap();
            let mut rows = Vec::new();
            while let Some(b) = stream.next_binding(transport, &router).unwrap() {
                rows.push(b);
            }
            assert!(stream.is_finished());
            rows.sort_unstable();
            rows
        })
    }

    #[test]
    fn streaming_matches_batch_for_every_variant_and_chunk_size() {
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(query, dist.dict()).unwrap();
        for variant in Variant::ALL {
            let engine = Engine::with_variant(variant);
            let batch = {
                let mut b = execute(&engine, &dist, &plan).unwrap().bindings;
                b.sort_unstable();
                b
            };
            assert!(!batch.is_empty());
            for chunk in [1usize, 2, 7, usize::MAX] {
                let streamed = drain_stream(&engine, &dist, &plan, chunk);
                assert_eq!(streamed, batch, "variant {} chunk {chunk}", variant.label());
            }
        }
    }

    #[test]
    fn streaming_star_fast_path_matches_batch() {
        let g = paper_graph();
        let query = QueryGraph::from_query(
            &parse_query(
                "SELECT * WHERE { ?x <http://o/mainInterest> ?a . ?x <http://o/name> ?b }",
            )
            .unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
        let plan = PreparedPlan::new(query, dist.dict()).unwrap();
        let engine = Engine::with_variant(Variant::Full);
        let batch = {
            let mut b = execute(&engine, &dist, &plan).unwrap().bindings;
            b.sort_unstable();
            b
        };
        assert!(!batch.is_empty());
        let streamed = drain_stream(&engine, &dist, &plan, 4);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_unsatisfiable_query_is_born_drained() {
        let g = paper_graph();
        let query = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://o/doesNotExist> ?y }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        let plan = PreparedPlan::new(query, dist.dict()).unwrap();
        let engine = Engine::with_variant(Variant::Full);
        let rows = drain_stream(&engine, &dist, &plan, 8);
        assert!(rows.is_empty());
    }

    #[test]
    fn cancelling_a_stream_midway_releases_every_site() {
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(query, dist.dict()).unwrap();
        let engine = Engine::with_variant(Variant::Full);
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let mut stream = engine
                .start_stream(transport, &router, &dist, &plan, one_shot_query_id(), 1)
                .unwrap();
            // Pull exactly one binding, then walk away.
            let first = stream.next_binding(transport, &router).unwrap();
            assert!(first.is_some());
            stream.cancel(transport, &router);
            assert!(stream.is_finished());
            // Every site's state table is empty again.
            let pool = WorkerPool::new(transport, &router, NetworkModel::default(), QueryId(0));
            for status in pool.worker_status().unwrap() {
                assert_eq!(status.resident_queries, 0);
            }
            // Cancelling again is a no-op, and the fused stream stays dry.
            stream.cancel(transport, &router);
            assert_eq!(stream.next_binding(transport, &router).unwrap(), None);
        });
    }

    #[test]
    fn streaming_peak_resident_is_bounded_by_total_survivors() {
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(query, dist.dict()).unwrap();
        let engine = Engine::with_variant(Variant::Full);
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let mut stream = engine
                .start_stream(transport, &router, &dist, &plan, one_shot_query_id(), 1)
                .unwrap();
            while stream.next_binding(transport, &router).unwrap().is_some() {}
            // The joiner buffers the LPMs it was pushed and nothing else:
            // the survivors, which chunking neither adds to nor loses.
            let survivors = stream.metrics().surviving_partial_matches;
            let batch = engine.execute_on(transport, &dist, &plan).unwrap();
            assert!(survivors > 0);
            assert_eq!(survivors, batch.metrics.surviving_partial_matches);
        });
    }

    #[test]
    fn basic_streams_join_once_the_last_site_is_drained() {
        use gstored_store::{candidates::CandidateFilter, enumerate_local_partial_matches};
        let g = paper_graph();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(paper_query(), dist.dict()).unwrap();
        let q = plan.encoded();
        let none = CandidateFilter::none(q.vertex_count());
        // Basic prunes nothing: its survivors are every site's LPMs.
        let survivors: Vec<LocalPartialMatch> = (dist.fragments.iter())
            .flat_map(|f| enumerate_local_partial_matches(f, q, &none))
            .collect();
        let mut reference = assemble_basic(&survivors, q.vertex_count());
        reference.sort_unstable();
        assert!(!reference.is_empty());
        with_in_process_workers(&dist, |transport| {
            let router = ReplyRouter::new(transport.sites());
            let mut stream = Engine::with_variant(Variant::Basic)
                .start_stream(transport, &router, &dist, &plan, one_shot_query_id(), 1)
                .unwrap();
            // Rows handed out before the last site is drained can only be
            // the local complete matches.
            let (mut early, mut late) = (0, Vec::new());
            while let Some(row) = stream.next_binding(transport, &router).unwrap() {
                if stream.is_finished() {
                    late.push(row);
                } else {
                    early += 1;
                }
            }
            assert_eq!(early, stream.metrics().local_matches);
            late.sort_unstable();
            assert_eq!(late, reference);
        });
    }

    #[test]
    fn prepared_plan_reuse_matches_one_shot_across_variants() {
        let g = paper_graph();
        let query = paper_query();
        let partitioner = paper_partitioner(&g);
        let dist = DistributedGraph::build(g, &partitioner);
        let plan = PreparedPlan::new(query.clone(), dist.dict()).unwrap();
        for variant in Variant::ALL {
            let engine = Engine::with_variant(variant);
            let one_shot = run(&engine, &dist, &query).unwrap();
            // The same plan re-executes any number of times.
            for _ in 0..3 {
                let out = execute(&engine, &dist, &plan).unwrap();
                assert_eq!(out.rows, one_shot.rows, "variant {}", variant.label());
                assert_eq!(out.bindings, one_shot.bindings);
            }
        }
    }
}
