//! The cost-based planner behind [`Variant::Auto`]: pick the engine
//! variant per query instead of per session.
//!
//! The paper's four variants (Fig. 9) have no single winner — the
//! committed `BENCH_PR4.json` shows the best one flipping with the
//! workload (`gStoreD-Basic` wins or ties on semantically partitioned
//! LUBM, yet is ~20× worse than the LEC variants on crossing-heavy
//! random graphs under hashing). What decides the race is how many
//! local partial matches (LPMs, Definition 5) the crossing edges seed,
//! because every downstream stage — feature computation (Definition 8),
//! LEC grouping (Definition 10), pruning (Algorithm 2), assembly
//! (Algorithm 3) — is work per LPM or per LPM *pair*.
//!
//! The planner therefore estimates exactly that quantity from the
//! per-fragment statistics cached on the [`DistributedGraph`]
//! ([`gstored_rdf::stats::PartitionStats`], computed lazily so explicit
//! variants never pay for it) and the query shape in the
//! [`PreparedPlan`], prices each variant's pipeline with a handful of
//! per-unit coefficients, and picks the cheapest:
//!
//! * **Partial evaluation** scans candidate edges on every variant —
//!   a common term, charged per matching internal + crossing edge.
//! * **`Basic`** joins LPMs pairwise without LEC grouping: quadratic in
//!   the estimated LPM count. Unbeatable when almost nothing crosses,
//!   catastrophic when the fan-out blows up.
//! * **`LecAssembly`** pays a near-linear grouping/hash-join term
//!   instead — the safe default once LPM counts clear a few hundred.
//! * **`LecOptimization`** adds Algorithm 2's pruning: an extra
//!   per-feature charge that only pays off by shrinking *shipment*, so
//!   it wins only when the estimated survivor ratio is low (many
//!   fragments per feature group that cannot complete).
//! * **`Full`** adds Algorithm 4's candidate exchange: a fixed per-site
//!   bit-vector shipment plus per-vertex marking, credited against the
//!   partial-evaluation scan in proportion to the estimated candidate
//!   selectivity of the query's constants and classes.
//!
//! The estimates are deliberately coarse — counts and ratios, no
//! per-bucket convolution — but they are **finite, deterministic and
//! monotone in fragment size** (pinned by the planner-equivalence
//! proptests), and they separate the committed workloads by an order of
//! magnitude, which is all a variant picker needs.

use gstored_partition::DistributedGraph;
use gstored_rdf::stats::PartitionStats;
use gstored_store::{EncodedLabel, EncodedQuery, EncodedVertex};

use crate::engine::Variant;
use crate::prepared::PreparedPlan;

/// Per-unit cost coefficients (arbitrary units; only ratios matter).
/// Calibrated against the committed `BENCH_PR4.json` sweep: the
/// `Basic`/`LecAssembly` crossover sits at roughly 170 estimated LPMs,
/// far below every committed workload cell (where the LEC variants
/// measure up to 20× faster) yet far above the no-crossing regimes
/// where `Basic` actually wins.
const COST_SCAN: f64 = 1.0; // per candidate edge scanned during PE
const COST_PAIR_JOIN: f64 = 0.05; // per LPM pair Basic's join may touch
const COST_HASH_JOIN: f64 = 1.0; // per LPM through the LEC hash join
const COST_PRUNE: f64 = 2.5; // per feature through Algorithm 2
const COST_SHIP: f64 = 0.5; // per LPM shipped to the coordinator
const COST_EXCHANGE_PER_SITE: f64 = 400.0; // per site², bit-vector shipment
const COST_MARK: f64 = 0.05; // per internal vertex marked (Alg. 4)

/// The planner's verdict for one (distributed graph, prepared plan)
/// pair: the chosen variant plus every estimate that produced it, kept
/// for [`PlanExplain`] reports and the server's `/status`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerDecision {
    /// The cheapest explicit variant (never [`Variant::Auto`]).
    pub chosen: Variant,
    /// Estimated pipeline cost per explicit variant, in
    /// [`Variant::ALL`] order (abstract units; only ratios matter).
    pub costs: Vec<(Variant, f64)>,
    /// Estimated local-partial-match count across all sites.
    pub est_lpms: f64,
    /// Estimated crossing-edge incidences matching the query's edges —
    /// the fan-out seed the LPM estimate grows from.
    pub est_crossing_fanout: f64,
    /// Estimated internal edges matching the query's edges (the partial
    /// evaluation scan volume).
    pub est_internal_scan: f64,
    /// Estimated fraction of candidate vertices surviving Algorithm 4's
    /// exchange (1.0 = exchange filters nothing).
    pub est_candidate_selectivity: f64,
}

impl PlannerDecision {
    /// The estimated cost of one explicit variant.
    pub fn cost_of(&self, v: Variant) -> f64 {
        self.costs
            .iter()
            .find(|&&(cv, _)| cv == v)
            .map(|&(_, c)| c)
            .expect("costs cover every explicit variant")
    }
}

/// Estimate the cost of every explicit variant for `plan` over `dist`
/// and pick the cheapest. Deterministic: same graph, same plan, same
/// decision. Computes (and caches) the partition statistics on first
/// use.
pub fn plan_query(dist: &DistributedGraph, plan: &PreparedPlan) -> PlannerDecision {
    let stats = dist.stats();
    let q = plan.encoded();

    // --- The crossing/internal scan volume ---
    let mut crossing_fanout = 0.0;
    let mut internal_scan = 0.0;
    for e in q.edges() {
        let (crossing, internal) = match e.label {
            EncodedLabel::Const(p) => (
                stats.crossing_count(Some(p)) as f64,
                stats.internal_count(Some(p)) as f64,
            ),
            EncodedLabel::Any => (
                stats.crossing_count(None) as f64,
                stats.internal_count(None) as f64,
            ),
            // A constant the dictionary has never seen matches nothing.
            EncodedLabel::Unsatisfiable => (0.0, 0.0),
        };
        crossing_fanout += crossing;
        internal_scan += internal;
    }

    // --- Candidate selectivity: constants and class constraints bind
    // during local matching on EVERY variant (a constant vertex admits
    // exactly one data vertex regardless of pipeline), so it damps the
    // LPM estimate itself, not any one variant's column. A free query
    // (all variables, no classes) has selectivity 1.0.
    let est_candidate_selectivity = candidate_selectivity(stats, q);

    // --- LPM blowup: every crossing incidence matching some query edge
    // seeds partial matches, each further query edge multiplies by the
    // mean branching of the stored adjacency, and the query's constants
    // and classes thin the result. Clamped so the estimate stays finite
    // on any input.
    let branch = stats.mean_degree().clamp(1.0, 16.0);
    let extra_edges = q.edge_count().saturating_sub(1) as f64;
    let est_lpms =
        (crossing_fanout * branch.powf(extra_edges.min(4.0))).min(1e12) * est_candidate_selectivity;

    // --- Price each variant's pipeline ---
    let pe = (internal_scan + crossing_fanout) * COST_SCAN;
    let ship = est_lpms * COST_SHIP;
    // Features dedup LPMs sharing (fragments, crossing mapping, sign);
    // hubs compress heavily. A fixed dedup ratio keeps this monotone.
    let est_features = est_lpms * 0.5;
    // Pruning helps when LPM groups are unlikely to complete; more
    // sites → more partial coverage → more prunable. Coarse proxy.
    let sites = stats.sites.len().max(1) as f64;
    let survivor_ratio = (2.0 / sites).clamp(0.25, 1.0);

    let cost_basic = pe + ship + est_lpms * est_lpms * COST_PAIR_JOIN;
    let lec_join = est_lpms * (1.0 + (est_lpms + 1.0).log2()) * COST_HASH_JOIN;
    let cost_la = pe + ship + lec_join;
    let cost_lo = pe + est_features * COST_PRUNE + ship * survivor_ratio + lec_join;
    let exchange = sites * sites * COST_EXCHANGE_PER_SITE + stats.total_vertices as f64 * COST_MARK;
    // Full's exchange only buys back scan work the LOCAL filters could
    // not: its credit is confined to the partial-evaluation term. The
    // LPM-proportional stages already run on the selectivity-damped
    // estimate on every variant.
    let cost_full = pe * est_candidate_selectivity
        + exchange
        + est_features * COST_PRUNE
        + ship * survivor_ratio
        + lec_join;

    let costs = vec![
        (Variant::Basic, cost_basic),
        (Variant::LecAssembly, cost_la),
        (Variant::LecOptimization, cost_lo),
        (Variant::Full, cost_full),
    ];
    // Strict first-wins argmin: on exact cost ties (e.g. a single
    // fragment, where every LEC stage prices to zero) prefer the
    // *simplest* pipeline, which `Variant::ALL` lists first.
    let mut chosen = costs[0];
    for &c in &costs[1..] {
        if c.1 < chosen.1 {
            chosen = c;
        }
    }
    let chosen = chosen.0;

    PlannerDecision {
        chosen,
        costs,
        est_lpms,
        est_crossing_fanout: crossing_fanout,
        est_internal_scan: internal_scan,
        est_candidate_selectivity,
    }
}

/// Estimated fraction of candidate vertices that survive Algorithm 4's
/// exchange: the product over constant vertices (each pins exactly one
/// data vertex) and class-constrained vertices (each keeps only its
/// class population) of their selectivities, floored so the estimate
/// never claims a free lunch.
fn candidate_selectivity(stats: &PartitionStats, q: &EncodedQuery) -> f64 {
    let total = stats.total_vertices.max(1) as f64;
    let mut selectivity: f64 = 1.0;
    for v in 0..q.vertex_count() {
        let vertex_sel = match q.vertex(v) {
            EncodedVertex::Const(_) | EncodedVertex::Unsatisfiable => 1.0 / total,
            EncodedVertex::Var => match q.required_classes(v).ids() {
                Some(classes) if !classes.is_empty() => classes
                    .iter()
                    .map(|&c| stats.class_count(c) as f64 / total)
                    .fold(1.0, f64::min),
                _ => 1.0,
            },
        };
        // Each constrained vertex thins the joint candidate space, but
        // far from independently; damp the product.
        selectivity *= vertex_sel.sqrt().max(0.01);
    }
    selectivity.clamp(0.001, 1.0)
}

/// An explain report: the planner's estimates next to what one
/// execution actually measured. Produced by the umbrella session's
/// `PreparedQuery::explain()`; the numbers come straight from
/// [`PlannerDecision`] and [`gstored_net::QueryMetrics`].
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// The variant the session was configured with (possibly `Auto`).
    pub configured: Variant,
    /// The variant that actually executed.
    pub chosen: Variant,
    /// The full planner verdict (estimates and costs).
    pub decision: PlannerDecision,
    /// Measured local partial matches across all sites.
    pub actual_lpms: u64,
    /// Measured LPMs surviving pruning (equals `actual_lpms` for
    /// variants without Algorithm 2).
    pub actual_survivors: u64,
    /// Measured crossing (inter-fragment) matches.
    pub actual_crossing_matches: u64,
    /// Rows the execution returned (after projection/DISTINCT/LIMIT).
    pub rows: u64,
}

impl PlanExplain {
    /// Render a compact human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "configured: {}, chosen: {}\n",
            self.configured.label(),
            self.chosen.label()
        ));
        out.push_str(&format!(
            "estimated: lpms {:.0}, crossing fan-out {:.0}, selectivity {:.3}\n",
            self.decision.est_lpms,
            self.decision.est_crossing_fanout,
            self.decision.est_candidate_selectivity,
        ));
        out.push_str(&format!(
            "actual:    lpms {}, survivors {}, crossing matches {}, rows {}\n",
            self.actual_lpms, self.actual_survivors, self.actual_crossing_matches, self.rows,
        ));
        out.push_str("costs:");
        for &(v, c) in &self.decision.costs {
            out.push_str(&format!(" {}={c:.0}", v.label()));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::HashPartitioner;
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};

    fn crossing_heavy(n: usize) -> RdfGraph {
        // Hub-and-spoke with a second predicate chain: hashing scatters
        // it, so nearly every edge crosses.
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push(Triple::new(
                Term::iri(format!("http://v/{i}")),
                Term::iri("http://p/0"),
                Term::iri(format!("http://v/{}", (i + 1) % n)),
            ));
            triples.push(Triple::new(
                Term::iri(format!("http://v/{i}")),
                Term::iri("http://p/1"),
                Term::iri("http://hub"),
            ));
        }
        let mut g = RdfGraph::from_triples(triples);
        g.finalize();
        g
    }

    fn plan_for(dist: &DistributedGraph, text: &str) -> PreparedPlan {
        let query = QueryGraph::from_query(&parse_query(text).unwrap()).unwrap();
        PreparedPlan::new(query, dist.dict()).unwrap()
    }

    #[test]
    fn decision_is_deterministic_and_finite() {
        let dist = DistributedGraph::build(crossing_heavy(40), &HashPartitioner::new(4));
        let plan = plan_for(
            &dist,
            "SELECT * WHERE { ?a <http://p/0> ?b . ?b <http://p/1> ?c }",
        );
        let d1 = plan_query(&dist, &plan);
        let d2 = plan_query(&dist, &plan);
        assert_eq!(d1, d2, "same inputs, same decision");
        for &(v, c) in &d1.costs {
            assert!(c.is_finite() && c >= 0.0, "{}: cost {c}", v.label());
        }
        assert!(d1.est_lpms.is_finite());
        assert_ne!(d1.chosen, Variant::Auto);
    }

    #[test]
    fn crossing_heavy_queries_avoid_basic() {
        let dist = DistributedGraph::build(crossing_heavy(60), &HashPartitioner::new(4));
        let plan = plan_for(
            &dist,
            "SELECT * WHERE { ?a <http://p/0> ?b . ?b <http://p/1> ?c }",
        );
        let d = plan_query(&dist, &plan);
        assert!(
            d.est_crossing_fanout > 0.0,
            "hash scatter must produce crossing edges"
        );
        assert_ne!(
            d.chosen,
            Variant::Basic,
            "quadratic pairwise join must price itself out: {d:?}"
        );
    }

    #[test]
    fn tiny_partitionings_pick_basic() {
        // One fragment: nothing crosses, every LEC stage is pure overhead.
        let dist = DistributedGraph::build(crossing_heavy(10), &HashPartitioner::new(1));
        let plan = plan_for(
            &dist,
            "SELECT * WHERE { ?a <http://p/0> ?b . ?b <http://p/0> ?c }",
        );
        let d = plan_query(&dist, &plan);
        assert_eq!(d.est_crossing_fanout, 0.0);
        assert_eq!(d.chosen, Variant::Basic, "{d:?}");
    }

    /// Growing every fragment (more data, same shape) never shrinks the
    /// estimates — the monotonicity the proptests pin at scale.
    #[test]
    fn estimates_are_monotone_in_fragment_size() {
        let small = DistributedGraph::build(crossing_heavy(20), &HashPartitioner::new(4));
        let large = DistributedGraph::build(crossing_heavy(80), &HashPartitioner::new(4));
        let text = "SELECT * WHERE { ?a <http://p/0> ?b . ?b <http://p/1> ?c }";
        let ds = plan_query(&small, &plan_for(&small, text));
        let dl = plan_query(&large, &plan_for(&large, text));
        assert!(dl.est_crossing_fanout >= ds.est_crossing_fanout);
        assert!(dl.est_lpms >= ds.est_lpms);
        for (s, l) in ds.costs.iter().zip(&dl.costs) {
            assert!(l.1 >= s.1, "{}: {} < {}", s.0.label(), l.1, s.1);
        }
    }

    #[test]
    fn explain_report_renders_every_section() {
        let dist = DistributedGraph::build(crossing_heavy(20), &HashPartitioner::new(2));
        let plan = plan_for(&dist, "SELECT * WHERE { ?a <http://p/0> ?b }");
        let decision = plan_query(&dist, &plan);
        let explain = PlanExplain {
            configured: Variant::Auto,
            chosen: decision.chosen,
            decision,
            actual_lpms: 7,
            actual_survivors: 5,
            actual_crossing_matches: 3,
            rows: 2,
        };
        let report = explain.report();
        assert!(report.contains("configured: gStoreD-Auto"));
        assert!(report.contains("estimated:"));
        assert!(report.contains("actual:"));
        assert!(report.contains("costs:"));
    }
}
