//! The planner behind [`Variant::Auto`]: pick the stage set per query
//! instead of per session.
//!
//! Auto chooses between two of the paper's four variants (Fig. 9) with
//! one rule over facts every query already has:
//!
//! * the **crossing share** *s* — of the edges matching the query's
//!   predicates, the fraction that cross fragments:
//!   `est_crossing_fanout / (est_crossing_fanout + est_internal_scan)`,
//!   both summed over the query's edges from the per-fragment
//!   statistics cached on the [`DistributedGraph`]
//!   ([`gstored_rdf::stats::PartitionStats`], computed lazily so
//!   explicit variants never pay for it);
//! * the query **shape** from the [`PreparedPlan`]'s
//!   [`gstored_sparql::ShapeReport`]: whether it is cyclic, and whether
//!   it has a selective pattern (a constant subject or object, or a
//!   class constraint).
//!
//! Auto runs **`Full`** when *s* ≥ ½ and the query is cyclic or
//! selective, and **`LecAssembly`** otherwise. Where most matching
//! edges cross, local partial matches (Definition 5) dominate the work,
//! and the two stages `Full` adds over `LA` shrink them: Algorithm 4's
//! candidate exchange binds a selective query's variables before
//! partial evaluation, and Algorithm 2's LEC pruning drops the many
//! partial matches of a cycle that can never close. Where little
//! crosses, or the query is an unselective acyclic path, both stages
//! are messages and CPU that buy nothing back, and `LA` is faster.
//! Measured *s* is 0.93–0.94 on hash-partitioned LUBM, 0.95 on hash
//! RANDOM, 0.04–0.27 on METIS-like and 0–0.09 on semantic-hash LUBM, so
//! the ½ threshold sits far from every measured cell (see
//! `docs/planner.md` for the sweep).
//!
//! Auto never picks `Basic`, whose pairwise join is quadratic in the LPM
//! count, nor `LecOptimization`, which pays for pruning without the
//! exchange's filter; both stay explicit variants for the Fig. 9
//! ladder.
//!
//! The decision also carries an LPM estimate for observability — the
//! crossing fan-out grown by the mean adjacency degree per extra query
//! edge and thinned by the query's constants and classes — which
//! [`PlanExplain`] sets beside the measured count.
//!
//! `BENCH_PR10.json` is history: it measured the per-variant cost model
//! this rule replaced, whose coefficients predate the cheap candidate
//! exchange and pruning and had come to pick `LA` where `Full` was
//! faster.

use gstored_partition::DistributedGraph;
use gstored_rdf::stats::PartitionStats;
use gstored_sparql::QueryShape;
use gstored_store::{EncodedLabel, EncodedQuery, EncodedVertex};

use crate::engine::Variant;
use crate::prepared::PreparedPlan;

/// The crossing share from which a cyclic or selective query runs `Full`.
const FULL_MIN_CROSSING_SHARE: f64 = 0.5;

/// The planner's verdict for one (distributed graph, prepared plan)
/// pair: the chosen variant, the rule's three inputs and the estimates,
/// kept for [`PlanExplain`] reports and the server's `/status`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerDecision {
    /// [`Variant::Full`] or [`Variant::LecAssembly`].
    pub chosen: Variant,
    /// Fraction of the edges matching the query's predicates that cross
    /// fragments (0 when none match).
    pub crossing_share: f64,
    /// Whether the query graph has a cycle.
    pub cyclic: bool,
    /// Whether the query has a constant subject or object or a class
    /// constraint.
    pub selective: bool,
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

/// Apply Auto's rule to `plan` over `dist`. Deterministic: same graph,
/// same plan, same decision. Computes (and caches) the partition
/// statistics on first use.
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
    // LPM estimate. A free query (all variables, no classes) has
    // selectivity 1.0.
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

    // --- The rule ---
    let scanned = crossing_fanout + internal_scan;
    let crossing_share = if scanned > 0.0 {
        crossing_fanout / scanned
    } else {
        0.0
    };
    let shape = plan.shape();
    let cyclic = shape.shape == QueryShape::Cyclic;
    let selective = shape.has_selective_pattern;
    let chosen = if crossing_share >= FULL_MIN_CROSSING_SHARE && (cyclic || selective) {
        Variant::Full
    } else {
        Variant::LecAssembly
    };

    PlannerDecision {
        chosen,
        crossing_share,
        cyclic,
        selective,
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
    /// The full planner verdict (the rule's inputs and the estimates).
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
        out.push_str(&format!(
            "rule:      crossing share {:.2} (Full from {FULL_MIN_CROSSING_SHARE:.2} if cyclic or selective), cyclic {}, selective {}\n",
            self.decision.crossing_share, self.decision.cyclic, self.decision.selective,
        ));
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
        assert!((0.0..=1.0).contains(&d1.crossing_share), "{d1:?}");
        assert!(d1.est_lpms.is_finite());
        assert!(matches!(d1.chosen, Variant::LecAssembly | Variant::Full));
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
    fn single_fragment_queries_run_la() {
        // One fragment: nothing crosses, so even a cycle runs LA.
        let dist = DistributedGraph::build(crossing_heavy(10), &HashPartitioner::new(1));
        let plan = plan_for(
            &dist,
            "SELECT * WHERE { ?a <http://p/0> ?b . ?b <http://p/0> ?c . ?c <http://p/0> ?a }",
        );
        let d = plan_query(&dist, &plan);
        assert_eq!(d.est_crossing_fanout, 0.0);
        assert_eq!(d.crossing_share, 0.0);
        assert!(d.cyclic);
        assert_eq!(d.chosen, Variant::LecAssembly, "{d:?}");
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
        assert!(report.contains("rule:"));
    }
}
