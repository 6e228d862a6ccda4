//! Local partial match enumeration (Definition 5 of the paper).
//!
//! Every LPM decomposes as:
//!
//! * an **internal core** `C` — the query vertices mapped to internal
//!   vertices; condition 6 forces `C` to be weakly connected in `Q`, and
//!   condition 5 forces every query edge incident to `C` to be matched;
//! * a **boundary** `∂C` — the query vertices adjacent to `C` but outside
//!   it; each binds to an *extended* vertex across a crossing edge (a
//!   boundary vertex bound to an internal vertex would belong to a larger
//!   core, which is enumerated separately — no double counting);
//! * everything else maps to `NULL`.
//!
//! Edges between two boundary vertices are never stored in a fragment
//! (crossing edges have exactly one internal endpoint), and condition 3
//! explicitly allows them to stay unmatched. Condition 4 (≥ 1 crossing
//! edge) holds because a proper connected subset of a connected query
//! always has a boundary edge.
//!
//! The enumerator therefore iterates the proper connected vertex subsets
//! of `Q` as candidate cores and runs a backtracking homomorphism search
//! per core: core vertices draw from internal candidate sets, boundary
//! vertices from the crossing-edge neighborhoods of their bound core
//! neighbors. Verified against the paper's Fig. 3: all eight LPMs of the
//! running example, and nothing else, are produced.

use gstored_partition::Fragment;
use gstored_rdf::{EdgeRef, TermId, VertexId};

use crate::candidates::{internal_candidates, label_edge_range, CandidateFilter};
use crate::encoded::{EncodedLabel, EncodedQuery, EncodedVertex};
use crate::labels::labels_assignment;
use crate::lpm::LocalPartialMatch;
use crate::matcher::{for_each_anchored_candidate, pairs_consistent};

/// Enumerate all local partial matches of `q` in `fragment`.
///
/// `filter` plugs in Algorithm 4's candidate bit vectors (extended-vertex
/// bindings that no site reported as internal candidates are skipped);
/// pass [`CandidateFilter::none`] to disable.
pub fn enumerate_local_partial_matches(
    fragment: &Fragment,
    q: &EncodedQuery,
    filter: &CandidateFilter,
) -> Vec<LocalPartialMatch> {
    if q.has_unsatisfiable() || fragment.crossing_edges.is_empty() {
        return Vec::new();
    }
    partial_matches_from(fragment, q, &internal_candidates(fragment, q), filter)
}

/// [`enumerate_local_partial_matches`] over precomputed internal
/// candidates `internal_cands` (one sorted set per query vertex, as
/// [`internal_candidates`] returns them), so a site that already computed
/// them for Algorithm 4 or its local complete matches does not again.
///
/// Besides the output vector, an emitted match allocates only its own
/// binding and crossing list; everything else is set up once per query
/// or per core.
pub fn partial_matches_from(
    fragment: &Fragment,
    q: &EncodedQuery,
    internal_cands: &[Vec<VertexId>],
    filter: &CandidateFilter,
) -> Vec<LocalPartialMatch> {
    let n = q.vertex_count();
    assert!(n <= 64, "LECSign masks are 64-bit");
    debug_assert_eq!(internal_cands.len(), n);
    if q.has_unsatisfiable() || fragment.crossing_edges.is_empty() {
        // Without crossing edges no LPM can satisfy condition 4.
        return Vec::new();
    }

    let neighbors: Vec<Vec<usize>> = (0..n).map(|v| q.neighbors(v)).collect();
    let parallel = ParallelEdges::of(q);
    let mut out = Vec::new();
    'subsets: for core in q.proper_connected_subsets() {
        for &qv in &core {
            if internal_cands[qv].is_empty() {
                continue 'subsets;
            }
        }
        let search = CoreSearch::new(
            fragment,
            q,
            &neighbors,
            &parallel,
            &core,
            internal_cands,
            filter,
        );
        let mut binding: Vec<Option<VertexId>> = vec![None; n];
        let mut buffers = vec![Vec::new(); search.order.len() - search.core_len];
        search.extend(0, &mut binding, &mut buffers, &mut out);
    }
    out
}

/// The query's groups of two or more parallel edges (same ordered pair of
/// query vertices) with a variable label among them: only there does a
/// crossing edge's data label depend on its siblings, through
/// [`labels_assignment`]. Elsewhere a constant label is the data label
/// and a variable one takes the first (smallest) label between the bound
/// endpoints, which is what the assignment picks for a lone edge.
struct ParallelEdges {
    /// Per query edge, its group's index in `groups`.
    group_of: Vec<Option<usize>>,
    /// Each group's query edges, ascending.
    groups: Vec<Vec<usize>>,
}

impl ParallelEdges {
    fn of(q: &EncodedQuery) -> Self {
        let mut group_of = vec![None; q.edge_count()];
        let mut groups = Vec::new();
        for (i, e) in q.edges().iter().enumerate() {
            if group_of[i].is_some() {
                continue;
            }
            let group: Vec<usize> = (i..q.edge_count())
                .filter(|&j| (q.edge(j).from, q.edge(j).to) == (e.from, e.to))
                .collect();
            let variable = group
                .iter()
                .any(|&j| matches!(q.edge(j).label, EncodedLabel::Any));
            if group.len() > 1 && variable {
                for &j in &group {
                    group_of[j] = Some(groups.len());
                }
                groups.push(group);
            }
        }
        ParallelEdges { group_of, groups }
    }
}

/// One core's backtracking search: everything that stays fixed while
/// its bindings vary.
struct CoreSearch<'a> {
    fragment: &'a Fragment,
    q: &'a EncodedQuery,
    parallel: &'a ParallelEdges,
    internal_cands: &'a [Vec<VertexId>],
    filter: &'a CandidateFilter,
    in_core: Vec<bool>,
    /// The LECSign of every match of this core.
    internal_mask: u64,
    /// Core vertices in connected-expansion order (cheapest candidate set
    /// first), then the boundary vertices.
    order: Vec<usize>,
    core_len: usize,
    /// The query edges between the core and its boundary, ascending: the
    /// crossing edges every match of this core records.
    crossing: Vec<usize>,
}

impl<'a> CoreSearch<'a> {
    fn new(
        fragment: &'a Fragment,
        q: &'a EncodedQuery,
        neighbors: &[Vec<usize>],
        parallel: &'a ParallelEdges,
        core: &[usize],
        internal_cands: &'a [Vec<VertexId>],
        filter: &'a CandidateFilter,
    ) -> Self {
        let n = q.vertex_count();
        let mut in_core = vec![false; n];
        let mut internal_mask = 0u64;
        for &v in core {
            in_core[v] = true;
            internal_mask |= 1 << v;
        }
        // Boundary: neighbors of the core outside it (forced by condition 5).
        let mut boundary: Vec<usize> = core
            .iter()
            .flat_map(|&v| neighbors[v].iter().copied())
            .filter(|&u| !in_core[u])
            .collect();
        boundary.sort_unstable();
        boundary.dedup();

        let mut order: Vec<usize> = Vec::with_capacity(core.len() + boundary.len());
        let mut placed = vec![false; n];
        let first = core
            .iter()
            .copied()
            .min_by_key(|&v| internal_cands[v].len())
            .expect("core is non-empty");
        order.push(first);
        placed[first] = true;
        while order.len() < core.len() {
            let next = core
                .iter()
                .copied()
                .filter(|&v| !placed[v])
                .min_by_key(|&v| {
                    let connected = neighbors[v].iter().any(|&u| placed[u]);
                    (if connected { 0 } else { 1 }, internal_cands[v].len())
                })
                .expect("loop bounded by |core|");
            order.push(next);
            placed[next] = true;
        }
        order.extend(boundary.iter().copied());

        let crossing = (0..q.edge_count())
            .filter(|&i| {
                let e = q.edge(i);
                in_core[e.from] != in_core[e.to]
            })
            .collect();
        CoreSearch {
            fragment,
            q,
            parallel,
            internal_cands,
            filter,
            in_core,
            internal_mask,
            order,
            core_len: core.len(),
            crossing,
        }
    }

    /// Bind `order[depth..]`. `buffers` holds one reusable candidate
    /// buffer per boundary vertex still to bind.
    fn extend(
        &self,
        depth: usize,
        binding: &mut Vec<Option<VertexId>>,
        buffers: &mut [Vec<VertexId>],
        out: &mut Vec<LocalPartialMatch>,
    ) {
        if depth == self.order.len() {
            out.push(self.materialize(binding));
            return;
        }
        let (fragment, q) = (self.fragment, self.q);
        let qv = self.order[depth];
        if depth < self.core_len {
            // Core vertex: internal candidates + edge consistency against
            // already-bound core vertices. Enumeration is neighbor-driven:
            // when a bound core neighbor's label-matching adjacency range is
            // smaller than the internal candidate list, candidates are read
            // off that range and filtered by candidate-set membership.
            for_each_anchored_candidate(
                fragment,
                q,
                qv,
                binding,
                &self.internal_cands[qv],
                |binding, u| {
                    binding[qv] = Some(u);
                    // Bound vertices at this stage are all core vertices,
                    // so every edge to them must be matched.
                    if pairs_consistent(fragment, q, qv, binding, |_| true) {
                        self.extend(depth + 1, binding, buffers, out);
                    }
                },
            );
            binding[qv] = None;
            return;
        }

        // Boundary vertex: an extended vertex across a crossing edge of a
        // bound core neighbor (all core vertices precede the boundary).
        // Edges to core vertices must match; edges to other boundary
        // vertices are exempt (condition 3 — and a fragment stores no
        // edges between two extended vertices anyway).
        let (buffer, buffers) = buffers
            .split_first_mut()
            .expect("a buffer per boundary vertex");
        let Some(required) = q.required_classes(qv).ids() else {
            return;
        };
        let mut bind = |binding: &mut Vec<Option<VertexId>>, u: VertexId| {
            if !fragment.is_extended(u)
                || !fragment.has_classes(u, required)
                || !self.filter.admits_extended(qv, u)
            {
                return;
            }
            binding[qv] = Some(u);
            if pairs_consistent(fragment, q, qv, binding, |other| self.in_core[other]) {
                self.extend(depth + 1, binding, buffers, out);
            }
        };
        if let EncodedVertex::Const(id) = q.vertex(qv) {
            // Constants bind to themselves when stored as an extended vertex.
            bind(binding, id);
        } else {
            // Read candidates off the bound neighbor's adjacency along one
            // core-incident query edge; `pairs_consistent` checks the rest.
            let (adjacency, label) = self.anchor(qv, binding);
            match label {
                // A constant label's range is sorted and duplicate-free.
                EncodedLabel::Const(p) => {
                    for &(_, u) in label_edge_range(adjacency, p) {
                        bind(binding, u);
                    }
                }
                EncodedLabel::Any => {
                    buffer.clear();
                    buffer.extend(adjacency.iter().map(|&(_, u)| u));
                    buffer.sort_unstable();
                    buffer.dedup();
                    for &u in buffer.iter() {
                        bind(binding, u);
                    }
                }
                EncodedLabel::Unsatisfiable => {}
            }
        }
        binding[qv] = None;
    }

    /// The adjacency row boundary vertex `qv` draws its candidates from:
    /// along its first in-edge from the core, else its first out-edge to
    /// it, the bound core endpoint's row in that direction.
    fn anchor(
        &self,
        qv: usize,
        binding: &[Option<VertexId>],
    ) -> (&'a [(TermId, VertexId)], EncodedLabel) {
        let q = self.q;
        for &ei in q.in_edges(qv) {
            let e = q.edge(ei);
            if self.in_core[e.from] {
                let fu = binding[e.from].expect("core bound first");
                return (self.fragment.out_edges(fu), e.label);
            }
        }
        for &ei in q.out_edges(qv) {
            let e = q.edge(ei);
            if self.in_core[e.to] {
                let fu = binding[e.to].expect("core bound first");
                return (self.fragment.in_edges(fu), e.label);
            }
        }
        unreachable!("boundary vertex must touch the core");
    }

    /// Build the [`LocalPartialMatch`] for a complete core+boundary
    /// binding: record each crossing edge with the query edge it matches
    /// (the `g` of the LEC feature).
    fn materialize(&self, binding: &[Option<VertexId>]) -> LocalPartialMatch {
        let mut crossing = Vec::with_capacity(self.crossing.len());
        for &i in &self.crossing {
            let e = self.q.edge(i);
            let from = binding[e.from].expect("bound");
            let to = binding[e.to].expect("bound");
            let label = match (e.label, self.parallel.group_of[i]) {
                (EncodedLabel::Const(p), _) => p,
                (_, Some(g)) => self.assigned_label(&self.parallel.groups[g], i, from, to),
                (_, None) => self.first_label(from, to),
            };
            crossing.push((EdgeRef { from, label, to }, i));
        }
        LocalPartialMatch {
            fragment: self.fragment.id,
            binding: binding.to_vec(),
            crossing,
            internal_mask: self.internal_mask,
        }
    }

    /// The smallest label of an edge `from → to`, read off the shorter of
    /// the two adjacency rows (both are sorted by label first).
    fn first_label(&self, from: VertexId, to: VertexId) -> TermId {
        let out = self.fragment.out_edges(from);
        let inc = self.fragment.in_edges(to);
        let found = if out.len() <= inc.len() {
            out.iter().find(|&&(_, t)| t == to)
        } else {
            inc.iter().find(|&&(_, s)| s == from)
        };
        found.expect("consistency was verified during search").0
    }

    /// The data label query edge `edge` of parallel `group` maps to under
    /// the group's deterministic injective assignment.
    fn assigned_label(&self, group: &[usize], edge: usize, from: VertexId, to: VertexId) -> TermId {
        let q_labels: Vec<EncodedLabel> = group.iter().map(|&i| self.q.edge(i).label).collect();
        let d_labels: Vec<TermId> = self
            .fragment
            .out_edges(from)
            .iter()
            .filter(|&&(_, t)| t == to)
            .map(|&(l, _)| l)
            .collect();
        let assignment = labels_assignment(&q_labels, &d_labels)
            .expect("consistency was verified during search");
        let pos = group
            .iter()
            .position(|&i| i == edge)
            .expect("edge in its group");
        d_labels[assignment[pos]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::{DistributedGraph, ExplicitPartitioner};
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use std::collections::HashMap;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// A two-fragment path: a(F0) -p-> b(F1) -q-> c(F1).
    fn two_frag_path() -> (DistributedGraph, EncodedQuery) {
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://q", "http://c"),
        ]);
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        let b = g.vertex_of(&Term::iri("http://b")).unwrap();
        let c = g.vertex_of(&Term::iri("http://c")).unwrap();
        let mut map = HashMap::new();
        map.insert(a, 0);
        map.insert(b, 1);
        map.insert(c, 1);
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        (dist, q)
    }

    #[test]
    fn path_split_produces_complementary_lpms() {
        let (dist, q) = two_frag_path();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        let lpms1 = enumerate_local_partial_matches(&dist.fragments[1], &q, &filter);
        // F0: core {x}->a, boundary y->b. One LPM.
        assert_eq!(lpms0.len(), 1, "{lpms0:?}");
        assert_eq!(lpms0[0].bound_count(), 2);
        assert!(lpms0[0].is_internal(0));
        assert!(!lpms0[0].is_internal(1));
        // F1: core {y,z} with boundary x->a. Also core {z}? z's neighbors =
        // {y}; boundary y must bind extended -> but b is internal in F1, so
        // no. Core {y} -> boundary x and z must bind extended; z=c is
        // internal -> fails. So exactly one LPM.
        assert_eq!(lpms1.len(), 1, "{lpms1:?}");
        assert_eq!(lpms1[0].bound_count(), 3);
        assert!(lpms1[0].is_internal(1));
        assert!(lpms1[0].is_internal(2));
        // They join into the full match.
        assert!(lpms0[0].joinable(&lpms1[0]));
        let joined = lpms0[0].join(&lpms1[0]);
        assert!(joined.is_complete(3));
    }

    #[test]
    fn crossing_edge_mapping_recorded() {
        let (dist, q) = two_frag_path();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        assert_eq!(lpms0[0].crossing.len(), 1);
        let (edge, qe) = lpms0[0].crossing[0];
        assert_eq!(qe, 0, "matched query edge ?x -p-> ?y");
        let a = dist.dict().id_of(&Term::iri("http://a")).unwrap();
        let b = dist.dict().id_of(&Term::iri("http://b")).unwrap();
        assert_eq!(edge.from, a);
        assert_eq!(edge.to, b);
    }

    #[test]
    fn no_crossing_edges_means_no_lpms() {
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://q", "http://c"),
        ]);
        let all: HashMap<_, _> = g.vertices().map(|v| (v, 0)).collect();
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }").unwrap(),
        )
        .unwrap();
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(1, all));
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        assert!(enumerate_local_partial_matches(&dist.fragments[0], &q, &filter).is_empty());
    }

    #[test]
    fn boundary_constant_must_match() {
        // a(F0) -p-> b(F1); query ?x <p> <b>.
        let g = RdfGraph::from_triples(vec![t("http://a", "http://p", "http://b")]);
        let a = g.vertex_of(&Term::iri("http://a")).unwrap();
        let b = g.vertex_of(&Term::iri("http://b")).unwrap();
        let mut map = HashMap::new();
        map.insert(a, 0);
        map.insert(b, 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let qg = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://b> }").unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        assert_eq!(lpms0.len(), 1);
        assert_eq!(lpms0[0].binding[1], Some(b));
        // Mismatched constant: no LPM.
        let qg2 = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://a> }").unwrap(),
        )
        .unwrap();
        let q2 = EncodedQuery::encode(&qg2, dist.dict()).unwrap();
        assert!(enumerate_local_partial_matches(&dist.fragments[0], &q2, &filter).is_empty());
    }

    #[test]
    fn extended_filter_prunes_boundary_bindings() {
        use crate::candidates::BitVectorFilter;
        let (dist, q) = two_frag_path();
        // Filter on ?y (vertex 1) that admits nothing.
        let mut filter = CandidateFilter::none(q.vertex_count());
        filter.extended_bits[1] = Some(BitVectorFilter::new(64));
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        assert!(
            lpms0.is_empty(),
            "y->b should be vetoed by the empty filter"
        );
    }

    #[test]
    fn boundary_vertex_shared_by_two_core_vertices() {
        // Triangle split: x(F0), z(F0), y(F1); query x->y, z->y, x->z.
        let g = RdfGraph::from_triples(vec![
            t("http://x", "http://p", "http://y"),
            t("http://z", "http://p", "http://y"),
            t("http://x", "http://q", "http://z"),
        ]);
        let x = g.vertex_of(&Term::iri("http://x")).unwrap();
        let y = g.vertex_of(&Term::iri("http://y")).unwrap();
        let z = g.vertex_of(&Term::iri("http://z")).unwrap();
        let mut map = HashMap::new();
        map.insert(x, 0);
        map.insert(z, 0);
        map.insert(y, 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let qg = QueryGraph::from_query(
            &parse_query(
                "SELECT * WHERE { ?a <http://p> ?b . ?c <http://p> ?b . ?a <http://q> ?c }",
            )
            .unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        // Core {a,c} (bound to x,z), boundary b -> y via BOTH crossing
        // edges. Note ?a and ?c can also swap (homomorphism directions):
        // a=z,c=x fails because q-edge z->x missing. So exactly one LPM
        // with both crossing edges recorded.
        let full: Vec<_> = lpms0.iter().filter(|m| m.bound_count() == 3).collect();
        assert_eq!(full.len(), 1, "{lpms0:?}");
        assert_eq!(full[0].crossing.len(), 2);
    }

    #[test]
    fn lpm_count_matches_paper_structure_on_small_star() {
        // Hub h(F0) with crossing edges to leaves l1,l2 (F1); star query
        // ?c -p-> ?a . ?c -p-> ?b  (two distinct leaves via injectivity?
        // homomorphism allows a=b! so 4 combinations).
        let g = RdfGraph::from_triples(vec![
            t("http://h", "http://p", "http://l1"),
            t("http://h", "http://p", "http://l2"),
        ]);
        let h = g.vertex_of(&Term::iri("http://h")).unwrap();
        let mut map = HashMap::new();
        map.insert(h, 0);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map).with_default(1));
        let qg = QueryGraph::from_query(
            &parse_query("SELECT * WHERE { ?c <http://p> ?a . ?c <http://p> ?b }").unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, dist.dict()).unwrap();
        let filter = CandidateFilter::none(q.vertex_count());
        let lpms0 = enumerate_local_partial_matches(&dist.fragments[0], &q, &filter);
        // Core {c}->h; boundary a,b -> {l1,l2} each: 4 bindings.
        // Definition 3's injectivity is per query-vertex *pair*; (c,a) and
        // (c,b) are distinct pairs, so a=b=l1 is allowed (both query edges
        // map to the single data edge h-p->l1, as in standard SPARQL).
        assert_eq!(lpms0.len(), 4, "{lpms0:?}");
    }

    #[test]
    fn core_candidates_must_be_internal() {
        let (dist, q) = two_frag_path();
        let filter = CandidateFilter::none(q.vertex_count());
        for f in &dist.fragments {
            for lpm in enumerate_local_partial_matches(f, &q, &filter) {
                for v in 0..q.vertex_count() {
                    if lpm.is_internal(v) {
                        assert!(f.is_internal(lpm.binding[v].unwrap()));
                    } else if let Some(u) = lpm.binding[v] {
                        assert!(f.is_extended(u));
                    }
                }
            }
        }
    }
}
