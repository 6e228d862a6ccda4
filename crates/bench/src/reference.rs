//! Frozen **pre-PR3 / pre-PR4 / pre-PR10** implementations of the hot
//! paths, kept as benchmark and equivalence baselines only.
//!
//! PR 3 rewrote the site-local matcher (neighbor-driven enumeration) and
//! Algorithm 3's `ComParJoin` (hash join on the shared-query-vertex
//! binding signature). PR 4 rewrote the LEC pruning pipeline (Algorithms
//! 1–2): interned mapping keys, the crossing-edge-indexed join graph and
//! the memoized `ComLECFJoin`. PR 10 reordered `ComParJoin`'s frontier
//! to visit the smallest-cardinality group first. These are byte-faithful
//! copies of the previous implementations — the per-depth
//! full-candidate-list scan, the linear-scan `checked.contains`
//! consistency dedup, the pairwise `joinable` nested loops, the all-pairs
//! `build_join_graph` sweep, the quadratic `next.contains` /
//! `next.iter_mut().find` dedups and the insertion-order frontier walk —
//! so that the `micro_store`/`micro_lec`/`micro_prune` benches and the
//! hot-path and planner equivalence proptests can measure the current
//! paths against the exact code they replaced, on any machine, forever.
//! (`BENCH_PR3.json`/`BENCH_PR4.json` record what they measured when
//! their generators still existed.)
//!
//! Nothing here is called by the engine. Do not "fix" these: their
//! inefficiency is the point.

use std::collections::HashSet;

use fxhash::{FxHashMap, FxHashSet};
use gstored_core::lec::{LecFeature, OwnedFeatureKey};
use gstored_core::prune::{build_join_graph, FeatureGroup};
use gstored_partition::Fragment;
use gstored_rdf::{EdgeRef, RdfGraph, TermId, VertexId};
use gstored_store::candidates::CandidateFilter;
use gstored_store::labels::{label_matches, labels_assignment, labels_satisfiable};
use gstored_store::{
    vertex_candidates, Adjacency, EncodedLabel, EncodedQuery, EncodedVertex, LocalPartialMatch,
};

// ---------------------------------------------------------------------------
// Pre-PR3 matcher: candidate-ordered backtracking with a full scan of the
// per-vertex candidate list at every depth.
// ---------------------------------------------------------------------------

/// Pre-PR3 `find_matches`: all homomorphic matches over the full graph.
pub fn find_matches_prepr3(graph: &RdfGraph, q: &EncodedQuery) -> Vec<Vec<VertexId>> {
    if q.has_unsatisfiable() {
        return Vec::new();
    }
    let mut universe: Vec<VertexId> = graph.vertices().collect();
    universe.sort_unstable();
    search(graph, q, &universe)
}

fn search<A: Adjacency>(adj: &A, q: &EncodedQuery, universe: &[VertexId]) -> Vec<Vec<VertexId>> {
    let n = q.vertex_count();
    let mut cands: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for qv in 0..n {
        let c = vertex_candidates(adj, q, qv, universe);
        if c.is_empty() {
            return Vec::new();
        }
        cands.push(c);
    }
    let order = matching_order(q, &cands);
    let mut binding: Vec<Option<VertexId>> = vec![None; n];
    let mut out = Vec::new();
    extend(adj, q, &order, 0, &mut binding, &cands, &mut out);
    out
}

fn matching_order(q: &EncodedQuery, cands: &[Vec<VertexId>]) -> Vec<usize> {
    let n = q.vertex_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let first = (0..n)
        .min_by_key(|&v| cands[v].len())
        .expect("non-empty query");
    order.push(first);
    placed[first] = true;
    while order.len() < n {
        let next = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| {
                let connected = q.neighbors(v).iter().any(|&u| placed[u]);
                (if connected { 0 } else { 1 }, cands[v].len())
            })
            .expect("loop bounded by n");
        order.push(next);
        placed[next] = true;
    }
    order
}

fn extend<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    order: &[usize],
    depth: usize,
    binding: &mut Vec<Option<VertexId>>,
    cands: &[Vec<VertexId>],
    out: &mut Vec<Vec<VertexId>>,
) {
    if depth == order.len() {
        out.push(
            binding
                .iter()
                .map(|b| b.expect("complete binding"))
                .collect(),
        );
        return;
    }
    let qv = order[depth];
    // The pre-PR3 hot spot: every candidate of qv is scanned and verified,
    // regardless of how few of them are adjacent to the bound neighbors.
    for &u in &cands[qv] {
        binding[qv] = Some(u);
        if consistent(adj, q, qv, binding) {
            extend(adj, q, order, depth + 1, binding, cands, out);
        }
    }
    binding[qv] = None;
}

fn consistent<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
) -> bool {
    pairs_consistent(adj, q, qv, binding, |_| true)
}

fn pairs_consistent<A: Adjacency>(
    adj: &A,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    relevant: impl Fn(usize) -> bool,
) -> bool {
    // The pre-PR3 dedup: a Vec allocated per call, scanned linearly.
    let mut checked: Vec<(usize, bool)> = Vec::new();
    for &ei in q.out_edges(qv) {
        let e = q.edge(ei);
        if binding[e.to].is_some() && relevant(e.to) && !checked.contains(&(e.to, true)) {
            checked.push((e.to, true));
        }
    }
    for &ei in q.in_edges(qv) {
        let e = q.edge(ei);
        if binding[e.from].is_some() && relevant(e.from) && !checked.contains(&(e.from, false)) {
            checked.push((e.from, false));
        }
    }
    for (other, qv_is_source) in checked {
        let (src_q, dst_q) = if qv_is_source {
            (qv, other)
        } else {
            (other, qv)
        };
        let src_u = binding[src_q].expect("both bound");
        let dst_u = binding[dst_q].expect("both bound");
        let q_labels: Vec<EncodedLabel> = q
            .out_edges(src_q)
            .iter()
            .filter(|&&ei| q.edge(ei).to == dst_q)
            .map(|&ei| q.edge(ei).label)
            .collect();
        let d_labels: Vec<TermId> = adj
            .out_edges(src_u)
            .iter()
            .filter(|&&(_, t)| t == dst_u)
            .map(|&(l, _)| l)
            .collect();
        if !labels_satisfiable(&q_labels, &d_labels) {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Pre-PR3 LPM enumerator: the same connected-core decomposition, with the
// full-candidate-scan extension and allocating consistency checks.
// ---------------------------------------------------------------------------

/// Pre-PR3 `enumerate_local_partial_matches` (Definition 5).
pub fn enumerate_lpms_prepr3(
    fragment: &Fragment,
    q: &EncodedQuery,
    filter: &CandidateFilter,
) -> Vec<LocalPartialMatch> {
    let n = q.vertex_count();
    assert!(n <= 64, "LECSign masks are 64-bit");
    if q.has_unsatisfiable() || fragment.crossing_edges.is_empty() {
        return Vec::new();
    }
    let internal_cands: Vec<Vec<VertexId>> = (0..n)
        .map(|qv| vertex_candidates(fragment, q, qv, &fragment.internal))
        .collect();
    let mut out = Vec::new();
    'subsets: for core in q.proper_connected_subsets() {
        for &qv in &core {
            if internal_cands[qv].is_empty() {
                continue 'subsets;
            }
        }
        enumerate_for_core(fragment, q, &core, &internal_cands, filter, &mut out);
    }
    out
}

fn enumerate_for_core(
    fragment: &Fragment,
    q: &EncodedQuery,
    core: &[usize],
    internal_cands: &[Vec<VertexId>],
    filter: &CandidateFilter,
    out: &mut Vec<LocalPartialMatch>,
) {
    let n = q.vertex_count();
    let in_core = {
        let mut m = vec![false; n];
        for &v in core {
            m[v] = true;
        }
        m
    };
    let mut boundary: Vec<usize> = core
        .iter()
        .flat_map(|&v| q.neighbors(v))
        .filter(|&u| !in_core[u])
        .collect();
    boundary.sort_unstable();
    boundary.dedup();

    let order = {
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
                    let connected = q.neighbors(v).iter().any(|&u| placed[u]);
                    (if connected { 0 } else { 1 }, internal_cands[v].len())
                })
                .expect("loop bounded by |core|");
            order.push(next);
            placed[next] = true;
        }
        order.extend(boundary.iter().copied());
        order
    };

    let mut binding: Vec<Option<VertexId>> = vec![None; n];
    extend_lpm(
        fragment,
        q,
        &order,
        core.len(),
        0,
        &in_core,
        internal_cands,
        filter,
        &mut binding,
        out,
    );
}

#[allow(clippy::too_many_arguments)]
fn extend_lpm(
    fragment: &Fragment,
    q: &EncodedQuery,
    order: &[usize],
    core_len: usize,
    depth: usize,
    in_core: &[bool],
    internal_cands: &[Vec<VertexId>],
    filter: &CandidateFilter,
    binding: &mut Vec<Option<VertexId>>,
    out: &mut Vec<LocalPartialMatch>,
) {
    if depth == order.len() {
        out.push(materialize(fragment, q, in_core, binding));
        return;
    }
    let qv = order[depth];
    if depth < core_len {
        for &u in &internal_cands[qv] {
            binding[qv] = Some(u);
            if pairs_consistent(fragment, q, qv, binding, |_| true) {
                extend_lpm(
                    fragment,
                    q,
                    order,
                    core_len,
                    depth + 1,
                    in_core,
                    internal_cands,
                    filter,
                    binding,
                    out,
                );
            }
        }
        binding[qv] = None;
    } else {
        for u in boundary_candidates(fragment, q, qv, binding, in_core) {
            if !filter.admits_extended(qv, u) {
                continue;
            }
            binding[qv] = Some(u);
            if pairs_consistent(fragment, q, qv, binding, |other| in_core[other]) {
                extend_lpm(
                    fragment,
                    q,
                    order,
                    core_len,
                    depth + 1,
                    in_core,
                    internal_cands,
                    filter,
                    binding,
                    out,
                );
            }
        }
        binding[qv] = None;
    }
}

fn boundary_candidates(
    fragment: &Fragment,
    q: &EncodedQuery,
    qv: usize,
    binding: &[Option<VertexId>],
    in_core: &[bool],
) -> Vec<VertexId> {
    let Some(required) = q.required_classes(qv).ids() else {
        return Vec::new();
    };
    let class_ok = |u: VertexId| fragment.has_classes(u, required);
    if let EncodedVertex::Const(id) = q.vertex(qv) {
        return if fragment.is_extended(id) && class_ok(id) {
            vec![id]
        } else {
            Vec::new()
        };
    }
    for &ei in q.in_edges(qv) {
        let e = q.edge(ei);
        if in_core[e.from] {
            let fu = binding[e.from].expect("core bound first");
            let mut c: Vec<VertexId> = fragment
                .out_edges(fu)
                .iter()
                .filter(|&&(l, t)| {
                    label_matches(e.label, l) && fragment.is_extended(t) && class_ok(t)
                })
                .map(|&(_, t)| t)
                .collect();
            c.sort_unstable();
            c.dedup();
            return c;
        }
    }
    for &ei in q.out_edges(qv) {
        let e = q.edge(ei);
        if in_core[e.to] {
            let fu = binding[e.to].expect("core bound first");
            let mut c: Vec<VertexId> = fragment
                .in_edges(fu)
                .iter()
                .filter(|&&(l, s)| {
                    label_matches(e.label, l) && fragment.is_extended(s) && class_ok(s)
                })
                .map(|&(_, s)| s)
                .collect();
            c.sort_unstable();
            c.dedup();
            return c;
        }
    }
    unreachable!("boundary vertex must touch the core");
}

fn materialize(
    fragment: &Fragment,
    q: &EncodedQuery,
    in_core: &[bool],
    binding: &[Option<VertexId>],
) -> LocalPartialMatch {
    let mut internal_mask = 0u64;
    for (v, &c) in in_core.iter().enumerate() {
        if c {
            internal_mask |= 1 << v;
        }
    }
    let mut crossing: Vec<(EdgeRef, usize)> = Vec::new();
    let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for (i, e) in q.edges().iter().enumerate() {
        let matched = binding[e.from].is_some()
            && binding[e.to].is_some()
            && (in_core[e.from] || in_core[e.to]);
        if !matched {
            continue;
        }
        let key = (e.from, e.to);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    for ((src_q, dst_q), edge_idxs) in groups {
        let src_u = binding[src_q].expect("bound");
        let dst_u = binding[dst_q].expect("bound");
        let q_labels: Vec<EncodedLabel> = edge_idxs.iter().map(|&i| q.edge(i).label).collect();
        let d_labels: Vec<TermId> = fragment
            .out_edges(src_u)
            .iter()
            .filter(|&&(_, t)| t == dst_u)
            .map(|&(l, _)| l)
            .collect();
        let assignment = labels_assignment(&q_labels, &d_labels)
            .expect("consistency was verified during search");
        let is_crossing = in_core[src_q] != in_core[dst_q];
        if is_crossing {
            for (pos, &qe) in edge_idxs.iter().enumerate() {
                let data_edge = EdgeRef {
                    from: src_u,
                    label: d_labels[assignment[pos]],
                    to: dst_u,
                };
                crossing.push((data_edge, qe));
            }
        }
    }
    crossing.sort_unstable_by_key(|&(_, qe)| qe);
    LocalPartialMatch {
        fragment: fragment.id,
        binding: binding.to_vec(),
        crossing,
        internal_mask,
    }
}

// ---------------------------------------------------------------------------
// Pre-PR4 Algorithms 1–2: Vec-keyed feature dedup, all-pairs join-graph
// sweep and the unmemoized recursive ComLECFJoin with linear-scan dedup.
// ---------------------------------------------------------------------------

/// Pre-PR4 form of `gstored_core::prune::FeatureGroup`: every group owns
/// clones of its features (Definition 10).
#[derive(Debug, Clone)]
pub struct FeatureGroupPrePr4 {
    /// The shared LECSign bitmask over query vertices.
    pub sign: u64,
    /// The features carrying that sign.
    pub features: Vec<LecFeature>,
}

/// Pre-PR4 `compute_lec_features` (Algorithm 1): feature dedup through a
/// hash map keyed by the owned `(fragments, mapping, sign)` tuple — every
/// probe hashes and compares the full mapping `Vec`.
pub fn compute_lec_features_prepr4(
    lpms: &[LocalPartialMatch],
    first_id: u32,
) -> (Vec<LecFeature>, Vec<usize>) {
    type OwnedFeatureKey = (u64, Vec<(EdgeRef, usize)>, u64);
    let mut features: Vec<LecFeature> = Vec::new();
    let mut index: fxhash::FxHashMap<OwnedFeatureKey, usize> = fxhash::FxHashMap::default();
    let mut feature_of_lpm = Vec::with_capacity(lpms.len());
    for lpm in lpms {
        let mut f = LecFeature::of_lpm(lpm);
        let idx = match index.entry((f.fragments, std::mem::take(&mut f.mapping), f.sign)) {
            std::collections::hash_map::Entry::Occupied(o) => *o.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                f.mapping = v.key().1.clone();
                f.sources = vec![first_id + features.len() as u32];
                features.push(f);
                v.insert(features.len() - 1);
                features.len() - 1
            }
        };
        feature_of_lpm.push(idx);
    }
    (features, feature_of_lpm)
}

/// Pre-PR4 `group_by_sign` (Definition 10): hash-mapped on the sign, but
/// every feature is **cloned** into its group.
pub fn group_by_sign_prepr4(features: &[LecFeature]) -> Vec<FeatureGroupPrePr4> {
    let mut group_of_sign: fxhash::FxHashMap<u64, usize> = fxhash::FxHashMap::default();
    let mut groups: Vec<FeatureGroupPrePr4> = Vec::new();
    for f in features {
        let idx = *group_of_sign.entry(f.sign).or_insert_with(|| {
            groups.push(FeatureGroupPrePr4 {
                sign: f.sign,
                features: Vec::new(),
            });
            groups.len() - 1
        });
        groups[idx].features.push(f.clone());
    }
    groups
}

/// Pre-PR4 `build_join_graph`: the all-pairs `O(G²·|Fi|·|Fj|)` joinable
/// sweep — every group pair pays a full nested feature loop, with every
/// `joinable` probe re-running the mapping scans from scratch.
pub fn build_join_graph_prepr4(
    groups: &[FeatureGroupPrePr4],
    query_edges: &[(usize, usize)],
) -> Vec<Vec<usize>> {
    let n = groups.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            // Cheap prefilter: disjoint signs are necessary.
            if groups[i].sign & groups[j].sign != 0 {
                continue;
            }
            let joinable = groups[i].features.iter().any(|a| {
                groups[j]
                    .features
                    .iter()
                    .any(|b| a.joinable(b, query_edges))
            });
            if joinable {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

/// Pre-PR4 `prune_features` (Algorithm 2), SipHash `HashSet` sink and all:
/// the exact coordinator-side pruning the PR4 rewrite replaced.
#[allow(clippy::while_let_loop)] // frozen copy: the loop body mutates `alive`
pub fn prune_features_prepr4(
    features: &[LecFeature],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> HashSet<u32> {
    let mut rs: HashSet<u32> = HashSet::new();
    let groups = group_by_sign_prepr4(features);
    let adj = build_join_graph_prepr4(&groups, query_edges);

    let mut alive: Vec<bool> = vec![true; groups.len()];
    loop {
        let Some(vmin) = (0..groups.len())
            .filter(|&v| alive[v])
            .min_by_key(|&v| groups[v].features.len())
        else {
            break;
        };
        com_lecf_join_prepr4(
            &mut vec![vmin],
            groups[vmin].features.clone(),
            &groups,
            &adj,
            &alive,
            n_query_vertices,
            query_edges,
            &mut rs,
        );
        alive[vmin] = false;
        loop {
            let mut removed = false;
            for v in 0..groups.len() {
                if alive[v] && !adj[v].iter().any(|&u| alive[u]) {
                    alive[v] = false;
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
    }
    rs
}

/// Pre-PR4 recursive `ComLECFJoin`: `visited.contains` scans, feature
/// `Vec` clones at every depth, the quadratic `next.iter_mut().find`
/// dedup with per-merge `sort_unstable`/`dedup` of `sources`, and no
/// memoization of re-reached states.
#[allow(clippy::too_many_arguments)]
fn com_lecf_join_prepr4(
    visited: &mut Vec<usize>,
    current: Vec<LecFeature>,
    groups: &[FeatureGroupPrePr4],
    adj: &[Vec<usize>],
    alive: &[bool],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
    rs: &mut HashSet<u32>,
) {
    if current.is_empty() {
        return;
    }
    let mut frontier: Vec<usize> = visited
        .iter()
        .flat_map(|&v| adj[v].iter().copied())
        .filter(|&u| alive[u] && !visited.contains(&u))
        .collect();
    frontier.sort_unstable();
    frontier.dedup();

    for v in frontier {
        let mut next: Vec<LecFeature> = Vec::new();
        for a in &current {
            for b in &groups[v].features {
                if !a.joinable(b, query_edges) {
                    continue;
                }
                let joined = a.join(b);
                if joined.is_complete(n_query_vertices) {
                    rs.extend(joined.sources.iter().copied());
                } else {
                    match next.iter_mut().find(|f| {
                        f.fragments == joined.fragments
                            && f.sign == joined.sign
                            && f.mapping == joined.mapping
                    }) {
                        Some(f) => {
                            f.sources.extend(joined.sources.iter().copied());
                            f.sources.sort_unstable();
                            f.sources.dedup();
                        }
                        None => next.push(joined),
                    }
                }
            }
        }
        if !next.is_empty() {
            visited.push(v);
            com_lecf_join_prepr4(
                visited,
                next,
                groups,
                adj,
                alive,
                n_query_vertices,
                query_edges,
                rs,
            );
            visited.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// Pre-PR3 Algorithm 3: pairwise ComParJoin with quadratic dedup.
// ---------------------------------------------------------------------------

/// Pre-PR3 `assemble_lec`: LECSign grouping with a linear-scan group-by, a
/// pairwise `joinable` nested loop per frontier group and an `O(n²)`
/// `next.contains` dedup — the join the PR3 hash join replaced.
#[allow(clippy::while_let_loop)] // frozen copy: the loop body mutates `alive`
pub fn assemble_lec_prepr3(
    lpms: &[LocalPartialMatch],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> Vec<Vec<VertexId>> {
    if lpms.is_empty() {
        return Vec::new();
    }
    let mut groups: Vec<(u64, Vec<&LocalPartialMatch>)> = Vec::new();
    for lpm in lpms {
        match groups.iter_mut().find(|(s, _)| *s == lpm.internal_mask) {
            Some((_, v)) => v.push(lpm),
            None => groups.push((lpm.internal_mask, vec![lpm])),
        }
    }
    let feature_groups: Vec<FeatureGroupPrePr4> = groups
        .iter()
        .map(|(sign, members)| {
            let mut features: Vec<LecFeature> = Vec::new();
            for m in members {
                let f = LecFeature::of_lpm(m);
                if !features.iter().any(|g| g.key() == f.key()) {
                    features.push(f);
                }
            }
            FeatureGroupPrePr4 {
                sign: *sign,
                features,
            }
        })
        .collect();
    let adj = build_join_graph_prepr4(&feature_groups, query_edges);

    let mut found: HashSet<Vec<VertexId>> = HashSet::new();
    let mut alive = vec![true; groups.len()];
    loop {
        let Some(vmin) = (0..groups.len())
            .filter(|&v| alive[v])
            .min_by_key(|&v| groups[v].1.len())
        else {
            break;
        };
        let seed: Vec<LocalPartialMatch> = groups[vmin].1.iter().map(|m| (*m).clone()).collect();
        com_par_join_prepr3(
            &mut vec![vmin],
            seed,
            &groups,
            &adj,
            &alive,
            n_query_vertices,
            &mut found,
        );
        alive[vmin] = false;
        loop {
            let mut removed = false;
            for v in 0..groups.len() {
                if alive[v] && !adj[v].iter().any(|&u| alive[u]) {
                    alive[v] = false;
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
    }
    let mut out: Vec<Vec<VertexId>> = found.into_iter().collect();
    out.sort_unstable();
    out
}

fn com_par_join_prepr3(
    visited: &mut Vec<usize>,
    current: Vec<LocalPartialMatch>,
    groups: &[(u64, Vec<&LocalPartialMatch>)],
    adj: &[Vec<usize>],
    alive: &[bool],
    n_query_vertices: usize,
    found: &mut HashSet<Vec<VertexId>>,
) {
    if current.is_empty() {
        return;
    }
    let mut frontier: Vec<usize> = visited
        .iter()
        .flat_map(|&v| adj[v].iter().copied())
        .filter(|&u| alive[u] && !visited.contains(&u))
        .collect();
    frontier.sort_unstable();
    frontier.dedup();

    for v in frontier {
        let mut next: Vec<LocalPartialMatch> = Vec::new();
        for a in &current {
            for b in &groups[v].1 {
                if !a.joinable(b) {
                    continue;
                }
                let joined = a.join(b);
                if joined.is_complete(n_query_vertices) {
                    if let Some(binding) = joined.complete_binding() {
                        found.insert(binding);
                    }
                } else if !next.contains(&joined) {
                    next.push(joined);
                }
            }
        }
        if !next.is_empty() {
            visited.push(v);
            com_par_join_prepr3(visited, next, groups, adj, alive, n_query_vertices, found);
            visited.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// Pre-PR10 Algorithm 3: the PR3 hash join with the *insertion-order*
// frontier walk. PR 10 reordered `ComParJoin`'s frontier to visit the
// smallest-cardinality group first (the planner's join ordering); this
// copy keeps the ascending-group-index walk so the planner-equivalence
// proptests can pin that reordering changes the work, never the rows.
// ---------------------------------------------------------------------------

/// Pre-PR10 copy of the engine's private compact join intermediate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JoinedPrePr10 {
    fragment: usize,
    binding: Vec<Option<VertexId>>,
    edges: Vec<Option<EdgeRef>>,
    internal_mask: u64,
    bound_mask: u64,
}

impl JoinedPrePr10 {
    fn of_lpm(lpm: &LocalPartialMatch, n_edges: usize) -> JoinedPrePr10 {
        let mut edges: Vec<Option<EdgeRef>> = vec![None; n_edges];
        for &(e, qe) in &lpm.crossing {
            edges[qe] = Some(e);
        }
        JoinedPrePr10 {
            fragment: lpm.fragment,
            binding: lpm.binding.clone(),
            edges,
            internal_mask: lpm.internal_mask,
            bound_mask: bound_mask_of_prepr10(&lpm.binding),
        }
    }

    fn try_join(&self, other: &JoinedPrePr10) -> Option<JoinedPrePr10> {
        if self.fragment == other.fragment {
            return None;
        }
        if self.internal_mask & other.internal_mask != 0 {
            return None;
        }
        let mut shared = false;
        for (qe, be) in other.edges.iter().enumerate() {
            let Some(be) = be else { continue };
            match &self.edges[qe] {
                Some(ae) if ae == be => shared = true,
                Some(_) => return None,
                None => {}
            }
        }
        if !shared {
            return None;
        }
        let common = self.bound_mask & other.bound_mask;
        let mut bits = common;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.binding[v] != other.binding[v] {
                return None;
            }
        }
        let binding: Vec<Option<VertexId>> = self
            .binding
            .iter()
            .zip(&other.binding)
            .map(|(a, b)| a.or(*b))
            .collect();
        let edges: Vec<Option<EdgeRef>> = self
            .edges
            .iter()
            .zip(&other.edges)
            .map(|(a, b)| a.or(*b))
            .collect();
        Some(JoinedPrePr10 {
            fragment: usize::MAX,
            binding,
            edges,
            internal_mask: self.internal_mask | other.internal_mask,
            bound_mask: self.bound_mask | other.bound_mask,
        })
    }

    fn is_complete(&self, vertex_count: usize) -> bool {
        self.internal_mask == full_mask_prepr10(vertex_count)
    }

    fn complete_binding(&self) -> Option<Vec<VertexId>> {
        self.binding.iter().copied().collect()
    }
}

#[inline]
fn full_mask_prepr10(vertex_count: usize) -> u64 {
    if vertex_count >= 64 {
        u64::MAX
    } else {
        (1u64 << vertex_count) - 1
    }
}

#[inline]
fn bound_mask_of_prepr10(binding: &[Option<VertexId>]) -> u64 {
    let mut mask = 0u64;
    for (i, b) in binding.iter().take(64).enumerate() {
        if b.is_some() {
            mask |= 1 << i;
        }
    }
    mask
}

#[inline]
fn project_prepr10(binding: &[Option<VertexId>], mask: u64) -> Vec<VertexId> {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    let mut bits = mask;
    while bits != 0 {
        let v = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        key.push(binding[v].expect("projection vertex is bound"));
    }
    key
}

/// Pre-PR10 `assemble_lec`: identical to the optimized PR3 hash-join
/// assembly except for `ComParJoin`'s frontier order — ascending group
/// index, not smallest-estimated-cardinality first.
#[allow(clippy::while_let_loop)] // frozen copy: the loop body mutates `alive`
pub fn assemble_lec_prepr10(
    lpms: &[LocalPartialMatch],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> Vec<Vec<VertexId>> {
    if lpms.is_empty() {
        return Vec::new();
    }
    assert!(n_query_vertices <= 64, "LECSign masks are 64-bit");
    let n_edges = lpms
        .iter()
        .flat_map(|m| m.crossing.iter().map(|&(_, qe)| qe + 1))
        .max()
        .unwrap_or(0)
        .max(query_edges.len());
    let prepared: Vec<JoinedPrePr10> = lpms
        .iter()
        .map(|m| JoinedPrePr10::of_lpm(m, n_edges))
        .collect();

    let mut group_of_sign: FxHashMap<u64, usize> = FxHashMap::default();
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, lpm) in lpms.iter().enumerate() {
        let idx = *group_of_sign.entry(lpm.internal_mask).or_insert_with(|| {
            groups.push((lpm.internal_mask, Vec::new()));
            groups.len() - 1
        });
        groups[idx].1.push(i);
    }
    let mut feature_list: Vec<LecFeature> = Vec::new();
    let mut feature_groups: Vec<FeatureGroup> = Vec::with_capacity(groups.len());
    for (sign, members) in &groups {
        let mut seen: FxHashSet<OwnedFeatureKey> = FxHashSet::default();
        let mut idxs: Vec<u32> = Vec::new();
        for &mi in members {
            let f = LecFeature::of_lpm(&lpms[mi]);
            if seen.insert((f.fragments, f.mapping.clone(), f.sign)) {
                idxs.push(feature_list.len() as u32);
                feature_list.push(f);
            }
        }
        feature_groups.push(FeatureGroup {
            sign: *sign,
            members: idxs,
        });
    }
    let adj = build_join_graph(&feature_list, &feature_groups, query_edges);

    let mut found: FxHashSet<Vec<VertexId>> = FxHashSet::default();
    let mut alive = vec![true; groups.len()];
    loop {
        let Some(vmin) = (0..groups.len())
            .filter(|&v| alive[v])
            .min_by_key(|&v| groups[v].1.len())
        else {
            break;
        };
        let seed: Vec<JoinedPrePr10> = groups[vmin]
            .1
            .iter()
            .map(|&mi| prepared[mi].clone())
            .collect();
        let mut visited_set = vec![false; groups.len()];
        visited_set[vmin] = true;
        com_par_join_prepr10(
            &mut vec![vmin],
            &mut visited_set,
            seed,
            &groups,
            &prepared,
            &adj,
            &alive,
            n_query_vertices,
            &mut found,
        );
        alive[vmin] = false;
        loop {
            let mut removed = false;
            for v in 0..groups.len() {
                if alive[v] && !adj[v].iter().any(|&u| alive[u]) {
                    alive[v] = false;
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
    }
    let mut out: Vec<Vec<VertexId>> = found.into_iter().collect();
    out.sort_unstable();
    out
}

#[allow(clippy::too_many_arguments)]
fn com_par_join_prepr10(
    visited: &mut Vec<usize>,
    visited_set: &mut Vec<bool>,
    current: Vec<JoinedPrePr10>,
    groups: &[(u64, Vec<usize>)],
    prepared: &[JoinedPrePr10],
    adj: &[Vec<usize>],
    alive: &[bool],
    n_query_vertices: usize,
    found: &mut FxHashSet<Vec<VertexId>>,
) {
    if current.is_empty() {
        return;
    }
    let mut frontier: Vec<usize> = visited
        .iter()
        .flat_map(|&v| adj[v].iter().copied())
        .filter(|&u| alive[u] && !visited_set[u])
        .collect();
    frontier.sort_unstable();
    frontier.dedup();

    for v in frontier {
        let next = hash_join_prepr10(&current, &groups[v].1, prepared, n_query_vertices, found);
        if !next.is_empty() {
            visited.push(v);
            visited_set[v] = true;
            com_par_join_prepr10(
                visited,
                visited_set,
                next,
                groups,
                prepared,
                adj,
                alive,
                n_query_vertices,
                found,
            );
            let popped = visited.pop().expect("pushed above");
            visited_set[popped] = false;
        }
    }
}

fn hash_join_prepr10(
    current: &[JoinedPrePr10],
    members: &[usize],
    prepared: &[JoinedPrePr10],
    n_query_vertices: usize,
    found: &mut FxHashSet<Vec<VertexId>>,
) -> Vec<JoinedPrePr10> {
    let mut member_masks: Vec<(u64, Vec<usize>)> = Vec::new();
    for &mi in members {
        let mask = prepared[mi].bound_mask;
        match member_masks.iter_mut().find(|(m, _)| *m == mask) {
            Some((_, v)) => v.push(mi),
            None => member_masks.push((mask, vec![mi])),
        }
    }
    let mut current_masks: Vec<u64> = current.iter().map(|a| a.bound_mask).collect();
    current_masks.sort_unstable();
    current_masks.dedup();

    let mut next: FxHashSet<JoinedPrePr10> = FxHashSet::default();
    for (mmask, midxs) in &member_masks {
        for &cmask in &current_masks {
            let common = mmask & cmask;
            let mut index: FxHashMap<Vec<VertexId>, Vec<usize>> = FxHashMap::default();
            for &mi in midxs {
                index
                    .entry(project_prepr10(&prepared[mi].binding, common))
                    .or_default()
                    .push(mi);
            }
            for a in current.iter().filter(|a| a.bound_mask == cmask) {
                let Some(hits) = index.get(&project_prepr10(&a.binding, common)) else {
                    continue;
                };
                for &mi in hits {
                    let Some(joined) = a.try_join(&prepared[mi]) else {
                        continue;
                    };
                    if joined.is_complete(n_query_vertices) {
                        if let Some(binding) = joined.complete_binding() {
                            found.insert(binding);
                        }
                    } else {
                        next.insert(joined);
                    }
                }
            }
        }
    }
    next.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{datasets, experiments};
    use gstored_core::assembly::{assemble_basic, assemble_lec};
    use gstored_store::{enumerate_local_partial_matches, find_matches};

    /// The frozen baselines must agree with the optimized paths — they are
    /// the same algorithms, differently engineered.
    #[test]
    fn reference_implementations_agree_with_optimized() {
        let dataset = datasets::lubm(3_000);
        let dist = experiments::partition(dataset.graph.clone(), "hash", 3);
        for q in dataset.queries.iter().filter(|q| !q.is_star()) {
            let query = experiments::query_graph(q);
            let eq = EncodedQuery::encode(&query, dist.dict()).expect("encodable");
            let filter = CandidateFilter::none(eq.vertex_count());
            assert_eq!(
                find_matches(&dataset.graph, &eq),
                find_matches_prepr3(&dataset.graph, &eq),
                "{}: matcher drift",
                q.id
            );
            let mut all_lpms = Vec::new();
            for f in &dist.fragments {
                let mut new_lpms = enumerate_local_partial_matches(f, &eq, &filter);
                let mut old_lpms = enumerate_lpms_prepr3(f, &eq, &filter);
                new_lpms.sort_unstable_by(|a, b| a.binding.cmp(&b.binding));
                old_lpms.sort_unstable_by(|a, b| a.binding.cmp(&b.binding));
                assert_eq!(new_lpms, old_lpms, "{}: LPM drift in F{}", q.id, f.id);
                all_lpms.extend(new_lpms);
            }
            let query_edges: Vec<(usize, usize)> =
                eq.edges().iter().map(|e| (e.from, e.to)).collect();
            let lec = assemble_lec(&all_lpms, eq.vertex_count(), &query_edges);
            let old = assemble_lec_prepr3(&all_lpms, eq.vertex_count(), &query_edges);
            assert_eq!(lec, old, "{}: assembly drift", q.id);
            assert_eq!(
                lec,
                assemble_lec_prepr10(&all_lpms, eq.vertex_count(), &query_edges),
                "{}: join-reorder drift",
                q.id
            );
            assert_eq!(
                lec,
                assemble_basic(&all_lpms, eq.vertex_count()),
                "{}: lec vs basic drift",
                q.id
            );
        }
    }
}
