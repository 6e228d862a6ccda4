//! LEC feature-based pruning (Algorithm 2 + Theorem 5 grouping).
//!
//! The coordinator assembles all sites' LEC features, groups them by
//! LECSign (features with equal signs are never joinable — Theorem 5),
//! builds a **join graph** over the groups, and DFS-joins features along
//! it. Every original feature whose joins reach an all-ones LECSign is
//! *useful*; the rest — and all their local partial matches — are pruned
//! before any LPM is shipped.
//!
//! This is the engine's Algorithm 2 hot path. It runs on the caller's
//! thread over one index, built once per call:
//!
//! * a per-query [`MappingInterner`] turns every feature's crossing-edge
//!   mapping into a `u32` id, so the structural key `(fragments, mapping
//!   id, sign)` is `Copy` and every dedup map is integer-keyed;
//! * a per-group posting map sends each `(data edge, query edge)` entry
//!   to the group's members whose mapping contains it. Condition 2 of
//!   Definition 9 (a shared entry) is necessary, so a feature only ever
//!   meets the members it shares an entry with, never a whole group;
//! * pairwise mapping compatibility (Definition 9 conditions 2/3/5) is an
//!   allocation-free merge scan, and mapping unions are computed and
//!   interned once per pair.
//!
//! [`build_join_graph`] probes each disjoint-sign group pair through
//! those postings, from the smaller group's side, and stops at the first
//! joinable feature pair. [`prune_features`]' recursive `ComLECFJoin`
//! drives each join level off the same postings, tracks the visited group
//! set as a `u64` bitmask, deduplicates join results through an
//! interned-key hash map, records lineage as a join-derivation DAG of
//! `(a, b)` back-pointers (one backward reachability pass at the end
//! replaces per-join `sources` vector merging), and memoizes explored
//! `(visited set, current features)` states so structurally identical
//! subtrees — the same frontier reached through a different join order —
//! expand exactly once.

use fxhash::{FxHashMap, FxHashSet};
use gstored_rdf::EdgeRef;

use crate::lec::{mappings_compatible, InternedFeatureKey, LecFeature, MappingInterner};

/// One LEC feature group (Definition 10): all features sharing a LECSign.
/// Groups index into the shared feature slice they were built over
/// instead of owning clones, so grouping allocates no feature copies.
#[derive(Debug, Clone)]
pub struct FeatureGroup {
    /// The shared LECSign bitmask over query vertices.
    pub sign: u64,
    /// Indices (into the grouped feature slice) of the features carrying
    /// that sign.
    pub members: Vec<u32>,
}

/// Group features by LECSign (Definition 10) — hash-mapped on the sign,
/// so grouping is linear in the feature count; groups hold indices into
/// `features`, not clones.
pub fn group_by_sign(features: &[LecFeature]) -> Vec<FeatureGroup> {
    let mut group_of_sign: FxHashMap<u64, usize> = FxHashMap::default();
    let mut groups: Vec<FeatureGroup> = Vec::new();
    for (i, f) in features.iter().enumerate() {
        let idx = *group_of_sign.entry(f.sign).or_insert_with(|| {
            groups.push(FeatureGroup {
                sign: f.sign,
                members: Vec::new(),
            });
            groups.len() - 1
        });
        groups[idx].members.push(i as u32);
    }
    groups
}

/// The join graph over feature groups: `adj[i]` lists groups with at
/// least one joinable feature pair with group `i` (sorted, deduplicated).
///
/// Only group pairs with disjoint LECSigns are tested (Theorem 5). Each
/// member of the smaller group looks its mapping entries up in the other
/// group's postings, and the test stops at the first joinable pair, so a
/// pair of groups that share no crossing edge costs hash lookups only.
pub fn build_join_graph(
    features: &[LecFeature],
    groups: &[FeatureGroup],
    query_edges: &[(usize, usize)],
) -> Vec<Vec<usize>> {
    let index = FeatureIndex::new(features, groups);
    index.join_graph(groups, query_edges)
}

/// One group's posting map: `(data edge, query edge)` entry → the
/// group's member features whose mapping contains it.
type Postings = FxHashMap<(EdgeRef, usize), Vec<u32>>;

/// The one index Algorithm 2 runs on: interned mappings, the features as
/// `Copy` seeds, and one posting map per group.
struct FeatureIndex {
    interner: MappingInterner,
    /// Per-input-feature `Feat` seeds (node id = feature index).
    seeds: Vec<Feat>,
    /// `postings[g]` indexes the members of group `g`.
    postings: Vec<Postings>,
}

impl FeatureIndex {
    fn new(features: &[LecFeature], groups: &[FeatureGroup]) -> Self {
        let mut interner = MappingInterner::new();
        let seeds = features
            .iter()
            .enumerate()
            .map(|(i, f)| Feat {
                fragments: f.fragments,
                mapping: interner.intern(&f.mapping),
                sign: f.sign,
                node: i as u32,
            })
            .collect();
        let postings = groups
            .iter()
            .map(|g| {
                let mut p = Postings::default();
                for &fi in &g.members {
                    for &entry in &features[fi as usize].mapping {
                        let row = p.entry(entry).or_default();
                        // Canonical mappings keep duplicates adjacent.
                        if row.last() != Some(&fi) {
                            row.push(fi);
                        }
                    }
                }
                p
            })
            .collect();
        FeatureIndex {
            interner,
            seeds,
            postings,
        }
    }

    /// [`build_join_graph`] over this index.
    fn join_graph(
        &self,
        groups: &[FeatureGroup],
        query_edges: &[(usize, usize)],
    ) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); groups.len()];
        let mut witness = Vec::new();
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                if groups[i].sign & groups[j].sign != 0 {
                    continue;
                }
                let (small, other) = if groups[i].members.len() <= groups[j].members.len() {
                    (i, j)
                } else {
                    (j, i)
                };
                let joinable = groups[small].members.iter().any(|&fa| {
                    joinable_members(
                        &self.seeds[fa as usize],
                        &self.postings[other],
                        &self.seeds,
                        &self.interner,
                        query_edges,
                        true,
                        &mut witness,
                    );
                    !witness.is_empty()
                });
                witness.clear();
                if joinable {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        adj
    }
}

/// Append to `out` the members of one group (given by its `postings`)
/// that Definition 9 lets `a` join, each once, in posting order; with
/// `first_only`, stop after the first.
///
/// Candidates come from the postings of `a`'s mapping entries, so
/// condition 2 holds for each; a member sharing several entries with `a`
/// is tested at the first one only. Then: disjoint signs (condition 4),
/// not two originals of one fragment (condition 1), and conditions 2/3/5
/// on the two mappings.
fn joinable_members(
    a: &Feat,
    postings: &Postings,
    seeds: &[Feat],
    interner: &MappingInterner,
    query_edges: &[(usize, usize)],
    first_only: bool,
    out: &mut Vec<u32>,
) {
    let a_map = interner.resolve(a.mapping);
    for (ei, entry) in a_map.iter().enumerate() {
        let Some(cands) = postings.get(entry) else {
            continue;
        };
        for &bi in cands {
            let b = &seeds[bi as usize];
            if a.sign & b.sign != 0 {
                continue;
            }
            if a.fragments == b.fragments && a.fragments.count_ones() == 1 {
                continue;
            }
            let b_map = interner.resolve(b.mapping);
            let shares_earlier = a_map[..ei].iter().any(|&(e, qe)| {
                b_map
                    .binary_search_by_key(&(qe, e), |&(be, bqe)| (bqe, be))
                    .is_ok()
            });
            if shares_earlier || !mappings_compatible(a_map, b_map, query_edges) {
                continue;
            }
            out.push(bi);
            if first_only {
                return;
            }
        }
    }
}

/// A joined (or seed) feature during the Algorithm 2 DFS: three words of
/// structural key plus its node id in the join-derivation DAG. `Copy`,
/// so DFS levels pass features around without cloning any `Vec` —
/// lineage is *recorded* as back-pointers, never carried.
#[derive(Debug, Clone, Copy)]
struct Feat {
    fragments: u64,
    mapping: u32,
    sign: u64,
    node: u32,
}

/// The DFS stack of visited groups: push/pop order plus O(1) membership,
/// and — when the group count fits — a `u64` bitmask that doubles as the
/// memoization key for the visited set.
struct VisitedStack {
    order: Vec<usize>,
    flags: Vec<bool>,
    mask: u64,
    small: bool,
}

impl VisitedStack {
    fn new(n_groups: usize) -> Self {
        VisitedStack {
            order: Vec::new(),
            flags: vec![false; n_groups],
            mask: 0,
            small: n_groups <= 64,
        }
    }

    fn push(&mut self, v: usize) {
        self.order.push(v);
        self.flags[v] = true;
        if self.small {
            self.mask |= 1 << v;
        }
    }

    fn pop(&mut self) {
        let v = self.order.pop().expect("pop matches a push");
        self.flags[v] = false;
        if self.small {
            self.mask &= !(1 << v);
        }
    }

    /// The visited-set memo key — `None` when more than 64 groups exist,
    /// in which case state memoization is skipped (still correct, just
    /// not deduplicated).
    fn key(&self) -> Option<u64> {
        self.small.then_some(self.mask)
    }
}

/// Everything the recursive `ComLECFJoin` threads through unchanged.
///
/// Instead of carrying source lineages in-flight (the pre-PR4 code
/// cloned, extended and re-sorted a `sources` vector on every join and
/// merge), the DFS records a **join-derivation DAG**: every intermediate
/// is a node whose `node_parents` entries are the `(a, b)` pairs that
/// derived it (several, when structurally identical joins merge), every
/// completing join lands in `complete_pairs`, and memo hits add `aliases`
/// edges tying the skipped instance to the expanded one. One backward
/// reachability pass at the end marks exactly the input features that
/// participate in a complete combination.
struct JoinCtx<'a> {
    adj: &'a [Vec<usize>],
    query_edges: &'a [(usize, usize)],
    /// The seeds and per-group postings every join level probes: an
    /// intermediate only meets members sharing an entry with it, never
    /// the full `current × members` cross product.
    index: FeatureIndex,
    /// All-ones LECSign for the query.
    full_sign: u64,
    /// Derivation DAG: nodes `0..features.len()` are the input features
    /// (no parents); intermediates append as created.
    node_parents: Vec<Vec<(u32, u32)>>,
    /// `(a, b)` node pairs whose join reached the all-ones sign.
    complete_pairs: Vec<(u32, u32)>,
    /// `(from, to)` edges: `from` useful ⇒ `to` useful (memo-hit
    /// alignment between structurally identical current sets).
    aliases: Vec<(u32, u32)>,
    /// Explored states of the *current* outer iteration (cleared when
    /// `alive` changes): `(visited mask, sorted structural keys)` → the
    /// node ids of the expanded instance, aligned with the key order.
    explored: FxHashMap<(u64, Vec<InternedFeatureKey>), Vec<u32>>,
}

impl JoinCtx<'_> {
    /// Memoize the `(visited, current)` state. Returns `true` when the
    /// state was already expanded — in that case alias edges from the
    /// expanded instance's nodes to this one's have been recorded, so the
    /// skipped subtree's completions still reach this lineage.
    ///
    /// Alignment is by sorted structural key; features sharing a key
    /// behave identically downstream, so any bijection among them is
    /// sound.
    fn memo_hit(&mut self, vmask: u64, current: &[Feat]) -> bool {
        let mut order: Vec<u32> = (0..current.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let f = &current[i as usize];
            (f.fragments, f.mapping, f.sign, f.node)
        });
        let keys: Vec<InternedFeatureKey> = order
            .iter()
            .map(|&i| {
                let f = &current[i as usize];
                (f.fragments, f.mapping, f.sign)
            })
            .collect();
        let nodes: Vec<u32> = order.iter().map(|&i| current[i as usize].node).collect();
        match self.explored.entry((vmask, keys)) {
            std::collections::hash_map::Entry::Occupied(o) => {
                for (&expanded, &skipped) in o.get().iter().zip(&nodes) {
                    if expanded != skipped {
                        self.aliases.push((expanded, skipped));
                    }
                }
                true
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(nodes);
                false
            }
        }
    }
}

/// Algorithm 2: returns the set of **original feature ids** (the `sources`
/// ids assigned by Algorithm 1) that participate in at least one complete
/// (all-ones LECSign) combination. LPMs whose feature id is not in the
/// returned set can be pruned.
#[allow(clippy::while_let_loop)] // the loop body mutates `alive`, not just the scrutinee
pub fn prune_features(
    features: &[LecFeature],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> FxHashSet<u32> {
    if features.is_empty() {
        return FxHashSet::default();
    }
    let groups = group_by_sign(features);
    let index = FeatureIndex::new(features, &groups);
    let adj = index.join_graph(&groups, query_edges);
    let mut ctx = JoinCtx {
        adj: &adj,
        query_edges,
        index,
        full_sign: crate::lec::full_sign(n_query_vertices),
        node_parents: vec![Vec::new(); features.len()],
        complete_pairs: Vec::new(),
        aliases: Vec::new(),
        explored: FxHashMap::default(),
    };

    // Work on a shrinking vertex set, per the algorithm's outer loop.
    let mut alive: Vec<bool> = vec![true; groups.len()];
    loop {
        // Pick the smallest alive group.
        let Some(vmin) = (0..groups.len())
            .filter(|&v| alive[v])
            .min_by_key(|&v| groups[v].members.len())
        else {
            break;
        };
        // The memo is only valid for a fixed `alive`; the outer loop
        // changes it, so each iteration explores afresh.
        ctx.explored.clear();
        let current: Vec<Feat> = groups[vmin]
            .members
            .iter()
            .map(|&fi| ctx.index.seeds[fi as usize])
            .collect();
        let mut visited = VisitedStack::new(groups.len());
        visited.push(vmin);
        com_lecf_join(&mut ctx, &mut visited, current, &alive);
        alive[vmin] = false;
        // Remove outliers: groups with no alive neighbor cannot join
        // anything anymore.
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

    // Backward reachability over the derivation DAG: a node is useful
    // iff it participates in some completing join chain. Completing
    // pairs seed the worklist; usefulness propagates to every recorded
    // derivation's parents and across alias edges. Input features that
    // end up marked are exactly the sources the pre-PR4 code accumulated
    // by carrying lineage vectors through every join.
    let mut alias_of: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(from, to) in &ctx.aliases {
        alias_of.entry(from).or_default().push(to);
    }
    let mut useful = vec![false; ctx.node_parents.len()];
    let mut work: Vec<u32> = Vec::new();
    for &(a, b) in &ctx.complete_pairs {
        work.push(a);
        work.push(b);
    }
    while let Some(x) = work.pop() {
        if std::mem::replace(&mut useful[x as usize], true) {
            continue;
        }
        for &(a, b) in &ctx.node_parents[x as usize] {
            work.push(a);
            work.push(b);
        }
        if let Some(dsts) = alias_of.get(&x) {
            work.extend(dsts.iter().copied());
        }
    }
    let mut rs = FxHashSet::default();
    for (f, &u) in features.iter().zip(&useful) {
        if u {
            rs.extend(f.sources.iter().copied());
        }
    }
    rs
}

/// The recursive `ComLECFJoin` of Algorithm 2. `visited` is the vertex
/// set `V`; `current` the accumulated joined features for that set.
///
/// Per-level work: frontier from the adjacency lists (bitmask/flag
/// membership, no `Vec::contains`); per intermediate, the group members
/// [`joinable_members`] finds through the group's postings; join results
/// deduplicated through an integer-keyed map, recording every derivation
/// as DAG back-pointers (no lineage vectors cloned or merged in-flight). The
/// `(visited, current)` state memo skips subtrees that an earlier join
/// order already expanded, wiring alias edges so the skipped instance
/// inherits the expanded one's completions.
fn com_lecf_join(
    ctx: &mut JoinCtx<'_>,
    visited: &mut VisitedStack,
    current: Vec<Feat>,
    alive: &[bool],
) {
    if current.is_empty() {
        return;
    }
    if let Some(vmask) = visited.key() {
        if ctx.memo_hit(vmask, &current) {
            return; // an earlier join order already expanded this state
        }
    }
    // Neighbors of the visited set (alive, not already visited).
    let mut frontier: Vec<usize> = visited
        .order
        .iter()
        .flat_map(|&v| ctx.adj[v].iter().copied())
        .filter(|&u| alive[u] && !visited.flags[u])
        .collect();
    frontier.sort_unstable();
    frontier.dedup();

    let mut joinable: Vec<u32> = Vec::new();
    for v in frontier {
        let mut next: Vec<Feat> = Vec::new();
        // Dedup by interned structure; a hit records one more derivation
        // of the same node — two different lineages reaching the same
        // joined feature are both useful if the feature later completes.
        let mut slot: FxHashMap<InternedFeatureKey, u32> = FxHashMap::default();
        for a in &current {
            joinable.clear();
            let index = &ctx.index;
            joinable_members(
                a,
                &index.postings[v],
                &index.seeds,
                &index.interner,
                ctx.query_edges,
                false,
                &mut joinable,
            );
            for &bi in &joinable {
                let b = ctx.index.seeds[bi as usize];
                let joined_sign = a.sign | b.sign;
                if joined_sign == ctx.full_sign {
                    ctx.complete_pairs.push((a.node, b.node));
                    continue;
                }
                let joined_fragments = a.fragments | b.fragments;
                let joined_mapping = ctx.index.interner.union(a.mapping, b.mapping);
                match slot.entry((joined_fragments, joined_mapping, joined_sign)) {
                    std::collections::hash_map::Entry::Occupied(o) => {
                        let node = next[*o.get() as usize].node;
                        ctx.node_parents[node as usize].push((a.node, b.node));
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        let node = ctx.node_parents.len() as u32;
                        ctx.node_parents.push(vec![(a.node, b.node)]);
                        slot.insert(next.len() as u32);
                        next.push(Feat {
                            fragments: joined_fragments,
                            mapping: joined_mapping,
                            sign: joined_sign,
                            node,
                        });
                    }
                }
            }
        }
        if !next.is_empty() {
            visited.push(v);
            com_lecf_join(ctx, visited, next, alive);
            visited.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::{EdgeRef, TermId};

    fn edge(f: u64, l: u64, t: u64) -> EdgeRef {
        EdgeRef {
            from: TermId(f),
            label: TermId(l),
            to: TermId(t),
        }
    }

    fn feat(id: u32, fragment: usize, mapping: Vec<(EdgeRef, usize)>, sign: u64) -> LecFeature {
        LecFeature {
            fragments: 1 << fragment,
            mapping,
            sign,
            sources: vec![id],
        }
    }

    /// The paper's running example (Examples 6–7 and Fig. 6): seven LEC
    /// features in five groups; Algorithm 2 prunes LF([PM2_3]) = P5.
    ///
    /// Vertices v1..v5 are bits 0..4. Query edges from Fig. 2:
    /// e0: v2->v4, e1: v3->v1, e2: v1->v2, e3: v3->v5.
    fn paper_features() -> (Vec<LecFeature>, Vec<(usize, usize)>) {
        let qedges = vec![(1, 3), (2, 0), (0, 1), (2, 4)];
        // Crossing edges of Fig. 1 (ids match the figure).
        let e_1_6 = edge(1, 100, 6); // 001 influencedBy 006
        let e_1_12 = edge(1, 100, 12); // 001 influencedBy 012
        let e_6_5 = edge(6, 101, 5); // 006 mainInterest 005
        let e_14_13 = edge(14, 101, 13); // 014 mainInterest 013
        let features = vec![
            // F1 (fragment 0):
            feat(0, 0, vec![(e_1_6, 1)], 0b10100), // LF([PM1_1]) sign 00101 -> v3,v5
            feat(1, 0, vec![(e_1_12, 1)], 0b10100), // LF([PM2_1])
            feat(2, 0, vec![(e_6_5, 2)], 0b01010), // LF([PM3_1]) sign 01010 -> v2,v4
            // F2 (fragment 1):
            feat(3, 1, vec![(e_1_6, 1)], 0b01011), // LF([PM1_2]) = LF([PM2_2]) v1,v2,v4
            feat(4, 1, vec![(e_1_6, 1), (e_6_5, 2)], 0b00001), // LF([PM3_2]) v1
            // F3 (fragment 2):
            feat(5, 2, vec![(e_1_12, 1)], 0b01011), // LF([PM1_3])
            feat(6, 2, vec![(e_14_13, 2)], 0b01010), // LF([PM2_3])
        ];
        (features, qedges)
    }

    #[test]
    fn paper_example7_grouping() {
        let (features, _) = paper_features();
        let groups = group_by_sign(&features);
        // The paper's Example 7 shows five groups, keeping LF([PM3_1]) and
        // LF([PM2_3]) apart although they share LECSign [01010]:
        // Definition 10 only requires each group to be sign-homogeneous,
        // not maximal. We group maximally (fewer groups, smaller join
        // graph), which Theorem 5 proves sound — a valid combination never
        // needs two same-sign features. Hence 4 groups here.
        assert_eq!(groups.len(), 4);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = groups.iter().map(|g| g.members.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 2, 2, 2]);
        // Every group is sign-homogeneous (the actual Definition 10).
        for g in &groups {
            assert!(g
                .members
                .iter()
                .all(|&fi| features[fi as usize].sign == g.sign));
        }
    }

    #[test]
    fn paper_join_graph_shape() {
        let (features, qedges) = paper_features();
        let groups = group_by_sign(&features);
        let adj = build_join_graph(&features, &groups, &qedges);
        // Group of sign 01010 containing LF([PM3_1]) and LF([PM2_3]):
        // LF([PM3_1]) joins LF([PM3_2]) (shared e_6_5). LF([PM2_3]) joins
        // nothing — but group-level adjacency is about *some* pair, so its
        // group still has edges via LF([PM3_1]).
        let degree_sum: usize = adj.iter().map(Vec::len).sum();
        assert!(degree_sum > 0);
    }

    #[test]
    fn join_graph_adjacency_is_symmetric_and_sorted() {
        let (features, qedges) = paper_features();
        let groups = group_by_sign(&features);
        let adj = build_join_graph(&features, &groups, &qedges);
        for (i, list) in adj.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for &j in list {
                assert!(adj[j].contains(&i), "symmetric");
                assert_ne!(i, j, "no self loops");
                assert_eq!(groups[i].sign & groups[j].sign, 0, "Theorem 5");
            }
        }
    }

    #[test]
    fn paper_pruning_keeps_the_two_real_combinations() {
        let (features, qedges) = paper_features();
        let rs = prune_features(&features, 5, &qedges);
        // Complete combinations: {PM1_1, PM1_2-class} (via e_1_6: signs
        // 00101 | 11010... check: 0b10100 | 0b01011 = 0b11111 ✓) and
        // {PM2_1, PM1_3} (via e_1_12: 0b10100 | 0b01011 = full ✓).
        assert!(rs.contains(&0), "LF([PM1_1]) is useful");
        assert!(rs.contains(&3), "LF([PM1_2]) is useful");
        assert!(rs.contains(&1), "LF([PM2_1]) is useful");
        assert!(rs.contains(&5), "LF([PM1_3]) is useful");
        // The paper: "P5 = LF([PM2_3]) can be filtered out".
        assert!(!rs.contains(&6), "LF([PM2_3]) must be pruned");
    }

    #[test]
    fn three_way_combination_found() {
        // Chain query v0-v1-v2 (3 vertices, 2 edges), three fragments.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let e12 = edge(20, 1, 30);
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0), (e12, 1)], 0b010),
            feat(2, 2, vec![(e12, 1)], 0b100),
        ];
        let rs = prune_features(&features, 3, &qedges);
        let mut got: Vec<u32> = rs.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn dead_end_features_pruned() {
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let e99 = edge(70, 1, 80); // matches nothing else
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0)], 0b110),
            feat(2, 2, vec![(e99, 1)], 0b100),
        ];
        let rs = prune_features(&features, 3, &qedges);
        assert!(rs.contains(&0));
        assert!(rs.contains(&1));
        assert!(!rs.contains(&2), "unjoinable feature must be pruned");
    }

    #[test]
    fn empty_input_prunes_everything() {
        let rs = prune_features(&[], 3, &[(0, 1)]);
        assert!(rs.is_empty());
    }

    #[test]
    fn no_complete_combination_prunes_all() {
        // Two features that join but never cover vertex 2.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0)], 0b010),
        ];
        let rs = prune_features(&features, 3, &qedges);
        assert!(rs.is_empty());
    }

    #[test]
    fn same_sign_features_share_group_and_fate_independently() {
        // Two same-sign features in one group; only one joins to complete.
        let qedges = vec![(0, 1)];
        let e = edge(10, 1, 20);
        let e_dead = edge(30, 1, 40);
        let features = vec![
            feat(0, 0, vec![(e, 0)], 0b01),
            feat(1, 0, vec![(e_dead, 0)], 0b01),
            feat(2, 1, vec![(e, 0)], 0b10),
        ];
        let rs = prune_features(&features, 2, &qedges);
        assert!(rs.contains(&0));
        assert!(rs.contains(&2));
        assert!(!rs.contains(&1));
    }

    #[test]
    fn merged_lineages_both_survive_on_completion() {
        // Two distinct F0 seeds join the same F1 feature into the same
        // structural intermediate is impossible (different mappings), but
        // two *lineages* can reach one joined feature when two same-
        // structure paths exist; the dedup must keep both source sets.
        // Construct: A0 and A1 (same group, same mapping, different ids —
        // as separate input features), both join B, whose join completes.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(10, 1, 20);
        let e12 = edge(20, 1, 30);
        let features = vec![
            feat(0, 0, vec![(e01, 0)], 0b001),
            feat(1, 1, vec![(e01, 0), (e12, 1)], 0b010),
            feat(2, 2, vec![(e12, 1)], 0b100),
            // A structurally identical sibling of feature 0 carrying a
            // different id (e.g. shipped by a different site replica).
            LecFeature {
                fragments: 1 << 3,
                mapping: vec![(e01, 0)],
                sign: 0b001,
                sources: vec![9],
            },
        ];
        let rs = prune_features(&features, 3, &qedges);
        for id in [0u32, 1, 2, 9] {
            assert!(rs.contains(&id), "id {id} participates in a completion");
        }
    }

    /// A state-memo hit must carry usefulness across to the skipped
    /// instance. Query v0..v3 with edges q0: v0→v1, q1: v0→v2, q2: v1→v2,
    /// q3: v1→v3; one group per internal vertex: S = {s}, A = {a1, a2},
    /// B = {b}, C = {c}. `a1` shares q0's edge with `s`; `a2` shares q2's
    /// edge only with `b`; both carry q3's edge, which `c` shares. So
    /// `s ⋈ b ⋈ a1` and `s ⋈ b ⋈ a2` are one structural feature, equal to
    /// `s ⋈ a1 ⋈ b`. The DFS from S walks S→A→B first, where `a2` never
    /// joins, and completes with `c`; S→B→A then reaches the same
    /// {S, A, B} state and is skipped. Only the alias edge from the
    /// expanded state to the skipped one marks `a2`, which completes as
    /// `s ⋈ b ⋈ a2 ⋈ c`; after S leaves the alive set no completion is
    /// possible.
    #[test]
    fn memo_hit_aliases_keep_the_skipped_lineage_useful() {
        let qedges = vec![(0, 1), (0, 2), (1, 2), (1, 3)];
        let (v0, v1, v2, v3) = (10, 11, 12, 13);
        let e_sa = (edge(v0, 1, v1), 0);
        let e_sb = (edge(v0, 1, v2), 1);
        let e_ab = (edge(v1, 1, v2), 2);
        let e_x = (edge(v1, 1, v3), 3);
        let features = vec![
            feat(0, 0, vec![e_sa, e_sb], 0b0001),
            feat(1, 1, vec![e_sa, e_x], 0b0010),
            feat(2, 1, vec![e_ab, e_x], 0b0010),
            feat(3, 2, vec![e_sb, e_ab], 0b0100),
            feat(4, 3, vec![e_x], 0b1000),
        ];
        let groups = group_by_sign(&features);
        assert_eq!(groups.len(), 4, "test premise: S, A, B, C");
        let rs = prune_features(&features, 4, &qedges);
        let mut got: Vec<u32> = rs.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "a2 completes through b");
    }

    #[test]
    fn big_group_counts_disable_the_state_memo_but_stay_correct() {
        // More than 64 sign groups: the u64 visited mask no longer fits,
        // so the state memo switches off; pruning must stay correct.
        // 64-vertex query, 71 isolated singleton/pair sign groups plus one
        // genuinely joinable complete pair.
        let qedges: Vec<(usize, usize)> = (0..63).map(|i| (i, i + 1)).collect();
        let e = edge(10, 1, 20);
        let mut features: Vec<LecFeature> = Vec::new();
        for i in 0..64u32 {
            features.push(feat(
                i,
                (i % 60) as usize,
                vec![(edge(1000 + i as u64, 1, 7), 0)],
                1 << i,
            ));
        }
        for i in 1..8u32 {
            features.push(feat(
                64 + i,
                ((i + 1) % 60) as usize,
                vec![(edge(2000 + i as u64, 1, 7), 0)],
                (1 << i) | 1,
            ));
        }
        // The joinable pair: all-but-v0 + v0, sharing edge `e` on query
        // edge 0, different fragments — completes the 64-bit sign.
        features.push(feat(100, 61, vec![(e, 0)], !1u64));
        features.push(feat(101, 62, vec![(e, 0)], 1));
        let groups = group_by_sign(&features);
        assert!(groups.len() > 64, "test premise: {} groups", groups.len());
        let rs = prune_features(&features, 64, &qedges);
        let mut got: Vec<u32> = rs.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![100, 101]);
    }
}
