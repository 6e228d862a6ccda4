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
//! thread over one flat index, built once per call:
//!
//! * every distinct `(query edge, data edge)` entry gets a dense `u32` id
//!   in canonical order, so a mapping (the `g` of Definition 8) is an
//!   ascending id slice. All mappings live back to back in one
//!   `SliceInterner` arena, equal ones once, and a joined mapping is a
//!   merge of two slices interned by hash with a collision chain;
//! * the postings are one CSR over entry ids: entry `x`'s range lists the
//!   `(group, feature)` pairs whose mapping contains `x`, sorted, so a
//!   group's members on `x` are one binary-searched subrange. Condition 2
//!   of Definition 9 (a shared entry) is necessary, so a feature only
//!   ever meets the members it shares an entry with, never a whole group;
//! * Definition 9 conditions 2/3 are a merge over two id slices, and
//!   condition 5 compares only the two sides' bindings with each other:
//!   each side is consistent on its own (an original is checked once per
//!   call; a join result passed this test).
//!
//! [`build_join_graph`] probes each disjoint-sign group pair through
//! those postings, from the smaller group's side, and stops at the first
//! joinable feature pair. [`prune_features`]' recursive `ComLECFJoin`
//! drives each join level off the same postings, keeps every level's
//! features in one stack arena, tracks the visited group set as a `u64`
//! bitmask, deduplicates join results by hash and chain, records lineage
//! as flat derivation and alias edge lists that feed one CSR reachability
//! pass at the end, and memoizes explored `(visited set, current
//! features)` states so structurally identical subtrees — the same
//! frontier reached through a different join order — expand exactly once.
//! After the index is sized, a call's heap traffic is the amortized
//! growth of a fixed set of arenas, not one allocation per feature.

use fxhash::{FxHashMap, FxHashSet};
use gstored_rdf::{EdgeRef, VertexId};

use crate::lec::{hash_words, to_u32, ChainIndex, LecFeature, SliceInterner};

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
/// pair of groups that share no crossing edge costs posting lookups only.
pub fn build_join_graph(
    features: &[LecFeature],
    groups: &[FeatureGroup],
    query_edges: &[(usize, usize)],
) -> Vec<Vec<usize>> {
    FeatureIndex::new(features, groups, query_edges).join_graph(groups)
}

/// The two query-vertex bindings one entry implies: `(query vertex, data
/// vertex)` for the query edge's source and target.
type EntryEnds = [(u32, VertexId); 2];

/// The one index Algorithm 2 runs on, in flat arrays.
struct FeatureIndex {
    /// Per entry id: the bindings it implies (condition 5's input).
    ends: Vec<EntryEnds>,
    /// Per entry id: its query edge (entry ids ascend with it).
    entry_qe: Vec<u32>,
    /// Every mapping as an ascending entry-id slice, interned.
    mappings: SliceInterner,
    /// Per input feature: its `Feat` seed (node id = feature index).
    seeds: Vec<Feat>,
    /// Per group: its LECSign.
    group_signs: Vec<u64>,
    /// Per input feature: whether its own bindings agree. One that
    /// conflicts joins nothing (condition 5 over its own pairs fails for
    /// every partner), so it has no postings and probes nothing.
    consistent: Vec<bool>,
    /// CSR postings: entry `x`'s `(group, feature)` pairs are
    /// `posting[posting_start[x]..posting_start[x + 1]]`, sorted.
    posting_start: Vec<u32>,
    posting: Vec<(u32, u32)>,
    /// Per feature: the probe stamp it was last met under, so a member
    /// sharing several entries with a feature is tested once.
    met: Vec<u32>,
    stamp: u32,
}

impl FeatureIndex {
    fn new(
        features: &[LecFeature],
        groups: &[FeatureGroup],
        query_edges: &[(usize, usize)],
    ) -> Self {
        // Entry ids in canonical `(query edge, data edge)` order: one sort
        // of every mapping entry tagged with its arena slot.
        let mut starts = Vec::with_capacity(features.len() + 1);
        let mut tagged: Vec<(usize, EdgeRef, u32)> = Vec::new();
        for f in features {
            starts.push(to_u32(tagged.len()));
            for &(e, qe) in &f.mapping {
                tagged.push((qe, e, to_u32(tagged.len())));
            }
        }
        starts.push(to_u32(tagged.len()));
        tagged.sort_unstable_by_key(|&(qe, e, _)| (qe, e));
        let mut ids = vec![0u32; tagged.len()];
        let mut ends: Vec<EntryEnds> = Vec::new();
        let mut entry_qe = Vec::new();
        for (k, &(qe, e, slot)) in tagged.iter().enumerate() {
            if k == 0 || (tagged[k - 1].0, tagged[k - 1].1) != (qe, e) {
                let (qf, qt) = query_edges[qe];
                ends.push([(to_u32(qf), e.from), (to_u32(qt), e.to)]);
                entry_qe.push(to_u32(qe));
            }
            ids[slot as usize] = to_u32(ends.len() - 1);
        }
        drop(tagged);

        // Seeds: each mapping as a sorted, deduplicated id slice.
        let mut mappings = SliceInterner::with_capacity(features.len(), ids.len());
        let mut consistent = Vec::with_capacity(features.len());
        let mut seeds = Vec::with_capacity(features.len());
        let mut slice: Vec<u32> = Vec::new();
        for (i, f) in features.iter().enumerate() {
            slice.clear();
            slice.extend_from_slice(&ids[starts[i] as usize..starts[i + 1] as usize]);
            slice.sort_unstable();
            slice.dedup();
            // Every pair of the feature's own bindings, an entry's two with
            // each other included (a self-loop query edge binds one vertex
            // twice).
            consistent.push(
                slice
                    .iter()
                    .enumerate()
                    .all(|(k, &x)| slice[k..].iter().all(|&y| !conflict(&ends, x, y))),
            );
            seeds.push(Feat {
                fragments: f.fragments,
                mapping: mappings.intern(&slice),
                sign: f.sign,
                node: to_u32(i),
            });
        }

        // CSR postings, filled group by group and member by member, so each
        // entry's range comes out sorted by `(group, feature)`.
        let mut posting_start = vec![0u32; ends.len() + 1];
        for (i, seed) in seeds.iter().enumerate() {
            if consistent[i] {
                for &x in mappings.get(seed.mapping) {
                    posting_start[x as usize + 1] += 1;
                }
            }
        }
        for x in 0..ends.len() {
            posting_start[x + 1] += posting_start[x];
        }
        let mut fill: Vec<u32> = posting_start[..ends.len()].to_vec();
        let mut posting = vec![(0u32, 0u32); posting_start[ends.len()] as usize];
        for (g, group) in groups.iter().enumerate() {
            for &fi in &group.members {
                if !consistent[fi as usize] {
                    continue;
                }
                for &x in mappings.get(seeds[fi as usize].mapping) {
                    let at = &mut fill[x as usize];
                    posting[*at as usize] = (g as u32, fi);
                    *at += 1;
                }
            }
        }
        FeatureIndex {
            ends,
            entry_qe,
            mappings,
            seeds,
            group_signs: groups.iter().map(|g| g.sign).collect(),
            consistent,
            posting_start,
            posting,
            met: vec![0; features.len()],
            stamp: 0,
        }
    }

    /// [`build_join_graph`] over this index.
    fn join_graph(&mut self, groups: &[FeatureGroup]) -> Vec<Vec<usize>> {
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
                    let a = self.seeds[fa as usize];
                    self.joinable_members(a, other as u32, true, &mut witness);
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

    /// Append to `out` the members of `group` that Definition 9 lets `a`
    /// join, each once, in posting order; with `first_only`, stop after
    /// the first.
    ///
    /// A group shares one sign, so condition 4 (disjoint signs) is tested
    /// once for the whole group. Candidates come from the postings of
    /// `a`'s mapping entries, so condition 2 holds for each; a member
    /// sharing several entries with `a` is tested at the first one only.
    /// Then: not two originals of one fragment (condition 1), and
    /// conditions 2/3/5 on the two mappings.
    fn joinable_members(&mut self, a: Feat, group: u32, first_only: bool, out: &mut Vec<u32>) {
        if a.sign & self.group_signs[group as usize] != 0
            || self.consistent.get(a.node as usize) == Some(&false)
        {
            return;
        }
        if self.stamp == u32::MAX {
            self.met.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let a_map = self.mappings.get(a.mapping);
        for &x in a_map {
            let range = &self.posting[self.posting_start[x as usize] as usize
                ..self.posting_start[x as usize + 1] as usize];
            let lo = range.partition_point(|&(g, _)| g < group);
            let hi = lo + range[lo..].partition_point(|&(g, _)| g == group);
            for &(_, bi) in &range[lo..hi] {
                if std::mem::replace(&mut self.met[bi as usize], self.stamp) == self.stamp {
                    continue;
                }
                let b = &self.seeds[bi as usize];
                if a.fragments == b.fragments && a.fragments.count_ones() == 1 {
                    continue;
                }
                if !self.compatible(a_map, self.mappings.get(b.mapping)) {
                    continue;
                }
                out.push(bi);
                if first_only {
                    return;
                }
            }
        }
    }

    /// Definition 9 conditions 2/3/5 on two mappings, each consistent on
    /// its own. A merge over query edges finds those on both sides: each
    /// must carry one and the same entry on either side (condition 3), and
    /// at least one must exist (condition 2). Then no binding of one side
    /// may give a query vertex another data vertex than the other does.
    fn compatible(&self, a: &[u32], b: &[u32]) -> bool {
        let qe = |x: u32| self.entry_qe[x as usize];
        let mut shared = false;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (qa, qb) = (qe(a[i]), qe(b[j]));
            if qa < qb {
                i += 1;
            } else if qa > qb {
                j += 1;
            } else {
                let i_end = i + a[i..].iter().take_while(|&&x| qe(x) == qa).count();
                let j_end = j + b[j..].iter().take_while(|&&y| qe(y) == qa).count();
                if i_end - i != 1 || j_end - j != 1 || a[i] != b[j] {
                    return false;
                }
                shared = true;
                (i, j) = (i_end, j_end);
            }
        }
        shared
            && a.iter()
                .all(|&x| b.iter().all(|&y| x == y || !conflict(&self.ends, x, y)))
    }
}

/// Whether two entries bind one query vertex to different data vertices.
#[inline]
fn conflict(ends: &[EntryEnds], x: u32, y: u32) -> bool {
    let (ex, ey) = (&ends[x as usize], &ends[y as usize]);
    ex.iter()
        .any(|&(qx, dx)| ey.iter().any(|&(qy, dy)| qx == qy && dx != dy))
}

/// A joined (or seed) feature during the Algorithm 2 DFS: three words of
/// structural key plus its node id in the join-derivation DAG. `Copy`,
/// so DFS levels pass features around without cloning any `Vec` —
/// lineage is *recorded* as edges, never carried.
#[derive(Debug, Clone, Copy)]
struct Feat {
    fragments: u64,
    mapping: u32,
    sign: u64,
    node: u32,
}

impl Feat {
    fn key(&self) -> (u64, u32, u64) {
        (self.fragments, self.mapping, self.sign)
    }

    fn key_hash(&self) -> u64 {
        hash_words([self.fragments, u64::from(self.mapping), self.sign])
    }
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

/// Explored `(visited mask, current features)` states of one outer
/// iteration, flat: state `s` has mask `masks[s]` and features
/// `feats[starts[s]..starts[s + 1]]`. A state is hashed as a multiset
/// (the sum of its features' key hashes), so a probe that misses sorts
/// nothing; the two sides are sorted only to confirm a hash match.
#[derive(Default)]
struct StateMemo {
    index: ChainIndex,
    masks: Vec<u64>,
    starts: Vec<u32>,
    feats: Vec<Feat>,
    /// Scratch: the probed state's features, sorted.
    probe: Vec<Feat>,
}

impl StateMemo {
    fn clear(&mut self) {
        self.index.clear();
        self.masks.clear();
        self.starts.clear();
        self.starts.push(0);
        self.feats.clear();
    }
}

/// Everything the recursive `ComLECFJoin` threads through.
///
/// Instead of carrying source lineages in-flight, the DFS records a
/// **join-derivation DAG** as flat edge lists: every intermediate is a
/// node, each derivation `(node, a, b)` of it (several, when structurally
/// identical joins merge) lands in `derivations`, every completing join
/// in `complete_pairs`, and memo hits add `aliases` edges tying the
/// skipped instance to the expanded one. One backward reachability pass
/// over their CSR at the end marks exactly the input features that
/// participate in a complete combination.
struct JoinCtx<'a> {
    adj: &'a [Vec<usize>],
    /// The seeds and postings every join level probes: an intermediate
    /// only meets members sharing an entry with it, never the full
    /// `current × members` cross product.
    index: FeatureIndex,
    /// All-ones LECSign for the query.
    full_sign: u64,
    /// Derivation DAG nodes: `0..features.len()` are the input features;
    /// intermediates are numbered on from there as created.
    n_nodes: u32,
    /// `(node, a, b)`: `node` was derived by joining nodes `a` and `b`.
    derivations: Vec<(u32, u32, u32)>,
    /// `(a, b)` node pairs whose join reached the all-ones sign.
    complete_pairs: Vec<(u32, u32)>,
    /// `(from, to)` edges: `from` useful ⇒ `to` useful (memo-hit
    /// alignment between structurally identical current sets).
    aliases: Vec<(u32, u32)>,
    /// Every DFS level's features, as ranges of one stack arena.
    feats: Vec<Feat>,
    /// Every DFS level's frontier, as ranges of one stack arena.
    frontier: Vec<usize>,
    /// Join-result dedup of the level being built: item `k` is
    /// `feats[level start + k]`.
    slots: ChainIndex,
    /// Scratch for [`FeatureIndex::joinable_members`].
    joinable: Vec<u32>,
    memo: StateMemo,
}

impl JoinCtx<'_> {
    /// Memoize the `(visited, current)` state, `current` being
    /// `feats[lo..hi]`. Returns `true` when the state was already
    /// expanded — in that case alias edges from the expanded instance's
    /// nodes to this one's have been recorded, so the skipped subtree's
    /// completions still reach this lineage.
    ///
    /// Alignment is by sorted structural key; features sharing a key
    /// behave identically downstream, so any bijection among them is
    /// sound.
    fn memo_hit(&mut self, vmask: u64, lo: usize, hi: usize) -> bool {
        let feats = &self.feats[lo..hi];
        let memo = &mut self.memo;
        let hash = feats
            .iter()
            .fold(hash_words([vmask, feats.len() as u64]), |h, f| {
                h.wrapping_add(f.key_hash())
            });
        let sort_key = |f: &Feat| (f.fragments, f.mapping, f.sign, f.node);
        let mut probe_sorted = false;
        // A hash match is confirmed by sorting the stored state and (once)
        // the probe, then comparing keys in order.
        let hit = memo.index.find(hash, |s| {
            let (start, end) = (
                memo.starts[s as usize] as usize,
                memo.starts[s as usize + 1] as usize,
            );
            if memo.masks[s as usize] != vmask || end - start != feats.len() {
                return false;
            }
            if !probe_sorted {
                memo.probe.clear();
                memo.probe.extend_from_slice(feats);
                memo.probe.sort_unstable_by_key(sort_key);
                probe_sorted = true;
            }
            let stored = &mut memo.feats[start..end];
            stored.sort_unstable_by_key(sort_key);
            stored
                .iter()
                .zip(&memo.probe)
                .all(|(x, y)| x.key() == y.key())
        });
        match hit {
            Some(s) => {
                let start = memo.starts[s as usize] as usize;
                for (k, skipped) in memo.probe.iter().enumerate() {
                    let expanded = memo.feats[start + k].node;
                    if expanded != skipped.node {
                        self.aliases.push((expanded, skipped.node));
                    }
                }
                true
            }
            None => {
                memo.index.insert(hash);
                memo.masks.push(vmask);
                memo.feats.extend_from_slice(feats);
                memo.starts.push(to_u32(memo.feats.len()));
                false
            }
        }
    }
}

/// Algorithm 2: returns the set of **original feature ids** (the `sources`
/// ids assigned by Algorithm 1) that participate in at least one complete
/// (all-ones LECSign) combination. LPMs whose feature id is not in the
/// returned set can be pruned. The set form of [`useful_ids`].
pub fn prune_features(
    features: &[LecFeature],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> FxHashSet<u32> {
    useful_ids(features, n_query_vertices, query_edges)
        .into_iter()
        .collect()
}

/// Algorithm 2, as a list: the `sources` ids of the useful features, in
/// input order — ascending whenever the input's ids are, as the engine's
/// reply checks guarantee for the features of a fleet.
#[allow(clippy::while_let_loop)] // the loop body mutates `alive`, not just the scrutinee
pub fn useful_ids(
    features: &[LecFeature],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> Vec<u32> {
    if features.is_empty() {
        return Vec::new();
    }
    let groups = group_by_sign(features);
    let mut index = FeatureIndex::new(features, &groups, query_edges);
    let adj = index.join_graph(&groups);
    let mut ctx = JoinCtx {
        adj: &adj,
        index,
        full_sign: crate::lec::full_sign(n_query_vertices),
        n_nodes: to_u32(features.len()),
        derivations: Vec::new(),
        complete_pairs: Vec::new(),
        aliases: Vec::new(),
        feats: Vec::new(),
        frontier: Vec::new(),
        slots: ChainIndex::default(),
        joinable: Vec::new(),
        memo: StateMemo::default(),
    };

    // Work on a shrinking vertex set, per the algorithm's outer loop.
    let mut alive: Vec<bool> = vec![true; groups.len()];
    let mut visited = VisitedStack::new(groups.len());
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
        ctx.memo.clear();
        ctx.feats.clear();
        let seeds = &ctx.index.seeds;
        ctx.feats
            .extend(groups[vmin].members.iter().map(|&fi| seeds[fi as usize]));
        visited.push(vmin);
        let hi = ctx.feats.len();
        com_lecf_join(&mut ctx, &mut visited, 0, hi, &alive);
        visited.pop();
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

    // Backward reachability: a node is useful iff it participates in
    // some completing join chain. Completing pairs seed the worklist;
    // usefulness flows from a node to the parents of each derivation of
    // it and across alias edges, over one CSR of those edges.
    let n = ctx.n_nodes as usize;
    let mut start = vec![0u32; n + 1];
    for &(node, _, _) in &ctx.derivations {
        start[node as usize + 1] += 2;
    }
    for &(from, _) in &ctx.aliases {
        start[from as usize + 1] += 1;
    }
    for x in 0..n {
        start[x + 1] += start[x];
    }
    let mut fill: Vec<u32> = start[..n].to_vec();
    let mut to = vec![0u32; start[n] as usize];
    let mut add = |from: u32, dst: u32| {
        let at = &mut fill[from as usize];
        to[*at as usize] = dst;
        *at += 1;
    };
    for &(node, a, b) in &ctx.derivations {
        add(node, a);
        add(node, b);
    }
    for &(from, dst) in &ctx.aliases {
        add(from, dst);
    }
    let mut useful = vec![false; n];
    let mut work: Vec<u32> = Vec::with_capacity(2 * ctx.complete_pairs.len());
    for &(a, b) in &ctx.complete_pairs {
        work.push(a);
        work.push(b);
    }
    while let Some(x) = work.pop() {
        if std::mem::replace(&mut useful[x as usize], true) {
            continue;
        }
        work.extend_from_slice(&to[start[x as usize] as usize..start[x as usize + 1] as usize]);
    }
    features
        .iter()
        .zip(&useful)
        .filter(|(_, &u)| u)
        .flat_map(|(f, _)| f.sources.iter().copied())
        .collect()
}

/// The recursive `ComLECFJoin` of Algorithm 2. `visited` is the vertex
/// set `V`; `feats[lo..hi]` the accumulated joined features for that set.
///
/// Per-level work: frontier from the adjacency lists (bitmask/flag
/// membership, no `Vec::contains`); per intermediate, the group members
/// [`FeatureIndex::joinable_members`] finds through the postings; join
/// results appended to the feature arena and deduplicated by hash and
/// chain, recording every derivation as a DAG edge (no lineage vectors
/// cloned or merged in-flight). The `(visited, current)` state memo skips
/// subtrees that an earlier join order already expanded, wiring alias
/// edges so the skipped instance inherits the expanded one's completions.
fn com_lecf_join(
    ctx: &mut JoinCtx<'_>,
    visited: &mut VisitedStack,
    lo: usize,
    hi: usize,
    alive: &[bool],
) {
    if lo == hi {
        return;
    }
    if let Some(vmask) = visited.key() {
        if ctx.memo_hit(vmask, lo, hi) {
            return; // an earlier join order already expanded this state
        }
    }
    // Neighbors of the visited set (alive, not already visited).
    let fs = ctx.frontier.len();
    for &v in &visited.order {
        for &u in &ctx.adj[v] {
            if alive[u] && !visited.flags[u] {
                ctx.frontier.push(u);
            }
        }
    }
    ctx.frontier[fs..].sort_unstable();
    let mut fe = fs;
    for k in fs..ctx.frontier.len() {
        if k == fs || ctx.frontier[k] != ctx.frontier[fe - 1] {
            ctx.frontier[fe] = ctx.frontier[k];
            fe += 1;
        }
    }
    ctx.frontier.truncate(fe);

    let mut joinable = std::mem::take(&mut ctx.joinable);
    for k in fs..fe {
        let v = ctx.frontier[k];
        let start = ctx.feats.len();
        // Dedup by interned structure; a hit records one more derivation
        // of the same node — two different lineages reaching the same
        // joined feature are both useful if the feature later completes.
        ctx.slots.clear();
        for ai in lo..hi {
            let a = ctx.feats[ai];
            joinable.clear();
            ctx.index
                .joinable_members(a, v as u32, false, &mut joinable);
            for &bi in &joinable {
                let b = ctx.index.seeds[bi as usize];
                let sign = a.sign | b.sign;
                if sign == ctx.full_sign {
                    ctx.complete_pairs.push((a.node, b.node));
                    continue;
                }
                let joined = Feat {
                    fragments: a.fragments | b.fragments,
                    mapping: ctx.index.mappings.union(a.mapping, b.mapping),
                    sign,
                    node: ctx.n_nodes,
                };
                let hash = joined.key_hash();
                let level = &ctx.feats[start..];
                match ctx
                    .slots
                    .find(hash, |s| level[s as usize].key() == joined.key())
                {
                    Some(s) => {
                        let node = level[s as usize].node;
                        ctx.derivations.push((node, a.node, b.node));
                    }
                    None => {
                        ctx.slots.insert(hash);
                        ctx.derivations.push((joined.node, a.node, b.node));
                        ctx.n_nodes = ctx.n_nodes.checked_add(1).expect("u32 node ids");
                        ctx.feats.push(joined);
                    }
                }
            }
        }
        if ctx.feats.len() > start {
            visited.push(v);
            let hi = ctx.feats.len();
            com_lecf_join(ctx, visited, start, hi, alive);
            visited.pop();
        }
        ctx.feats.truncate(start);
    }
    ctx.joinable = joinable;
    ctx.frontier.truncate(fs);
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

    /// Condition 5 covers a feature's own bindings too: one whose entries
    /// bind a query vertex to two data vertices joins nothing, even where
    /// its partner binds none of the vertices in conflict. Query q0: v0→v1,
    /// q1 and q2: v2→v3 (two predicates); `c` binds v2 to 30 through q1
    /// and to 31 through q2, while `c_ok` binds it to 30 through both.
    #[test]
    fn a_self_conflicting_feature_joins_nothing() {
        let qedges = vec![(0, 1), (2, 3), (2, 3)];
        let shared = (edge(10, 1, 20), 0);
        let a = feat(0, 0, vec![shared], 0b0001);
        let c = feat(
            1,
            1,
            vec![shared, (edge(30, 2, 50), 1), (edge(31, 3, 50), 2)],
            0b1110,
        );
        let c_ok = feat(
            2,
            2,
            vec![shared, (edge(30, 2, 50), 1), (edge(30, 3, 50), 2)],
            0b1110,
        );
        assert!(!a.joinable(&c, &qedges), "Definition 9 premise");
        assert!(a.joinable(&c_ok, &qedges), "Definition 9 premise");
        let rs = prune_features(&[a, c, c_ok], 4, &qedges);
        let mut got: Vec<u32> = rs.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
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
