//! Assembly of local partial matches into crossing matches.
//!
//! Two joins, one per family of engine variants:
//!
//! * [`IncrementalJoin`] — the LEC feature-based assembly of
//!   **Algorithm 3**, run by LA/LO/Full as a delta join: LPMs are pushed
//!   one at a time as survivor chunks land, each push extends only the
//!   new LPM through the postings of its crossing edges, and a posting's
//!   LECSign buckets (Definition 11) that overlap the state's internal
//!   mask are skipped whole (Theorem 5). Intermediates use a compact
//!   fixed-width representation (`Joined`) — binding, bitmasks and a
//!   query-edge-indexed crossing table — so joining is mask math plus an
//!   `O(|E^Q|)` merge rather than `LocalPartialMatch` cloning with
//!   quadratic crossing-list scans. [`assemble_lec`] drains a whole batch
//!   through one joiner.
//! * [`assemble_basic`] — the partitioning-based join of reference \[18\],
//!   used by the `gStoreD-Basic` variant in Fig. 9: no LECSign grouping;
//!   intermediates are joined against every LPM whose pivot-partition
//!   differs, which is the larger join space the paper improves on. Its
//!   pairwise join loop is kept verbatim — it *is* the baseline — but its
//!   dedup sinks use the same fast deterministic hasher.
//!
//! Both yield the deduplicated set of complete crossing-match bindings,
//! and the tests hold each to the other and to the centralized matcher.

use fxhash::{FxHashMap, FxHashSet};
use gstored_rdf::{EdgeRef, VertexId};
use gstored_store::LocalPartialMatch;

/// A complete match binding (one data vertex per query vertex).
pub type MatchBinding = Vec<VertexId>;

/// Compact join-time representation of an LPM or a joined intermediate.
///
/// `edges[qe]` is the crossing data edge matched to query edge `qe`
/// (`None` when unmatched), replacing the `(EdgeRef, usize)` list of
/// [`LocalPartialMatch`] so that the shared-edge / conflicting-edge checks
/// of the join condition are single array probes and merging two matches
/// is one linear pass. `bound_mask` caches which query vertices are bound,
/// so the binding-agreement check only visits commonly bound ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Joined {
    /// Source fragment for an original LPM; `usize::MAX` once joined.
    fragment: usize,
    binding: Vec<Option<VertexId>>,
    edges: Vec<Option<EdgeRef>>,
    internal_mask: u64,
    bound_mask: u64,
}

impl Joined {
    /// Intern one original LPM. `n_edges` is the width of the query-edge
    /// table (covers every `qe` appearing in any crossing entry).
    fn of_lpm(lpm: &LocalPartialMatch, n_edges: usize) -> Joined {
        let mut edges: Vec<Option<EdgeRef>> = vec![None; n_edges];
        for &(e, qe) in &lpm.crossing {
            edges[qe] = Some(e);
        }
        Joined {
            fragment: lpm.fragment,
            binding: lpm.binding.clone(),
            edges,
            internal_mask: lpm.internal_mask,
            bound_mask: bound_mask_of(&lpm.binding),
        }
    }

    /// The \[18\] join condition (the same checks as
    /// [`LocalPartialMatch::joinable`]) followed by the merge. Returns
    /// `None` when the pair does not join.
    fn try_join(&self, other: &Joined) -> Option<Joined> {
        // Condition 1: never two raw LPMs of the same fragment (joined
        // intermediates carry `usize::MAX` and may re-enter any fragment).
        if self.fragment == other.fragment {
            return None;
        }
        // Condition 4 (Theorem 5): internal cores are disjoint.
        if self.internal_mask & other.internal_mask != 0 {
            return None;
        }
        // Conditions 2+3: at least one shared crossing edge on the same
        // query edge, and no query edge matched by different data edges.
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
        // Binding agreement on commonly-bound vertices.
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
        Some(Joined {
            fragment: usize::MAX,
            binding,
            edges,
            internal_mask: self.internal_mask | other.internal_mask,
            bound_mask: self.bound_mask | other.bound_mask,
        })
    }

    fn is_complete(&self, vertex_count: usize) -> bool {
        self.internal_mask == full_mask(vertex_count)
    }

    fn complete_binding(&self) -> Option<MatchBinding> {
        self.binding.iter().copied().collect()
    }
}

#[inline]
fn full_mask(vertex_count: usize) -> u64 {
    if vertex_count >= 64 {
        u64::MAX
    } else {
        (1u64 << vertex_count) - 1
    }
}

#[inline]
fn bound_mask_of(binding: &[Option<VertexId>]) -> u64 {
    let mut mask = 0u64;
    for (i, b) in binding.iter().take(64).enumerate() {
        if b.is_some() {
            mask |= 1 << i;
        }
    }
    mask
}

/// Algorithm 3 over a whole batch: every LPM pushed, in order, through
/// one [`IncrementalJoin`], and the emitted bindings sorted.
///
/// `query_edges` only widens the query-edge table: its width covers every
/// query edge and every `qe` any LPM's crossing list mentions.
pub fn assemble_lec(
    lpms: &[LocalPartialMatch],
    n_query_vertices: usize,
    query_edges: &[(usize, usize)],
) -> Vec<MatchBinding> {
    let n_edges = lpms
        .iter()
        .flat_map(|m| m.crossing.iter().map(|&(_, qe)| qe + 1))
        .max()
        .unwrap_or(0)
        .max(query_edges.len());
    let mut join = IncrementalJoin::new(n_query_vertices, n_edges);
    let mut out: Vec<MatchBinding> = lpms.iter().flat_map(|m| join.push(m)).collect();
    out.sort_unstable();
    out
}

/// One posting list split by LECSign: `(sign, indices of the LPMs with
/// that internal mask)`.
type SignBuckets = Vec<(u64, Vec<usize>)>;

/// Incremental (streaming) crossing-match assembly: a **delta join** over
/// LPMs that are pushed one at a time, with the complete matches each
/// push makes possible emitted immediately.
///
/// Only the pushed LPMs are stored — no joined intermediate outlives the
/// push that built it. A complete match can only come together in the
/// push of its **last-arriving** member, and that member reaches every
/// other one by extension: the LPMs of a match are connected through
/// shared crossing edges (each join needs one), so starting from the new
/// LPM and adding one stored LPM that shares a crossing edge with the
/// state at a time reaches the whole match. Each push therefore runs a
/// DFS from the new LPM alone. At every step it probes only the postings
/// of the state's own crossing edges, and within each posting list only
/// the LECSign buckets whose sign is disjoint from the state's internal
/// mask — an overlapping bucket can never join (Theorem 5), so it is
/// skipped whole, without testing its members. This yields exactly the
/// result set of [`assemble_basic`] over the same LPMs, whatever the
/// arrival order.
///
/// Used by the engine's streaming pipeline to join survivor chunks as
/// they arrive. Its memory is the LPMs pushed so far plus the distinct
/// bindings emitted so far (`found` must keep them: under a predicate
/// variable two edge mappings can yield one vertex binding).
#[derive(Debug)]
pub struct IncrementalJoin {
    n_vertices: usize,
    n_edges: usize,
    /// Every pushed LPM, in arrival order.
    lpms: Vec<Joined>,
    /// Hash index over `lpms`: each bound `(query edge, data edge)` pair →
    /// the LPMs binding it, bucketed by LECSign. Two states can only join
    /// if they share a crossing edge on the same query edge (condition 2),
    /// so the postings of a state's edges are a complete candidate set.
    postings: FxHashMap<(usize, EdgeRef), SignBuckets>,
    /// Every complete binding emitted so far (the dedup sink).
    found: FxHashSet<MatchBinding>,
}

impl IncrementalJoin {
    /// A joiner for a query with `n_query_vertices` vertices and
    /// `n_query_edges` edges. Every pushed LPM must have been validated
    /// against the query (binding width, crossing `qe` range) — the
    /// engine's wire checks do this before pushing.
    pub fn new(n_query_vertices: usize, n_query_edges: usize) -> IncrementalJoin {
        assert!(n_query_vertices <= 64, "LECSign masks are 64-bit");
        IncrementalJoin {
            n_vertices: n_query_vertices,
            n_edges: n_query_edges,
            lpms: Vec::new(),
            postings: FxHashMap::default(),
            found: FxHashSet::default(),
        }
    }

    /// Push one LPM and return the complete crossing-match bindings that
    /// become derivable with it (each binding is emitted exactly once
    /// across the joiner's lifetime).
    pub fn push(&mut self, lpm: &LocalPartialMatch) -> Vec<MatchBinding> {
        let new = Joined::of_lpm(lpm, self.n_edges);
        let mut newly = Vec::new();
        if new.is_complete(self.n_vertices) {
            // A degenerate "partial" match that is already complete.
            emit(&mut self.found, &mut newly, &new);
        } else {
            // DFS over the states containing `new`, one stored LPM added
            // per step. Different orders reach the same combination, so
            // intermediates are deduplicated — within this push only.
            let mut seen: FxHashSet<Joined> = FxHashSet::default();
            let mut stack = vec![new.clone()];
            while let Some(cur) = stack.pop() {
                for (qe, be) in cur.edges.iter().enumerate() {
                    let Some(be) = be else { continue };
                    let Some(buckets) = self.postings.get(&(qe, *be)) else {
                        continue;
                    };
                    for (sign, members) in buckets {
                        if sign & cur.internal_mask != 0 {
                            continue;
                        }
                        for &li in members {
                            let Some(joined) = cur.try_join(&self.lpms[li]) else {
                                continue;
                            };
                            if joined.is_complete(self.n_vertices) {
                                emit(&mut self.found, &mut newly, &joined);
                            } else if seen.insert(joined.clone()) {
                                stack.push(joined);
                            }
                        }
                    }
                }
            }
        }
        let li = self.lpms.len();
        for (qe, be) in new.edges.iter().enumerate() {
            let Some(be) = be else { continue };
            let buckets = self.postings.entry((qe, *be)).or_default();
            match buckets.iter_mut().find(|(s, _)| *s == new.internal_mask) {
                Some((_, members)) => members.push(li),
                None => buckets.push((new.internal_mask, vec![li])),
            }
        }
        self.lpms.push(new);
        newly
    }

    /// LPMs buffered at the coordinator: every LPM pushed so far (no
    /// intermediate is kept between pushes).
    pub fn resident_states(&self) -> usize {
        self.lpms.len()
    }

    /// Complete bindings emitted so far.
    pub fn found_count(&self) -> usize {
        self.found.len()
    }
}

/// Record a complete state's binding, appending it to `newly` unless it
/// was emitted before.
fn emit(found: &mut FxHashSet<MatchBinding>, newly: &mut Vec<MatchBinding>, complete: &Joined) {
    if let Some(b) = complete.complete_binding() {
        if found.insert(b.clone()) {
            newly.push(b);
        }
    }
}

/// The partitioning-based join of \[18\] (the `gStoreD-Basic` baseline).
///
/// LPMs are partitioned by whether they internally match a **pivot** query
/// vertex (the variable vertex internally matched by the most LPMs — two
/// LPMs internally matching the pivot can never join). Intermediates then
/// join against every original LPM, left-associated, with no LECSign
/// grouping — the join space Algorithms 2/3 shrink.
pub fn assemble_basic(lpms: &[LocalPartialMatch], n_query_vertices: usize) -> Vec<MatchBinding> {
    if lpms.is_empty() {
        return Vec::new();
    }
    // Pivot choice per [18]: the query vertex internally matched most often.
    let pivot = (0..n_query_vertices)
        .max_by_key(|&v| lpms.iter().filter(|m| m.is_internal(v)).count())
        .expect("n_query_vertices > 0");

    let mut found: FxHashSet<MatchBinding> = FxHashSet::default();
    let mut seen: FxHashSet<(Vec<Option<VertexId>>, u64)> = FxHashSet::default();
    // Worklist of intermediates (starting from the originals).
    let mut work: Vec<LocalPartialMatch> = lpms.to_vec();
    let mut head = 0;
    while head < work.len() {
        let cur = work[head].clone();
        head += 1;
        for other in lpms {
            // Partition pruning from [18]: two LPMs that both internally
            // match the pivot are in the same partition and never join.
            if cur.is_internal(pivot) && other.is_internal(pivot) {
                continue;
            }
            if !cur.joinable(other) {
                continue;
            }
            let joined = cur.join(other);
            if joined.is_complete(n_query_vertices) {
                if let Some(binding) = joined.complete_binding() {
                    found.insert(binding);
                }
            } else if seen.insert((joined.binding.clone(), joined.internal_mask)) {
                work.push(joined);
            }
        }
    }
    let mut out: Vec<MatchBinding> = found.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::TermId;
    use std::collections::HashSet;

    fn edge(f: u64, l: u64, t: u64) -> EdgeRef {
        EdgeRef {
            from: TermId(f),
            label: TermId(l),
            to: TermId(t),
        }
    }

    fn lpm(
        fragment: usize,
        binding: Vec<Option<u64>>,
        crossing: Vec<(EdgeRef, usize)>,
        internal: &[usize],
    ) -> LocalPartialMatch {
        let mut mask = 0u64;
        for &i in internal {
            mask |= 1 << i;
        }
        LocalPartialMatch {
            fragment,
            binding: binding.into_iter().map(|o| o.map(TermId)).collect(),
            crossing,
            internal_mask: mask,
        }
    }

    /// The paper's running example: Fig. 3's LPMs (after pruning PM2_3,
    /// Example 8) assemble into exactly the crossing matches of the data.
    /// Query vertices: v1..v5 = indexes 0..4; query edges e0: v2->v4,
    /// e1: v3->v1, e2: v1->v2, e3: v3->v5.
    fn paper_lpms() -> (Vec<LocalPartialMatch>, Vec<(usize, usize)>) {
        let qedges = vec![(1, 3), (2, 0), (0, 1), (2, 4)];
        let e_1_6 = edge(1, 100, 6);
        let e_1_12 = edge(1, 100, 12);
        let e_6_5 = edge(6, 101, 5);
        let e_14_13 = edge(14, 101, 13);
        let lpms = vec![
            // F1 (fragment 0):
            lpm(
                0,
                vec![Some(6), None, Some(1), None, Some(3)],
                vec![(e_1_6, 1)],
                &[2, 4],
            ),
            lpm(
                0,
                vec![Some(12), None, Some(1), None, Some(3)],
                vec![(e_1_12, 1)],
                &[2, 4],
            ),
            lpm(
                0,
                vec![Some(6), Some(5), None, Some(4), None],
                vec![(e_6_5, 2)],
                &[1, 3],
            ),
            // F2 (fragment 1):
            lpm(
                1,
                vec![Some(6), Some(8), Some(1), Some(9), None],
                vec![(e_1_6, 1)],
                &[0, 1, 3],
            ),
            lpm(
                1,
                vec![Some(6), Some(10), Some(1), Some(11), None],
                vec![(e_1_6, 1)],
                &[0, 1, 3],
            ),
            lpm(
                1,
                vec![Some(6), Some(5), Some(1), None, None],
                vec![(e_6_5, 2), (e_1_6, 1)],
                &[0],
            ),
            // F3 (fragment 2):
            lpm(
                2,
                vec![Some(12), Some(13), Some(1), Some(17), None],
                vec![(e_1_12, 1)],
                &[0, 1, 3],
            ),
            lpm(
                2,
                vec![Some(14), Some(13), None, Some(17), None],
                vec![(e_14_13, 2)],
                &[1, 3],
            ),
        ];
        (lpms, qedges)
    }

    /// The expected crossing matches of the running example. From Fig. 1:
    /// four matches cross fragments (all share v3=001, v5=003):
    /// (v1,v2,v4) ∈ {(6,8,9), (6,10,11), (6,5,4), (12,13,17)}.
    fn expected() -> Vec<MatchBinding> {
        let m = |v1: u64, v2: u64, v4: u64| {
            vec![TermId(v1), TermId(v2), TermId(1), TermId(v4), TermId(3)]
        };
        let mut e = vec![m(6, 8, 9), m(6, 10, 11), m(6, 5, 4), m(12, 13, 17)];
        e.sort_unstable();
        e
    }

    #[test]
    fn lec_assembly_reproduces_paper_example() {
        let (lpms, qedges) = paper_lpms();
        let out = assemble_lec(&lpms, 5, &qedges);
        assert_eq!(out, expected());
    }

    #[test]
    fn basic_assembly_agrees_with_lec_assembly() {
        let (lpms, qedges) = paper_lpms();
        let lec = assemble_lec(&lpms, 5, &qedges);
        let basic = assemble_basic(&lpms, 5);
        assert_eq!(lec, basic);
    }

    #[test]
    fn pruned_lpm_changes_nothing() {
        // PM2_3 (the one Algorithm 2 prunes) contributes to no match:
        // removing it leaves the result identical.
        let (lpms, qedges) = paper_lpms();
        let without: Vec<LocalPartialMatch> = lpms
            .iter()
            .filter(|m| m.binding[0] != Some(TermId(14)))
            .cloned()
            .collect();
        assert_eq!(without.len(), lpms.len() - 1);
        assert_eq!(assemble_lec(&without, 5, &qedges), expected());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(assemble_lec(&[], 3, &[(0, 1)]).is_empty());
        assert!(assemble_basic(&[], 3).is_empty());
    }

    #[test]
    fn three_way_join_across_three_fragments() {
        // Chain v0-v1-v2 split a|b|c across F0|F1|F2.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(200, 1, 300);
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(
                1,
                vec![Some(100), Some(200), Some(300)],
                vec![(e01, 0), (e12, 1)],
                &[1],
            ),
            lpm(2, vec![None, Some(200), Some(300)], vec![(e12, 1)], &[2]),
        ];
        let out = assemble_lec(&lpms, 3, &qedges);
        assert_eq!(out, vec![vec![TermId(100), TermId(200), TermId(300)]]);
        assert_eq!(assemble_basic(&lpms, 3), out);
    }

    #[test]
    fn same_fragment_reentry_in_multiway_join() {
        // F0 holds both endpoints of a chain whose middle is in F1:
        // a(F0) - b(F1) - c(F0). F0 contributes two separate LPMs.
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(200, 1, 300);
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(0, vec![None, Some(200), Some(300)], vec![(e12, 1)], &[2]),
            lpm(
                1,
                vec![Some(100), Some(200), Some(300)],
                vec![(e01, 0), (e12, 1)],
                &[1],
            ),
        ];
        let out = assemble_lec(&lpms, 3, &qedges);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(assemble_basic(&lpms, 3), out);
    }

    #[test]
    fn incompatible_bindings_produce_no_match() {
        let qedges = vec![(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(201, 1, 300); // note: from 201, not 200
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(1, vec![None, Some(201), Some(300)], vec![(e12, 1)], &[2]),
        ];
        assert!(assemble_lec(&lpms, 3, &qedges).is_empty());
        assert!(assemble_basic(&lpms, 3).is_empty());
    }

    /// Push LPMs one by one in the given order and collect everything the
    /// incremental joiner emits.
    fn incremental(lpms: &[LocalPartialMatch], n: usize, qedges: usize) -> Vec<MatchBinding> {
        let mut joiner = IncrementalJoin::new(n, qedges);
        let mut out: Vec<MatchBinding> = lpms.iter().flat_map(|m| joiner.push(m)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn incremental_join_matches_batch_assembly_in_every_arrival_order() {
        let (lpms, qedges) = paper_lpms();
        let reference = assemble_basic(&lpms, 5);
        assert_eq!(reference, expected());
        // Forward, reverse, and a few rotations: chunk/arrival order must
        // never change the emitted set.
        let n = lpms.len();
        for rot in 0..n {
            let mut order = lpms.clone();
            order.rotate_left(rot);
            assert_eq!(incremental(&order, 5, qedges.len()), reference, "rot {rot}");
            order.reverse();
            assert_eq!(
                incremental(&order, 5, qedges.len()),
                reference,
                "rev rot {rot}"
            );
        }
    }

    #[test]
    fn incremental_join_emits_each_match_exactly_once() {
        let (lpms, qedges) = paper_lpms();
        let mut joiner = IncrementalJoin::new(5, qedges.len());
        let mut all = Vec::new();
        for m in &lpms {
            all.extend(joiner.push(m));
        }
        let set: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len(), "no duplicate emissions");
        assert_eq!(joiner.found_count(), all.len());
        // Replaying an LPM emits nothing new.
        for m in &lpms {
            assert!(joiner.push(m).is_empty(), "replays add no matches");
        }
    }

    #[test]
    fn incremental_join_handles_same_fragment_reentry() {
        // The a(F0) - b(F1) - c(F0) chain: the two F0 LPMs cannot join
        // directly, only through the F1 middle — and the middle may
        // arrive first, last, or between them.
        let qedges = [(0, 1), (1, 2)];
        let e01 = edge(100, 1, 200);
        let e12 = edge(200, 1, 300);
        let lpms = vec![
            lpm(0, vec![Some(100), Some(200), None], vec![(e01, 0)], &[0]),
            lpm(0, vec![None, Some(200), Some(300)], vec![(e12, 1)], &[2]),
            lpm(
                1,
                vec![Some(100), Some(200), Some(300)],
                vec![(e01, 0), (e12, 1)],
                &[1],
            ),
        ];
        let reference = assemble_basic(&lpms, 3);
        assert_eq!(reference.len(), 1);
        for rot in 0..lpms.len() {
            let mut order = lpms.clone();
            order.rotate_left(rot);
            assert_eq!(incremental(&order, 3, qedges.len()), reference, "rot {rot}");
        }
    }

    #[test]
    fn duplicate_joins_deduplicated() {
        // Two identical joins through different DFS orders must yield one
        // match. Use the 3-way chain where the middle LPM shares edges
        // with both sides (multiple exploration orders exist).
        let (lpms, qedges) = paper_lpms();
        let out = assemble_lec(&lpms, 5, &qedges);
        let set: HashSet<_> = out.iter().cloned().collect();
        assert_eq!(set.len(), out.len());
    }
}
