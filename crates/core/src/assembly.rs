//! Assembly of local partial matches into crossing matches.
//!
//! Two joins, one per family of engine variants:
//!
//! * [`IncrementalJoin`] — the LEC feature-based assembly of
//!   **Algorithm 3**, run by LA/LO/Full as a delta join: LPMs are pushed
//!   one at a time as survivor chunks land, each push extends only the
//!   new LPM through the postings of its crossing edges, and a posting's
//!   LECSign buckets (Definition 11) that overlap the state's internal
//!   mask are skipped whole (Theorem 5). Everything is flat: each
//!   `(query edge, data edge)` entry gets a dense `u32` id, the pushed
//!   LPMs live in three arenas (masks, bindings, entry-id edge tables),
//!   the postings are linked lists in two more, indexed by entry id, and
//!   each push's DFS runs in scratch arenas reused from push to push,
//!   with states deduplicated by hash and chain. Joining is mask math
//!   plus one `O(|E^Q|)` pass over two edge tables. [`assemble_lec`]
//!   drains a whole batch through one joiner.
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
use gstored_rdf::{EdgeRef, TermId, VertexId};
use gstored_store::{LocalPartialMatch, LpmRow};

use crate::lec::{hash_words, to_u32, ChainIndex, NIL};

/// A complete match binding (one data vertex per query vertex).
pub type MatchBinding = Vec<VertexId>;

/// The binding slot of a query vertex no match has bound yet; the bound
/// mask, not this value, says which slots hold data vertices.
const UNBOUND: VertexId = TermId(u64::MAX);

#[inline]
fn full_mask(vertex_count: usize) -> u64 {
    if vertex_count >= 64 {
        u64::MAX
    } else {
        (1u64 << vertex_count) - 1
    }
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

/// The masks of a stored LPM or a DFS state.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Source fragment for an original LPM; `usize::MAX` once joined.
    fragment: usize,
    internal_mask: u64,
    bound_mask: u64,
}

/// Matches stored flat: match `i` has `meta[i]`, binding
/// `bindings[i·n_vertices..]` ([`UNBOUND`] where its bound mask is
/// clear) and edge table `edges[i·n_edges..]`, where slot `qe` holds the
/// entry id matched to query edge `qe`, or [`NIL`].
#[derive(Debug, Default)]
struct MatchArena {
    meta: Vec<Meta>,
    bindings: Vec<VertexId>,
    edges: Vec<u32>,
}

impl MatchArena {
    fn len(&self) -> usize {
        self.meta.len()
    }

    fn clear(&mut self) {
        self.meta.clear();
        self.bindings.clear();
        self.edges.clear();
    }

    fn truncate(&mut self, len: usize, nv: usize, ne: usize) {
        self.meta.truncate(len);
        self.bindings.truncate(len * nv);
        self.edges.truncate(len * ne);
    }

    fn binding(&self, i: usize, nv: usize) -> &[VertexId] {
        &self.bindings[i * nv..(i + 1) * nv]
    }

    fn edge_table(&self, i: usize, ne: usize) -> &[u32] {
        &self.edges[i * ne..(i + 1) * ne]
    }

    /// Hash of state `i`'s dedup key: masks, binding and edge table.
    fn state_hash(&self, i: usize, nv: usize, ne: usize) -> u64 {
        let m = self.meta[i];
        hash_words(
            [m.internal_mask, m.bound_mask]
                .into_iter()
                .chain(self.binding(i, nv).iter().map(|v| v.0))
                .chain(self.edge_table(i, ne).iter().map(|&e| u64::from(e))),
        )
    }

    /// Whether states `i` and `j` have one dedup key.
    fn same_state(&self, i: usize, j: usize, nv: usize, ne: usize) -> bool {
        let (a, b) = (self.meta[i], self.meta[j]);
        a.internal_mask == b.internal_mask
            && a.bound_mask == b.bound_mask
            && self.binding(i, nv) == self.binding(j, nv)
            && self.edge_table(i, ne) == self.edge_table(j, ne)
    }
}

/// One LECSign bucket of a posting list: the stored LPMs with internal
/// mask `sign`, as a linked list of [`Member`] nodes in push order.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    sign: u64,
    first: u32,
    last: u32,
    /// The posting list's next bucket, or [`NIL`].
    next: u32,
}

/// A stored LPM in one bucket, and the bucket's next member or [`NIL`].
#[derive(Debug, Clone, Copy)]
struct Member {
    lpm: u32,
    next: u32,
}

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
/// variable two edge mappings can yield one vertex binding), all in flat
/// arenas. Beyond the arenas' amortized growth, a push allocates only the
/// bindings it returns.
#[derive(Debug)]
pub struct IncrementalJoin {
    n_vertices: usize,
    n_edges: usize,
    /// `(query edge, data edge)` → entry id, dense in first-seen order.
    entry_ids: FxHashMap<(usize, EdgeRef), u32>,
    /// Every pushed LPM, in arrival order.
    lpms: MatchArena,
    /// Postings indexed by entry id: the first and last LECSign bucket of
    /// the LPMs binding that entry ([`NIL`] when none). Two states can
    /// only join if they share a crossing edge on the same query edge
    /// (condition 2), so the postings of a state's entries are a complete
    /// candidate set.
    postings: Vec<(u32, u32)>,
    buckets: Vec<Bucket>,
    members: Vec<Member>,
    /// Every complete binding emitted so far (the dedup sink), flat with
    /// stride `n_vertices`, indexed by `found_index`.
    found: Vec<VertexId>,
    found_index: ChainIndex,
    /// The current push's DFS states (state 0 is the new LPM), their
    /// dedup index (item `k` is state `k + 1`) and the DFS stack — reused
    /// from push to push.
    states: MatchArena,
    seen: ChainIndex,
    stack: Vec<u32>,
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
            entry_ids: FxHashMap::default(),
            lpms: MatchArena::default(),
            postings: Vec::new(),
            buckets: Vec::new(),
            members: Vec::new(),
            found: Vec::new(),
            found_index: ChainIndex::default(),
            states: MatchArena::default(),
            seen: ChainIndex::default(),
            stack: Vec::new(),
        }
    }

    /// Push one LPM — a batch row or a `&LocalPartialMatch` — and return
    /// the complete crossing-match bindings that become derivable with it
    /// (each binding is emitted exactly once across the joiner's
    /// lifetime).
    pub fn push<'a>(&mut self, lpm: impl Into<LpmRow<'a>>) -> Vec<MatchBinding> {
        let lpm = lpm.into();
        let (nv, ne) = (self.n_vertices, self.n_edges);
        assert_eq!(
            lpm.binding.len(),
            nv,
            "a validated LPM binds every query vertex"
        );
        self.states.clear();
        self.seen.clear();
        // State 0: the new LPM, its entries interned.
        let mut bound_mask = 0u64;
        for (v, b) in lpm.binding.iter().enumerate() {
            self.states.bindings.push(b.unwrap_or(UNBOUND));
            if b.is_some() {
                bound_mask |= 1 << v;
            }
        }
        self.states.edges.resize(ne, NIL);
        for &(e, qe) in lpm.crossing {
            let next = to_u32(self.entry_ids.len());
            let id = *self.entry_ids.entry((qe, e)).or_insert(next);
            if id == next {
                self.postings.push((NIL, NIL));
            }
            self.states.edges[qe] = id;
        }
        self.states.meta.push(Meta {
            fragment: lpm.fragment,
            internal_mask: lpm.internal_mask,
            bound_mask,
        });

        let mut newly = Vec::new();
        let full = full_mask(nv);
        if lpm.internal_mask == full {
            // A degenerate "partial" match that is already complete.
            self.emit(0, &mut newly);
        } else {
            // DFS over the states containing the new LPM, one stored LPM
            // added per step. Different orders reach the same
            // combination, so states are deduplicated — within this push
            // only.
            self.stack.clear();
            self.stack.push(0);
            while let Some(cur) = self.stack.pop() {
                let cur = cur as usize;
                let cur_internal = self.states.meta[cur].internal_mask;
                for qe in 0..ne {
                    let entry = self.states.edges[cur * ne + qe];
                    if entry == NIL {
                        continue;
                    }
                    let mut bucket = self.postings[entry as usize].0;
                    while bucket != NIL {
                        let Bucket {
                            sign, first, next, ..
                        } = self.buckets[bucket as usize];
                        bucket = next;
                        if sign & cur_internal != 0 {
                            continue;
                        }
                        let mut member = first;
                        while member != NIL {
                            let Member { lpm: li, next } = self.members[member as usize];
                            member = next;
                            if !self.try_join(cur, li as usize) {
                                continue;
                            }
                            let joined = self.states.len() - 1;
                            if self.states.meta[joined].internal_mask == full {
                                self.emit(joined, &mut newly);
                                self.states.truncate(joined, nv, ne);
                                continue;
                            }
                            let hash = self.states.state_hash(joined, nv, ne);
                            let states = &self.states;
                            let dup = self
                                .seen
                                .find(hash, |k| states.same_state(k as usize + 1, joined, nv, ne));
                            if dup.is_some() {
                                self.states.truncate(joined, nv, ne);
                            } else {
                                self.seen.insert(hash);
                                self.stack.push(to_u32(joined));
                            }
                        }
                    }
                }
            }
        }

        // Store the new LPM and post it under each of its entries, in the
        // bucket of its internal mask.
        let li = to_u32(self.lpms.len());
        let meta = self.states.meta[0];
        self.lpms.meta.push(meta);
        self.lpms
            .bindings
            .extend_from_slice(&self.states.bindings[..nv]);
        self.lpms.edges.extend_from_slice(&self.states.edges[..ne]);
        for qe in 0..ne {
            let entry = self.states.edges[qe];
            if entry != NIL {
                self.post(entry, meta.internal_mask, li);
            }
        }
        newly
    }

    /// Append `lpm` to the bucket of sign `sign` in `entry`'s posting
    /// list, opening the bucket at the list's end if it is new.
    fn post(&mut self, entry: u32, sign: u64, lpm: u32) {
        let member = to_u32(self.members.len());
        self.members.push(Member { lpm, next: NIL });
        let (first, last) = self.postings[entry as usize];
        let mut bucket = first;
        while bucket != NIL {
            let b = &mut self.buckets[bucket as usize];
            if b.sign == sign {
                self.members[b.last as usize].next = member;
                b.last = member;
                return;
            }
            bucket = b.next;
        }
        let new = to_u32(self.buckets.len());
        self.buckets.push(Bucket {
            sign,
            first: member,
            last: member,
            next: NIL,
        });
        if last == NIL {
            self.postings[entry as usize] = (new, new);
        } else {
            self.buckets[last as usize].next = new;
            self.postings[entry as usize].1 = new;
        }
    }

    /// The \[18\] join condition (the same checks as
    /// [`LocalPartialMatch::joinable`]) between DFS state `cur` and
    /// stored LPM `li`; when it holds, the merged state is appended to
    /// the state arena and `true` returned.
    fn try_join(&mut self, cur: usize, li: usize) -> bool {
        let (nv, ne) = (self.n_vertices, self.n_edges);
        let (a, b) = (self.states.meta[cur], self.lpms.meta[li]);
        // Condition 1: never two raw LPMs of the same fragment (joined
        // states carry `usize::MAX` and may re-enter any fragment).
        if a.fragment == b.fragment {
            return false;
        }
        // Condition 4 (Theorem 5): internal cores are disjoint.
        if a.internal_mask & b.internal_mask != 0 {
            return false;
        }
        // Conditions 2+3: at least one shared crossing edge on the same
        // query edge, and no query edge matched by different data edges
        // (one entry id per `(query edge, data edge)`).
        let (a_edges, b_edges) = (
            self.states.edge_table(cur, ne),
            self.lpms.edge_table(li, ne),
        );
        let mut shared = false;
        for (&ae, &be) in a_edges.iter().zip(b_edges) {
            if be == NIL || ae == NIL {
                continue;
            }
            if ae != be {
                return false;
            }
            shared = true;
        }
        if !shared {
            return false;
        }
        // Binding agreement on commonly-bound vertices.
        let (a_bind, b_bind) = (self.states.binding(cur, nv), self.lpms.binding(li, nv));
        let mut bits = a.bound_mask & b.bound_mask;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if a_bind[v] != b_bind[v] {
                return false;
            }
        }
        for v in 0..nv {
            let x = if a.bound_mask >> v & 1 == 1 {
                self.states.bindings[cur * nv + v]
            } else {
                self.lpms.bindings[li * nv + v]
            };
            self.states.bindings.push(x);
        }
        for qe in 0..ne {
            let ae = self.states.edges[cur * ne + qe];
            let x = if ae != NIL {
                ae
            } else {
                self.lpms.edges[li * ne + qe]
            };
            self.states.edges.push(x);
        }
        self.states.meta.push(Meta {
            fragment: usize::MAX,
            internal_mask: a.internal_mask | b.internal_mask,
            bound_mask: a.bound_mask | b.bound_mask,
        });
        true
    }

    /// Record complete state `i`'s binding, appending it to `newly` unless
    /// it was emitted before or leaves a vertex unbound.
    fn emit(&mut self, i: usize, newly: &mut Vec<MatchBinding>) {
        let nv = self.n_vertices;
        if self.states.meta[i].bound_mask != full_mask(nv) {
            return;
        }
        let binding = self.states.binding(i, nv);
        let hash = hash_words(binding.iter().map(|v| v.0));
        let found = &self.found;
        let hit = self.found_index.find(hash, |k| {
            &found[k as usize * nv..(k as usize + 1) * nv] == binding
        });
        if hit.is_none() {
            self.found_index.insert(hash);
            self.found.extend_from_slice(binding);
            newly.push(binding.to_vec());
        }
    }

    /// LPMs buffered at the coordinator: every LPM pushed so far (no
    /// intermediate is kept between pushes).
    pub fn resident_states(&self) -> usize {
        self.lpms.len()
    }

    /// Complete bindings emitted so far.
    pub fn found_count(&self) -> usize {
        self.found_index.len()
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

    /// Under a predicate variable, two data edges with different labels
    /// match one query edge with one vertex binding. Query `?x ?p ?y .
    /// ?y <q> ?z`, each vertex internal to its own fragment; `x → y`
    /// exists as `p1` and `p2`, and the middle fragment has an LPM for
    /// each. When the `z` side arrives last, its DFS builds two states
    /// with equal bindings and masks but different edge tables: only the
    /// later one (on `p2`) meets an `x`-side LPM. Both must extend, so
    /// the state dedup must key on the edge table. With an `x`-side LPM
    /// on `p1` as well, two combinations bind the same vertices, and that
    /// binding is emitted exactly once: the found set is keyed by the
    /// binding alone.
    #[test]
    fn equal_bindings_on_different_edges_both_extend_and_emit_once() {
        let (x, y, z) = (Some(10), Some(20), Some(30));
        let xy = |label: u64| edge(10, label, 20);
        let yz = edge(20, 9, 30);
        let x_side = |label: u64| lpm(0, vec![x, y, None], vec![(xy(label), 0)], &[0]);
        let middle = |label: u64| lpm(1, vec![x, y, z], vec![(xy(label), 0), (yz, 1)], &[1]);
        let z_side = lpm(2, vec![None, y, z], vec![(yz, 1)], &[2]);
        let expected = vec![vec![TermId(10), TermId(20), TermId(30)]];
        for x_labels in [&[2u64][..], &[1, 2]] {
            let mut lpms: Vec<LocalPartialMatch> = x_labels.iter().map(|&l| x_side(l)).collect();
            lpms.extend([middle(1), middle(2), z_side.clone()]);
            let mut joiner = IncrementalJoin::new(3, 2);
            let emitted: Vec<MatchBinding> = lpms.iter().flat_map(|m| joiner.push(m)).collect();
            assert_eq!(emitted, expected, "x-side labels {x_labels:?}");
            assert_eq!(joiner.found_count(), 1);
            for rot in 1..lpms.len() {
                let mut order = lpms.clone();
                order.rotate_left(rot);
                assert_eq!(incremental(&order, 3, 2), expected, "rot {rot}");
            }
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
