//! LEC features (Definitions 6–9, Algorithm 1).
//!
//! Local partial matches from the same fragment that contain the same
//! crossing edges, mapped to the same query edges, are structurally
//! interchangeable for joining (Theorems 1–2). The **LEC feature** of such
//! a class keeps only:
//!
//! * the fragment identifier,
//! * the function `g`: crossing data edge → query edge,
//! * the `LECSign` bitstring over query vertices (bit set ⇔ mapped to an
//!   internal vertex).
//!
//! Joined features track the *set* of participating fragments and the
//! global ids of their source features, which is what lets Algorithm 2
//! report exactly which original features contributed to an all-ones
//! combination.
//!
//! The module also holds the flat interning that Algorithms 1–3 share
//! instead of `Vec`-keyed hash maps: `ChainIndex`, a hash index with
//! collision chains over items the caller keeps in its own arrays, and
//! `SliceInterner`, which stores sorted `u32` slices (Algorithm 2's
//! mappings as entry ids) once, back to back in one arena.

use std::hash::Hasher;

use fxhash::FxHasher;
use gstored_rdf::EdgeRef;
use gstored_store::LocalPartialMatch;

/// "No item": the empty bucket head and the end of a collision chain.
pub(crate) const NIL: u32 = u32::MAX;

/// Hash one sequence of machine words with [`FxHasher`].
#[inline]
pub(crate) fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// A `u32` arena offset or id, refusing to wrap: release builds drop
/// overflow checks, so every flat table that stores positions as `u32`
/// converts through here.
#[inline]
pub(crate) fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("flat arena exceeds u32 offsets")
}

/// A hash index with collision chains over items stored elsewhere.
///
/// Items are numbered `0..len()` in insertion order; the caller keeps
/// their data in its own flat arrays and answers equality by id. The
/// index holds two `u32` words per bucket head and per item, grows by
/// doubling, and [`ChainIndex::clear`] resets only the buckets it used,
/// so one index reused across many small rounds costs nothing to empty.
#[derive(Debug, Default)]
pub(crate) struct ChainIndex {
    /// Bucket heads (an item id or [`NIL`]); empty or a power of two long.
    heads: Vec<u32>,
    /// Per item: its folded hash and the next item of its bucket.
    items: Vec<(u32, u32)>,
}

impl ChainIndex {
    /// Number of items inserted since the last clear.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The item with `hash` for which `eq` holds, if any.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.heads.is_empty() {
            return None;
        }
        let h = fold(hash);
        let mut at = self.heads[h as usize & (self.heads.len() - 1)];
        while at != NIL {
            let (ih, next) = self.items[at as usize];
            if ih == h && eq(at) {
                return Some(at);
            }
            at = next;
        }
        None
    }

    /// Add item number `len()` under `hash` and return its id. The caller
    /// has checked with [`ChainIndex::find`] that it is new.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64) -> u32 {
        if self.items.len() >= self.heads.len() {
            self.grow();
        }
        let h = fold(hash);
        let id = to_u32(self.items.len());
        let bucket = h as usize & (self.heads.len() - 1);
        self.items.push((h, self.heads[bucket]));
        self.heads[bucket] = id;
        id
    }

    fn grow(&mut self) {
        let n = (self.heads.len() * 2).max(16);
        self.heads.clear();
        self.heads.resize(n, NIL);
        for (id, item) in self.items.iter_mut().enumerate() {
            let bucket = item.0 as usize & (n - 1);
            item.1 = self.heads[bucket];
            self.heads[bucket] = id as u32;
        }
    }

    /// Forget every item, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        let mask = self.heads.len().wrapping_sub(1);
        for &(h, _) in &self.items {
            self.heads[h as usize & mask] = NIL;
        }
        self.items.clear();
    }
}

/// The well-mixed high half of an Fx hash (its low bits follow only the
/// input's low bits).
#[inline]
fn fold(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// Sorted `u32` slices stored once, back to back in one arena, and
/// interned by hash with a collision chain: equal slices share one id.
///
/// Algorithm 2 keeps every crossing-edge mapping here as the ascending
/// ids of its `(query edge, data edge)` entries, and a joined mapping is
/// merged straight into the arena's tail ([`SliceInterner::union`]) and
/// kept only if it is new.
#[derive(Debug)]
pub(crate) struct SliceInterner {
    arena: Vec<u32>,
    /// `ends[id]` is slice `id`'s end in `arena`; `ends[0]` is 0.
    ends: Vec<u32>,
    index: ChainIndex,
}

impl SliceInterner {
    /// An empty interner with room for `slices` slices of `words` ids.
    pub(crate) fn with_capacity(slices: usize, words: usize) -> Self {
        let mut ends = Vec::with_capacity(slices + 1);
        ends.push(0);
        SliceInterner {
            arena: Vec::with_capacity(words),
            ends,
            index: ChainIndex::default(),
        }
    }

    /// The slice behind an id.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.arena[self.ends[id] as usize..self.ends[id + 1] as usize]
    }

    /// Intern a slice, returning its id.
    pub(crate) fn intern(&mut self, slice: &[u32]) -> u32 {
        let start = self.arena.len();
        self.arena.extend_from_slice(slice);
        self.intern_tail(start)
    }

    /// The id of the sorted union of two interned slices (equal ids
    /// merged once), interned.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let start = self.arena.len();
        let (mut i, i_end) = (
            self.ends[a as usize] as usize,
            self.ends[a as usize + 1] as usize,
        );
        let (mut j, j_end) = (
            self.ends[b as usize] as usize,
            self.ends[b as usize + 1] as usize,
        );
        while i < i_end && j < j_end {
            let (x, y) = (self.arena[i], self.arena[j]);
            self.arena.push(x.min(y));
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        self.arena.extend_from_within(i..i_end);
        self.arena.extend_from_within(j..j_end);
        self.intern_tail(start)
    }

    /// Intern `arena[start..]`, just written: drop it again if an equal
    /// slice is already interned.
    fn intern_tail(&mut self, start: usize) -> u32 {
        let tail = &self.arena[start..];
        let hash = hash_words(tail.iter().map(|&x| u64::from(x)));
        let (arena, ends) = (&self.arena, &self.ends);
        let hit = self.index.find(hash, |id| {
            let id = id as usize;
            &arena[ends[id] as usize..ends[id + 1] as usize] == tail
        });
        if let Some(id) = hit {
            self.arena.truncate(start);
            return id;
        }
        self.ends.push(to_u32(self.arena.len()));
        self.index.insert(hash)
    }
}

/// The all-ones LECSign over `n` query vertices — the completion mask of
/// Theorem 4 condition 3, shared by [`LecFeature::is_complete`] and the
/// Algorithm 2 completion test.
#[inline]
pub(crate) fn full_sign(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The most sites (fragments) one fleet may have. A [`LecFeature`]
/// records the fragments it spans as a `u64` bitmask, so a 65th site's
/// features would alias site 0's and condition 1 of Definition 9 would
/// reject real joins. Larger fleets are refused when a session is built,
/// when a query starts, and when a worker decodes an `InstallFragment`.
pub const MAX_SITES: usize = 64;

/// A LEC feature (Definition 8), possibly the join of several features.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LecFeature {
    /// Bitmask of fragments the feature spans (single bit for original
    /// features produced by Algorithm 1).
    pub fragments: u64,
    /// The function `g`: matched crossing edges with their query edge
    /// index, sorted by query edge index then edge.
    pub mapping: Vec<(EdgeRef, usize)>,
    /// The LECSign bitstring as a mask over query vertices.
    pub sign: u64,
    /// Global ids of the original features merged into this one (sorted).
    /// An original feature's `sources` is `[its own id]`.
    pub sources: Vec<u32>,
}

impl LecFeature {
    /// Whether this is an original (single-fragment, un-joined) feature.
    pub fn is_original(&self) -> bool {
        self.fragments.count_ones() == 1
    }

    /// Definition 9 joinability. Conditions, in order:
    ///
    /// 1. not two originals of the same fragment;
    /// 2. at least one shared `(crossing edge, query edge)` entry;
    /// 3. no query edge mapped to *different* data edges by the two sides;
    /// 4. disjoint LECSigns;
    /// 5. (implied by 3+4 for original pairs — see the Theorem 3 analysis
    ///    in DESIGN.md — and enforced explicitly for joined intermediates)
    ///    the endpoint bindings induced by the two mappings agree.
    pub fn joinable(&self, other: &LecFeature, query_edges: &[(usize, usize)]) -> bool {
        if self.is_original() && other.is_original() && self.fragments == other.fragments {
            return false;
        }
        if self.sign & other.sign != 0 {
            return false;
        }
        let mut shared = false;
        for &(e, qe) in &self.mapping {
            for &(e2, qe2) in &other.mapping {
                if qe == qe2 {
                    if e == e2 {
                        shared = true;
                    } else {
                        return false; // condition 3
                    }
                }
            }
        }
        if !shared {
            return false;
        }
        // Endpoint consistency: mappings induce query-vertex -> data-vertex
        // bindings; they must agree where both are defined.
        endpoint_bindings_agree(&self.mapping, &other.mapping, query_edges)
    }

    /// Join two features (Algorithm 2 line 6). Caller checks joinability.
    pub fn join(&self, other: &LecFeature) -> LecFeature {
        let mut mapping = self.mapping.clone();
        for &(e, qe) in &other.mapping {
            if !mapping.contains(&(e, qe)) {
                mapping.push((e, qe));
            }
        }
        mapping.sort_unstable_by_key(|&(e, qe)| (qe, e));
        let mut sources = self.sources.clone();
        sources.extend_from_slice(&other.sources);
        sources.sort_unstable();
        sources.dedup();
        LecFeature {
            fragments: self.fragments | other.fragments,
            mapping,
            sign: self.sign | other.sign,
            sources,
        }
    }

    /// Whether the sign covers all `n` query vertices (Theorem 4 cond. 3).
    pub fn is_complete(&self, n: usize) -> bool {
        self.sign == full_sign(n)
    }

    /// Wire size proxy used in the paper's cost analysis:
    /// `O(|E^Q| + |V^Q|)` per feature. The real serialized size comes from
    /// [`crate::protocol`]; this is the analytical bound.
    pub fn analytical_size(&self, n_vertices: usize) -> usize {
        1 + self.mapping.len() * 4 + n_vertices.div_ceil(8)
    }
}

/// Check that the query-vertex bindings induced by two crossing-edge
/// mappings agree. `query_edges[qe] = (from_vertex, to_vertex)`.
fn endpoint_bindings_agree(
    a: &[(EdgeRef, usize)],
    b: &[(EdgeRef, usize)],
    query_edges: &[(usize, usize)],
) -> bool {
    // Induced bindings are tiny; a linear scan beats hashing.
    let mut bindings: Vec<(usize, gstored_rdf::VertexId)> = Vec::new();
    for &(e, qe) in a.iter().chain(b.iter()) {
        let (qf, qt) = query_edges[qe];
        for (qv, dv) in [(qf, e.from), (qt, e.to)] {
            match bindings.iter().find(|&&(v, _)| v == qv) {
                Some(&(_, existing)) if existing != dv => return false,
                Some(_) => {}
                None => bindings.push((qv, dv)),
            }
        }
    }
    true
}

/// Algorithm 1: compress a fragment's local partial matches into its set
/// of LEC features. Returns the deduplicated features (with `sources` set
/// to their global ids starting at `first_id`) and, for each LPM, the
/// index of its feature *within the returned vector*.
///
/// **Numbering contract:** feature *i* of the returned vector is global
/// id `first_id + i`, and its `sources` is exactly `[first_id + i]`. A
/// site worker relies on this to keep only `first_id` and the per-LPM
/// indices once the features have shipped: a `DropPruned` verdict keeps
/// LPM *j* iff `first_id + feature_of_lpm[j]` is among the useful ids.
///
/// Dedup is one probe of a `ChainIndex` over the features built so
/// far, hashed on `(fragment, sign, canonical mapping)`: an LPM's
/// crossing list is canonicalized in a reused scratch buffer, and only a
/// *new* feature copies it.
pub fn compute_lec_features(
    lpms: &[LocalPartialMatch],
    first_id: u32,
) -> (Vec<LecFeature>, Vec<usize>) {
    let mut features: Vec<LecFeature> = Vec::new();
    let mut index = ChainIndex::default();
    let mut mapping: Vec<(EdgeRef, usize)> = Vec::new();
    let mut feature_of_lpm = Vec::with_capacity(lpms.len());
    for lpm in lpms {
        mapping.clear();
        mapping.extend_from_slice(&lpm.crossing);
        mapping.sort_unstable_by_key(|&(e, qe)| (qe, e));
        let fragments = 1u64 << lpm.fragment;
        let sign = lpm.internal_mask;
        let hash = hash_words(
            [fragments, sign].into_iter().chain(
                mapping
                    .iter()
                    .flat_map(|&(e, qe)| [qe as u64, e.from.0, e.label.0, e.to.0]),
            ),
        );
        let hit = index.find(hash, |id| {
            let f = &features[id as usize];
            f.fragments == fragments && f.sign == sign && f.mapping == mapping
        });
        let idx = match hit {
            Some(id) => id as usize,
            None => {
                index.insert(hash);
                features.push(LecFeature {
                    fragments,
                    mapping: mapping.clone(),
                    sign,
                    sources: vec![first_id + features.len() as u32],
                });
                features.len() - 1
            }
        };
        feature_of_lpm.push(idx);
    }
    (features, feature_of_lpm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::TermId;

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

    /// Query edges of the paper's Fig. 2, as (from, to) vertex pairs:
    /// e0: v2->v4 (label), e1: v3->v1 (influencedBy), e2: v1->v2
    /// (mainInterest), e3: v3->v5 (name). Vertices 0..=4 are v1..v5.
    fn fig2_edges() -> Vec<(usize, usize)> {
        vec![(1, 3), (2, 0), (0, 1), (2, 4)]
    }

    /// The paper's Example 6: PM1_2 and PM2_2 share one LEC feature.
    #[test]
    fn algorithm1_compresses_paper_example6() {
        let ce = edge(1, 100, 6); // 001 -influencedBy-> 006
        let pm12 = lpm(
            1,
            vec![Some(6), Some(8), Some(1), Some(9), None],
            vec![(ce, 1)],
            &[0, 1, 3],
        );
        let pm22 = lpm(
            1,
            vec![Some(6), Some(10), Some(1), Some(11), None],
            vec![(ce, 1)],
            &[0, 1, 3],
        );
        let ce2 = edge(6, 101, 5); // 006 -mainInterest-> 005
        let pm32 = lpm(
            1,
            vec![Some(6), Some(5), Some(1), None, None],
            vec![(ce2, 2), (ce, 1)],
            &[0],
        );
        let (features, of) = compute_lec_features(&[pm12, pm22, pm32], 10);
        assert_eq!(features.len(), 2, "PM1_2 and PM2_2 share a feature");
        assert_eq!(of[0], of[1]);
        assert_ne!(of[0], of[2]);
        assert_eq!(features[0].sources, vec![10]);
        assert_eq!(features[1].sources, vec![11]);
        // LF([PM3_2]) has both crossing edges, sorted by query edge.
        assert_eq!(features[of[2]].mapping, vec![(ce, 1), (ce2, 2)]);
        // Signs: [11010] over (v1..v5) = bits 0,1,3; [10000] = bit 0.
        assert_eq!(features[of[0]].sign, 0b01011);
        assert_eq!(features[of[2]].sign, 0b00001);
    }

    /// Theorem 3 / Example 5: LF([PM1_1]) joins LF([PM1_2]).
    #[test]
    fn paper_features_join() {
        let ce = edge(1, 100, 6);
        let lf11 = LecFeature {
            fragments: 1 << 0,
            mapping: vec![(ce, 1)],
            sign: 0b10100, // v3, v5 internal
            sources: vec![0],
        };
        let lf12 = LecFeature {
            fragments: 1 << 1,
            mapping: vec![(ce, 1)],
            sign: 0b01011, // v1, v2, v4 internal
            sources: vec![1],
        };
        assert!(lf11.joinable(&lf12, &fig2_edges()));
        let j = lf11.join(&lf12);
        assert!(j.is_complete(5));
        assert_eq!(j.sources, vec![0, 1]);
        assert_eq!(j.fragments, 0b11);
    }

    /// Theorem 5: equal LECSigns are never joinable.
    #[test]
    fn equal_signs_never_joinable() {
        let ce = edge(1, 100, 6);
        let a = LecFeature {
            fragments: 1,
            mapping: vec![(ce, 1)],
            sign: 0b00101,
            sources: vec![0],
        };
        let b = LecFeature {
            fragments: 2,
            mapping: vec![(ce, 1)],
            sign: 0b00101,
            sources: vec![1],
        };
        assert!(!a.joinable(&b, &fig2_edges()));
    }

    #[test]
    fn same_fragment_originals_never_joinable() {
        let ce = edge(1, 100, 6);
        let a = LecFeature {
            fragments: 1,
            mapping: vec![(ce, 1)],
            sign: 0b001,
            sources: vec![0],
        };
        let b = LecFeature {
            fragments: 1,
            mapping: vec![(ce, 1)],
            sign: 0b010,
            sources: vec![1],
        };
        assert!(!a.joinable(&b, &fig2_edges()));
    }

    #[test]
    fn condition3_same_query_edge_different_data_edges() {
        let a = LecFeature {
            fragments: 1,
            mapping: vec![(edge(1, 100, 6), 1)],
            sign: 0b001,
            sources: vec![0],
        };
        let b = LecFeature {
            fragments: 2,
            mapping: vec![(edge(2, 100, 7), 1)],
            sign: 0b010,
            sources: vec![1],
        };
        assert!(!a.joinable(&b, &fig2_edges()));
    }

    #[test]
    fn endpoint_conflict_detected_across_distinct_query_edges() {
        // Feature a maps e1 (v3->v1) to edge (1 -> 6): binds v3=1, v1=6.
        // Feature b maps e2 (v1->v2) to edge (9 -> 8): binds v1=9 (!).
        // They also share e0 so condition 2 passes; endpoint check must
        // reject v1 = 6 vs 9.
        let shared = edge(13, 102, 17);
        let a = LecFeature {
            fragments: 1,
            mapping: vec![(shared, 0), (edge(1, 100, 6), 1)],
            sign: 1 << 2,
            sources: vec![0],
        };
        let b = LecFeature {
            fragments: 2,
            mapping: vec![(shared, 0), (edge(9, 101, 8), 2)],
            sign: 1 << 3,
            sources: vec![1],
        };
        assert!(!a.joinable(&b, &fig2_edges()));
    }

    #[test]
    fn no_shared_edge_not_joinable() {
        let a = LecFeature {
            fragments: 1,
            mapping: vec![(edge(1, 100, 6), 1)],
            sign: 0b001,
            sources: vec![0],
        };
        let b = LecFeature {
            fragments: 2,
            mapping: vec![(edge(6, 101, 5), 2)],
            sign: 0b010,
            sources: vec![1],
        };
        assert!(!a.joinable(&b, &fig2_edges()));
    }

    #[test]
    fn intermediate_can_rejoin_same_fragment() {
        // The three-fragment case from DESIGN.md: F1 core {a}, F2 core {b},
        // F1 core {c} — the intermediate (F1|F2) joins another F1 feature.
        let e01 = edge(10, 1, 20); // between cores a,b
        let e12 = edge(20, 1, 30); // between cores b,c
        let qedges = vec![(0, 1), (1, 2)];
        let f1a = LecFeature {
            fragments: 1,
            mapping: vec![(e01, 0)],
            sign: 0b001,
            sources: vec![0],
        };
        let f2b = LecFeature {
            fragments: 2,
            mapping: vec![(e01, 0), (e12, 1)],
            sign: 0b010,
            sources: vec![1],
        };
        let f1c = LecFeature {
            fragments: 1,
            mapping: vec![(e12, 1)],
            sign: 0b100,
            sources: vec![2],
        };
        assert!(f1a.joinable(&f2b, &qedges));
        let inter = f1a.join(&f2b);
        assert!(
            !f1a.joinable(&f1c, &qedges),
            "no shared edge between the two F1 features"
        );
        assert!(
            inter.joinable(&f1c, &qedges),
            "intermediate spans F1|F2 and shares e12"
        );
        let full = inter.join(&f1c);
        assert!(full.is_complete(3));
        assert_eq!(full.sources, vec![0, 1, 2]);
    }

    #[test]
    fn analytical_size_is_linear_in_query() {
        let f = LecFeature {
            fragments: 1,
            mapping: vec![(edge(1, 2, 3), 0), (edge(4, 5, 6), 1)],
            sign: 1,
            sources: vec![0],
        };
        assert_eq!(f.analytical_size(5), 1 + 8 + 1);
    }
}
