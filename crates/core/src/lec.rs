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

use fxhash::FxHashMap;
use gstored_rdf::EdgeRef;
use gstored_store::LocalPartialMatch;

/// One crossing-edge mapping entry: a matched data edge plus the index of
/// the query edge it matches (the function `g` of Definition 8).
pub type MappingEntry = (EdgeRef, usize);

/// Interned form of a feature's structural key, `(fragments, mapping id,
/// sign)`: three machine words, `Copy`, hash-and-compare in O(1). The
/// mapping id resolves through the [`MappingInterner`] that issued it.
pub type InternedFeatureKey = (u64, u32, u64);

/// Per-query interner for crossing-edge mappings (Definition 8's `g`).
///
/// A mapping — the sorted `Vec<(EdgeRef, usize)>` a [`LecFeature`]
/// carries — is interned to a dense `u32` id, so that everything keyed by
/// mapping identity (feature dedup, join-result dedup, joinability
/// probes) becomes integer-keyed instead of hashing and comparing vectors.
/// On top of the identity map, [`MappingInterner::union`] computes (and
/// interns) the merged mapping of a feature join once per unordered pair.
///
/// Ids are only meaningful within the interner that issued them; the
/// engine builds one per pruning invocation.
#[derive(Debug, Default)]
pub struct MappingInterner {
    ids: FxHashMap<Vec<MappingEntry>, u32>,
    mappings: Vec<Vec<MappingEntry>>,
    unions: FxHashMap<(u32, u32), u32>,
}

impl MappingInterner {
    /// An empty interner.
    pub fn new() -> Self {
        MappingInterner::default()
    }

    /// Number of distinct mappings interned so far.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether no mapping has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Intern a mapping, returning its dense id. The canonical form is
    /// sorted by `(query edge, data edge)` — the order [`LecFeature`]
    /// maintains — and unsorted input is canonicalized first, so mappings
    /// equal as sets of entries always share an id.
    pub fn intern(&mut self, mapping: &[MappingEntry]) -> u32 {
        if mapping.windows(2).all(|w| key_of(w[0]) <= key_of(w[1])) {
            if let Some(&id) = self.ids.get(mapping) {
                return id;
            }
            return self.insert(mapping.to_vec());
        }
        let mut sorted = mapping.to_vec();
        sorted.sort_unstable_by_key(|&e| key_of(e));
        if let Some(&id) = self.ids.get(&sorted) {
            return id;
        }
        self.insert(sorted)
    }

    fn insert(&mut self, mapping: Vec<MappingEntry>) -> u32 {
        let id = self.mappings.len() as u32;
        self.ids.insert(mapping.clone(), id);
        self.mappings.push(mapping);
        id
    }

    /// The canonical (sorted) mapping behind an id.
    pub fn resolve(&self, id: u32) -> &[MappingEntry] {
        &self.mappings[id as usize]
    }

    /// Memoized union of two mappings (the merged `g` of a feature join,
    /// Algorithm 2 line 6): a sorted merge of the two canonical forms,
    /// interned, computed once per unordered pair.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&hit) = self.unions.get(&key) {
            return hit;
        }
        let merged = {
            let (ma, mb) = (self.resolve(a), self.resolve(b));
            let mut out: Vec<MappingEntry> = Vec::with_capacity(ma.len() + mb.len());
            let (mut i, mut j) = (0, 0);
            while i < ma.len() && j < mb.len() {
                match key_of(ma[i]).cmp(&key_of(mb[j])) {
                    std::cmp::Ordering::Less => {
                        out.push(ma[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(mb[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(ma[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&ma[i..]);
            out.extend_from_slice(&mb[j..]);
            out
        };
        let id = self.intern(&merged);
        self.unions.insert(key, id);
        id
    }
}

#[inline]
fn key_of(e: MappingEntry) -> (usize, EdgeRef) {
    (e.1, e.0)
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

/// Definition 9 conditions 2/3/5 on two canonical (sorted-by-query-edge)
/// mappings: a merge scan finds the query edges present on both sides —
/// equal data edges establish condition 2, different ones violate
/// condition 3 — and the endpoint bindings must agree.
///
/// Allocation-free (unlike [`LecFeature::joinable`], whose endpoint
/// check builds a binding `Vec` per call): Algorithm 2 runs this on
/// every candidate intermediate × group-member pair, where the mappings
/// are short and a heap allocation per probe dominates the test itself.
pub(crate) fn mappings_compatible(
    a: &[MappingEntry],
    b: &[MappingEntry],
    query_edges: &[(usize, usize)],
) -> bool {
    let mut shared = false;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].1.cmp(&b[j].1) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let qe = a[i].1;
                let (ia, jb) = (i, j);
                while i < a.len() && a[i].1 == qe {
                    i += 1;
                }
                while j < b.len() && b[j].1 == qe {
                    j += 1;
                }
                for &(ea, _) in &a[ia..i] {
                    for &(eb, _) in &b[jb..j] {
                        if ea == eb {
                            shared = true;
                        } else {
                            return false; // condition 3
                        }
                    }
                }
            }
        }
    }
    if !shared {
        return false;
    }
    endpoint_bindings_agree_flat(a, b, query_edges)
}

/// Allocation-free endpoint agreement: the two mappings imply
/// `2·(|a| + |b|)` (query vertex, data vertex) bindings; they agree iff
/// no two bindings name the same query vertex with different data
/// vertices. Pairwise comparison over the flat implied-binding list —
/// the same `O(m²)` the incremental linear-scan version pays, without
/// materializing the binding vector.
fn endpoint_bindings_agree_flat(
    a: &[MappingEntry],
    b: &[MappingEntry],
    query_edges: &[(usize, usize)],
) -> bool {
    let entry = |k: usize| if k < a.len() { a[k] } else { b[k - a.len()] };
    let binding = |k: usize| {
        let (e, qe) = entry(k / 2);
        let (qf, qt) = query_edges[qe];
        if k.is_multiple_of(2) {
            (qf, e.from)
        } else {
            (qt, e.to)
        }
    };
    let m = 2 * (a.len() + b.len());
    for i in 0..m {
        let (qi, di) = binding(i);
        for j in (i + 1)..m {
            let (qj, dj) = binding(j);
            if qi == qj && di != dj {
                return false;
            }
        }
    }
    true
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
/// Each LPM's
/// crossing list is interned through a [`MappingInterner`], so dedup is a
/// probe of an integer-keyed [`InternedFeatureKey`] map — the mapping
/// `Vec` is hashed once per *distinct* mapping, not once per LPM.
pub fn compute_lec_features(
    lpms: &[LocalPartialMatch],
    first_id: u32,
) -> (Vec<LecFeature>, Vec<usize>) {
    let mut interner = MappingInterner::new();
    let mut features: Vec<LecFeature> = Vec::new();
    let mut index: FxHashMap<InternedFeatureKey, usize> = FxHashMap::default();
    let mut feature_of_lpm = Vec::with_capacity(lpms.len());
    for lpm in lpms {
        let mapping_id = interner.intern(&lpm.crossing);
        let key = (1u64 << lpm.fragment, mapping_id, lpm.internal_mask);
        let idx = match index.entry(key) {
            std::collections::hash_map::Entry::Occupied(o) => *o.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                features.push(LecFeature {
                    fragments: key.0,
                    mapping: interner.resolve(mapping_id).to_vec(),
                    sign: lpm.internal_mask,
                    sources: vec![first_id + features.len() as u32],
                });
                v.insert(features.len() - 1);
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
