//! Local partial matches (Definition 5 of the paper).
//!
//! A local partial match (LPM) binds a subset of query vertices to vertices
//! of one fragment; the rest are `NULL`. Its serialization is the vector
//! `[f(v1), ..., f(vn)]` shown in the paper's Fig. 3. Each LPM records the
//! crossing edges it matched and which query edge each one matched — the
//! raw material of LEC features (Definition 8).

use gstored_partition::FragmentId;
use gstored_rdf::{EdgeRef, VertexId};

/// A (partial) binding of query vertices: index = query vertex id,
/// `None` = the paper's `NULL`.
pub type Binding = Vec<Option<VertexId>>;

/// One local partial match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocalPartialMatch {
    /// Fragment the match was found in.
    pub fragment: FragmentId,
    /// The serialization vector `[f(v1), ..., f(vn)]`.
    pub binding: Binding,
    /// Matched crossing edges: `(data edge, query edge index)` pairs,
    /// sorted by query edge index. This is the function `g` of the LEC
    /// feature restricted to this match.
    pub crossing: Vec<(EdgeRef, usize)>,
    /// Bitmask over query vertices: bit `i` set iff `f(v_i)` is an
    /// internal vertex of `fragment` (the LECSign of Definition 8).
    pub internal_mask: u64,
}

impl LocalPartialMatch {
    /// Whether query vertex `v` is bound to an internal vertex.
    pub fn is_internal(&self, v: usize) -> bool {
        self.internal_mask & (1 << v) != 0
    }

    /// Number of bound query vertices.
    pub fn bound_count(&self) -> usize {
        self.binding.iter().filter(|b| b.is_some()).count()
    }

    /// The paper's join condition on raw matches (\[18\], restated in the
    /// proof of Theorem 2): the two LPMs come from different fragments,
    /// share at least one crossing edge matching the same query edge, and
    /// agree on every query vertex bound in both. Additionally no query
    /// vertex may be *internal* in both (vertex-disjoint fragments make
    /// that impossible for genuinely joinable matches; checking it keeps
    /// the join sound on adversarial inputs).
    pub fn joinable(&self, other: &LocalPartialMatch) -> bool {
        if self.fragment == other.fragment {
            return false;
        }
        if self.internal_mask & other.internal_mask != 0 {
            return false;
        }
        // At least one shared crossing edge mapped to the same query edge.
        let mut shared = false;
        for &(e, qe) in &self.crossing {
            for &(e2, qe2) in &other.crossing {
                if qe == qe2 {
                    if e == e2 {
                        shared = true;
                    } else {
                        // Same query edge matched by different data edges:
                        // the bindings conflict.
                        return false;
                    }
                }
            }
        }
        if !shared {
            return false;
        }
        // Binding agreement on commonly-bound vertices.
        self.binding
            .iter()
            .zip(&other.binding)
            .all(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// Join two LPMs into a combined partial match (caller must have
    /// checked [`Self::joinable`]). The fragment id of the result is
    /// meaningless and set to `usize::MAX`.
    pub fn join(&self, other: &LocalPartialMatch) -> LocalPartialMatch {
        debug_assert!(self.joinable(other));
        let binding: Binding = self
            .binding
            .iter()
            .zip(&other.binding)
            .map(|(a, b)| a.or(*b))
            .collect();
        let mut crossing = self.crossing.clone();
        for &(e, qe) in &other.crossing {
            if !crossing.contains(&(e, qe)) {
                crossing.push((e, qe));
            }
        }
        crossing.sort_unstable_by_key(|&(_, qe)| qe);
        LocalPartialMatch {
            fragment: usize::MAX,
            binding,
            crossing,
            internal_mask: self.internal_mask | other.internal_mask,
        }
    }

    /// Whether a joined result covers the whole query: every vertex is
    /// internal somewhere (Theorem 4 condition 3). For such results the
    /// binding is total and all query edges are matched.
    pub fn is_complete(&self, vertex_count: usize) -> bool {
        let full = if vertex_count == 64 {
            u64::MAX
        } else {
            (1u64 << vertex_count) - 1
        };
        self.internal_mask == full
    }

    /// The complete binding, if every vertex is bound.
    pub fn complete_binding(&self) -> Option<Vec<VertexId>> {
        self.binding.iter().copied().collect()
    }
}

/// A borrowed view of one LPM: a row of an [`LpmBatch`], or a whole
/// [`LocalPartialMatch`] (`From<&LocalPartialMatch>`), so a consumer of
/// LPMs takes either without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpmRow<'a> {
    /// Fragment the match was found in.
    pub fragment: FragmentId,
    /// The serialization vector `[f(v1), ..., f(vn)]`.
    pub binding: &'a [Option<VertexId>],
    /// Matched crossing edges with their query edges, as in
    /// [`LocalPartialMatch::crossing`].
    pub crossing: &'a [(EdgeRef, usize)],
    /// Bit `i` set iff `f(v_i)` is internal to `fragment`.
    pub internal_mask: u64,
}

impl<'a> From<&'a LocalPartialMatch> for LpmRow<'a> {
    fn from(m: &'a LocalPartialMatch) -> LpmRow<'a> {
        LpmRow {
            fragment: m.fragment,
            binding: &m.binding,
            crossing: &m.crossing,
            internal_mask: m.internal_mask,
        }
    }
}

impl LpmRow<'_> {
    /// The row as an owned [`LocalPartialMatch`].
    pub fn to_lpm(&self) -> LocalPartialMatch {
        LocalPartialMatch {
            fragment: self.fragment,
            binding: self.binding.to_vec(),
            crossing: self.crossing.to_vec(),
            internal_mask: self.internal_mask,
        }
    }
}

/// LPMs of one fragment stored flat: row `i` has binding
/// `bindings[i·width..(i+1)·width]`, crossing entries
/// `crossing[ends[i-1]..ends[i]]` (from 0 for the first row) and
/// `internal_masks[i]`. What one survivor frame decodes into — a
/// handful of allocations per batch instead of two per LPM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpmBatch {
    fragment: FragmentId,
    width: usize,
    bindings: Vec<Option<VertexId>>,
    crossing: Vec<(EdgeRef, usize)>,
    ends: Vec<usize>,
    internal_masks: Vec<u64>,
}

impl LpmBatch {
    /// An empty batch of `fragment`'s LPMs over a `width`-vertex query.
    pub fn new(fragment: FragmentId, width: usize) -> LpmBatch {
        LpmBatch {
            fragment,
            width,
            ..LpmBatch::default()
        }
    }

    /// The fragment every row was found in.
    pub fn fragment(&self) -> FragmentId {
        self.fragment
    }

    /// Binding width (query vertex count) of every row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.internal_masks.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.internal_masks.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> LpmRow<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        LpmRow {
            fragment: self.fragment,
            binding: &self.bindings[i * self.width..(i + 1) * self.width],
            crossing: &self.crossing[start..self.ends[i]],
            internal_mask: self.internal_masks[i],
        }
    }

    /// Every row, in push order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = LpmRow<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Append a row. Panics if it comes from another fragment or has
    /// another binding width than the batch.
    pub fn push<'a>(&mut self, row: impl Into<LpmRow<'a>>) {
        let row = row.into();
        assert_eq!(row.fragment, self.fragment, "one batch, one fragment");
        assert_eq!(row.binding.len(), self.width, "one batch, one width");
        self.bindings.extend_from_slice(row.binding);
        self.crossing.extend_from_slice(row.crossing);
        self.ends.push(self.crossing.len());
        self.internal_masks.push(row.internal_mask);
    }

    /// A batch from its flat parts, laid out as the type describes: the
    /// decoder's path, which writes every LPM of a frame straight into
    /// these arenas. Panics if the parts disagree on the row count or
    /// `ends` does not ascend to `crossing.len()`.
    pub fn from_parts(
        fragment: FragmentId,
        width: usize,
        bindings: Vec<Option<VertexId>>,
        crossing: Vec<(EdgeRef, usize)>,
        ends: Vec<usize>,
        internal_masks: Vec<u64>,
    ) -> LpmBatch {
        let rows = internal_masks.len();
        assert_eq!(ends.len(), rows, "one crossing end per row");
        assert_eq!(bindings.len(), rows * width, "one binding per row");
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1])
                && ends.last().map_or(0, |&e| e) == crossing.len(),
            "crossing ends ascend to the arena's length"
        );
        LpmBatch {
            fragment,
            width,
            bindings,
            crossing,
            ends,
            internal_masks,
        }
    }

    /// The rows as owned [`LocalPartialMatch`]es.
    pub fn to_lpms(&self) -> Vec<LocalPartialMatch> {
        self.rows().map(|row| row.to_lpm()).collect()
    }
}

/// A batch of `lpms`, which must share one fragment and one binding
/// width; empty, it is `LpmBatch::default()`.
impl From<Vec<LocalPartialMatch>> for LpmBatch {
    fn from(lpms: Vec<LocalPartialMatch>) -> LpmBatch {
        let mut batch = match lpms.first() {
            Some(m) => LpmBatch::new(m.fragment, m.binding.len()),
            None => LpmBatch::default(),
        };
        for m in &lpms {
            batch.push(m);
        }
        batch
    }
}

/// Pretty-print the serialization vector like the paper's Fig. 3
/// (`[006,NULL,001,NULL,003]`), using raw term ids.
pub fn format_binding(b: &Binding) -> String {
    let parts: Vec<String> = b
        .iter()
        .map(|x| match x {
            Some(v) => format!("{}", v.0),
            None => "NULL".to_string(),
        })
        .collect();
    format!("[{}]", parts.join(","))
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
        fragment: FragmentId,
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

    /// PM1_1 and PM1_2 from the paper's Example 4 (Fig. 3): they join on
    /// the shared crossing edge 001->006 mapping query edge v3->v1.
    #[test]
    fn paper_pm11_joins_pm12() {
        let ce = edge(1, 100, 6); // 001 -influencedBy-> 006
        let pm11 = lpm(
            0,
            vec![Some(6), None, Some(1), None, Some(3)],
            vec![(ce, 1)],
            &[2, 4], // v3, v5 internal in F1
        );
        let pm12 = lpm(
            1,
            vec![Some(6), Some(8), Some(1), Some(9), None],
            vec![(ce, 1)],
            &[0, 1, 3], // v1, v2, v4 internal in F2
        );
        assert!(pm11.joinable(&pm12));
        assert!(pm12.joinable(&pm11));
        let joined = pm11.join(&pm12);
        assert!(joined.is_complete(5));
        assert_eq!(
            joined.complete_binding().unwrap(),
            vec![TermId(6), TermId(8), TermId(1), TermId(9), TermId(3)]
        );
    }

    #[test]
    fn same_fragment_never_joins() {
        let ce = edge(1, 100, 6);
        let a = lpm(0, vec![Some(6), None], vec![(ce, 0)], &[1]);
        let b = lpm(0, vec![Some(6), None], vec![(ce, 0)], &[1]);
        assert!(!a.joinable(&b));
    }

    #[test]
    fn no_shared_crossing_edge_no_join() {
        let a = lpm(0, vec![Some(6), None], vec![(edge(1, 100, 6), 0)], &[0]);
        let b = lpm(1, vec![None, Some(9)], vec![(edge(2, 100, 9), 1)], &[1]);
        assert!(!a.joinable(&b));
    }

    #[test]
    fn conflicting_bindings_block_join() {
        let ce = edge(1, 100, 6);
        // Both bind v1 but to different data vertices.
        let a = lpm(0, vec![Some(6), Some(7)], vec![(ce, 0)], &[0]);
        let b = lpm(1, vec![Some(6), Some(8)], vec![(ce, 0)], &[1]);
        assert!(!a.joinable(&b));
    }

    #[test]
    fn same_query_edge_different_data_edges_blocks_join() {
        let a = lpm(0, vec![Some(6), None], vec![(edge(1, 100, 6), 0)], &[0]);
        let b = lpm(1, vec![None, Some(9)], vec![(edge(2, 100, 9), 0)], &[1]);
        assert!(!a.joinable(&b));
    }

    #[test]
    fn overlapping_internal_masks_block_join() {
        let ce = edge(1, 100, 6);
        let a = lpm(0, vec![Some(6), None], vec![(ce, 0)], &[0]);
        let b = lpm(1, vec![Some(6), None], vec![(ce, 0)], &[0]);
        assert!(!a.joinable(&b));
    }

    #[test]
    fn join_merges_crossing_edges_sorted() {
        let e0 = edge(1, 100, 6);
        let e1 = edge(2, 100, 7);
        let a = lpm(0, vec![Some(6), None, Some(1)], vec![(e0, 1)], &[2]);
        let b = lpm(
            1,
            vec![Some(6), Some(7), None],
            vec![(e0, 1), (e1, 0)],
            &[0],
        );
        assert!(a.joinable(&b));
        let j = a.join(&b);
        assert_eq!(j.crossing, vec![(e1, 0), (e0, 1)]);
        assert!(!j.is_complete(3), "v2 not internal anywhere yet");
    }

    #[test]
    fn format_binding_matches_paper_style() {
        let b: Binding = vec![
            Some(TermId(6)),
            None,
            Some(TermId(1)),
            None,
            Some(TermId(3)),
        ];
        assert_eq!(format_binding(&b), "[6,NULL,1,NULL,3]");
    }

    #[test]
    fn is_complete_handles_word_boundary() {
        let full = lpm(0, vec![Some(1)], vec![], &[0]);
        assert!(full.is_complete(1));
        let mut wide = full.clone();
        wide.internal_mask = u64::MAX;
        assert!(wide.is_complete(64));
    }
}
