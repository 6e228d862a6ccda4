//! Fragments and distributed RDF graphs (Definition 1 of the paper).
//!
//! A distributed RDF graph is a vertex-disjoint partitioning of `V` into
//! `{V_1, ..., V_k}`. Fragment `F_i` stores:
//!
//! * its **internal vertices** `V_i`,
//! * its **extended vertices** `Ve_i` — endpoints (residing elsewhere) of
//!   crossing edges touching `F_i`,
//! * its **internal edges** `E_i ⊆ V_i × V_i`,
//! * its **crossing edges** `Ec_i` — every edge with exactly one endpoint
//!   in `V_i`; crossing edges are *replicated* in both touched fragments,
//!   which is what makes star queries evaluable locally and what lets
//!   LEC features join across fragments on shared crossing edges.
//!
//! # Storage
//!
//! Every site search reads a fragment through a handful of per-vertex
//! accessors (`out_edges`, `in_edges`, `classes_of`, `is_internal`, …),
//! so the layout serves them with one hash probe and one slice each:
//!
//! * **One local numbering.** The stored vertices get dense local ids:
//!   the internal vertices `0..|V_i|` in their sorted order, then the
//!   extended ones. A single global → local map, hashed with a
//!   multiplicative hasher (vertex ids are dictionary indices, so one
//!   multiply spreads them), translates a vertex id once per call;
//!   `is_internal`, `is_extended` and `contains` are that probe plus a
//!   compare against `|V_i|` (and `|V_i| + |Ve_i|`).
//! * **CSR adjacency and classes.** Out-adjacency, in-adjacency and the
//!   replicated classes are three compressed-sparse-row arrays indexed by
//!   local id: one offsets array (`|V_i| + |Ve_i| + 1` entries of 4
//!   bytes) and one flat item array each. Adjacency rows are sorted by
//!   `(label, vertex)` — what `label_edge_range` slices — and class rows
//!   keep their input order. Next to one heap vector per vertex per map,
//!   this is three allocations per fragment in all.
//!
//! Both build paths — [`DistributedGraph::build`] at the coordinator and
//! [`Fragment::from_parts`] at a worker that decoded an `InstallFragment`
//! frame — fill the public vertex and edge lists and then run one shared
//! `finalize`, which numbers the vertices and sorts each direction once.
//! Only the public lists and the class entries travel on the wire.
//!
//! Besides the adjacency, every fragment keeps three **postings**: per
//! edge label, the vertices with an out-edge (and, separately, an
//! in-edge) carrying it, and per class, the stored vertices carrying it.
//! They are how a site hands out a query vertex's candidates without
//! walking its whole vertex set (see `gstored_store::candidates`). They
//! are derived in the same `finalize`, so they never travel on the wire
//! either. Each costs one vertex id per entry, packed in one buffer: the
//! label postings at most a third of the adjacency's memory (one 8-byte
//! id per distinct `(vertex, label)` pair against one 16-byte
//! `(label, vertex)` pair per edge, in each direction), the class
//! postings as much as the class rows.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use gstored_rdf::stats::{FragmentStats, PartitionStats, PredicateCard, SelectivityHistogram};
use gstored_rdf::{Dictionary, EdgeRef, RdfGraph, TermId, VertexId};

use crate::Partitioner;

/// Fragment identifier (index into `DistributedGraph::fragments`).
pub type FragmentId = usize;

/// The raw vertex → fragment assignment produced by a [`Partitioner`].
#[derive(Debug, Clone)]
pub struct PartitionAssignment {
    /// Number of fragments.
    pub k: usize,
    /// Fragment of each vertex.
    pub of_vertex: HashMap<VertexId, FragmentId>,
}

impl PartitionAssignment {
    /// Fragment of a vertex; panics on unassigned vertices (every vertex
    /// of the graph must be assigned — Definition 1 condition 1).
    pub fn fragment_of(&self, v: VertexId) -> FragmentId {
        *self
            .of_vertex
            .get(&v)
            .unwrap_or_else(|| panic!("vertex {v} missing from partition assignment"))
    }

    /// Number of vertices assigned to each fragment.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &f in self.of_vertex.values() {
            sizes[f] += 1;
        }
        sizes
    }
}

/// One fragment `F_i = (V_i ∪ Ve_i, E_i ∪ Ec_i, Σ_i)`.
#[derive(Debug, Clone, Default)]
pub struct Fragment {
    /// This fragment's id (`i`).
    pub id: FragmentId,
    /// Internal vertices `V_i`, sorted.
    pub internal: Vec<VertexId>,
    /// Extended vertices `Ve_i`, sorted.
    pub extended: Vec<VertexId>,
    /// Internal edges `E_i`.
    pub internal_edges: Vec<EdgeRef>,
    /// Crossing edges `Ec_i` (each has exactly one endpoint in `V_i`).
    pub crossing_edges: Vec<EdgeRef>,
    /// Global → local id: `internal[l]` for `l < n_internal`, then
    /// `extended[l - n_internal]` below `n_stored`, then the edge
    /// endpoints and classed vertices a malformed `from_parts` input lists
    /// in neither (a vertex listed in both counts as internal).
    local: IdMap<u32>,
    /// `|V_i|` when built.
    n_internal: u32,
    /// `|V_i| + |Ve_i|` when built.
    n_stored: u32,
    /// Outgoing adjacency over `E_i ∪ Ec_i`: rows of sorted `(label, to)`.
    out: Csr<(TermId, VertexId)>,
    /// Incoming adjacency over `E_i ∪ Ec_i`: rows of sorted `(label, from)`.
    inc: Csr<(TermId, VertexId)>,
    /// Classes of stored vertices (internal and extended), mirroring
    /// gStore's replicated vertex signatures, in input order.
    classes: Csr<TermId>,
    /// Label → sorted vertices with an out-edge carrying it.
    out_postings: Postings,
    /// Label → sorted vertices with an in-edge carrying it.
    in_postings: Postings,
    /// Class → sorted stored vertices carrying it.
    class_postings: Postings,
}

/// What a [`Fragment::posting`] lists the vertices of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostingKey {
    /// Vertices with an outgoing edge carrying this label.
    Out(TermId),
    /// Vertices with an incoming edge carrying this label.
    In(TermId),
    /// Stored vertices carrying this class.
    Class(TermId),
}

impl Fragment {
    /// Local id of `v`, if the fragment knows it.
    #[inline]
    fn local(&self, v: VertexId) -> Option<u32> {
        self.local.get(&v).copied()
    }

    /// Whether `v` is an internal vertex of this fragment.
    #[inline]
    pub fn is_internal(&self, v: VertexId) -> bool {
        self.local(v).is_some_and(|l| l < self.n_internal)
    }

    /// Whether `v` is an extended vertex of this fragment.
    #[inline]
    pub fn is_extended(&self, v: VertexId) -> bool {
        self.local(v)
            .is_some_and(|l| (self.n_internal..self.n_stored).contains(&l))
    }

    /// Whether `v` is stored here at all (internal or extended).
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.local(v).is_some_and(|l| l < self.n_stored)
    }

    /// Classes of a stored vertex.
    #[inline]
    pub fn classes_of(&self, v: VertexId) -> &[TermId] {
        self.local(v).map_or(&[], |l| self.classes.row(l))
    }

    /// Whether `v` carries every class in `required`.
    pub fn has_classes(&self, v: VertexId, required: &[TermId]) -> bool {
        let cs = self.classes_of(v);
        required.iter().all(|c| cs.contains(c))
    }

    /// The sorted, duplicate-free vertices `key` selects; empty when no
    /// stored vertex has the label or class. Every vertex listed is
    /// stored here, internal or extended.
    pub fn posting(&self, key: PostingKey) -> &[VertexId] {
        match key {
            PostingKey::Out(label) => self.out_postings.get(label),
            PostingKey::In(label) => self.in_postings.get(label),
            PostingKey::Class(class) => self.class_postings.get(class),
        }
    }

    /// Whether the given edge is one of this fragment's crossing edges.
    pub fn is_crossing(&self, e: &EdgeRef) -> bool {
        // Exactly one endpoint internal. (Replicated data guarantees both
        // endpoints are stored.)
        self.is_internal(e.from) != self.is_internal(e.to)
    }

    /// Outgoing `(label, to)` pairs of `v` over `E_i ∪ Ec_i`.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        self.local(v).map_or(&[], |l| self.out.row(l))
    }

    /// Incoming `(label, from)` pairs of `v` over `E_i ∪ Ec_i`.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[(TermId, VertexId)] {
        self.local(v).map_or(&[], |l| self.inc.row(l))
    }

    /// All edges stored in this fragment (`E_i` then `Ec_i`).
    pub fn edges(&self) -> impl Iterator<Item = &EdgeRef> {
        self.internal_edges.iter().chain(self.crossing_edges.iter())
    }

    /// `|E_i ∪ Ec_i|` — the edge size used by the cost model's balance term.
    pub fn edge_size(&self) -> usize {
        self.internal_edges.len() + self.crossing_edges.len()
    }

    /// Number of internal vertices.
    pub fn internal_count(&self) -> usize {
        self.internal.len()
    }

    /// Rebuild a fragment from its serializable parts (the inverse of
    /// reading the public fields plus [`Fragment::class_entries`]).
    /// Adjacency indexes are derived from the edge lists; used by the
    /// wire codec when shipping a fragment to a remote worker process.
    /// A vertex listed twice in `classes` keeps its last list.
    pub fn from_parts(
        id: FragmentId,
        internal: Vec<VertexId>,
        extended: Vec<VertexId>,
        internal_edges: Vec<EdgeRef>,
        crossing_edges: Vec<EdgeRef>,
        classes: Vec<(VertexId, Vec<TermId>)>,
    ) -> Self {
        let mut entry: IdMap<usize> = IdMap::default();
        for (i, (v, _)) in classes.iter().enumerate() {
            entry.insert(*v, i);
        }
        Fragment {
            id,
            internal,
            extended,
            internal_edges,
            crossing_edges,
            ..Fragment::default()
        }
        .finalize(entry.keys().copied(), |v| {
            entry.get(&v).map(|&i| classes[i].1.as_slice())
        })
    }

    /// The replicated class signatures of stored vertices, sorted by
    /// vertex id (deterministic order for serialization).
    pub fn class_entries(&self) -> Vec<(VertexId, &[TermId])> {
        let mut entries: Vec<(VertexId, &[TermId])> = self
            .local
            .iter()
            .map(|(&v, &l)| (v, self.classes.row(l)))
            .filter(|(_, cs)| !cs.is_empty())
            .collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        entries
    }

    /// Compute this fragment's planner statistics: per-predicate
    /// internal/crossing cardinalities, per-class internal-vertex counts
    /// and the internal out-degree histogram. `O(|E_i ∪ Ec_i| + |V_i|)`.
    pub fn stats(&self) -> FragmentStats {
        let mut predicates: HashMap<TermId, PredicateCard> = HashMap::new();
        for e in &self.internal_edges {
            predicates.entry(e.label).or_default().internal += 1;
        }
        for e in &self.crossing_edges {
            predicates.entry(e.label).or_default().crossing += 1;
        }
        let mut predicate_cards: Vec<(TermId, PredicateCard)> = predicates.into_iter().collect();
        predicate_cards.sort_unstable_by_key(|&(p, _)| p);

        let mut classes: HashMap<TermId, usize> = HashMap::new();
        let mut selectivity = SelectivityHistogram::default();
        for &v in &self.internal {
            for &c in self.classes_of(v) {
                *classes.entry(c).or_default() += 1;
            }
            selectivity.record(self.out_edges(v).len());
        }
        let mut class_cards: Vec<(TermId, usize)> = classes.into_iter().collect();
        class_cards.sort_unstable_by_key(|&(c, _)| c);

        FragmentStats {
            site: self.id,
            internal_vertices: self.internal.len(),
            extended_vertices: self.extended.len(),
            internal_edges: self.internal_edges.len(),
            crossing_edges: self.crossing_edges.len(),
            predicate_cards,
            class_cards,
            selectivity,
        }
    }

    /// Sort and deduplicate the public lists, number the vertices and
    /// derive the CSR rows and the postings. `class_vertices` are the
    /// vertices `classes_of` may answer for beyond the stored ones.
    fn finalize<'c>(
        mut self,
        class_vertices: impl Iterator<Item = VertexId>,
        classes_of: impl Fn(VertexId) -> Option<&'c [TermId]>,
    ) -> Self {
        for list in [&mut self.internal, &mut self.extended] {
            list.sort_unstable();
            list.dedup();
        }
        for list in [&mut self.internal_edges, &mut self.crossing_edges] {
            list.sort_unstable();
            list.dedup();
        }

        let n_internal = self.internal.len();
        let n_stored = n_internal + self.extended.len();
        let mut local = IdMap::with_capacity_and_hasher(n_stored, Default::default());
        for (l, &v) in self.internal.iter().enumerate() {
            local.insert(v, l as u32);
        }
        for (l, &v) in (n_internal..).zip(&self.extended) {
            local.entry(v).or_insert(l as u32);
        }
        let mut unlisted: Vec<VertexId> = self
            .edges()
            .flat_map(|e| [e.from, e.to])
            .chain(class_vertices)
            .filter(|v| !local.contains_key(v))
            .collect();
        unlisted.sort_unstable();
        unlisted.dedup();
        for (l, &v) in (n_stored..).zip(&unlisted) {
            local.insert(v, l as u32);
        }
        let rows = n_stored + unlisted.len();
        assert!(
            u32::try_from(rows.max(self.edge_size())).is_ok(),
            "a fragment numbers its vertices and adjacency entries in u32"
        );
        // The global id of every local id; an extended vertex already
        // numbered as internal leaves its slot empty.
        let global = |l: usize| -> Option<VertexId> {
            let v = match l.checked_sub(n_stored) {
                Some(u) => unlisted[u],
                None if l < n_internal => self.internal[l],
                None => self.extended[l - n_internal],
            };
            (local[&v] as usize == l).then_some(v)
        };

        let mut class_pairs = Vec::new();
        let mut classes = Csr::with_rows(rows);
        for l in 0..rows {
            if let Some((v, cs)) = global(l).and_then(|v| Some((v, classes_of(v)?))) {
                classes.items.extend_from_slice(cs);
                class_pairs.extend(cs.iter().map(|&c| (c, v)));
            }
            classes.end_row();
        }
        let out = Csr::adjacency(rows, || {
            self.edges().map(|e| (local[&e.from], (e.label, e.to)))
        });
        let inc = Csr::adjacency(rows, || {
            self.edges().map(|e| (local[&e.to], (e.label, e.from)))
        });
        let out_postings = Postings::from_pairs(self.edges().map(|e| (e.label, e.from)).collect());
        let in_postings = Postings::from_pairs(self.edges().map(|e| (e.label, e.to)).collect());
        Fragment {
            local,
            n_internal: n_internal as u32,
            n_stored: n_stored as u32,
            out,
            inc,
            classes,
            out_postings,
            in_postings,
            class_postings: Postings::from_pairs(class_pairs),
            ..self
        }
    }
}

/// A map keyed by vertex or term id, hashed by one multiply-rotate step
/// per word (the "Fx" hash of Firefox and rustc). The ids are indices
/// the coordinator's dictionary assigns, not values a client picks, so
/// this spreads them across buckets at a fraction of SipHash's cost.
type IdMap<V> = HashMap<TermId, V, BuildHasherDefault<IdHasher>>;

#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Compressed sparse rows indexed by local id: row `l` is
/// `items[offsets[l]..offsets[l + 1]]`.
#[derive(Debug, Clone)]
struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            offsets: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Csr<T> {
    /// An empty array to be filled row by row with [`Csr::end_row`].
    fn with_rows(rows: usize) -> Csr<T> {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            items: Vec::new(),
        }
    }

    /// Close the current row after the items pushed since the last one.
    fn end_row(&mut self) {
        let end = u32::try_from(self.items.len()).expect("a fragment indexes its rows in u32");
        self.offsets.push(end);
    }

    #[inline]
    fn row(&self, l: u32) -> &[T] {
        let l = l as usize;
        &self.items[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

impl Csr<(TermId, VertexId)> {
    /// Adjacency rows from `(row, (label, vertex))` entries (read twice:
    /// once to size the rows, once to scatter), each row sorted and
    /// deduplicated.
    fn adjacency<I>(rows: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, (TermId, VertexId))>,
    {
        let mut offsets = vec![0u32; rows + 1];
        for (l, _) in entries() {
            offsets[l as usize + 1] += 1;
        }
        for l in 0..rows {
            offsets[l + 1] += offsets[l];
        }
        let mut cursor = offsets.clone();
        let mut items = vec![(TermId(0), TermId(0)); offsets[rows] as usize];
        for (l, item) in entries() {
            let slot = &mut cursor[l as usize];
            items[*slot as usize] = item;
            *slot += 1;
        }
        // Sort each row and compact out repeats (an edge listed as both
        // internal and crossing by a malformed input).
        let mut write = 0usize;
        for l in 0..rows {
            let (start, end) = (offsets[l] as usize, offsets[l + 1] as usize);
            items[start..end].sort_unstable();
            offsets[l] = write as u32;
            for i in start..end {
                if write == offsets[l] as usize || items[write - 1] != items[i] {
                    items[write] = items[i];
                    write += 1;
                }
            }
        }
        offsets[rows] = write as u32;
        items.truncate(write);
        Csr { offsets, items }
    }
}

/// Sorted vertex lists keyed by label or class, packed into one buffer
/// sized exactly, so an index costs one vertex id per entry.
#[derive(Debug, Clone, Default)]
struct Postings {
    ranges: IdMap<Range<usize>>,
    vertices: Vec<VertexId>,
}

impl Postings {
    /// Index `(key, vertex)` pairs given in any order, repeats allowed.
    fn from_pairs(mut pairs: Vec<(TermId, VertexId)>) -> Postings {
        pairs.sort_unstable();
        pairs.dedup();
        let mut ranges = IdMap::default();
        let mut start = 0;
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            ranges.insert(run[0].0, start..start + run.len());
            start += run.len();
        }
        let vertices = pairs.into_iter().map(|(_, v)| v).collect();
        Postings { ranges, vertices }
    }

    fn get(&self, key: TermId) -> &[VertexId] {
        self.ranges
            .get(&key)
            .map_or(&[], |range| &self.vertices[range.clone()])
    }
}

/// A fully-constructed distributed RDF graph: the fragments plus the shared
/// dictionary.
///
/// *Substitution note (DESIGN.md §3):* in a real deployment each site holds
/// a dictionary replica; sharing one here changes neither the algorithms
/// nor the shipment accounting of the evaluation stages, which exchange
/// encoded ids exactly as the paper's prototype does.
#[derive(Debug, Clone)]
pub struct DistributedGraph {
    dict: Dictionary,
    /// All fragments, index = fragment id.
    pub fragments: Vec<Fragment>,
    /// The assignment the fragments were built from.
    pub assignment: PartitionAssignment,
    /// Total number of edges in the underlying graph.
    pub total_edges: usize,
    /// Total number of vertices in the underlying graph.
    pub total_vertices: usize,
    /// Lazily computed planner statistics ([`DistributedGraph::stats`]).
    /// Behind `Arc` so clones of the graph share one cache — and so
    /// sessions running an explicit variant, which never consult the
    /// planner, never pay the computation at all.
    stats: Arc<OnceLock<PartitionStats>>,
}

impl DistributedGraph {
    /// Partition `graph` with the given strategy and build all fragments.
    pub fn build(graph: RdfGraph, partitioner: &dyn Partitioner) -> Self {
        let assignment = partitioner.assign(&graph);
        Self::build_with_assignment(graph, assignment)
    }

    /// Build fragments from an explicit assignment (must cover every vertex).
    pub fn build_with_assignment(graph: RdfGraph, assignment: PartitionAssignment) -> Self {
        let k = assignment.k;
        let mut fragments: Vec<Fragment> = (0..k)
            .map(|id| Fragment {
                id,
                ..Fragment::default()
            })
            .collect();

        for v in graph.vertices() {
            let f = assignment.fragment_of(v);
            fragments[f].internal.push(v);
        }

        for e in graph.edges() {
            let fs = assignment.fragment_of(e.from);
            let ft = assignment.fragment_of(e.to);
            if fs == ft {
                fragments[fs].internal_edges.push(e);
            } else {
                // Crossing edge: replicated in both fragments; the remote
                // endpoint becomes an extended vertex on each side.
                fragments[fs].crossing_edges.push(e);
                fragments[fs].extended.push(e.to);
                fragments[ft].crossing_edges.push(e);
                fragments[ft].extended.push(e.from);
            }
        }

        // Replicate vertex classes (gStore-style signatures) for every
        // stored vertex, internal and extended alike.
        let classes = graph.class_map();
        let fragments = fragments
            .into_iter()
            .map(|f| f.finalize(std::iter::empty(), |v| classes.get(&v).map(Vec::as_slice)))
            .collect();

        let total_edges = graph.edge_count();
        let total_vertices = graph.vertex_count();
        DistributedGraph {
            dict: graph.dict().clone(),
            fragments,
            assignment,
            total_edges,
            total_vertices,
            stats: Arc::new(OnceLock::new()),
        }
    }

    /// The partitioning's planner statistics, computed on first call and
    /// cached for the graph's lifetime (clones share the cache).
    ///
    /// The laziness is load-bearing: only `Variant::Auto` sessions ever
    /// ask, so explicit-variant sessions pay nothing at partition *or*
    /// query time — [`DistributedGraph::stats_computed`] lets tests pin
    /// that down.
    pub fn stats(&self) -> &PartitionStats {
        self.stats.get_or_init(|| {
            let sites: Vec<FragmentStats> = self.fragments.iter().map(Fragment::stats).collect();
            let total_internal_edges = sites.iter().map(|s| s.internal_edges).sum();
            let total_crossing_incidences = sites.iter().map(|s| s.crossing_edges).sum();
            let total_vertices = sites.iter().map(|s| s.internal_vertices).sum();
            PartitionStats {
                sites,
                total_internal_edges,
                total_crossing_incidences,
                total_vertices,
            }
        })
    }

    /// Whether [`DistributedGraph::stats`] has been computed yet.
    pub fn stats_computed(&self) -> bool {
        self.stats.get().is_some()
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// All distinct crossing edges of the partitioning (`Ec`), deduplicated
    /// across the per-fragment replicas.
    pub fn crossing_edges(&self) -> Vec<EdgeRef> {
        let mut all: Vec<EdgeRef> = self
            .fragments
            .iter()
            .flat_map(|f| f.crossing_edges.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Check every Definition 1 invariant; used by tests and debug builds.
    ///
    /// Returns a human-readable violation description, or `None` if valid.
    pub fn validate(&self) -> Option<String> {
        // 1. {V_1..V_k} is a partitioning of V.
        let mut seen: HashMap<VertexId, FragmentId> = HashMap::new();
        let mut total = 0usize;
        for f in &self.fragments {
            for &v in &f.internal {
                if let Some(prev) = seen.insert(v, f.id) {
                    return Some(format!(
                        "vertex {v} internal to fragments {prev} and {}",
                        f.id
                    ));
                }
                total += 1;
            }
        }
        if total != self.total_vertices {
            return Some(format!(
                "internal vertices cover {total} of {} vertices",
                self.total_vertices
            ));
        }
        for f in &self.fragments {
            // 2. E_i ⊆ V_i × V_i.
            for e in &f.internal_edges {
                if !f.is_internal(e.from) || !f.is_internal(e.to) {
                    return Some(format!(
                        "internal edge {:?} of fragment {} has external endpoint",
                        e, f.id
                    ));
                }
            }
            // 3. crossing edges have exactly one internal endpoint.
            for e in &f.crossing_edges {
                if f.is_internal(e.from) == f.is_internal(e.to) {
                    return Some(format!(
                        "crossing edge {:?} of fragment {} does not cross",
                        e, f.id
                    ));
                }
            }
            // 4/5. extended vertices are exactly the remote endpoints of
            // crossing edges and are internal elsewhere.
            let mut expected: Vec<VertexId> = f
                .crossing_edges
                .iter()
                .map(|e| if f.is_internal(e.from) { e.to } else { e.from })
                .collect();
            expected.sort_unstable();
            expected.dedup();
            if expected != f.extended {
                return Some(format!(
                    "fragment {} extended vertices do not match crossing edges",
                    f.id
                ));
            }
            for &v in &f.extended {
                let home = self.assignment.fragment_of(v);
                if home == f.id {
                    return Some(format!(
                        "extended vertex {v} of fragment {} is assigned to it",
                        f.id
                    ));
                }
                if !self.fragments[home].is_internal(v) {
                    return Some(format!("extended vertex {v} not internal anywhere"));
                }
            }
        }
        // Edge conservation: every edge appears as internal exactly once or
        // as crossing exactly twice.
        let internal_total: usize = self.fragments.iter().map(|f| f.internal_edges.len()).sum();
        let crossing_total: usize = self.fragments.iter().map(|f| f.crossing_edges.len()).sum();
        if internal_total + crossing_total / 2 != self.total_edges
            || !crossing_total.is_multiple_of(2)
        {
            return Some(format!(
                "edge conservation violated: {internal_total} internal + {crossing_total} crossing replicas vs {} edges",
                self.total_edges
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{ExplicitPartitioner, HashPartitioner};
    use crate::metis_like::MetisLikePartitioner;
    use crate::semantic::SemanticHashPartitioner;
    use gstored_rdf::{Term, Triple};

    fn chain_graph(n: usize) -> RdfGraph {
        // v0 -p-> v1 -p-> v2 ... -p-> v(n-1)
        let mut triples = Vec::new();
        for i in 0..n - 1 {
            triples.push(Triple::new(
                Term::iri(format!("http://v/{i}")),
                Term::iri("http://p"),
                Term::iri(format!("http://v/{}", i + 1)),
            ));
        }
        RdfGraph::from_triples(triples)
    }

    #[test]
    fn build_validates_on_chain() {
        let g = chain_graph(10);
        let dist = DistributedGraph::build(g, &HashPartitioner::new(3));
        assert_eq!(dist.fragment_count(), 3);
        assert_eq!(dist.validate(), None);
    }

    #[test]
    fn crossing_edges_replicated_in_both_fragments() {
        let g = chain_graph(2); // single edge v0 -> v1
        let v0 = g.vertex_of(&Term::iri("http://v/0")).unwrap();
        let v1 = g.vertex_of(&Term::iri("http://v/1")).unwrap();
        let mut map = HashMap::new();
        map.insert(v0, 0);
        map.insert(v1, 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        assert_eq!(dist.validate(), None);
        assert_eq!(dist.fragments[0].crossing_edges.len(), 1);
        assert_eq!(dist.fragments[1].crossing_edges.len(), 1);
        assert_eq!(dist.fragments[0].extended, vec![v1]);
        assert_eq!(dist.fragments[1].extended, vec![v0]);
        assert_eq!(dist.crossing_edges().len(), 1, "deduplicated view");
    }

    #[test]
    fn internal_edges_stay_in_one_fragment() {
        let g = chain_graph(4);
        let ids: Vec<VertexId> = (0..4)
            .map(|i| g.vertex_of(&Term::iri(format!("http://v/{i}"))).unwrap())
            .collect();
        let mut map = HashMap::new();
        map.insert(ids[0], 0);
        map.insert(ids[1], 0);
        map.insert(ids[2], 1);
        map.insert(ids[3], 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        assert_eq!(dist.validate(), None);
        assert_eq!(dist.fragments[0].internal_edges.len(), 1);
        assert_eq!(dist.fragments[1].internal_edges.len(), 1);
        assert_eq!(dist.fragments[0].crossing_edges.len(), 1);
    }

    #[test]
    fn fragment_adjacency_covers_crossing_edges() {
        let g = chain_graph(3);
        let ids: Vec<VertexId> = (0..3)
            .map(|i| g.vertex_of(&Term::iri(format!("http://v/{i}"))).unwrap())
            .collect();
        let mut map = HashMap::new();
        map.insert(ids[0], 0);
        map.insert(ids[1], 1);
        map.insert(ids[2], 0);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        let f1 = &dist.fragments[1];
        // v1 is internal to F1 and has one in-edge and one out-edge, both
        // crossing, both visible in the local adjacency.
        assert_eq!(f1.out_edges(ids[1]).len(), 1);
        assert_eq!(f1.in_edges(ids[1]).len(), 1);
        assert!(f1.is_crossing(&EdgeRef {
            from: ids[0],
            label: f1.out_edges(ids[1])[0].0,
            to: ids[1]
        }));
    }

    #[test]
    fn self_loops_are_always_internal() {
        let mut g = RdfGraph::new();
        g.insert(&Triple::new(
            Term::iri("http://v/a"),
            Term::iri("http://p"),
            Term::iri("http://v/a"),
        ));
        let dist = DistributedGraph::build(g, &HashPartitioner::new(4));
        assert_eq!(dist.validate(), None);
        let total_crossing: usize = dist.fragments.iter().map(|f| f.crossing_edges.len()).sum();
        assert_eq!(total_crossing, 0);
    }

    #[test]
    fn validate_catches_broken_assignment() {
        let g = chain_graph(3);
        let ids: Vec<VertexId> = (0..3)
            .map(|i| g.vertex_of(&Term::iri(format!("http://v/{i}"))).unwrap())
            .collect();
        let mut map = HashMap::new();
        map.insert(ids[0], 0);
        map.insert(ids[1], 0);
        map.insert(ids[2], 1);
        let dist = DistributedGraph::build(g, &ExplicitPartitioner::new(2, map));
        assert_eq!(dist.validate(), None);
        // Corrupt: claim an extra internal vertex in fragment 1.
        let mut broken = dist.clone();
        broken.fragments[1].internal.push(ids[0]);
        broken.fragments[1].internal.sort_unstable();
        assert!(broken.validate().is_some());
    }

    #[test]
    fn single_fragment_has_no_crossing_edges() {
        let g = chain_graph(6);
        let dist = DistributedGraph::build(g, &HashPartitioner::new(1));
        assert_eq!(dist.validate(), None);
        assert!(dist.fragments[0].crossing_edges.is_empty());
        assert_eq!(dist.fragments[0].internal_edges.len(), 5);
    }

    /// A graph with several predicates, classes and hub vertices so the
    /// per-fragment statistics have something to reconcile.
    fn stats_graph() -> RdfGraph {
        let mut triples = Vec::new();
        for i in 0..24usize {
            let p = format!("http://p/{}", i % 3);
            triples.push(Triple::new(
                Term::iri(format!("http://v/{i}")),
                Term::iri(&p),
                Term::iri(format!("http://v/{}", (i * 7 + 1) % 24)),
            ));
            triples.push(Triple::new(
                Term::iri("http://hub"),
                Term::iri(&p),
                Term::iri(format!("http://v/{i}")),
            ));
            if i % 4 == 0 {
                triples.push(Triple::new(
                    Term::iri(format!("http://v/{i}")),
                    Term::iri(gstored_rdf::vocab::rdf::TYPE),
                    Term::iri(format!("http://Class/{}", i % 2)),
                ));
            }
        }
        let mut g = RdfGraph::from_triples(triples);
        g.finalize();
        g
    }

    /// Per-site statistics must reconcile with the whole-graph counts
    /// under every partitioner: internal vertices partition `V`, each
    /// crossing edge is counted from exactly two sides, and the
    /// per-predicate and per-class sums add back up to the graph's own.
    #[test]
    fn fragment_stats_reconcile_with_whole_graph_under_all_partitioners() {
        let g = stats_graph();
        let partitioners: [(&str, Box<dyn Partitioner>); 3] = [
            ("hash", Box::new(HashPartitioner::new(3))),
            ("semantic", Box::new(SemanticHashPartitioner::new(3))),
            ("metis", Box::new(MetisLikePartitioner::new(3))),
        ];
        for (name, p) in partitioners {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            assert_eq!(dist.validate(), None, "{name}");
            let stats = dist.stats();
            assert_eq!(stats.sites.len(), dist.fragment_count(), "{name}");
            assert_eq!(stats.total_vertices, g.vertex_count(), "{name}: vertices");
            assert_eq!(
                stats.total_crossing_incidences % 2,
                0,
                "{name}: every crossing edge has two sides"
            );
            assert_eq!(
                stats.total_internal_edges + stats.total_crossing_incidences / 2,
                g.edge_count(),
                "{name}: edges"
            );
            assert_eq!(
                stats.total_crossing_incidences / 2,
                dist.crossing_edges().len(),
                "{name}: crossing dedup"
            );
            for p in g.predicates() {
                assert_eq!(
                    stats.internal_count(Some(p)) + stats.crossing_count(Some(p)) / 2,
                    g.edges_with_predicate(p).len(),
                    "{name}: predicate {p:?}"
                );
            }
            let mut classes: Vec<TermId> = g
                .class_map()
                .values()
                .flat_map(|cs| cs.iter().copied())
                .collect();
            classes.sort_unstable();
            classes.dedup();
            assert!(!classes.is_empty(), "fixture must exercise classes");
            for c in classes {
                let whole = g.class_map().values().filter(|cs| cs.contains(&c)).count();
                assert_eq!(stats.class_count(c), whole, "{name}: class {c:?}");
            }
            let histogram_total: usize = stats.sites.iter().map(|s| s.selectivity.total()).sum();
            assert_eq!(
                histogram_total,
                g.vertex_count(),
                "{name}: one histogram entry per internal vertex"
            );
        }
    }

    /// Every posting lists exactly the stored vertices its key selects,
    /// sorted and duplicate-free, under every partitioner; an absent key
    /// selects nothing.
    #[test]
    fn postings_list_exactly_the_vertices_their_key_selects() {
        let g = stats_graph();
        let partitioners: [Box<dyn Partitioner>; 3] = [
            Box::new(HashPartitioner::new(3)),
            Box::new(SemanticHashPartitioner::new(3)),
            Box::new(MetisLikePartitioner::new(3)),
        ];
        for p in partitioners {
            let dist = DistributedGraph::build(g.clone(), p.as_ref());
            for f in &dist.fragments {
                let mut stored = [f.internal.as_slice(), &f.extended].concat();
                stored.sort_unstable();
                let select = |keep: &dyn Fn(VertexId) -> bool| -> Vec<VertexId> {
                    stored.iter().copied().filter(|&v| keep(v)).collect()
                };
                for label in g.predicates() {
                    let has = |edges: &[(TermId, VertexId)]| edges.iter().any(|&(l, _)| l == label);
                    assert_eq!(
                        f.posting(PostingKey::Out(label)),
                        select(&|v| has(f.out_edges(v)))
                    );
                    assert_eq!(
                        f.posting(PostingKey::In(label)),
                        select(&|v| has(f.in_edges(v)))
                    );
                }
                let mut classes: Vec<TermId> = g
                    .class_map()
                    .values()
                    .flat_map(|cs| cs.iter().copied())
                    .collect();
                classes.sort_unstable();
                classes.dedup();
                for c in classes {
                    assert_eq!(
                        f.posting(PostingKey::Class(c)),
                        select(&|v| f.classes_of(v).contains(&c))
                    );
                }
                assert!(f.posting(PostingKey::Out(TermId(u64::MAX))).is_empty());
            }
        }
    }

    /// The statistics cache is lazy and shared across clones.
    #[test]
    fn stats_are_lazy_and_shared_by_clones() {
        let dist = DistributedGraph::build(stats_graph(), &HashPartitioner::new(2));
        assert!(!dist.stats_computed(), "nothing computed at build time");
        let clone = dist.clone();
        let _ = dist.stats();
        assert!(dist.stats_computed());
        assert!(
            clone.stats_computed(),
            "clones share the cache through the Arc"
        );
        assert_eq!(clone.stats(), dist.stats());
    }
}
