//! Wire encoding of everything the engine ships between sites and the
//! coordinator: the typed [`Request`]/[`Response`] envelopes of the
//! message-passing runtime, with the payload batches they carry (local
//! partial matches, LEC features, candidate bit vectors,
//! surviving-feature id sets, complete match bindings) written inside
//! them. Only envelopes cross the wire, so only envelopes have public
//! codecs.
//!
//! Every message has exactly one wire form: the shape its source
//! produces. An LPM binds both endpoints of every crossing edge
//! (Definition 5), a feature batch is one site's Algorithm 1 output (one
//! fragment, ids `first..first + n`), and a `DropPruned` verdict lists
//! its ids ascending. The encoders assert these contracts; the decoders
//! answer any other form with a typed error, never a panic.
//!
//! The two batches that dominate shipment carry only what the
//! coordinator cannot derive from the rest of the frame, and each
//! describes itself, so decoding needs neither the query nor the
//! replying site. An LPM batch ships its fragment and binding width
//! once and cuts its LPMs into runs of consecutive LPMs with one shape
//! (masks, crossing query edges and the binding entries holding their
//! endpoints): a run's header carries the shape and its shared labels,
//! and each LPM ships only its bound ids. It decodes straight into one
//! flat [`LpmBatch`]. A feature batch ships its `fragments` mask, its
//! first id and its constant labels (as a `qe → label` table) once per
//! frame. An `InstallQuery` ships what a site evaluates — vertices,
//! edges, class requirements and the projection — and no variable
//! names. `docs/protocol.md` has the bytes.
//!
//! Shipment numbers in the experiments are the byte lengths of the
//! encoded frames that actually cross the [`gstored_net::Transport`] —
//! real serialized sizes, matching how the paper measures "data
//! shipment" on its MPICH cluster. The coordinator charges each frame
//! exactly once, when it is sent or received; nothing is re-encoded just
//! to be measured.
//!
//! Since protocol v2 every per-query envelope carries a [`QueryId`], so
//! one worker connection can serve the frames of many in-flight queries
//! interleaved (see `docs/concurrency.md`); replies echo the id, which is
//! what lets the coordinator's reply router hand each frame to the right
//! pipeline. Query ids are encoded **fixed-width** so frame lengths — and
//! therefore the shipment metrics — never depend on how many queries a
//! session has already run.
//!
//! A [`Request::Chain`] carries several steps of one query in one frame
//! and is answered by one [`ResponseBody::Chain`] — what the engine sends
//! each site per pipeline phase; every step also stays valid as a frame
//! of its own (`docs/protocol.md` has the layouts).
//!
//! Envelope round trips are loss-free:
//!
//! ```
//! use gstored_core::protocol::{decode_request, encode_request, QueryId, Request};
//!
//! let req = Request::DropPruned { query: QueryId(7), useful: vec![3, 7, 42] };
//! let frame = encode_request(&req);
//! match decode_request(frame).unwrap() {
//!     Request::DropPruned { query, useful } => {
//!         assert_eq!(query, QueryId(7));
//!         assert_eq!(useful, vec![3, 7, 42]);
//!     }
//!     other => panic!("decoded the wrong request: {other:?}"),
//! }
//! ```

use std::collections::BTreeMap;

use bytes::Bytes;
use gstored_net::wire::{WireError, WireReader, WireWriter};
use gstored_partition::Fragment;
use gstored_rdf::{EdgeRef, TermId, VertexId};
use gstored_store::candidates::BitVectorFilter;
use gstored_store::{
    EncodedEdge, EncodedLabel, EncodedQuery, EncodedVertex, LpmBatch, LpmRow, RequiredClasses,
    MAX_QUERY_VERTICES,
};

use crate::lec::{LecFeature, MAX_SITES};

// --- payload batch helpers (written inside the envelopes) ---

/// Read and validate a wire-supplied element count before allocating:
/// `n` elements of at least `min_bytes` each must fit in the reader's
/// remaining bytes. This bounds every `Vec::with_capacity` in the
/// decoders, so a corrupt or hostile frame yields a decode error instead
/// of a huge allocation or capacity panic — a persistent worker must
/// survive bad frames.
fn read_batch_len(r: &mut WireReader, min_bytes: usize) -> Result<usize, WireError> {
    let n = r.usize()?;
    match n.checked_mul(min_bytes) {
        Some(total) if total <= r.remaining() => Ok(n),
        _ => Err(WireError("element count exceeds frame size")),
    }
}

/// Crossing entries an LPM batch may decode to, per byte of the frame
/// left after its header. A run's slots are written once and repeat in
/// every LPM of the run, so without this bound a small frame could claim
/// a decoded size quadratic in its length. A real LPM's crossing entries
/// each join two bound ids it ships, so it stays far below the bound.
const CROSSING_PER_BYTE: usize = 16;

/// The bound-vertex mask of a binding.
fn bound_mask(binding: &[Option<VertexId>]) -> u64 {
    binding
        .iter()
        .enumerate()
        .filter(|(_, b)| b.is_some())
        .fold(0, |mask, (v, _)| mask | 1 << v)
}

/// The binding entry a slot names for endpoint `id`: the first one
/// holding it.
fn endpoint_entry(binding: &[Option<VertexId>], id: VertexId) -> usize {
    binding
        .iter()
        .position(|&b| b == Some(id))
        .expect("Definition 5: an LPM binds both endpoints of every crossing edge")
}

/// A row's run shape beyond its masks: per crossing entry its query edge
/// and the binding entries of its endpoints, written to `out`.
fn slot_refs(row: LpmRow<'_>, out: &mut Vec<(usize, usize, usize)>) {
    out.clear();
    out.extend(row.crossing.iter().map(|&(e, qe)| {
        (
            qe,
            endpoint_entry(row.binding, e.from),
            endpoint_entry(row.binding, e.to),
        )
    }));
}

/// An LPM batch as runs of consecutive LPMs with one shape — internal
/// mask, bound-vertex mask, and per crossing entry the query edge and
/// the binding entries of its endpoints. A run's header carries the
/// shape and each slot's label when the whole run shares it; each LPM
/// then ships only its bound ids and the labels that vary. An empty
/// batch is its run count alone, and decodes as `LpmBatch::default()`.
fn write_lpms(w: &mut WireWriter, batch: &LpmBatch) {
    let width = batch.width();
    assert!(
        width <= MAX_QUERY_VERTICES,
        "an LPM binds at most MAX_QUERY_VERTICES vertices"
    );
    let mut runs = Vec::new();
    let (mut head, mut refs) = (Vec::new(), Vec::new());
    let mut head_masks = (0, 0);
    for (i, row) in batch.rows().enumerate() {
        slot_refs(row, &mut refs);
        let masks = (row.internal_mask, bound_mask(row.binding));
        assert!(masks.1 != 0, "Definition 5: an LPM binds a vertex");
        if i == 0 || masks != head_masks || refs != head {
            runs.push(i);
            std::mem::swap(&mut head, &mut refs);
            head_masks = masks;
        }
    }
    runs.push(batch.len());
    w.usize(runs.len() - 1);
    if batch.is_empty() {
        return;
    }
    w.usize(batch.fragment()).usize(width);
    for run in runs.windows(2) {
        let first = batch.row(run[0]);
        slot_refs(first, &mut head);
        let bound = bound_mask(first.binding);
        let label = |j: usize| {
            let l = first.crossing[j].0.label;
            (run[0]..run[1])
                .all(|i| batch.row(i).crossing[j].0.label == l)
                .then_some(l)
        };
        let labels: Vec<Option<TermId>> = (0..head.len()).map(label).collect();
        w.u64(first.internal_mask).u64(bound).usize(head.len());
        for (&(qe, from, to), l) in head.iter().zip(&labels) {
            w.usize(qe).usize(from).usize(to).opt_u64(l.map(|l| l.0));
        }
        w.usize(run[1] - run[0]);
        for i in run[0]..run[1] {
            let row = batch.row(i);
            for id in row.binding.iter().flatten() {
                w.u64(id.0);
            }
            for (&(e, _), l) in row.crossing.iter().zip(&labels) {
                if l.is_none() {
                    w.u64(e.label.0);
                }
            }
        }
    }
}

/// One slot of a run header, decoded: endpoints as binding indices, the
/// label when the run shares it.
struct Slot {
    qe: usize,
    from: usize,
    to: usize,
    label: Option<TermId>,
}

/// A slot endpoint: a binding entry the run's bound-vertex mask holds.
fn read_endpoint(r: &mut WireReader, bound: u64) -> Result<usize, WireError> {
    match r.usize()? {
        k if k < 64 && bound & 1 << k != 0 => Ok(k),
        _ => Err(WireError("slot endpoint names an unbound vertex")),
    }
}

/// Decode [`write_lpms`]' runs straight into one [`LpmBatch`]'s arenas.
fn read_lpms(r: &mut WireReader) -> Result<LpmBatch, WireError> {
    // A run header is at least its two masks, slot count and length.
    let runs = read_batch_len(r, 4)?;
    if runs == 0 {
        return Ok(LpmBatch::default());
    }
    let fragment = r.usize()?;
    let width = r.usize()?;
    if width > MAX_QUERY_VERTICES {
        return Err(WireError("LPM binding wider than MAX_QUERY_VERTICES"));
    }
    let mut crossing_budget = r.remaining().saturating_mul(CROSSING_PER_BYTE);
    let (mut bindings, mut crossing) = (Vec::new(), Vec::new());
    let (mut ends, mut internal_masks) = (Vec::new(), Vec::new());
    let mut slots = Vec::new();
    for _ in 0..runs {
        let internal_mask = r.u64()?;
        let bound = r.u64()?;
        if bound == 0 {
            return Err(WireError("an LPM binds no vertex"));
        }
        if bound >> width != 0 {
            return Err(WireError("bound vertex beyond the binding"));
        }
        let n_slots = read_batch_len(r, 4)?;
        slots.clear();
        let mut per_lpm = bound.count_ones() as usize;
        for _ in 0..n_slots {
            let slot = Slot {
                qe: r.usize()?,
                from: read_endpoint(r, bound)?,
                to: read_endpoint(r, bound)?,
                label: r.opt_u64()?.map(TermId),
            };
            per_lpm += usize::from(slot.label.is_none());
            slots.push(slot);
        }
        let len = read_batch_len(r, per_lpm)?;
        if len == 0 {
            return Err(WireError("empty LPM run"));
        }
        crossing_budget = len
            .checked_mul(n_slots)
            .and_then(|n| crossing_budget.checked_sub(n))
            .ok_or(WireError(
                "LPM runs decode to more crossing entries than the frame holds",
            ))?;
        bindings.reserve(len * width);
        crossing.reserve(len * n_slots);
        for _ in 0..len {
            let base = bindings.len();
            bindings.resize(base + width, None);
            let mut bits = bound;
            while bits != 0 {
                bindings[base + bits.trailing_zeros() as usize] = Some(TermId(r.u64()?));
                bits &= bits - 1;
            }
            let endpoint = |v: usize| bindings[base + v].expect("checked bound");
            for slot in &slots {
                let label = match slot.label {
                    Some(l) => l,
                    None => TermId(r.u64()?),
                };
                let edge = EdgeRef {
                    from: endpoint(slot.from),
                    label,
                    to: endpoint(slot.to),
                };
                crossing.push((edge, slot.qe));
            }
            ends.push(crossing.len());
            internal_masks.push(internal_mask);
        }
    }
    Ok(LpmBatch::from_parts(
        fragment,
        width,
        bindings,
        crossing,
        ends,
        internal_masks,
    ))
}

/// A feature batch — one site's Algorithm 1 output: the count, then —
/// unless it is 0 — the `fragments` mask every feature shares, the first
/// feature's id (feature *i* has the one id `first + i`), and a
/// `qe → label` table of every query edge whose mapped edges all carry
/// one label in this frame (a constant predicate, so those labels ship
/// once). Then per feature its mapping entries as `qe, from, to`, plus
/// the label when the table lacks `qe`, and its sign.
fn write_features(w: &mut WireWriter, features: &[LecFeature]) {
    w.usize(features.len());
    let Some(head) = features.first() else {
        return;
    };
    let first = u64::from(head.sources.first().copied().unwrap_or_default());
    for (i, f) in features.iter().enumerate() {
        assert_eq!(
            f.fragments, head.fragments,
            "Algorithm 1: one site's features come from one fragment"
        );
        assert!(
            f.sources.len() == 1 && u64::from(f.sources[0]) == first + i as u64,
            "Algorithm 1 numbers a site's features first_id + i"
        );
    }
    // `None` marks a query edge whose label varies.
    let mut labels: BTreeMap<usize, Option<TermId>> = BTreeMap::new();
    for &(e, qe) in features.iter().flat_map(|f| &f.mapping) {
        labels
            .entry(qe)
            .and_modify(|l| *l = l.filter(|&l| l == e.label))
            .or_insert(Some(e.label));
    }
    w.u64(head.fragments).u64(first);
    w.usize(labels.values().flatten().count());
    for (&qe, l) in &labels {
        if let Some(l) = l {
            w.usize(qe).u64(l.0);
        }
    }
    for f in features {
        w.usize(f.mapping.len());
        for &(e, qe) in &f.mapping {
            w.usize(qe).u64(e.from.0).u64(e.to.0);
            if labels[&qe].is_none() {
                w.u64(e.label.0);
            }
        }
        w.u64(f.sign);
    }
}

fn read_features(r: &mut WireReader) -> Result<Vec<LecFeature>, WireError> {
    // A feature is at least its mapping count and sign.
    let n = read_batch_len(r, 2)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let fragments = r.u64()?;
    let first = r.u64()?;
    let last = first.checked_add(n as u64 - 1);
    if last.is_none_or(|last| last > u64::from(u32::MAX)) {
        return Err(WireError("feature ids leave the u32 range"));
    }
    let k = read_batch_len(r, 2)?;
    let mut labels: Vec<(usize, TermId)> = Vec::with_capacity(k);
    for _ in 0..k {
        let qe = r.usize()?;
        if labels.last().is_some_and(|&(prev, _)| prev >= qe) {
            return Err(WireError("label table query edges must ascend"));
        }
        labels.push((qe, TermId(r.u64()?)));
    }
    let mut out = Vec::with_capacity(n);
    for id in first..first + n as u64 {
        let mn = read_batch_len(r, 3)?;
        let mut mapping = Vec::with_capacity(mn);
        for _ in 0..mn {
            let qe = r.usize()?;
            let from = TermId(r.u64()?);
            let to = TermId(r.u64()?);
            let label = match labels.binary_search_by_key(&qe, |&(qe, _)| qe) {
                Ok(at) => labels[at].1,
                Err(_) => TermId(r.u64()?),
            };
            mapping.push((EdgeRef { from, label, to }, qe));
        }
        out.push(LecFeature {
            fragments,
            mapping,
            sign: r.u64()?,
            sources: vec![id as u32],
        });
    }
    Ok(out)
}

/// The most candidate-vector bits one frame may carry, summed over its
/// vectors (8 MiB once decoded). The sparse encoding makes a vector's
/// in-memory size independent of its wire size, so the decoders charge
/// every vector's declared width against this budget *before*
/// allocating; `ComputeCandidates { bits }` is held to it too, since the
/// worker allocates what it names. 1024 variables' worth of the default
/// 64 Ki-bit vectors — far beyond the 64-vertex query limit.
pub const MAX_CANDIDATE_BITS: usize = 1 << 26;

/// Whether `count` candidate vectors of `bits` bits each (at least 64,
/// as [`BitVectorFilter::new`] rounds) fit one frame's budget.
pub fn candidate_vectors_fit(bits: usize, count: usize) -> bool {
    bits.max(64).saturating_mul(count) <= MAX_CANDIDATE_BITS
}

/// Bytes `v` occupies as a LEB128 varint.
fn varint_len(v: usize) -> usize {
    (usize::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// The set-bit positions of `bv`, ascending.
fn set_bits(bv: &BitVectorFilter) -> impl Iterator<Item = usize> + '_ {
    bv.words().iter().enumerate().flat_map(|(i, &word)| {
        std::iter::successors((word != 0).then_some(word), |w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| i * 64 + w.trailing_zeros() as usize)
    })
}

/// One candidate bit vector: `n_bits`, a one-byte form tag, then either
/// the dense fixed-width words (Section VI's fixed length — the upper
/// bound) or, when strictly smaller, the sparse form: the count of set
/// bits followed by their ascending positions, delta-encoded as varints.
/// Selective queries set a handful of bits per 8 KiB vector, so the
/// sparse form is what usually ships.
fn write_bit_vector(w: &mut WireWriter, bv: &BitVectorFilter) {
    w.usize(bv.n_bits());
    let dense_len = bv.wire_size();
    let ones: usize = bv.words().iter().map(|w| w.count_ones() as usize).sum();
    let mut sparse_len = varint_len(ones);
    let mut prev = 0;
    for pos in set_bits(bv) {
        if sparse_len >= dense_len {
            break;
        }
        sparse_len += varint_len(pos - prev);
        prev = pos;
    }
    let sparse = sparse_len < dense_len;
    w.bool(sparse);
    if sparse {
        w.usize(ones);
        let mut prev = 0;
        for pos in set_bits(bv) {
            w.usize(pos - prev);
            prev = pos;
        }
    } else {
        for &word in bv.words() {
            w.u64_fixed(word);
        }
    }
}

/// Charge `n_bits` candidate bits to `budget`, the frame's remaining
/// share of [`MAX_CANDIDATE_BITS`].
fn charge_bits(budget: &mut usize, n_bits: usize) -> Result<(), WireError> {
    *budget = budget
        .checked_sub(n_bits.max(64))
        .ok_or(WireError("candidate vectors exceed MAX_CANDIDATE_BITS"))?;
    Ok(())
}

/// Decode one bit vector, charging its declared width to `budget` before
/// allocating.
fn read_bit_vector(r: &mut WireReader, budget: &mut usize) -> Result<BitVectorFilter, WireError> {
    let n_bits = r.usize()?.max(64);
    charge_bits(budget, n_bits)?;
    let mut words = vec![0u64; n_bits.div_ceil(64)];
    if r.bool()? {
        let ones = read_batch_len(r, 1)?;
        let mut pos = 0usize;
        for i in 0..ones {
            let delta = r.usize()?;
            if i > 0 && delta == 0 {
                return Err(WireError("bit positions must ascend"));
            }
            pos = pos
                .checked_add(delta)
                .filter(|&p| p < n_bits)
                .ok_or(WireError("bit position beyond the vector"))?;
            words[pos / 64] |= 1 << (pos % 64);
        }
    } else {
        if words.len() * 8 > r.remaining() {
            return Err(WireError("element count exceeds frame size"));
        }
        for word in &mut words {
            *word = r.u64_fixed()?;
        }
        // Bits past `n_bits` would re-encode as out-of-range positions.
        let tail = n_bits % 64;
        if tail != 0 && words[words.len() - 1] >> tail != 0 {
            return Err(WireError("bit position beyond the vector"));
        }
    }
    Ok(BitVectorFilter::from_words(words, n_bits))
}

fn write_bindings(w: &mut WireWriter, bindings: &[Vec<VertexId>]) {
    w.usize(bindings.len());
    for b in bindings {
        w.usize(b.len());
        for v in b {
            w.u64(v.0);
        }
    }
}

fn read_bindings(r: &mut WireReader) -> Result<Vec<Vec<VertexId>>, WireError> {
    let n = read_batch_len(r, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let m = read_batch_len(r, 1)?;
        let mut b = Vec::with_capacity(m);
        for _ in 0..m {
            b.push(TermId(r.u64()?));
        }
        out.push(b);
    }
    Ok(out)
}

fn write_edge(w: &mut WireWriter, e: &EdgeRef) {
    w.u64(e.from.0).u64(e.label.0).u64(e.to.0);
}

fn read_edge(r: &mut WireReader) -> Result<EdgeRef, WireError> {
    Ok(EdgeRef {
        from: TermId(r.u64()?),
        label: TermId(r.u64()?),
        to: TermId(r.u64()?),
    })
}

fn write_fragment(w: &mut WireWriter, f: &Fragment) {
    w.usize(f.id);
    w.usize(f.internal.len());
    for &v in &f.internal {
        w.u64(v.0);
    }
    w.usize(f.extended.len());
    for &v in &f.extended {
        w.u64(v.0);
    }
    w.usize(f.internal_edges.len());
    for e in &f.internal_edges {
        write_edge(w, e);
    }
    w.usize(f.crossing_edges.len());
    for e in &f.crossing_edges {
        write_edge(w, e);
    }
    let classes = f.class_entries();
    w.usize(classes.len());
    for (v, cs) in classes {
        w.u64(v.0);
        w.usize(cs.len());
        for c in cs {
            w.u64(c.0);
        }
    }
}

fn read_fragment(r: &mut WireReader) -> Result<Fragment, WireError> {
    let id = r.usize()?;
    if id >= MAX_SITES {
        return Err(WireError("fragment id exceeds MAX_SITES"));
    }
    let n = read_batch_len(r, 1)?;
    let mut internal = Vec::with_capacity(n);
    for _ in 0..n {
        internal.push(TermId(r.u64()?));
    }
    let n = read_batch_len(r, 1)?;
    let mut extended = Vec::with_capacity(n);
    for _ in 0..n {
        extended.push(TermId(r.u64()?));
    }
    let n = read_batch_len(r, 3)?;
    let mut internal_edges = Vec::with_capacity(n);
    for _ in 0..n {
        internal_edges.push(read_edge(r)?);
    }
    let n = read_batch_len(r, 3)?;
    let mut crossing_edges = Vec::with_capacity(n);
    for _ in 0..n {
        crossing_edges.push(read_edge(r)?);
    }
    let n = read_batch_len(r, 2)?;
    let mut classes = Vec::with_capacity(n);
    for _ in 0..n {
        let v = TermId(r.u64()?);
        let m = read_batch_len(r, 1)?;
        let mut cs = Vec::with_capacity(m);
        for _ in 0..m {
            cs.push(TermId(r.u64()?));
        }
        classes.push((v, cs));
    }
    Ok(Fragment::from_parts(
        id,
        internal,
        extended,
        internal_edges,
        crossing_edges,
        classes,
    ))
}

const VERTEX_VAR: u64 = 0;
const VERTEX_CONST: u64 = 1;
const VERTEX_UNSAT: u64 = 2;

fn write_query(w: &mut WireWriter, q: &EncodedQuery) {
    w.usize(q.vertex_count());
    for v in q.vertices() {
        match v {
            EncodedVertex::Var => {
                w.u64(VERTEX_VAR);
            }
            EncodedVertex::Const(id) => {
                w.u64(VERTEX_CONST).u64(id.0);
            }
            EncodedVertex::Unsatisfiable => {
                w.u64(VERTEX_UNSAT);
            }
        }
    }
    w.usize(q.edge_count());
    for e in q.edges() {
        w.usize(e.from).usize(e.to);
        match e.label {
            EncodedLabel::Any => {
                w.u64(VERTEX_VAR);
            }
            EncodedLabel::Const(id) => {
                w.u64(VERTEX_CONST).u64(id.0);
            }
            EncodedLabel::Unsatisfiable => {
                w.u64(VERTEX_UNSAT);
            }
        }
    }
    for v in 0..q.vertex_count() {
        match q.required_classes(v).ids() {
            Some(ids) => {
                w.bool(true);
                w.usize(ids.len());
                for c in ids {
                    w.u64(c.0);
                }
            }
            None => {
                w.bool(false);
            }
        }
    }
    w.usize(q.projection().len());
    for &p in q.projection() {
        w.usize(p);
    }
}

fn read_query(r: &mut WireReader) -> Result<EncodedQuery, WireError> {
    let n = read_batch_len(r, 1)?;
    if n > MAX_QUERY_VERTICES {
        return Err(WireError("query exceeds MAX_QUERY_VERTICES"));
    }
    let mut vertices = Vec::with_capacity(n);
    for _ in 0..n {
        vertices.push(match r.u64()? {
            VERTEX_VAR => EncodedVertex::Var,
            VERTEX_CONST => EncodedVertex::Const(TermId(r.u64()?)),
            VERTEX_UNSAT => EncodedVertex::Unsatisfiable,
            _ => return Err(WireError("invalid vertex tag")),
        });
    }
    let m = read_batch_len(r, 3)?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let from = r.usize()?;
        let to = r.usize()?;
        if from >= n || to >= n {
            return Err(WireError("edge endpoint out of range"));
        }
        let label = match r.u64()? {
            VERTEX_VAR => EncodedLabel::Any,
            VERTEX_CONST => EncodedLabel::Const(TermId(r.u64()?)),
            VERTEX_UNSAT => EncodedLabel::Unsatisfiable,
            _ => return Err(WireError("invalid label tag")),
        };
        edges.push(EncodedEdge { from, to, label });
    }
    let mut required = Vec::with_capacity(n);
    for _ in 0..n {
        if r.bool()? {
            let k = read_batch_len(r, 1)?;
            let mut ids = Vec::with_capacity(k);
            for _ in 0..k {
                ids.push(TermId(r.u64()?));
            }
            required.push(RequiredClasses::Resolved(ids));
        } else {
            required.push(RequiredClasses::Unsatisfiable);
        }
    }
    let k = read_batch_len(r, 1)?;
    let mut projection = Vec::with_capacity(k);
    for _ in 0..k {
        let p = r.usize()?;
        if p >= n {
            return Err(WireError("projection vertex out of range"));
        }
        projection.push(p);
    }
    Ok(EncodedQuery::from_parts(
        vertices, edges, required, projection,
    ))
}

// --- request/response envelopes ---

/// Identifies one in-flight query on a worker connection.
///
/// The coordinator allocates a fresh id per execution (see
/// `gstored_core::runtime::QueryExecutor`); every per-query request names
/// the query it belongs to and every reply echoes the id of the request
/// it answers, so frames of different queries can interleave on one
/// connection without ambiguity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The reserved id stamped on replies to non-per-query requests
    /// (`InstallFragment`) and on error replies to frames too malformed
    /// to name a query. Never allocated to a real query.
    pub const CONTROL: QueryId = QueryId(u32::MAX);
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == QueryId::CONTROL {
            write!(f, "control")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A snapshot of one site worker's resource state, answered to
/// [`Request::WorkerStatus`]. This is the observability hook behind the
/// no-leak tests: after a query completes, `resident_queries` and
/// `resident_lpms` must drop back to what they were before it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStatus {
    /// Queries currently resident in the worker's state table.
    pub resident_queries: u64,
    /// Local partial matches currently held across all resident queries.
    pub resident_lpms: u64,
    /// The state-table capacity; installing beyond it evicts the least
    /// recently used query.
    pub capacity: u64,
    /// Queries evicted by the capacity cap since the worker started.
    pub evictions: u64,
}

const REQ_INSTALL_FRAGMENT: u64 = 1;
const REQ_INSTALL_QUERY: u64 = 2;
const REQ_STAR_MATCHES: u64 = 3;
const REQ_COMPUTE_CANDIDATES: u64 = 4;
const REQ_SET_CANDIDATE_FILTER: u64 = 5;
const REQ_PARTIAL_EVAL: u64 = 6;
const REQ_COMPUTE_LEC_FEATURES: u64 = 7;
const REQ_DROP_PRUNED: u64 = 8;
const REQ_SHIP_SURVIVORS: u64 = 9;
const REQ_SHUTDOWN: u64 = 10;
const REQ_RELEASE_QUERY: u64 = 11;
const REQ_WORKER_STATUS: u64 = 12;
const REQ_SHIP_SURVIVORS_CHUNK: u64 = 13;
// Tag 14 is retired (it was a second name for `ReleaseQuery`); a frame
// carrying it is an invalid request.
const REQ_CHAIN: u64 = 15;

/// A coordinator → worker message: one step of the engine's four-stage
/// pipeline (or of worker setup), or a [`Request::Chain`] of steps. Every
/// value maps to one frame on the transport. Per-query variants name the
/// query they belong to, so one connection can carry many in-flight
/// queries' frames interleaved.
#[derive(Debug, Clone)]
pub enum Request {
    /// Install the worker's graph fragment (deployment-time data loading;
    /// the only frame not charged as query data shipment).
    InstallFragment(Box<Fragment>),
    /// Install the encoded query under `query`, creating a fresh state
    /// slot in the worker's table. Installing an id that is already
    /// resident is an error — a retransmission must never clobber an
    /// in-flight query's LPMs.
    InstallQuery {
        /// The query id the state slot is created under.
        query: QueryId,
        /// The dictionary-encoded query.
        encoded: Box<EncodedQuery>,
    },
    /// Star fast path (Section VIII-B): evaluate the whole star locally
    /// around internal bindings of `center`; answer with `Bindings`.
    StarMatches {
        /// The query being evaluated.
        query: QueryId,
        /// Query vertex id of the star's center.
        center: usize,
    },
    /// Algorithm 4 site side: hash each variable's internal candidates
    /// into a fixed-length bit vector; answer with `BitVectors`.
    ComputeCandidates {
        /// The query being evaluated.
        query: QueryId,
        /// Bits per candidate bit vector.
        bits: usize,
    },
    /// Algorithm 4 broadcast: adopt the coordinator's unioned bit vectors
    /// as the extended-binding filter for LPM enumeration.
    SetCandidateFilter {
        /// The query being evaluated.
        query: QueryId,
        /// `(query vertex, unioned bit vector)` pairs, one per variable.
        vectors: Vec<(usize, BitVectorFilter)>,
    },
    /// Partial evaluation (Definition 5): find local complete matches and
    /// enumerate LPMs, which stay at the site; answer with `PartialEval`.
    PartialEval {
        /// The query being evaluated.
        query: QueryId,
    },
    /// Algorithm 1: compress the site's LPMs into LEC features with
    /// global ids starting at `first_id`; answer with `Features`.
    ComputeLecFeatures {
        /// The query being evaluated.
        query: QueryId,
        /// First global feature id assigned to this site.
        first_id: u32,
    },
    /// Algorithm 2 epilogue: keep only LPMs whose feature contributed to
    /// a surviving combination.
    DropPruned {
        /// The query being evaluated.
        query: QueryId,
        /// Global ids of the surviving original features, strictly
        /// ascending. The engine sends each site only the ids in its own
        /// range (`first_id` onwards); a worker ignores ids it does not
        /// own.
        useful: Vec<u32>,
    },
    /// Ship every surviving LPM in one `Survivors` reply, leaving the
    /// slot resident. The engine no longer sends it (survivors ship as
    /// [`Request::ShipSurvivorsChunk`]); workers still answer it because
    /// the standalone benchmark's traced pass replays it.
    ShipSurvivors {
        /// The query being evaluated.
        query: QueryId,
    },
    /// Assembly: ship the next batch of at most `max` surviving LPMs from
    /// the site's ship cursor; answer with `SurvivorsChunk`. `seq` must
    /// equal the site's next expected chunk sequence number (starting at
    /// 0) or the worker answers with a typed `Error` — a reordered or
    /// replayed chunk request must never silently skip or duplicate
    /// survivors. The reply that exhausts the cursor (`last`) also drops
    /// the query's slot, as `ReleaseQuery` would.
    ShipSurvivorsChunk {
        /// The query being evaluated.
        query: QueryId,
        /// Expected chunk sequence number (0-based, echoed in the reply).
        seq: u64,
        /// Maximum number of LPMs in the reply (`usize::MAX` = all).
        max: usize,
    },
    /// Drop the query's state slot (LPMs, features, filter). Idempotent:
    /// releasing an unknown or already-evicted id is still an `Ack`, so
    /// neither a star chain's closing step, an abandoned stream's cancel
    /// nor an error path's cleanup ever fails.
    ReleaseQuery {
        /// The query to release.
        query: QueryId,
    },
    /// Observability probe: answer with `Status` (state-table occupancy,
    /// resident LPMs, capacity, evictions). Touches no query state; the
    /// id is echoed purely so the reply routes back to the prober.
    WorkerStatus {
        /// Correlation id for the reply (not a resident query).
        query: QueryId,
    },
    /// Several steps of one query's pipeline in one frame — what the
    /// engine sends a site per phase. The worker runs the steps in order
    /// and stops at the first `Error`/`UnknownQuery` reply (later steps
    /// do not run, so a failed `InstallQuery` can never let the next step
    /// touch another query's slot); it answers with one
    /// [`ResponseBody::Chain`] holding a reply per step that ran.
    Chain {
        /// The query every step belongs to.
        query: QueryId,
        /// The steps: any per-query request of `query` except another
        /// `Chain`. At least one.
        steps: Vec<Request>,
    },
    /// Stop the worker's serve loop (no reply is sent).
    Shutdown,
}

impl Request {
    /// The query id a reply to this request must echo:
    /// the named query for per-query requests, [`QueryId::CONTROL`] for
    /// `InstallFragment`/`Shutdown`.
    pub fn query_id(&self) -> QueryId {
        match self {
            Request::InstallFragment(_) | Request::Shutdown => QueryId::CONTROL,
            Request::InstallQuery { query, .. }
            | Request::StarMatches { query, .. }
            | Request::ComputeCandidates { query, .. }
            | Request::SetCandidateFilter { query, .. }
            | Request::PartialEval { query }
            | Request::ComputeLecFeatures { query, .. }
            | Request::DropPruned { query, .. }
            | Request::ShipSurvivors { query }
            | Request::ShipSurvivorsChunk { query, .. }
            | Request::ReleaseQuery { query }
            | Request::WorkerStatus { query }
            | Request::Chain { query, .. } => *query,
        }
    }
}

/// Encode a request envelope into one frame. Per-query requests lead
/// with `tag, query id (fixed-width u32)` so a router can address the
/// frame without decoding the payload.
pub fn encode_request(req: &Request) -> Bytes {
    match req {
        Request::InstallFragment(f) => encode_install_fragment(f),
        Request::InstallQuery { query, encoded } => encode_install_query(*query, encoded),
        Request::StarMatches { query, center } => {
            let mut w = WireWriter::new();
            w.u64(REQ_STAR_MATCHES).u32_fixed(query.0).usize(*center);
            w.finish()
        }
        Request::ComputeCandidates { query, bits } => {
            let mut w = WireWriter::new();
            w.u64(REQ_COMPUTE_CANDIDATES)
                .u32_fixed(query.0)
                .usize(*bits);
            w.finish()
        }
        Request::SetCandidateFilter { query, vectors } => {
            let mut w = WireWriter::new();
            w.u64(REQ_SET_CANDIDATE_FILTER)
                .u32_fixed(query.0)
                .usize(vectors.len());
            for (v, bv) in vectors {
                w.usize(*v);
                write_bit_vector(&mut w, bv);
            }
            w.finish()
        }
        Request::PartialEval { query } => {
            let mut w = WireWriter::new();
            w.u64(REQ_PARTIAL_EVAL).u32_fixed(query.0);
            w.finish()
        }
        Request::ComputeLecFeatures { query, first_id } => {
            let mut w = WireWriter::new();
            w.u64(REQ_COMPUTE_LEC_FEATURES)
                .u32_fixed(query.0)
                .u64(u64::from(*first_id));
            w.finish()
        }
        Request::DropPruned { query, useful } => {
            let mut w = WireWriter::new();
            w.u64(REQ_DROP_PRUNED)
                .u32_fixed(query.0)
                .usize(useful.len());
            // Each id ships as its step from the one before (the first
            // from 0), so consecutive ids cost a byte each.
            let mut prev = 0;
            for (i, &id) in useful.iter().enumerate() {
                assert!(
                    i == 0 || id > prev,
                    "a DropPruned verdict lists its ids ascending, each once"
                );
                w.u64(u64::from(id - prev));
                prev = id;
            }
            w.finish()
        }
        Request::ShipSurvivors { query } => {
            let mut w = WireWriter::new();
            w.u64(REQ_SHIP_SURVIVORS).u32_fixed(query.0);
            w.finish()
        }
        Request::ShipSurvivorsChunk { query, seq, max } => {
            let mut w = WireWriter::new();
            w.u64(REQ_SHIP_SURVIVORS_CHUNK)
                .u32_fixed(query.0)
                .u64(*seq)
                .usize(*max);
            w.finish()
        }
        Request::ReleaseQuery { query } => {
            let mut w = WireWriter::new();
            w.u64(REQ_RELEASE_QUERY).u32_fixed(query.0);
            w.finish()
        }
        Request::WorkerStatus { query } => {
            let mut w = WireWriter::new();
            w.u64(REQ_WORKER_STATUS).u32_fixed(query.0);
            w.finish()
        }
        Request::Chain { query, steps } => {
            let frames: Vec<Bytes> = steps.iter().map(encode_request).collect();
            encode_chain(*query, &frames)
        }
        Request::Shutdown => {
            let mut w = WireWriter::new();
            w.u64(REQ_SHUTDOWN);
            w.finish()
        }
    }
}

/// Encode a [`Request::Chain`] frame from its steps' already-encoded
/// frames, each length-prefixed (the engine encodes a step once and
/// shares it across every site's chain).
pub fn encode_chain(query: QueryId, steps: &[Bytes]) -> Bytes {
    let payload: usize = steps.iter().map(|s| s.len() + 4).sum();
    let mut w = WireWriter::with_capacity(16 + payload);
    w.u64(REQ_CHAIN).u32_fixed(query.0).usize(steps.len());
    for step in steps {
        w.bytes(step);
    }
    w.finish()
}

/// Encode an [`Request::InstallFragment`] frame straight from a borrowed
/// fragment (avoids cloning it into the enum on the hot setup path).
pub fn encode_install_fragment(fragment: &Fragment) -> Bytes {
    let mut w = WireWriter::with_capacity(64 + fragment.edge_size() * 12);
    w.u64(REQ_INSTALL_FRAGMENT);
    write_fragment(&mut w, fragment);
    w.finish()
}

/// Encode an [`Request::InstallQuery`] frame straight from a borrowed
/// encoded query.
pub fn encode_install_query(id: QueryId, query: &EncodedQuery) -> Bytes {
    let mut w = WireWriter::with_capacity(64 + query.edge_count() * 8);
    w.u64(REQ_INSTALL_QUERY).u32_fixed(id.0);
    write_query(&mut w, query);
    w.finish()
}

/// Decode a request envelope.
pub fn decode_request(bytes: Bytes) -> Result<Request, WireError> {
    decode_request_in(bytes, None, &mut { MAX_CANDIDATE_BITS })
}

/// Decode a request that is either a whole frame (`chain` is `None`) or
/// a step of `chain`'s [`Request::Chain`]. A step must be a per-query
/// request of that same query and not itself a chain — checked on the
/// tag, before the payload is touched, so nesting cannot recurse. The
/// steps of a chain are all held decoded at once, so they draw on the one
/// frame-wide `budget` of candidate bits.
fn decode_request_in(
    bytes: Bytes,
    chain: Option<QueryId>,
    budget: &mut usize,
) -> Result<Request, WireError> {
    let mut r = WireReader::new(bytes);
    let tag = r.u64()?;
    if chain.is_some() && matches!(tag, REQ_INSTALL_FRAGMENT | REQ_SHUTDOWN | REQ_CHAIN) {
        return Err(WireError("request cannot be a chain step"));
    }
    // Every per-query request carries its id right after the tag.
    let qid = match tag {
        REQ_INSTALL_FRAGMENT | REQ_SHUTDOWN => QueryId::CONTROL,
        _ => QueryId(r.u32_fixed()?),
    };
    if chain.is_some_and(|outer| outer != qid) {
        return Err(WireError("chain step names another query"));
    }
    let req = match tag {
        REQ_INSTALL_FRAGMENT => Request::InstallFragment(Box::new(read_fragment(&mut r)?)),
        REQ_INSTALL_QUERY => Request::InstallQuery {
            query: qid,
            encoded: Box::new(read_query(&mut r)?),
        },
        REQ_STAR_MATCHES => Request::StarMatches {
            query: qid,
            center: r.usize()?,
        },
        REQ_COMPUTE_CANDIDATES => {
            let bits = r.usize()?;
            charge_bits(budget, bits)?;
            Request::ComputeCandidates { query: qid, bits }
        }
        REQ_SET_CANDIDATE_FILTER => {
            let n = read_batch_len(&mut r, 4)?;
            let mut vectors = Vec::with_capacity(n);
            for _ in 0..n {
                let v = r.usize()?;
                vectors.push((v, read_bit_vector(&mut r, budget)?));
            }
            Request::SetCandidateFilter {
                query: qid,
                vectors,
            }
        }
        REQ_PARTIAL_EVAL => Request::PartialEval { query: qid },
        REQ_COMPUTE_LEC_FEATURES => Request::ComputeLecFeatures {
            query: qid,
            first_id: r.u64()? as u32,
        },
        REQ_DROP_PRUNED => {
            let n = read_batch_len(&mut r, 1)?;
            let mut useful = Vec::with_capacity(n);
            let mut prev = 0u64;
            for i in 0..n {
                let step = r.u64()?;
                if i > 0 && step == 0 {
                    return Err(WireError("feature ids must ascend"));
                }
                prev = prev
                    .checked_add(step)
                    .filter(|&id| id <= u64::from(u32::MAX))
                    .ok_or(WireError("feature id beyond the u32 range"))?;
                useful.push(prev as u32);
            }
            Request::DropPruned { query: qid, useful }
        }
        REQ_SHIP_SURVIVORS => Request::ShipSurvivors { query: qid },
        REQ_SHIP_SURVIVORS_CHUNK => Request::ShipSurvivorsChunk {
            query: qid,
            seq: r.u64()?,
            max: r.usize()?,
        },
        REQ_RELEASE_QUERY => Request::ReleaseQuery { query: qid },
        REQ_WORKER_STATUS => Request::WorkerStatus { query: qid },
        REQ_CHAIN => {
            // A step is at least its length prefix, tag and query id.
            let n = read_batch_len(&mut r, 6)?;
            if n == 0 {
                return Err(WireError("empty chain"));
            }
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(decode_request_in(r.bytes()?, Some(qid), budget)?);
            }
            Request::Chain { query: qid, steps }
        }
        REQ_SHUTDOWN => Request::Shutdown,
        _ => return Err(WireError("invalid request tag")),
    };
    if r.remaining() != 0 {
        return Err(WireError("trailing bytes after request"));
    }
    Ok(req)
}

const RESP_ACK: u64 = 1;
const RESP_BINDINGS: u64 = 2;
const RESP_BIT_VECTORS: u64 = 3;
const RESP_PARTIAL_EVAL: u64 = 4;
const RESP_FEATURES: u64 = 5;
const RESP_SURVIVORS: u64 = 6;
const RESP_ERROR: u64 = 7;
const RESP_STATUS: u64 = 8;
const RESP_UNKNOWN_QUERY: u64 = 9;
const RESP_SURVIVORS_CHUNK: u64 = 10;
const RESP_CHAIN: u64 = 11;

/// The payload of a worker → coordinator reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// The request was applied; it has no data to return.
    Ack,
    /// Complete match bindings (star matches, local complete matches).
    Bindings(Vec<Vec<VertexId>>),
    /// Per-variable candidate bit vectors, in ascending query-vertex
    /// order over the variable vertices (Algorithm 4 site → coordinator).
    BitVectors(Vec<BitVectorFilter>),
    /// Partial evaluation finished; LPMs stay at the site.
    PartialEval {
        /// Local complete matches (final results, shipped immediately).
        locals: Vec<Vec<VertexId>>,
        /// Number of LPMs enumerated and retained at the site.
        lpm_count: u64,
    },
    /// The site's LEC features (Algorithm 1 output).
    Features(Vec<LecFeature>),
    /// The LPMs that survived pruning (all LPMs when nothing was pruned).
    Survivors(LpmBatch),
    /// One bounded batch of surviving LPMs from the site's ship cursor
    /// ([`Request::ShipSurvivorsChunk`]). `seq` echoes the request;
    /// `last` tells the coordinator the cursor is exhausted — and the
    /// site's slot for the query already dropped — so it can stop asking
    /// this site.
    SurvivorsChunk {
        /// The batch (at most the request's `max` LPMs, possibly empty).
        lpms: LpmBatch,
        /// Echo of the request's chunk sequence number.
        seq: u64,
        /// True when no survivors remain after this batch.
        last: bool,
    },
    /// The worker's state-table snapshot ([`Request::WorkerStatus`]).
    Status(WorkerStatus),
    /// The frame referenced a query id that is not resident on this
    /// worker — never installed, already released, or evicted by the
    /// state-table capacity cap. The typed (non-fatal) protocol error the
    /// coordinator maps to `EngineError::UnknownQuery`.
    UnknownQuery(QueryId),
    /// The worker could not serve the request.
    Error(String),
    /// The answer to a [`Request::Chain`]: one complete response frame
    /// per step that ran, in step order, each with its own
    /// `elapsed_nanos`. Fewer frames than steps means the last one is the
    /// `Error`/`UnknownQuery` that stopped the chain. The frames stay
    /// encoded ([`decode_response`] opens each) so the coordinator can
    /// charge every step's bytes to that step's stage without
    /// re-encoding anything.
    Chain(Vec<Bytes>),
}

/// A worker → coordinator reply: the site's compute time for the request,
/// the id of the query the answered request belonged to, plus the typed
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Site-side compute time for the request, in nanoseconds. Encoded
    /// fixed-width so frame lengths — and therefore shipment metrics —
    /// are independent of timing jitter and identical across backends.
    pub elapsed_nanos: u64,
    /// Echo of the request's query id ([`QueryId::CONTROL`] for replies
    /// to non-per-query requests). Encoded fixed-width so frame lengths
    /// never depend on how many queries a session has run. This is the
    /// field the coordinator's reply router demultiplexes on.
    pub query: QueryId,
    /// The typed payload.
    pub body: ResponseBody,
}

impl Response {
    /// A reply to `query`'s request carrying `body`, stamped with
    /// `elapsed` compute time.
    pub fn new(elapsed: std::time::Duration, query: QueryId, body: ResponseBody) -> Response {
        Response {
            elapsed_nanos: elapsed.as_nanos() as u64,
            query,
            body,
        }
    }
}

/// Encode a response envelope into one frame.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut w = WireWriter::new();
    w.u64_fixed(resp.elapsed_nanos).u32_fixed(resp.query.0);
    match &resp.body {
        ResponseBody::Ack => {
            w.u64(RESP_ACK);
        }
        ResponseBody::Bindings(b) => {
            w.u64(RESP_BINDINGS);
            write_bindings(&mut w, b);
        }
        ResponseBody::BitVectors(vs) => {
            w.u64(RESP_BIT_VECTORS).usize(vs.len());
            for bv in vs {
                write_bit_vector(&mut w, bv);
            }
        }
        ResponseBody::PartialEval { locals, lpm_count } => {
            w.u64(RESP_PARTIAL_EVAL);
            write_bindings(&mut w, locals);
            w.u64(*lpm_count);
        }
        ResponseBody::Features(fs) => {
            w.u64(RESP_FEATURES);
            write_features(&mut w, fs);
        }
        ResponseBody::Survivors(lpms) => {
            w.u64(RESP_SURVIVORS);
            write_lpms(&mut w, lpms);
        }
        ResponseBody::SurvivorsChunk { lpms, seq, last } => {
            w.u64(RESP_SURVIVORS_CHUNK).u64(*seq).bool(*last);
            write_lpms(&mut w, lpms);
        }
        ResponseBody::Status(s) => {
            w.u64(RESP_STATUS)
                .u64(s.resident_queries)
                .u64(s.resident_lpms)
                .u64(s.capacity)
                .u64(s.evictions);
        }
        ResponseBody::UnknownQuery(q) => {
            w.u64(RESP_UNKNOWN_QUERY).u32_fixed(q.0);
        }
        ResponseBody::Error(msg) => {
            w.u64(RESP_ERROR).str(msg);
        }
        ResponseBody::Chain(replies) => {
            w.u64(RESP_CHAIN).usize(replies.len());
            for reply in replies {
                w.bytes(reply);
            }
        }
    }
    w.finish()
}

/// Decode a response envelope.
pub fn decode_response(bytes: Bytes) -> Result<Response, WireError> {
    let mut r = WireReader::new(bytes);
    let elapsed_nanos = r.u64_fixed()?;
    let query = QueryId(r.u32_fixed()?);
    let body = match r.u64()? {
        RESP_ACK => ResponseBody::Ack,
        RESP_BINDINGS => ResponseBody::Bindings(read_bindings(&mut r)?),
        RESP_BIT_VECTORS => {
            let n = read_batch_len(&mut r, 3)?;
            let mut budget = MAX_CANDIDATE_BITS;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(read_bit_vector(&mut r, &mut budget)?);
            }
            ResponseBody::BitVectors(vs)
        }
        RESP_PARTIAL_EVAL => {
            let locals = read_bindings(&mut r)?;
            let lpm_count = r.u64()?;
            ResponseBody::PartialEval { locals, lpm_count }
        }
        RESP_FEATURES => ResponseBody::Features(read_features(&mut r)?),
        RESP_SURVIVORS => ResponseBody::Survivors(read_lpms(&mut r)?),
        RESP_SURVIVORS_CHUNK => {
            let seq = r.u64()?;
            let last = r.bool()?;
            ResponseBody::SurvivorsChunk {
                lpms: read_lpms(&mut r)?,
                seq,
                last,
            }
        }
        RESP_STATUS => ResponseBody::Status(WorkerStatus {
            resident_queries: r.u64()?,
            resident_lpms: r.u64()?,
            capacity: r.u64()?,
            evictions: r.u64()?,
        }),
        RESP_UNKNOWN_QUERY => ResponseBody::UnknownQuery(QueryId(r.u32_fixed()?)),
        RESP_ERROR => ResponseBody::Error(r.str()?),
        RESP_CHAIN => {
            // A reply is at least its length prefix and an `Ack` frame.
            let n = read_batch_len(&mut r, 14)?;
            let mut replies = Vec::with_capacity(n);
            for _ in 0..n {
                replies.push(r.bytes()?);
            }
            ResponseBody::Chain(replies)
        }
        _ => return Err(WireError("invalid response tag")),
    };
    if r.remaining() != 0 {
        return Err(WireError("trailing bytes after response"));
    }
    Ok(Response {
        elapsed_nanos,
        query,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_partition::{DistributedGraph, HashPartitioner, PostingKey};
    use gstored_rdf::{RdfGraph, Term, Triple};
    use gstored_sparql::{parse_query, QueryGraph};
    use gstored_store::LocalPartialMatch;
    use std::time::Duration;

    fn sample_lpm() -> LocalPartialMatch {
        LocalPartialMatch {
            fragment: 2,
            binding: vec![Some(TermId(6)), None, Some(TermId(1))],
            crossing: vec![(
                EdgeRef {
                    from: TermId(1),
                    label: TermId(100),
                    to: TermId(6),
                },
                1,
            )],
            internal_mask: 0b101,
        }
    }

    /// `body` as the reply frame a worker sends.
    fn reply_frame(body: ResponseBody) -> Bytes {
        encode_response(&Response::new(Duration::ZERO, QueryId(3), body))
    }

    /// `body` through a reply frame and back.
    fn reply_roundtrip(body: ResponseBody) -> ResponseBody {
        decode_response(reply_frame(body)).unwrap().body
    }

    #[test]
    fn lpm_roundtrip() {
        let lpms = ResponseBody::Survivors(vec![sample_lpm(), sample_lpm()].into());
        assert_eq!(reply_roundtrip(lpms.clone()), lpms);
    }

    /// The worked example of docs/protocol.md: two LPMs of one run ship
    /// 16 bytes where one record per LPM shipped 27.
    #[test]
    fn lpm_batch_worked_example_bytes() {
        let mut second = sample_lpm();
        second.binding[0] = Some(TermId(9));
        second.crossing[0].0.to = TermId(9);
        let mut w = WireWriter::new();
        write_lpms(&mut w, &vec![sample_lpm(), second].into());
        #[rustfmt::skip]
        let expected = [
            1, 2, 3,                      // one run, fragment, width
            5, 5, 1, 1, 2, 0, 1, 100, 2,  // masks, one slot (qe 1: v2 → v0, label 100), 2 LPMs
            6, 1,                         // first LPM's bound ids
            9, 1,                         // second LPM's
        ];
        assert_eq!(&w.finish()[..], &expected);
    }

    #[test]
    fn empty_lpm_batch_roundtrip() {
        // An empty batch ships its run count alone.
        let empty = ResponseBody::Survivors(LpmBatch::default());
        assert_eq!(reply_roundtrip(empty.clone()), empty);
        assert_eq!(
            reply_roundtrip(ResponseBody::Survivors(LpmBatch::new(2, 3))),
            empty
        );
    }

    /// The forms the codec no longer writes fail to decode, each from a
    /// valid frame with one field changed: an LPM run binding no vertex,
    /// a slot endpoint on an unbound binding entry, and a `DropPruned`
    /// list repeating an id or stepping past `u32::MAX` (the only way an
    /// unsigned step could reach a smaller id).
    #[test]
    fn deleted_forms_are_decode_errors() {
        // The worked example's reply: header, tag, run count, fragment,
        // width, then the run's internal mask, bound mask, slot count and
        // the slot (qe, from, to, label).
        let mut second = sample_lpm();
        second.binding[0] = Some(TermId(9));
        second.crossing[0].0.to = TermId(9);
        let lpms = reply_frame(ResponseBody::Survivors(vec![sample_lpm(), second].into()));
        let run = 12 + 1 + 3;
        assert_eq!(&lpms[run..run + 7], &[5, 5, 1, 1, 2, 0, 1]);
        assert!(decode_response(lpms.clone()).is_ok());
        let patched = |at: usize, byte: u8| {
            let mut frame = lpms.to_vec();
            frame[at] = byte;
            decode_response(frame.into())
        };
        assert!(patched(run + 1, 0).is_err(), "bound mask 0");
        assert!(patched(run + 4, 1).is_err(), "from names unbound v1");
        assert!(patched(run + 5, 1).is_err(), "to names unbound v1");
        assert!(patched(run + 5, 2).is_ok(), "to names bound v2");

        // `DropPruned [3, 7, 42]` ships the steps 3, 4, 35.
        let drop = encode_request(&Request::DropPruned {
            query: QueryId(3),
            useful: vec![3, 7, 42],
        });
        let steps = drop.len() - 3;
        assert_eq!(&drop[steps..], &[3, 4, 35]);
        let mut repeated = drop.to_vec();
        repeated[steps + 1] = 0;
        assert!(decode_request(repeated.into()).is_err());
        let mut w = WireWriter::new();
        w.u64(REQ_DROP_PRUNED)
            .u32_fixed(3)
            .usize(2)
            .u64(7)
            .u64(u64::from(u32::MAX) - 3);
        assert!(decode_request(w.finish()).is_err());
    }

    #[test]
    fn feature_roundtrip() {
        let f = LecFeature {
            fragments: 0b100,
            mapping: vec![
                (
                    EdgeRef {
                        from: TermId(1),
                        label: TermId(9),
                        to: TermId(6),
                    },
                    0,
                ),
                (
                    EdgeRef {
                        from: TermId(6),
                        label: TermId(9),
                        to: TermId(5),
                    },
                    2,
                ),
            ],
            sign: 0b11010,
            sources: vec![3],
        };
        let g = LecFeature {
            sign: 0b101,
            sources: vec![4],
            ..f.clone()
        };
        let features = ResponseBody::Features(vec![f, g]);
        assert_eq!(reply_roundtrip(features.clone()), features);
    }

    #[test]
    fn bit_vector_roundtrip_and_fixed_size() {
        let dense_len = |bits: usize| bits / 8 + 3; // n_bits varint + tag + words
                                                    // One vector's share of a `BitVectors` reply (the count varint
                                                    // is one byte for zero vectors and for one).
        let wire_len = |bv: &BitVectorFilter| {
            reply_frame(ResponseBody::BitVectors(vec![bv.clone()])).len()
                - reply_frame(ResponseBody::BitVectors(vec![])).len()
        };
        let roundtrip = |bv: &BitVectorFilter| {
            let body = ResponseBody::BitVectors(vec![bv.clone()]);
            assert_eq!(reply_roundtrip(body.clone()), body);
        };
        let mut bv = BitVectorFilter::new(1024);
        assert_eq!(wire_len(&bv), 4, "n_bits, tag, zero count");
        roundtrip(&bv);
        // A few set bits ship as their positions...
        for i in 0..20u64 {
            bv.insert(TermId(i * 3));
        }
        assert!(wire_len(&bv) < dense_len(1024) / 2);
        roundtrip(&bv);
        // ...and however dense the vector gets, the fixed length plus
        // the one-byte tag is the most it costs.
        for i in 0..4000u64 {
            bv.insert(TermId(i));
            assert!(wire_len(&bv) <= dense_len(1024));
        }
        assert_eq!(wire_len(&bv), dense_len(1024));
        roundtrip(&bv);
    }

    #[test]
    fn feature_ids_roundtrip() {
        // Ascending, from one end of `u32` to the other.
        let ids = vec![0u32, 1, 5, 1000, u32::MAX - 1, u32::MAX];
        let frame = encode_request(&Request::DropPruned {
            query: QueryId(3),
            useful: ids.clone(),
        });
        let Request::DropPruned { useful, .. } = decode_request(frame).unwrap() else {
            panic!("DropPruned decodes as DropPruned");
        };
        assert_eq!(useful, ids);
    }

    #[test]
    fn bindings_roundtrip() {
        let bindings = ResponseBody::Bindings(vec![
            vec![TermId(1), TermId(2), TermId(3)],
            vec![TermId(9), TermId(8), TermId(7)],
        ]);
        assert_eq!(reply_roundtrip(bindings.clone()), bindings);
    }

    #[test]
    fn truncated_payloads_error() {
        let frame = reply_frame(ResponseBody::Survivors(vec![sample_lpm()].into()));
        let cut = frame.slice(0..frame.len() - 2);
        assert!(decode_response(cut).is_err());
    }

    #[test]
    fn lpm_size_scales_with_bound_vertices() {
        // A mostly-NULL LPM must encode smaller than a mostly-bound one.
        let sparse = LocalPartialMatch {
            fragment: 0,
            binding: vec![None, None, None, None, Some(TermId(1))],
            crossing: vec![],
            internal_mask: 1 << 4,
        };
        let dense = LocalPartialMatch {
            fragment: 0,
            binding: vec![
                Some(TermId(1000)),
                Some(TermId(2000)),
                Some(TermId(3000)),
                Some(TermId(4000)),
                Some(TermId(5000)),
            ],
            crossing: vec![],
            internal_mask: 1,
        };
        assert!(
            reply_frame(ResponseBody::Survivors(vec![sparse].into())).len()
                < reply_frame(ResponseBody::Survivors(vec![dense].into())).len()
        );
    }

    #[test]
    fn request_envelopes_roundtrip() {
        let mut bv = BitVectorFilter::new(128);
        bv.insert(TermId(9));
        let q = QueryId(41);
        let requests = vec![
            Request::StarMatches {
                query: q,
                center: 3,
            },
            Request::ComputeCandidates {
                query: q,
                bits: 4096,
            },
            Request::SetCandidateFilter {
                query: q,
                vectors: vec![(0, bv.clone()), (2, bv)],
            },
            Request::PartialEval { query: q },
            Request::ComputeLecFeatures {
                query: q,
                first_id: 17,
            },
            Request::DropPruned {
                query: q,
                useful: vec![1, 5, 9],
            },
            Request::ShipSurvivors { query: q },
            Request::ShipSurvivorsChunk {
                query: q,
                seq: 3,
                max: 64,
            },
            Request::ShipSurvivorsChunk {
                query: q,
                seq: 0,
                max: usize::MAX,
            },
            Request::ReleaseQuery { query: q },
            Request::WorkerStatus { query: q },
            Request::Shutdown,
        ];
        for req in requests {
            let frame = encode_request(&req);
            let decoded = decode_request(frame.clone()).unwrap();
            // Request has no PartialEq (it carries a Fragment); compare
            // canonical encodings instead.
            assert_eq!(decoded.query_id(), req.query_id());
            assert_eq!(encode_request(&decoded), frame);
        }
    }

    #[test]
    fn request_frame_length_is_independent_of_query_id() {
        // Shipment determinism across sessions hinges on this: the query
        // id is fixed-width, so a session's thousandth query ships the
        // same bytes as its first.
        for (a, b) in [
            (
                Request::PartialEval { query: QueryId(0) },
                Request::PartialEval {
                    query: QueryId(u32::MAX - 1),
                },
            ),
            (
                Request::ShipSurvivors { query: QueryId(1) },
                Request::ShipSurvivors {
                    query: QueryId(100_000),
                },
            ),
            (
                Request::ReleaseQuery { query: QueryId(2) },
                Request::ReleaseQuery {
                    query: QueryId(2_000_000),
                },
            ),
            (
                Request::ShipSurvivorsChunk {
                    query: QueryId(3),
                    seq: 5,
                    max: 64,
                },
                Request::ShipSurvivorsChunk {
                    query: QueryId(3_000_000),
                    seq: 5,
                    max: 64,
                },
            ),
        ] {
            assert_eq!(encode_request(&a).len(), encode_request(&b).len());
        }
    }

    #[test]
    fn response_envelopes_roundtrip() {
        let q = QueryId(3);
        let responses = vec![
            Response::new(Duration::from_micros(7), q, ResponseBody::Ack),
            Response::new(
                Duration::ZERO,
                q,
                ResponseBody::Bindings(vec![vec![TermId(1), TermId(2)]]),
            ),
            Response::new(
                Duration::from_nanos(1),
                q,
                ResponseBody::BitVectors(vec![BitVectorFilter::new(64)]),
            ),
            Response::new(
                Duration::from_millis(2),
                q,
                ResponseBody::PartialEval {
                    locals: vec![vec![TermId(4)]],
                    lpm_count: 12,
                },
            ),
            Response::new(Duration::ZERO, q, ResponseBody::Features(vec![])),
            Response::new(
                Duration::ZERO,
                q,
                ResponseBody::Survivors(vec![sample_lpm()].into()),
            ),
            Response::new(
                Duration::from_micros(9),
                q,
                ResponseBody::SurvivorsChunk {
                    lpms: vec![sample_lpm(), sample_lpm()].into(),
                    seq: 7,
                    last: false,
                },
            ),
            Response::new(
                Duration::ZERO,
                q,
                ResponseBody::SurvivorsChunk {
                    lpms: LpmBatch::default(),
                    seq: 0,
                    last: true,
                },
            ),
            Response::new(
                Duration::ZERO,
                q,
                ResponseBody::Status(WorkerStatus {
                    resident_queries: 2,
                    resident_lpms: 17,
                    capacity: 32,
                    evictions: 1,
                }),
            ),
            Response::new(Duration::ZERO, q, ResponseBody::UnknownQuery(QueryId(99))),
            Response::new(
                Duration::ZERO,
                QueryId::CONTROL,
                ResponseBody::Error("boom".into()),
            ),
            Response::new(
                Duration::from_micros(3),
                q,
                ResponseBody::Chain(vec![
                    encode_response(&Response::new(Duration::ZERO, q, ResponseBody::Ack)),
                    encode_response(&Response::new(
                        Duration::from_micros(2),
                        q,
                        ResponseBody::UnknownQuery(q),
                    )),
                ]),
            ),
        ];
        for resp in responses {
            let decoded = decode_response(encode_response(&resp)).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn response_length_is_independent_of_elapsed_time_and_query_id() {
        // The fixed-width elapsed and query-id fields are what keep byte
        // metrics identical across backends and across session lifetimes.
        let fast = Response::new(Duration::from_nanos(1), QueryId(0), ResponseBody::Ack);
        let slow = Response::new(
            Duration::from_secs(3600),
            QueryId(3_000_000),
            ResponseBody::Ack,
        );
        assert_eq!(encode_response(&fast).len(), encode_response(&slow).len());
    }

    #[test]
    fn reply_tag_sits_where_the_chaos_corruption_flips() {
        // The `corrupt` fault must hit the tag, not a timing byte.
        let at = gstored_net::REPLY_TAG_OFFSET;
        let frame = encode_response(&Response::new(
            Duration::from_nanos(u64::MAX),
            QueryId(u32::MAX),
            ResponseBody::Chain(vec![]),
        ));
        assert_eq!(u64::from(frame[at]), RESP_CHAIN);
        let mut flipped = frame.to_vec();
        flipped[at] ^= 0xE0;
        assert!(decode_response(flipped.into()).is_err());
    }

    #[test]
    fn fragment_envelope_roundtrip() {
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let g = RdfGraph::from_triples(vec![
            t("http://a", "http://p", "http://b"),
            t("http://b", "http://p", "http://c"),
            t("http://c", "http://q", "http://a"),
            t(
                "http://a",
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                "http://T",
            ),
        ]);
        let dist = DistributedGraph::build(g, &HashPartitioner::new(2));
        // The frame carries edges and classes only: these lengths were
        // measured before fragments gained postings, and pin the codec.
        let frame_lengths = [22, 19];
        let mut class_postings = 0;
        for fragment in &dist.fragments {
            let frame = encode_install_fragment(fragment);
            assert_eq!(
                frame.len(),
                frame_lengths[fragment.id],
                "fragment {}",
                fragment.id
            );
            let Request::InstallFragment(decoded) = decode_request(frame.clone()).unwrap() else {
                panic!("wrong request kind");
            };
            // The receiver derives the same postings from what it decoded.
            let unused = TermId(u64::MAX);
            for label in fragment.edges().map(|e| e.label).chain([unused]) {
                for key in [PostingKey::Out(label), PostingKey::In(label)] {
                    assert_eq!(decoded.posting(key), fragment.posting(key), "{key:?}");
                }
            }
            for (_, classes) in fragment.class_entries() {
                for &class in classes {
                    let key = PostingKey::Class(class);
                    assert_eq!(decoded.posting(key), fragment.posting(key), "{key:?}");
                    class_postings += 1;
                }
            }
            assert!(decoded.posting(PostingKey::Class(unused)).is_empty());
            assert_eq!(decoded.id, fragment.id);
            assert_eq!(decoded.internal, fragment.internal);
            assert_eq!(decoded.extended, fragment.extended);
            assert_eq!(decoded.internal_edges, fragment.internal_edges);
            assert_eq!(decoded.crossing_edges, fragment.crossing_edges);
            assert_eq!(decoded.class_entries(), fragment.class_entries());
            for &v in &fragment.internal {
                assert_eq!(decoded.out_edges(v), fragment.out_edges(v));
                assert_eq!(decoded.in_edges(v), fragment.in_edges(v));
            }
            // Canonical re-encode is byte-identical.
            assert_eq!(encode_install_fragment(&decoded), frame);
        }
        assert!(
            class_postings > 0,
            "the fixture must exercise class postings"
        );
    }

    #[test]
    fn query_envelope_roundtrip() {
        let g = RdfGraph::from_triples(vec![Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        )]);
        let qg = QueryGraph::from_query(
            &parse_query("SELECT ?x WHERE { ?x <http://p> <http://b> . ?x <http://missing> ?y }")
                .unwrap(),
        )
        .unwrap();
        let q = EncodedQuery::encode(&qg, g.dict()).unwrap();
        let frame = encode_install_query(QueryId(5), &q);
        let Request::InstallQuery { query, encoded } = decode_request(frame.clone()).unwrap()
        else {
            panic!("wrong request kind");
        };
        assert_eq!(query, QueryId(5));
        assert_eq!(encoded.vertex_count(), q.vertex_count());
        assert_eq!(encoded.edges(), q.edges());
        assert_eq!(encoded.projection(), q.projection());
        assert_eq!(encoded.has_unsatisfiable(), q.has_unsatisfiable());
        assert_eq!(encode_install_query(query, &encoded), frame);
        // Variable names stay at the coordinator: renaming them changes
        // no byte.
        let renamed = QueryGraph::from_query(
            &parse_query(
                "SELECT ?student WHERE { ?student <http://p> <http://b> . \
                 ?student <http://missing> ?advisor }",
            )
            .unwrap(),
        )
        .unwrap();
        let renamed = EncodedQuery::encode(&renamed, g.dict()).unwrap();
        assert_eq!(encode_install_query(QueryId(5), &renamed), frame);
    }

    #[test]
    fn hostile_counts_are_rejected_not_allocated() {
        // A tiny frame claiming 2^61 feature ids must be a decode error,
        // not a capacity panic or a huge allocation.
        let mut w = WireWriter::new();
        w.u64(REQ_DROP_PRUNED).u32_fixed(0).u64(1u64 << 61);
        assert!(decode_request(w.finish()).is_err());
        // A bit-vector reply claiming an absurd width.
        let mut w = WireWriter::new();
        w.u64_fixed(0)
            .u32_fixed(0)
            .u64(RESP_BIT_VECTORS)
            .usize(1)
            .usize(1 << 62);
        assert!(decode_response(w.finish()).is_err());
        // A survivors reply with a colossal run count.
        let mut w = WireWriter::new();
        w.u64_fixed(0)
            .u32_fixed(0)
            .u64(RESP_SURVIVORS)
            .u64(u64::MAX >> 2);
        assert!(decode_response(w.finish()).is_err());
        // A survivors *chunk* reply with a colossal run count.
        let mut w = WireWriter::new();
        w.u64_fixed(0)
            .u32_fixed(0)
            .u64(RESP_SURVIVORS_CHUNK)
            .u64(0)
            .bool(false)
            .u64(u64::MAX >> 3);
        assert!(decode_response(w.finish()).is_err());
        // And a persistent worker survives such a frame with an Error
        // reply instead of dying.
        let mut worker = crate::worker::SiteWorker::empty();
        let mut w = WireWriter::new();
        w.u64(REQ_DROP_PRUNED).u32_fixed(0).u64(1u64 << 61);
        let reply = worker.handle(w.finish()).unwrap();
        assert!(matches!(
            decode_response(reply).unwrap().body,
            ResponseBody::Error(_)
        ));
    }

    #[test]
    fn malformed_envelopes_rejected() {
        let mut w = WireWriter::new();
        w.u64(99);
        assert!(decode_request(w.finish()).is_err());
        // Trailing garbage after a valid request is rejected.
        let mut frame = encode_request(&Request::PartialEval { query: QueryId(0) }).to_vec();
        frame.push(0);
        assert!(decode_request(Bytes::from(frame)).is_err());
        // A response needs its fixed-width elapsed header.
        assert!(decode_response(Bytes::from_static(&[1, 2])).is_err());
    }
}
