//! A from-scratch multilevel min-edge-cut partitioner standing in for
//! METIS (reference \[14\] of the paper).
//!
//! Classic multilevel scheme:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched
//!    vertex pairs until the graph is small.
//! 2. **Initial partitioning** — greedy graph growing assigns the coarsest
//!    vertices to `k` parts, balancing vertex weight.
//! 3. **Uncoarsening + refinement** — projected back level by level with a
//!    boundary Kernighan–Lin/FM-style pass that moves vertices to reduce
//!    the cut while keeping vertex-weight balance.
//!
//! Like real METIS, this balances *vertex counts* per part; the paper's
//! cost model instead looks at *edge counts* `|E_i ∪ Ec_i|`, which is why
//! Section VIII-D finds METIS partitionings "much more imbalanced than the
//! hash partitioning" despite fewer crossing edges — a behaviour this
//! implementation reproduces on skewed-degree graphs.

use std::collections::HashMap;

use gstored_rdf::{RdfGraph, VertexId};

use crate::fragment::{FragmentId, PartitionAssignment};
use crate::hash::mix64;
use crate::Partitioner;

/// Refinement passes per level.
const REFINE_PASSES: usize = 4;

/// Allowed vertex-weight imbalance factor (1.05 = 5%).
const BALANCE_FACTOR: f64 = 1.05;

/// Multilevel heavy-edge-matching partitioner.
#[derive(Debug, Clone)]
pub struct MetisLikePartitioner {
    k: usize,
    /// Stop coarsening below this vertex count.
    coarsen_target: usize,
    seed: u64,
}

impl MetisLikePartitioner {
    /// Partitioner over `k` fragments with library defaults.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        MetisLikePartitioner {
            k,
            coarsen_target: 20 * k.max(8),
            seed: 0xc0a6_5e11,
        }
    }
}

/// Undirected weighted working graph for the multilevel scheme.
struct Level {
    /// Adjacency: vertex -> (neighbor, edge weight); parallel RDF edges
    /// and both directions are folded into the weight.
    adj: Vec<Vec<(usize, u64)>>,
    /// Vertex weights (number of original vertices collapsed).
    vwgt: Vec<u64>,
    /// Map of each vertex to its parent in the *next coarser* level.
    coarse_of: Vec<usize>,
}

impl Level {
    fn n(&self) -> usize {
        self.adj.len()
    }
}

impl Partitioner for MetisLikePartitioner {
    fn name(&self) -> &'static str {
        "metis-like"
    }

    fn num_fragments(&self) -> usize {
        self.k
    }

    fn assign(&self, graph: &RdfGraph) -> PartitionAssignment {
        // Build the level-0 working graph with dense local ids.
        let verts: Vec<VertexId> = {
            let mut v: Vec<VertexId> = graph.vertices().collect();
            v.sort_unstable();
            v
        };
        let local: HashMap<VertexId, usize> =
            verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let n = verts.len();
        if n == 0 {
            return PartitionAssignment {
                k: self.k,
                of_vertex: HashMap::new(),
            };
        }

        let edges = graph
            .edges()
            .map(|e| (local[&e.from], local[&e.to], 1))
            // Self-loops never cross; irrelevant to the cut.
            .filter(|&(a, b, _)| a != b)
            .collect();
        let mut levels = vec![Level {
            adj: adjacency(n, edges),
            vwgt: vec![1; n],
            coarse_of: Vec::new(),
        }];

        // --- Coarsening ---
        while levels.last().expect("non-empty").n() > self.coarsen_target {
            let depth = levels.len() as u64;
            let cur = levels.last_mut().expect("non-empty");
            let (coarse, shrunk) = coarsen(cur, self.seed ^ depth);
            if !shrunk {
                break; // matching made no progress (e.g. star graphs)
            }
            levels.push(coarse);
        }

        // --- Initial partitioning on the coarsest level ---
        let coarsest = levels.last().expect("non-empty");
        let mut part = initial_partition(coarsest, self.k, self.seed);

        // --- Uncoarsen + refine ---
        refine(coarsest, &mut part, self.k);
        for li in (0..levels.len() - 1).rev() {
            let finer = &levels[li];
            let mut finer_part = vec![0usize; finer.n()];
            for v in 0..finer.n() {
                finer_part[v] = part[finer.coarse_of[v]];
            }
            part = finer_part;
            refine(finer, &mut part, self.k);
        }

        let of_vertex = verts
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, part[i] as FragmentId))
            .collect();
        PartitionAssignment {
            k: self.k,
            of_vertex,
        }
    }
}

/// One round of heavy-edge matching. Returns the coarser level and whether
/// the graph actually shrank.
fn coarsen(cur: &mut Level, seed: u64) -> (Level, bool) {
    let n = cur.n();
    let mut matched = vec![usize::MAX; n];
    // Visit vertices in a pseudo-random order for matching quality.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| mix64(v as u64 ^ seed));

    for &v in &order {
        if matched[v] != usize::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(usize, u64)> = None;
        for &(u, w) in &cur.adj[v] {
            if matched[u] == usize::MAX && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                matched[v] = u;
                matched[u] = v;
            }
            None => matched[v] = v, // stays single
        }
    }

    // Assign coarse ids.
    let mut coarse_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if coarse_of[v] != usize::MAX {
            continue;
        }
        coarse_of[v] = next;
        let m = matched[v];
        if m != v && m != usize::MAX {
            coarse_of[m] = next;
        }
        next += 1;
    }
    let shrunk = next < n;

    // Build the coarse graph.
    let mut vwgt = vec![0u64; next];
    for v in 0..n {
        vwgt[coarse_of[v]] += cur.vwgt[v];
    }
    let mut edges = Vec::new();
    for v in 0..n {
        for &(u, w) in &cur.adj[v] {
            // Count each undirected edge once; drop the collapsed ones.
            if u > v && coarse_of[v] != coarse_of[u] {
                edges.push((coarse_of[v], coarse_of[u], w));
            }
        }
    }
    cur.coarse_of = coarse_of;
    (
        Level {
            adj: adjacency(next, edges),
            vwgt,
            coarse_of: Vec::new(),
        },
        shrunk,
    )
}

/// Fold undirected weighted edges `(a, b, w)` into an adjacency list:
/// parallel edges and both directions sum into one weight, and every
/// list is in a fixed order. The edges are sorted first, so the result
/// depends only on the edge multiset — which is what makes `assign`
/// deterministic: heavy-edge matching and refinement break ties by list
/// order.
fn adjacency(n: usize, mut edges: Vec<(usize, usize, u64)>) -> Vec<Vec<(usize, u64)>> {
    for e in &mut edges {
        if e.0 > e.1 {
            (e.0, e.1) = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    edges.dedup_by(|later, kept| {
        let same = (later.0, later.1) == (kept.0, kept.1);
        if same {
            kept.2 += later.2;
        }
        same
    });
    let mut adj = vec![Vec::new(); n];
    for (a, b, w) in edges {
        adj[a].push((b, w));
        adj[b].push((a, w));
    }
    adj
}

/// Greedy graph growing: grow `k` regions from spread-out seeds by
/// repeatedly absorbing the frontier vertex with the strongest connection
/// to the lightest region.
#[allow(clippy::needless_range_loop)] // indexing two parallel arrays
fn initial_partition(level: &Level, k: usize, seed: u64) -> Vec<usize> {
    let n = level.n();
    let total: u64 = level.vwgt.iter().sum();
    let target = total.div_ceil(k as u64);
    let mut part = vec![usize::MAX; n];
    let mut loads = vec![0u64; k];

    // Order by hash for deterministic seed spreading.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| mix64(v as u64 ^ seed));

    let mut next_seed = order.into_iter();
    for p in 0..k {
        // Grow region p from the first unassigned seed.
        let mut frontier: Vec<usize> = Vec::new();
        for s in next_seed.by_ref() {
            if part[s] == usize::MAX {
                frontier.push(s);
                break;
            }
        }
        while let Some(v) = frontier.pop() {
            if part[v] != usize::MAX {
                continue;
            }
            part[v] = p;
            loads[p] += level.vwgt[v];
            if loads[p] >= target {
                break;
            }
            // Prefer heavy edges: push neighbors sorted by ascending weight
            // so the heaviest is popped first.
            let mut ns: Vec<(u64, usize)> = level.adj[v]
                .iter()
                .filter(|&&(u, _)| part[u] == usize::MAX)
                .map(|&(u, w)| (w, u))
                .collect();
            ns.sort_unstable();
            frontier.extend(ns.into_iter().map(|(_, u)| u));
        }
    }
    // Any stragglers go to the lightest part.
    for v in 0..n {
        if part[v] == usize::MAX {
            let p = (0..k).min_by_key(|&p| loads[p]).expect("k > 0");
            part[v] = p;
            loads[p] += level.vwgt[v];
        }
    }
    part
}

/// Boundary FM-style refinement: move vertices whose dominant neighbor
/// part differs, when the move improves the cut and keeps balance.
#[allow(clippy::needless_range_loop)] // indexing two parallel arrays
fn refine(level: &Level, part: &mut [usize], k: usize) {
    let n = level.n();
    let total: u64 = level.vwgt.iter().sum();
    let max_load = ((total as f64 / k as f64) * BALANCE_FACTOR).ceil() as u64 + 1;
    let mut loads = vec![0u64; k];
    for v in 0..n {
        loads[part[v]] += level.vwgt[v];
    }

    // Connection weight from the current vertex to each part.
    let mut conn = vec![0u64; k];
    for _ in 0..REFINE_PASSES {
        let mut moved = 0usize;
        for v in 0..n {
            let cur = part[v];
            for &(u, w) in &level.adj[v] {
                conn[part[u]] += w;
            }
            let here = conn[cur];
            // The best-connected other part; ties go to the lowest id.
            let best = (0..k)
                .filter(|&p| p != cur)
                .max_by_key(|&p| (conn[p], std::cmp::Reverse(p)))
                .map(|p| (p, conn[p]));
            for &(u, _) in &level.adj[v] {
                conn[part[u]] = 0;
            }
            if let Some((p, w)) = best {
                let gain = w as i64 - here as i64;
                if gain > 0 && loads[p] + level.vwgt[v] <= max_load {
                    loads[cur] -= level.vwgt[v];
                    loads[p] += level.vwgt[v];
                    part[v] = p;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::DistributedGraph;
    use crate::hash::HashPartitioner;
    use gstored_rdf::{Term, Triple};

    /// Two dense clusters joined by a single bridge edge.
    fn two_clusters(per: usize) -> RdfGraph {
        let mut triples = Vec::new();
        for c in 0..2 {
            for i in 0..per {
                for j in (i + 1)..(i + 4).min(per) {
                    triples.push(Triple::new(
                        Term::iri(format!("http://c{c}/v{i}")),
                        Term::iri("http://p"),
                        Term::iri(format!("http://c{c}/v{j}")),
                    ));
                }
            }
        }
        triples.push(Triple::new(
            Term::iri("http://c0/v0"),
            Term::iri("http://bridge"),
            Term::iri("http://c1/v0"),
        ));
        RdfGraph::from_triples(triples)
    }

    #[test]
    fn finds_the_obvious_two_way_cut() {
        let g = two_clusters(40);
        let dist = DistributedGraph::build(g, &MetisLikePartitioner::new(2));
        assert_eq!(dist.validate(), None);
        let cut = dist.crossing_edges().len();
        assert!(cut <= 8, "expected a near-minimal cut, got {cut}");
    }

    #[test]
    fn beats_hash_partitioning_on_clustered_data() {
        let g = two_clusters(40);
        let metis = DistributedGraph::build(g.clone(), &MetisLikePartitioner::new(2));
        let hash = DistributedGraph::build(g, &HashPartitioner::new(2));
        assert!(
            metis.crossing_edges().len() < hash.crossing_edges().len() / 2,
            "metis-like {} vs hash {}",
            metis.crossing_edges().len(),
            hash.crossing_edges().len()
        );
    }

    #[test]
    fn respects_vertex_balance() {
        let g = two_clusters(50);
        let a = MetisLikePartitioner::new(2).assign(&g);
        let sizes = a.sizes();
        let max = *sizes.iter().max().unwrap() as f64;
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(max / avg < 1.3, "vertex imbalance too high: {sizes:?}");
    }

    #[test]
    fn assignment_is_total_and_deterministic() {
        let g = two_clusters(20);
        let p = MetisLikePartitioner::new(3);
        let a = p.assign(&g);
        let b = p.assign(&g);
        assert_eq!(a.of_vertex, b.of_vertex);
        assert_eq!(a.of_vertex.len(), g.vertex_count());
        assert!(a.of_vertex.values().all(|&f| f < 3));
    }

    /// Above the coarsening target (160 vertices for k ≤ 8) heavy-edge
    /// matching and refinement meet ties on every level; `assign` must
    /// still be a function of the graph alone, so repeated calls in one
    /// process agree vertex for vertex.
    #[test]
    fn assignment_is_deterministic_when_it_coarsens() {
        let v = |i: u64| Term::iri(format!("http://v/{i}"));
        let triples: Vec<Triple> = (0..900u64)
            .map(|i| Triple::new(v(mix64(i) % 400), Term::iri("http://p"), v(mix64(!i) % 400)))
            .collect();
        let g = RdfGraph::from_triples(triples);
        let p = MetisLikePartitioner::new(4);
        assert!(g.vertex_count() > p.coarsen_target, "test premise");
        let first = p.assign(&g);
        for _ in 0..3 {
            assert_eq!(p.assign(&g).of_vertex, first.of_vertex);
        }
    }

    #[test]
    fn handles_tiny_graphs() {
        let g = RdfGraph::from_triples(vec![Triple::new(
            Term::iri("http://a"),
            Term::iri("http://p"),
            Term::iri("http://b"),
        )]);
        let a = MetisLikePartitioner::new(4).assign(&g);
        assert_eq!(a.of_vertex.len(), 2);
    }

    #[test]
    fn handles_star_graphs_where_matching_stalls() {
        // One hub with many leaves: heavy-edge matching can only pair the
        // hub once per round, so coarsening progress is slow -> must not
        // loop forever.
        let mut triples = Vec::new();
        for i in 0..200 {
            triples.push(Triple::new(
                Term::iri("http://hub"),
                Term::iri("http://p"),
                Term::iri(format!("http://leaf/{i}")),
            ));
        }
        let g = RdfGraph::from_triples(triples);
        let a = MetisLikePartitioner::new(4).assign(&g);
        assert_eq!(a.of_vertex.len(), g.vertex_count());
    }

    #[test]
    fn k_equals_one_puts_everything_together() {
        let g = two_clusters(10);
        let dist = DistributedGraph::build(g, &MetisLikePartitioner::new(1));
        assert!(dist.crossing_edges().is_empty());
    }
}
