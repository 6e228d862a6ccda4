//! The four frozen workloads and the inputs they generate from a seed.
//!
//! A workload fixes everything except the seed: data family and size,
//! fleet size and backend, pacing, engine variant, query list and result
//! formats. The seed drives the data generator and the clients' query
//! order; the program under test only ever sees the generated triples
//! and the query texts.

use std::collections::HashSet;

use gstored::core::Variant;
use gstored::datagen::random::{predicate_iri, vertex_iri};
use gstored::datagen::{lubm, lubm_queries, LubmConfig};
use gstored::rdf::vocab::lubm as vocab;
use gstored::rdf::{Term, Triple};
use gstored_server::ResultFormat;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which generator builds the data, and how much of it.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// `gstored_datagen::lubm` sized for about this many triples.
    Lubm { target_triples: usize },
    /// A uniform random labeled digraph (`random_dense` of the retired
    /// bench crate): `edges / 3` vertices, so about one out-edge per
    /// (vertex, predicate) and result sizes proportional to the graph.
    Random { edges: usize, predicates: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Worker threads behind in-process channels.
    InProcess,
    /// One `serve_tcp` thread per site on loopback, reactor transport.
    Tcp,
}

impl Fleet {
    pub fn label(self) -> &'static str {
        match self {
            Fleet::InProcess => "in-process",
            Fleet::Tcp => "loopback-tcp-reactor",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySet {
    /// LQ1–LQ7.
    LubmAll,
    /// RQ1–RQ3: two paths and a triangle over the random predicates.
    RandomPaths,
    /// Two stars (star stream mode) — LQ2 and `STUDENT_COURSES`, every
    /// student's courses with the student's name — and `MEMBER_PATH`,
    /// the member→department→university→name path (general stream mode
    /// through `IncrementalJoin`: three edges, because every two-edge
    /// path is a star). Thousands of rows each. Three queries, so that
    /// the overall median sits inside one query's latency mode.
    LubmBigResult,
    /// LQ3–LQ6 plus `ADVISEES` (the students advised by one
    /// department's faculty, with their departments): at most a few
    /// dozen rows each. The fifth query makes three general-pipeline
    /// queries against two stars, so the overall median sits inside the
    /// general queries' latency mode instead of in the gap between two
    /// equally heavy modes, where it would flip from run to run.
    LubmSelective,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    pub sites: usize,
    pub fleet: Fleet,
    /// `EngineConfig::pace_network`: sleep out the default
    /// `NetworkModel` (100 µs per message, 1 Gbit/s).
    pub paced: bool,
    pub variant: Variant,
    pub queries: QuerySet,
    /// Result formats the clients rotate through.
    pub formats: &'static [ResultFormat],
}

/// Closed-loop client threads: the sandbox has two cores, and the
/// SPARQL Protocol's callers each wait for their reply.
pub const CLIENTS: usize = 2;

/// Each distinct query runs this often before the window, so the lazy
/// fleet, the `DistributedGraph::stats` cache and the connections exist
/// before anything is timed.
pub const WARMUP_ROUNDS: usize = 3;

const JSON: &[ResultFormat] = &[ResultFormat::Json];
const TSV: &[ResultFormat] = &[ResultFormat::Tsv];

/// The benchmark's workloads; `smoke` shrinks data and fleets so a run
/// takes seconds (the names, and therefore the output schema, stay).
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let lubm = Data::Lubm {
        target_triples: if smoke { 5_000 } else { 40_000 },
    };
    let (small_fleet, wide_fleet) = if smoke { (4, 8) } else { (8, 32) };
    vec![
        Workload {
            name: "lubm_mix",
            why: "reference mix: stars on the fast path, LQ1/LQ7 through all four stages, planner on; every layer contributes",
            data: lubm,
            sites: small_fleet,
            fleet: Fleet::Tcp,
            paced: false,
            variant: Variant::Auto,
            queries: QuerySet::LubmAll,
            formats: JSON,
        },
        Workload {
            name: "random_crossing",
            why: "nearly every edge crosses: LPM enumeration, LEC, pruning and assembly dominate; TCP and planner bypassed",
            data: Data::Random {
                edges: if smoke { 2_000 } else { 12_000 },
                predicates: 3,
            },
            sites: if smoke { 4 } else { 12 },
            fleet: Fleet::InProcess,
            paced: false,
            variant: Variant::Full,
            queries: QuerySet::RandomPaths,
            formats: TSV,
        },
        Workload {
            name: "lubm_bigresult",
            why: "thousands of rows per query in all four formats: serializer, decode, chunked writes, streaming join; planner bypassed",
            data: lubm,
            sites: small_fleet,
            fleet: Fleet::Tcp,
            paced: false,
            variant: Variant::Full,
            queries: QuerySet::LubmBigResult,
            formats: &ResultFormat::ALL,
        },
        Workload {
            name: "selective_wide_paced",
            why: "selective queries on a wide paced fleet: message rounds, candidate vectors and fixed per-request cost dominate; compute bypassed",
            data: lubm,
            sites: wide_fleet,
            fleet: Fleet::Tcp,
            paced: true,
            variant: Variant::Full,
            queries: QuerySet::LubmSelective,
            formats: JSON,
        },
    ]
}

/// Every (query index, format) pair once per cycle, each cycle in a
/// fresh order drawn from the seed: the mix is the same for every seed
/// and only the order differs. One fixed order per client would
/// phase-lock the two closed loops — which queries run side by side
/// would be decided once, by the seed, and a query's latency would
/// jump by a quarter between seeds depending on its neighbour.
pub struct Schedule {
    items: Vec<(usize, ResultFormat)>,
    next: usize,
    rng: SmallRng,
}

impl Iterator for Schedule {
    type Item = (usize, ResultFormat);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == 0 {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let item = self.items[self.next];
        self.next = (self.next + 1) % self.items.len();
        Some(item)
    }
}

#[derive(Debug, Clone)]
pub struct NamedQuery {
    pub id: String,
    pub text: String,
}

/// What one seed generates for one workload.
pub struct Inputs {
    pub triples: Vec<Triple>,
    pub queries: Vec<NamedQuery>,
}

/// Decorrelates the generator seeds of the workloads (SplitMix64 step).
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Same seed, same inputs.
    pub fn generate(&self, seed: u64) -> Inputs {
        let triples = match self.data {
            Data::Lubm { target_triples } => {
                // `with_target_triples` sizes the university count for 5
                // departments each; pinning every university to exactly 5
                // (instead of 4–6) keeps the triple count within about 1 %
                // from seed to seed, so metrics vary with the data's
                // content and not with its size.
                let sized = LubmConfig::with_target_triples(target_triples, derive_seed(seed, 1));
                lubm::generate(&LubmConfig {
                    min_departments: 5,
                    max_departments: 5,
                    ..sized
                })
            }
            Data::Random { edges, predicates } => {
                random_triples(edges, predicates, derive_seed(seed, 2))
            }
        };
        Inputs {
            triples,
            queries: self.query_list(),
        }
    }

    fn query_list(&self) -> Vec<NamedQuery> {
        let lubm_subset = |ids: &[&str]| -> Vec<NamedQuery> {
            lubm_queries()
                .into_iter()
                .filter(|q| ids.contains(&q.id))
                .map(|q| NamedQuery {
                    id: q.id.to_string(),
                    text: q.text,
                })
                .collect()
        };
        match self.queries {
            QuerySet::LubmAll => lubm_subset(&["LQ1", "LQ2", "LQ3", "LQ4", "LQ5", "LQ6", "LQ7"]),
            QuerySet::LubmSelective => {
                let mut queries = lubm_subset(&["LQ3", "LQ4", "LQ5", "LQ6"]);
                queries.push(NamedQuery {
                    id: "ADVISEES".into(),
                    text: format!(
                        "SELECT * WHERE {{ ?s <{}> ?p . \
                         ?p <{}> <http://www.University0.edu/Department0> . ?s <{}> ?d . }}",
                        vocab::ADVISOR,
                        vocab::WORKS_FOR,
                        vocab::MEMBER_OF
                    ),
                });
                queries
            }
            QuerySet::LubmBigResult => {
                let mut queries = lubm_subset(&["LQ2"]);
                queries.push(NamedQuery {
                    id: "STUDENT_COURSES".into(),
                    text: format!(
                        "SELECT * WHERE {{ ?x <{}> ?c . ?x <{}> ?n . }}",
                        vocab::TAKES_COURSE,
                        vocab::NAME
                    ),
                });
                queries.push(NamedQuery {
                    id: "MEMBER_PATH".into(),
                    text: format!(
                        "SELECT * WHERE {{ ?x <{}> ?d . ?d <{}> ?u . ?u <{}> ?n . }}",
                        vocab::MEMBER_OF,
                        vocab::SUB_ORGANIZATION_OF,
                        vocab::NAME
                    ),
                });
                queries
            }
            QuerySet::RandomPaths => {
                let p = predicate_iri;
                vec![
                    NamedQuery {
                        id: "RQ1".into(),
                        text: format!("SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c }}", p(0), p(1)),
                    },
                    NamedQuery {
                        id: "RQ2".into(),
                        text: format!(
                            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?d }}",
                            p(0),
                            p(1),
                            p(2)
                        ),
                    },
                    NamedQuery {
                        id: "RQ3".into(),
                        text: format!(
                            "SELECT * WHERE {{ ?a <{}> ?b . ?b <{}> ?c . ?c <{}> ?a }}",
                            p(0),
                            p(1),
                            p(2)
                        ),
                    },
                ]
            }
        }
    }

    /// One client's endless request sequence over `queries` queries.
    pub fn client_schedule(&self, queries: usize, seed: u64, client: usize) -> Schedule {
        Schedule {
            items: (0..queries)
                .flat_map(|q| self.formats.iter().map(move |&f| (q, f)))
                .collect(),
            next: 0,
            rng: SmallRng::seed_from_u64(derive_seed(seed, 100 + client as u64)),
        }
    }

    pub fn data_label(&self) -> String {
        match self.data {
            Data::Lubm { target_triples } => format!("lubm target_triples={target_triples}"),
            Data::Random { edges, predicates } => {
                format!("random edges={edges} predicates={predicates}")
            }
        }
    }
}

/// `edges` distinct uniform random triples over `edges / 3` vertices.
/// `gstored_datagen::random::random_graph` draws the same distribution
/// but rejects duplicates with a linear scan (5 s at 30 k edges), which
/// would swamp `setup_s`; this uses a hash set and the generator's IRIs.
fn random_triples(edges: usize, predicates: usize, seed: u64) -> Vec<Triple> {
    let vertices = (edges / 3).max(12);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen: HashSet<(usize, usize, usize)> = HashSet::with_capacity(edges);
    let mut triples = Vec::with_capacity(edges);
    while triples.len() < edges {
        let s = rng.gen_range(0..vertices);
        let p = rng.gen_range(0..predicates);
        let o = rng.gen_range(0..vertices);
        if seen.insert((s, p, o)) {
            triples.push(Triple::new(
                Term::iri(vertex_iri(s)),
                Term::iri(predicate_iri(p)),
                Term::iri(vertex_iri(o)),
            ));
        }
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_data() {
        for w in workloads(true) {
            let a = w.generate(7);
            let b = w.generate(7);
            let c = w.generate(8);
            assert_eq!(a.triples, b.triples, "{}", w.name);
            assert_ne!(a.triples, c.triples, "{}", w.name);
            let ids = |i: &Inputs| i.queries.iter().map(|q| q.id.clone()).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&c), "{}", w.name);
        }
    }

    #[test]
    fn schedules_cover_every_pair_once_per_cycle() {
        let w = &workloads(true)[2];
        let pairs = 3 * w.formats.len();
        let take = |seed| -> Vec<(usize, &str)> {
            w.client_schedule(3, seed, 0)
                .take(2 * pairs)
                .map(|(q, f)| (q, f.name()))
                .collect()
        };
        let schedule = take(42);
        for cycle in schedule.chunks(pairs) {
            assert_eq!(cycle.iter().collect::<HashSet<_>>().len(), pairs);
        }
        assert_ne!(
            schedule[..pairs],
            schedule[pairs..],
            "cycles are reshuffled"
        );
        assert_eq!(schedule, take(42));
        assert_ne!(schedule, take(43));
    }
}
