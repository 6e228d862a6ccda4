//! The in-process fleet's thread model: every site of a session runs on
//! one pool of `min(available_parallelism(), fragments)` threads named
//! `gstored-site-{i}`, and the pool goes with the session.
//!
//! The only test in its binary, so the thread census sees no other
//! test's fleet. Reads `/proc/self/task`, so Linux only.
#![cfg(target_os = "linux")]

use gstored::partition::HashPartitioner;
use gstored::prelude::*;
use gstored::rdf::Triple;

/// How many of this process's threads run site handlers. Counted by
/// name prefix: the kernel cuts a thread's name to 15 bytes, so
/// `gstored-site-100` reads back as `gstored-site-10`.
fn site_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("gstored-site-"))
        .count()
}

#[test]
fn a_session_runs_its_sites_on_at_most_one_thread_per_core_and_fragment() {
    let cores = std::thread::available_parallelism().unwrap().get();
    let triples: Vec<Triple> = (0..40)
        .map(|i| {
            Triple::new(
                Term::iri(format!("http://v/a{i}")),
                Term::iri("http://x/p"),
                Term::iri(format!("http://v/a{}", i + 1)),
            )
        })
        .collect();
    for sites in [1, 3, 12] {
        let db = GStoreD::builder()
            .triples(triples.clone())
            .partitioner(HashPartitioner::new(sites))
            .build()
            .unwrap();
        let rows = db
            .query("SELECT * WHERE { ?x <http://x/p> ?y . ?y <http://x/p> ?z }")
            .unwrap();
        assert_eq!(rows.len(), 39);
        assert_eq!(
            site_threads(),
            cores.min(sites),
            "{sites} fragments on {cores} cores"
        );
        drop(db);
        assert_eq!(site_threads(), 0, "the pool outlived its session");
    }
}
