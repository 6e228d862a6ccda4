//! Fig. 9 in miniature: run the four engine variants (Basic, LA, LO,
//! Full) on one LPM-heavy query and print the per-stage breakdown, to
//! show where each optimization pays off; then run `Variant::Auto` and
//! print the variant its rule picked.
//!
//! One `GStoreD` session per variant (the variant is an engine-level
//! knob); every session prepares the query once and executes it through
//! the prepared path.
//!
//! ```text
//! cargo run --release --example variant_showdown
//! ```

use gstored::datagen::{queries, yago, YagoConfig};
use gstored::prelude::*;
use gstored::rdf::VertexId;

fn main() -> Result<(), Error> {
    let graph = RdfGraph::from_triples(yago::generate(&YagoConfig {
        persons: 4000,
        ..Default::default()
    }));

    // YQ3: the unselective influence/interest join — the query whose LPM
    // volume the paper's optimizations attack.
    let bench = queries::yago_queries()
        .into_iter()
        .find(|q| q.id == "YQ3")
        .expect("YQ3 exists");

    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "variant", "total ms", "LPMs", "kept", "ship KiB", "assembly", "matches"
    );
    let mut reference: Option<Vec<Vec<VertexId>>> = None;
    for variant in Variant::ALL.into_iter().chain([Variant::Auto]) {
        let db = GStoreD::builder()
            .graph(graph.clone())
            .partitioner(HashPartitioner::new(6))
            .variant(variant)
            .build()?;
        let results = db.prepare(&bench.text)?.execute()?;
        let m = results.metrics();
        println!(
            "{:<14} {:>10.1} {:>10} {:>10} {:>12.1} {:>10.1} {:>10}",
            variant.label(),
            m.total_time().as_secs_f64() * 1e3,
            m.local_partial_matches,
            m.surviving_partial_matches,
            m.total_shipped() as f64 / 1024.0,
            m.assembly.response_time().as_secs_f64() * 1e3,
            m.total_matches()
        );
        if let Some(decision) = &results.output().planner {
            println!(
                "{:<14} picked {} (crossing share {:.2}, cyclic {}, selective {})",
                "",
                decision.chosen.label(),
                decision.crossing_share,
                decision.cyclic,
                decision.selective
            );
        }
        // All variants must agree — the optimizations are result-neutral.
        let rows = results.vertex_rows().to_vec();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(r, &rows, "{} diverged", variant.label()),
        }
    }
    println!("\nAll four variants and Auto returned identical results.");
    Ok(())
}
