//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [table1|table2|table3|table4|fig9|fig10|fig11|fig12|ablation|all]
//!             [--scale N] [--sites K] [--markdown]
//! ```
//!
//! Default scale is 30k triples per dataset and 12 sites (the paper's
//! cluster size). `--markdown` prints GitHub tables for EXPERIMENTS.md.

use gstored_bench::{datasets, experiments, format::Table};

/// Every artifact `experiments` can regenerate: the paper's tables and
/// figures plus the candidate-bits ablation.
const ARTIFACTS: [&str; 9] = [
    "table1", "table2", "table3", "table4", "fig9", "fig10", "fig11", "fig12", "ablation",
];

struct Args {
    what: Vec<String>,
    scale: Option<usize>,
    sites: Option<usize>,
    markdown: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        what: Vec::new(),
        scale: None,
        sites: None,
        markdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a number"),
                );
            }
            "--sites" => {
                args.sites = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--sites needs a number"),
                );
            }
            "--markdown" => args.markdown = true,
            other if ARTIFACTS.contains(&other) || other == "all" => {
                args.what.push(other.to_string())
            }
            other => {
                eprintln!("unknown argument {other:?}; expected one of {ARTIFACTS:?}, all");
                std::process::exit(2);
            }
        }
    }
    if args.what.is_empty() {
        args.what.push("all".to_string());
    }
    args
}

fn emit(table: Table, markdown: bool) {
    if markdown {
        print!("{}", table.render_markdown());
    } else {
        println!("{}", table.render());
    }
}

fn main() {
    let args = parse_args();
    let scale = args.scale.unwrap_or(datasets::DEFAULT_SCALE);
    let sites = args.sites.unwrap_or(datasets::DEFAULT_SITES);
    let wants = |k: &str| args.what.iter().any(|w| w == k || w == "all");
    eprintln!("# gstored-rs experiments: scale={scale} triples/dataset, sites={sites}");

    if wants("table1") {
        let d = datasets::lubm(scale);
        emit(experiments::table_stage_breakdown(&d, sites), args.markdown);
    }
    if wants("table2") {
        let d = datasets::yago(scale);
        emit(experiments::table_stage_breakdown(&d, sites), args.markdown);
    }
    if wants("table3") {
        let d = datasets::btc(scale);
        emit(experiments::table_stage_breakdown(&d, sites), args.markdown);
    }
    if wants("table4") {
        let lubm = datasets::lubm(scale);
        let yago = datasets::yago(scale);
        emit(
            experiments::table_partitioning_costs(&[&yago, &lubm], sites),
            args.markdown,
        );
    }
    if wants("fig9") {
        for d in [datasets::lubm(scale), datasets::yago(scale)] {
            emit(experiments::fig_optimizations(&d, sites), args.markdown);
        }
    }
    if wants("fig10") {
        for d in [datasets::lubm(scale), datasets::yago(scale)] {
            emit(experiments::fig_partitionings(&d, sites), args.markdown);
        }
    }
    if wants("fig11") {
        emit(
            experiments::fig_scalability(datasets::lubm, scale / 2, sites),
            args.markdown,
        );
    }
    if wants("fig12") {
        for d in [
            datasets::yago(scale),
            datasets::lubm(scale),
            datasets::btc(scale),
        ] {
            emit(experiments::fig_comparison(&d, sites), args.markdown);
        }
    }
    if wants("ablation") {
        // Not in the paper: the Algorithm 4 bit-vector size trade-off,
        // measurable here because shipment accounting is byte-accurate.
        let d = datasets::yago(scale);
        emit(
            experiments::ablation_candidate_bits(&d, sites),
            args.markdown,
        );
    }
}
