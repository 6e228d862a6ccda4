//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [table1|table2|table3|table4|fig9|fig10|fig11|fig12|all]
//!             [--scale N] [--sites K] [--markdown]
//! experiments bench-pr3 [--scale N] [--sites K] [--smoke] [--out PATH]
//! experiments bench-pr4 [--scale N] [--sites K] [--smoke] [--out PATH]
//! experiments bench-pr5 [--scale N] [--sites K] [--smoke] [--out PATH]
//! experiments bench-pr6 [--scale N] [--sites K] [--smoke] [--out PATH]
//! experiments bench-pr7 [--scale N] [--sites K] [--smoke] [--out PATH]
//! experiments bench-pr9 [--scale N] [--sites K] [--smoke] [--out PATH]
//! experiments bench-pr10 [--scale N] [--sites K] [--smoke] [--out PATH]
//! ```
//!
//! Default scale is 30k triples per dataset and 12 sites (the paper's
//! cluster size). `--markdown` prints GitHub tables for EXPERIMENTS.md.
//!
//! `bench-pr3` / `bench-pr4` regenerate the repo's committed performance
//! trajectory: they write `BENCH_PR3.json` / `BENCH_PR4.json` (or
//! `--out PATH`), validate it against the expected schema, and exit
//! non-zero when validation fails. `--smoke` runs the tiny CI
//! configuration.

use gstored_bench::{
    bench_pr10, bench_pr3, bench_pr4, bench_pr5, bench_pr6, bench_pr7, bench_pr9, datasets,
    experiments, format::Table,
};

struct Args {
    what: Vec<String>,
    scale: Option<usize>,
    sites: Option<usize>,
    markdown: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        what: Vec::new(),
        scale: None,
        sites: None,
        markdown: false,
        smoke: false,
        out: None,
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
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(it.next().expect("--out needs a path")),
            other => args.what.push(other.to_string()),
        }
    }
    if args.what.is_empty() {
        args.what.push("all".to_string());
    }
    args
}

fn run_bench_pr3(args: &Args) {
    let mut config = if args.smoke {
        bench_pr3::BenchPr3Config::smoke()
    } else {
        bench_pr3::BenchPr3Config::default()
    };
    if let Some(scale) = args.scale {
        config.scale = scale;
        config.micro_scale = config.micro_scale.min(scale);
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR3.json");
    eprintln!("# bench-pr3: {config:?} -> {path}");
    let json = bench_pr3::run(&config);
    if let Err(e) = bench_pr3::validate(&json) {
        eprintln!("bench-pr3: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr3: wrote {} bytes, schema OK", json.len());
}

fn run_bench_pr4(args: &Args) {
    let mut config = if args.smoke {
        bench_pr4::BenchPr4Config::smoke()
    } else {
        bench_pr4::BenchPr4Config::default()
    };
    if let Some(scale) = args.scale {
        config.scale = scale;
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR4.json");
    eprintln!("# bench-pr4: {config:?} -> {path}");
    let json = bench_pr4::run(&config);
    if let Err(e) = bench_pr4::validate(&json) {
        eprintln!("bench-pr4: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr4: wrote {} bytes, schema OK", json.len());
}

fn emit(table: Table, markdown: bool) {
    if markdown {
        print!("{}", table.render_markdown());
    } else {
        println!("{}", table.render());
    }
}

fn run_bench_pr5(args: &Args) {
    let mut config = if args.smoke {
        bench_pr5::BenchPr5Config::smoke()
    } else {
        bench_pr5::BenchPr5Config::default()
    };
    if let Some(scale) = args.scale {
        config.scale = scale;
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR5.json");
    eprintln!("# bench-pr5: {config:?} -> {path}");
    let json = bench_pr5::run(&config);
    if let Err(e) = bench_pr5::validate(&json) {
        eprintln!("bench-pr5: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr5: wrote {} bytes, schema OK", json.len());
}

fn run_bench_pr6(args: &Args) {
    let mut config = if args.smoke {
        bench_pr6::BenchPr6Config::smoke()
    } else {
        bench_pr6::BenchPr6Config::default()
    };
    if let Some(scale) = args.scale {
        config.scale = scale;
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR6.json");
    eprintln!("# bench-pr6: {config:?} -> {path}");
    let json = bench_pr6::run(&config);
    if let Err(e) = bench_pr6::validate(&json) {
        eprintln!("bench-pr6: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr6: wrote {} bytes, schema OK", json.len());
}

fn run_bench_pr7(args: &Args) {
    let mut config = if args.smoke {
        bench_pr7::BenchPr7Config::smoke()
    } else {
        bench_pr7::BenchPr7Config::default()
    };
    if let Some(scale) = args.scale {
        config.scale = scale;
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR7.json");
    eprintln!("# bench-pr7: {config:?} -> {path}");
    let json = bench_pr7::run(&config);
    if let Err(e) = bench_pr7::validate(&json) {
        eprintln!("bench-pr7: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr7: wrote {} bytes, schema OK", json.len());
}

fn run_bench_pr9(args: &Args) {
    let mut config = if args.smoke {
        bench_pr9::BenchPr9Config::smoke()
    } else {
        bench_pr9::BenchPr9Config::default()
    };
    if let Some(scale) = args.scale {
        config.chain_links = scale;
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR9.json");
    eprintln!("# bench-pr9: {config:?} -> {path}");
    let json = bench_pr9::run(&config);
    if let Err(e) = bench_pr9::validate(&json) {
        eprintln!("bench-pr9: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr9: wrote {} bytes, schema OK", json.len());
}

fn run_bench_pr10(args: &Args) {
    let mut config = if args.smoke {
        bench_pr10::BenchPr10Config::smoke()
    } else {
        bench_pr10::BenchPr10Config::default()
    };
    if let Some(scale) = args.scale {
        config.scale = scale;
    }
    if let Some(sites) = args.sites {
        config.sites = sites;
    }
    let path = args.out.as_deref().unwrap_or("BENCH_PR10.json");
    eprintln!("# bench-pr10: {config:?} -> {path}");
    let json = bench_pr10::run(&config);
    if let Err(e) = bench_pr10::validate(&json) {
        eprintln!("bench-pr10: generated JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("# bench-pr10: wrote {} bytes, schema OK", json.len());
}

fn main() {
    let args = parse_args();
    for (name, runner) in [
        ("bench-pr3", run_bench_pr3 as fn(&Args)),
        ("bench-pr4", run_bench_pr4 as fn(&Args)),
        ("bench-pr5", run_bench_pr5 as fn(&Args)),
        ("bench-pr6", run_bench_pr6 as fn(&Args)),
        ("bench-pr7", run_bench_pr7 as fn(&Args)),
        ("bench-pr9", run_bench_pr9 as fn(&Args)),
        ("bench-pr10", run_bench_pr10 as fn(&Args)),
    ] {
        if args.what.iter().any(|w| w == name) {
            if args.what.len() > 1 {
                let others: Vec<&str> = args
                    .what
                    .iter()
                    .map(String::as_str)
                    .filter(|w| *w != name)
                    .collect();
                eprintln!("warning: {name} runs alone; ignoring {}", others.join(", "));
            }
            runner(&args);
            return;
        }
    }
    if args.smoke || args.out.is_some() {
        eprintln!("warning: --smoke/--out only apply to the bench-prN subcommands; ignoring");
    }
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
