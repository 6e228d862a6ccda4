//! The gStoreD SPARQL-Protocol server binary.
//!
//! ```text
//! gstored-server load <data.nt> [--sites K] [--partitioner hash|semantic|metis]
//! gstored-server serve [--data <data.nt>] [--bind HOST:PORT]
//!                      [--sites K] [--partitioner hash|semantic|metis]
//!                      [--variant basic|la|lo|full|auto]
//!                      [--max-concurrent N] [--queue-depth N]
//!                      [--workers addr,addr,...]
//! ```
//!
//! `load` is a dry run: parse the N-Triples document, partition it and
//! print what a server would hold — a fast way to validate data and
//! compare partitioners before serving. `serve` stands the HTTP endpoint
//! up (default `127.0.0.1:7878`) over in-process site workers, or —
//! with `--workers` — over remote `gstored-worker` processes (one
//! address per fragment; `--sites` is then the worker count). A fleet
//! has at most `MAX_SITES` = 64 sites; more are refused at startup.
//!
//! `SIGINT`/`SIGTERM` shut down gracefully: stop accepting, drain
//! admitted requests, release the worker fleet, exit 0.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gstored::prelude::*;
use gstored_server::{shutdown, ServerConfig, SparqlServer};

const USAGE: &str = "usage:
  gstored-server load <data.nt> [--sites K] [--partitioner hash|semantic|metis]
  gstored-server serve [--data <data.nt>] [--bind HOST:PORT]
                       [--sites K] [--partitioner hash|semantic|metis]
                       [--variant basic|la|lo|full|auto]
                       [--max-concurrent N] [--queue-depth N]
                       [--workers addr,addr,...]
  K (or the worker count) is at most MAX_SITES = 64";

struct Args {
    command: String,
    data: Option<String>,
    bind: String,
    sites: usize,
    partitioner: String,
    variant: String,
    max_concurrent: usize,
    queue_depth: usize,
    workers: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        data: None,
        bind: "127.0.0.1:7878".to_string(),
        sites: 3,
        partitioner: "hash".to_string(),
        variant: "full".to_string(),
        max_concurrent: 8,
        queue_depth: 16,
        workers: Vec::new(),
    };
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => args.data = Some(need(&mut it, "--data")?),
            "--bind" => args.bind = need(&mut it, "--bind")?,
            "--sites" => {
                args.sites = need(&mut it, "--sites")?
                    .parse()
                    .map_err(|_| "--sites needs a number".to_string())?;
            }
            "--partitioner" => args.partitioner = need(&mut it, "--partitioner")?,
            "--variant" => args.variant = need(&mut it, "--variant")?,
            "--max-concurrent" => {
                args.max_concurrent = need(&mut it, "--max-concurrent")?
                    .parse()
                    .map_err(|_| "--max-concurrent needs a number".to_string())?;
            }
            "--queue-depth" => {
                args.queue_depth = need(&mut it, "--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs a number".to_string())?;
            }
            "--workers" => {
                args.workers = need(&mut it, "--workers")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            positional if args.command == "load" && args.data.is_none() => {
                args.data = Some(positional.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn partitioner(name: &str, sites: usize) -> Result<Box<dyn Partitioner>, String> {
    match name {
        "hash" => Ok(Box::new(HashPartitioner::new(sites))),
        "semantic" => Ok(Box::new(SemanticHashPartitioner::new(sites))),
        "metis" => Ok(Box::new(MetisLikePartitioner::new(sites))),
        other => Err(format!(
            "unknown partitioner {other} (hash, semantic or metis)"
        )),
    }
}

fn variant(name: &str) -> Result<Variant, String> {
    match name {
        "basic" => Ok(Variant::Basic),
        "la" => Ok(Variant::LecAssembly),
        "lo" => Ok(Variant::LecOptimization),
        "full" => Ok(Variant::Full),
        "auto" => Ok(Variant::Auto),
        other => Err(format!(
            "unknown variant {other} (basic, la, lo, full or auto)"
        )),
    }
}

fn build_session(args: &Args) -> Result<GStoreD, String> {
    let sites = if args.workers.is_empty() {
        args.sites
    } else {
        args.workers.len()
    };
    let mut builder = GStoreD::builder()
        .partitioner_boxed(partitioner(&args.partitioner, sites)?)
        .variant(variant(&args.variant)?)
        .max_concurrent_queries(args.max_concurrent.max(1));
    if let Some(path) = &args.data {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        builder = builder
            .ntriples(&text)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if !args.workers.is_empty() {
        builder = builder.tcp_workers(args.workers.clone());
    }
    builder.build().map_err(|e| e.to_string())
}

fn cmd_load(args: &Args) -> Result<(), String> {
    if args.data.is_none() {
        return Err("load needs an N-Triples file".to_string());
    }
    let db = build_session(args)?;
    let dist = db.distributed_graph();
    println!(
        "loaded {}: {} terms, {} fragments ({} partitioner)",
        args.data.as_deref().unwrap_or("?"),
        db.dictionary().len(),
        dist.fragment_count(),
        args.partitioner,
    );
    for (site, fragment) in dist.fragments.iter().enumerate() {
        println!(
            "  site {site}: {} internal vertices, {} crossing edges",
            fragment.internal.len(),
            fragment.crossing_edges.len(),
        );
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let session = Arc::new(build_session(args)?);
    let listener = std::net::TcpListener::bind(&args.bind)
        .map_err(|e| format!("cannot bind {}: {e}", args.bind))?;
    // The HTTP pool takes its size from the session's
    // `max_concurrent_queries`, which `--max-concurrent` set.
    let config = ServerConfig {
        queue_depth: args.queue_depth,
        ..ServerConfig::default()
    };
    shutdown::install_handlers();
    let handle = SparqlServer::new(Arc::clone(&session), config)
        .start(listener)
        .map_err(|e| format!("starting server: {e}"))?;
    eprintln!(
        "gstored-server: SPARQL endpoint on http://{} ({} fragments, {} backend, \
         {} workers / queue {})",
        handle.addr(),
        session.fragment_count(),
        if args.workers.is_empty() {
            "in-process"
        } else {
            "tcp"
        },
        args.max_concurrent.max(1),
        args.queue_depth,
    );
    eprintln!(
        "gstored-server: try  curl 'http://{}/status'",
        handle.addr()
    );
    while !shutdown::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("gstored-server: signal received, draining in-flight requests");
    let counters = handle.counters();
    handle.shutdown();
    eprintln!(
        "gstored-server: served {} ok / {} client errors / {} server errors, \
         rejected {} with 429; bye",
        counters.ok, counters.client_errors, counters.server_errors, counters.rejected,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gstored-server: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "load" => cmd_load(&args),
        "serve" => cmd_serve(&args),
        "--help" | "-h" | "help" => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gstored-server: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
