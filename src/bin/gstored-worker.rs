//! A standalone gStoreD site worker.
//!
//! Listens on a TCP address and serves every coordinator connection on
//! its own thread (connections are isolated from each other): the
//! coordinator installs this site's graph fragment, then drives the
//! per-query stages (candidate exchange, partial evaluation, LEC
//! features, LPM shipment) as typed frames. One connection can carry
//! many concurrent queries' frames interleaved — the per-query state
//! table keyed by query id keeps them apart, bounded by `--capacity`
//! (LRU eviction past it; evictions show up in `WorkerStatus`). When a
//! coordinator disconnects, its state is dropped and the worker keeps
//! serving the others — it is a persistent process, stopped by a
//! `Shutdown` request or by killing it.
//!
//! # Shutdown semantics
//!
//! Unlike `gstored-server`, this binary installs no signal handlers on
//! purpose. Graceful stop is a *protocol-level* concern here: the
//! coordinator that owns a fleet sends each worker a `Shutdown` frame
//! when its session drops, and that is the orderly path. Killing a
//! worker with a signal is also safe — all of its per-query state is
//! rebuilt by the coordinator on reconnect (fragments are re-installed,
//! in-flight queries fail with a typed transport error and only those
//! queries are lost), so there is nothing for a SIGINT hook to flush.
//!
//! Start one worker per fragment, then point the engine at them:
//!
//! ```text
//! gstored-worker 127.0.0.1:7601 &
//! gstored-worker 127.0.0.1:7602 &
//! gstored-worker 127.0.0.1:7603 &
//! ```
//!
//! and in the coordinator:
//!
//! ```text
//! GStoreD::builder()
//!     .ntriples(data)?
//!     .partitioner(HashPartitioner::new(3))
//!     .tcp_workers(["127.0.0.1:7601", "127.0.0.1:7602", "127.0.0.1:7603"])
//!     .build()?
//! ```

use std::net::TcpListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let usage = "usage: gstored-worker [<host:port>] [--capacity N]   \
                 (default 127.0.0.1:7600, capacity 64)";
    let mut addr: Option<String> = None;
    let mut capacity = gstored::core::worker::DEFAULT_QUERY_CAPACITY;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{usage}");
                return ExitCode::FAILURE;
            }
            "--capacity" => {
                capacity = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("gstored-worker: --capacity needs a number\n{usage}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if addr.is_none() => addr = Some(other.to_string()),
            _ => {
                eprintln!("{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7600".to_string());
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gstored-worker: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("gstored-worker: serving on {addr} (query capacity {capacity})");
    match gstored::core::worker::serve_tcp_with_options(listener, capacity) {
        Ok(()) => {
            eprintln!("gstored-worker: shutdown requested, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gstored-worker: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}
