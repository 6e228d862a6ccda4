//! The real stack a workload runs against: worker fleet → `GStoreD`
//! session → `SparqlServer` on an ephemeral loopback port.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use gstored::core::worker::{send_shutdown, serve_tcp};
use gstored::core::{Backend, EngineConfig};
use gstored::partition::{DistributedGraph, HashPartitioner};
use gstored::rdf::Triple;
use gstored::{GStoreD, GStoreDBuilder};
use gstored_server::{ServerConfig, ServerHandle, SparqlServer};

use crate::workloads::{Fleet, Workload};

/// Loopback `serve_tcp` listeners standing in for remote
/// `gstored-worker` processes, one per site.
struct TcpWorkers {
    addrs: Vec<SocketAddr>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl TcpWorkers {
    fn spawn(sites: usize) -> TcpWorkers {
        let mut addrs = Vec::with_capacity(sites);
        let mut threads = Vec::with_capacity(sites);
        for _ in 0..sites {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
            addrs.push(listener.local_addr().expect("worker address"));
            threads.push(std::thread::spawn(move || serve_tcp(listener)));
        }
        TcpWorkers { addrs, threads }
    }

    fn addresses(&self) -> Vec<String> {
        self.addrs.iter().map(|a| a.to_string()).collect()
    }

    /// Ask every listener to stop and wait for its accept loop. Call
    /// after the session is gone: its sockets closing is what ends the
    /// per-connection threads.
    fn shutdown(self) {
        for addr in &self.addrs {
            let _ = send_shutdown(addr);
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

pub struct Stack {
    pub session: Arc<GStoreD>,
    server: ServerHandle,
    workers: Option<TcpWorkers>,
}

impl Stack {
    /// The untraced set-up path: hand the builder the triples and let it
    /// build the graph, partition it and stand up the engine, exactly as
    /// `gstored-server serve` does.
    pub fn start(workload: &Workload, triples: Vec<Triple>) -> Stack {
        let builder = GStoreD::builder()
            .triples(triples)
            .partitioner(HashPartitioner::new(workload.sites));
        Stack::serve(builder, workload)
    }

    /// The traced set-up path: the caller built and partitioned the
    /// graph itself, one timed layer at a time.
    pub fn start_distributed(workload: &Workload, dist: DistributedGraph) -> Stack {
        Stack::serve(GStoreD::builder().distributed(dist), workload)
    }

    fn serve(builder: GStoreDBuilder, workload: &Workload) -> Stack {
        let workers = (workload.fleet == Fleet::Tcp).then(|| TcpWorkers::spawn(workload.sites));
        let session = builder
            .config(engine_config(workload, workers.as_ref()))
            .build()
            .expect("generated data always builds");
        let session = Arc::new(session);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback server");
        let server = SparqlServer::new(Arc::clone(&session), ServerConfig::default())
            .start(listener)
            .expect("start server");
        Stack {
            session,
            server,
            workers,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn counters(&self) -> gstored_server::CountersSnapshot {
        self.server.counters()
    }

    /// Stop the server, drop the session (closing the fleet), then stop
    /// the worker listeners; returns once every thread has ended.
    pub fn shutdown(self) {
        self.server.shutdown();
        drop(self.session);
        if let Some(workers) = self.workers {
            workers.shutdown();
        }
    }
}

/// Session defaults (8 admitted pipelines, 30 s deadline, reactor I/O,
/// overlapped stages) except what the workload pins.
fn engine_config(workload: &Workload, workers: Option<&TcpWorkers>) -> EngineConfig {
    EngineConfig {
        variant: workload.variant,
        backend: match workers {
            Some(workers) => Backend::Tcp {
                workers: workers.addresses(),
            },
            None => Backend::InProcess,
        },
        pace_network: workload.paced,
        ..EngineConfig::default()
    }
}
