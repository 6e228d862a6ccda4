//! The scatter/gather executor the baselines run on.
//!
//! The paper's execution model has two kinds of steps: parallel site-local
//! computation and coordinator-side work on assembled inputs.
//! [`Cluster::scatter`] runs a closure per site on real threads
//! (`std::thread::scope`) and reports the **maximum** site wall time —
//! the quantity that determines cluster response time; shipment of the
//! results is charged through a [`NetworkModel`]. The baselines'
//! shipment numbers are analytical estimates by design; the gStoreD
//! engine itself ships real frames through `gstored_net::transport`.

use std::time::{Duration, Instant};

use gstored_net::{NetworkModel, StageMetrics};

/// A simulated cluster of `k` sites plus a coordinator.
#[derive(Debug, Clone)]
pub(crate) struct Cluster {
    sites: usize,
    network: NetworkModel,
}

impl Cluster {
    /// A cluster with `sites` sites and the default network model.
    pub(crate) fn new(sites: usize) -> Self {
        assert!(sites > 0, "need at least one site");
        Cluster {
            sites,
            network: NetworkModel::default(),
        }
    }

    /// Number of sites.
    pub(crate) fn sites(&self) -> usize {
        self.sites
    }

    /// Run `work(site_id)` on every site in parallel; returns the per-site
    /// outputs plus a [`StageMetrics`] whose `wall` is the slowest site
    /// (sites run concurrently, so the stage finishes when the last one
    /// does). No shipment is charged here — callers charge the bytes they
    /// actually serialize via [`Cluster::charge_shipment`].
    pub(crate) fn scatter<T, F>(&self, work: F) -> (Vec<T>, StageMetrics)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut results: Vec<Option<T>> = (0..self.sites).map(|_| None).collect();
        let mut times = vec![Duration::ZERO; self.sites];
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.sites)
                .map(|site| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        let out = work(site);
                        (out, start.elapsed())
                    })
                })
                .collect();
            for (site, h) in handles.into_iter().enumerate() {
                let (out, took) = h.join().expect("site thread panicked");
                results[site] = Some(out);
                times[site] = took;
            }
        });

        let metrics = StageMetrics {
            wall: times.iter().copied().max().unwrap_or_default(),
            ..Default::default()
        };
        let outputs = results
            .into_iter()
            .map(|o| o.expect("site produced output"))
            .collect();
        (outputs, metrics)
    }

    /// Charge `bytes` over `messages` messages to a stage: adds simulated
    /// network time and shipment counters.
    pub(crate) fn charge_shipment(&self, stage: &mut StageMetrics, messages: u64, bytes: u64) {
        stage.bytes_shipped += bytes;
        stage.messages += messages;
        stage.network += self.network.transfer_time(messages, bytes);
    }

    /// Time a coordinator-side computation into a stage's wall clock.
    pub(crate) fn time_coordinator<T>(&self, stage: &mut StageMetrics, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        stage.wall += start.elapsed();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn instant(sites: usize) -> Cluster {
        Cluster {
            sites,
            network: NetworkModel::instant(),
        }
    }

    #[test]
    fn scatter_runs_every_site_once() {
        let cluster = instant(8);
        let counter = AtomicUsize::new(0);
        let (outs, metrics) = cluster.scatter(|site| {
            counter.fetch_add(1, Ordering::SeqCst);
            site * 2
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert_eq!(outs, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(metrics.bytes_shipped, 0);
    }

    #[test]
    fn scatter_wall_is_max_not_sum() {
        let cluster = instant(4);
        let (_, metrics) = cluster.scatter(|site| {
            if site == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            site
        });
        assert!(metrics.wall >= Duration::from_millis(30));
        // If walls were summed over idle sites the value would still be
        // ~30ms (others are ~0), so also check an upper bound to catch a
        // serialized implementation sleeping 4x.
        assert!(metrics.wall < Duration::from_millis(120));
    }

    #[test]
    fn charge_shipment_accumulates_and_prices() {
        let cluster = Cluster {
            sites: 2,
            network: NetworkModel::new(Duration::from_millis(1), 1000),
        };
        let mut stage = StageMetrics::default();
        cluster.charge_shipment(&mut stage, 2, 500);
        assert_eq!(stage.bytes_shipped, 500);
        assert_eq!(stage.messages, 2);
        // 2 * 1ms latency + 500/1000 s transfer.
        assert_eq!(
            stage.network,
            Duration::from_millis(2) + Duration::from_millis(500)
        );
    }

    #[test]
    fn time_coordinator_adds_wall() {
        let cluster = instant(1);
        let mut stage = StageMetrics::default();
        let out = cluster.time_coordinator(&mut stage, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        assert!(stage.wall >= Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "need at least one site")]
    fn zero_sites_rejected() {
        let _ = Cluster::new(0);
    }
}
