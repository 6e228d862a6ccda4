//! The [`NetworkModel`] cost model of the simulated cluster.
//!
//! Every frame the engine ships is charged its simulated transfer time
//! under this model (and, when pacing is on, waited out), so stage
//! metrics report what the modeled interconnect would deliver.

use std::time::Duration;

/// A simple network cost model: per-message latency plus bandwidth-limited
/// transfer, uniform across links. Defaults approximate the paper's
/// cluster-era LAN (1 Gbps, 0.1 ms latency).
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// One-way latency charged per message.
    pub latency: Duration,
    /// Bandwidth in bytes per second.
    pub bytes_per_sec: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::new(Duration::from_micros(100), 125_000_000) // 1 Gbps
    }
}

impl NetworkModel {
    /// A model where every link has `latency` one-way latency and
    /// `bytes_per_sec` bandwidth.
    pub fn new(latency: Duration, bytes_per_sec: u64) -> Self {
        NetworkModel {
            latency,
            bytes_per_sec,
        }
    }

    /// An idealized zero-cost network (for unit tests).
    pub fn instant() -> Self {
        NetworkModel::new(Duration::ZERO, u64::MAX)
    }

    /// Transfer time for `messages` messages totalling `bytes` bytes.
    pub fn transfer_time(&self, messages: u64, bytes: u64) -> Duration {
        let bw = if self.bytes_per_sec == 0 {
            u64::MAX
        } else {
            self.bytes_per_sec
        };
        let secs = bytes as f64 / bw as f64;
        self.latency * (messages as u32) + Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_handles_extremes() {
        let instant = NetworkModel::instant();
        assert_eq!(instant.transfer_time(1000, u32::MAX as u64), Duration::ZERO);
        let zero_bw = NetworkModel::new(Duration::ZERO, 0);
        // Zero bandwidth is treated as infinite (avoids div-by-zero).
        assert_eq!(zero_bw.transfer_time(1, 1000), Duration::ZERO);
    }
}
