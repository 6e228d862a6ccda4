//! Fault injection for robustness tests: a [`Transport`] wrapper that
//! perturbs traffic according to a deterministic, seed-driven schedule.
//!
//! [`ChaosTransport`] composes over any backend and injects the failure
//! modes the coordinator's recovery layer must survive:
//!
//! * **Delay** — a frame is held for a bounded duration before moving,
//!   modelling a slow link or a GC-paused worker.
//! * **Drop** — an outgoing request frame silently vanishes; the reply
//!   that will never come surfaces as a receive timeout upstream.
//! * **Truncate / corrupt** — an incoming reply frame is cut short or
//!   has its envelope tag flipped, so the coordinator's decoder fails
//!   with a typed protocol error. Corruption targets the tag byte
//!   because the wire format carries no checksum: *detectable*
//!   corruption is the contract under test, silent payload damage is
//!   out of scope.
//! * **Disconnect** — the site becomes sticky-closed mid-stage: every
//!   later send and receive fails with `Closed`, exactly like a worker
//!   process dying.
//! * **Hang** — the site goes silent without closing: sends are
//!   swallowed, receives block until their deadline. This is the
//!   failure mode that motivates deadlines everywhere — without them
//!   a hung site wedges the coordinator forever.
//!
//! Whether frame *n* to/from site *s* draws a fault is a pure function
//! of `(seed, site, direction, n)` — no clock, no global RNG — so a
//! fault script is reproducible across runs and thread interleavings
//! as long as each site sees the same frame sequence. Faults are drawn
//! only while the transport is [enabled](ChaosTransport::set_enabled);
//! disabling it mid-test turns the wrapper into a pass-through, which
//! is how recovery tests verify a repaired fleet and how benchmarks
//! measure the happy-path overhead of the robustness layer.
//!
//! Simulated disconnects and hangs are repaired by
//! [`Transport::reconnect`], which clears the wrapper's own down-state;
//! a site that was not simulated down failed for real, so it is
//! reconnected through the inner transport (a fresh channel and worker
//! in process, a re-dial over TCP). The [`ChaosStats`] counters record
//! every injected fault so tests can assert a schedule actually fired.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::transport::{Transport, TransportError};

/// Where a reply frame's envelope tag starts: after the fixed-width
/// `elapsed_nanos` (8 bytes) and query id (4 bytes) of the response
/// header (`docs/protocol.md`, "Responses"). The `corrupt` fault flips
/// this byte, so the reply fails to decode.
pub const REPLY_TAG_OFFSET: usize = 12;

/// Probabilities (in permille, 0..=1000) and parameters of the fault
/// schedule. All-zero probabilities (the default) inject nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the deterministic per-frame fault draw.
    pub seed: u64,
    /// ‰ of frames (both directions) held for up to `max_delay`.
    pub delay_per_mille: u32,
    /// ‰ of outgoing frames silently dropped.
    pub drop_per_mille: u32,
    /// ‰ of incoming frames truncated to half their length.
    pub truncate_per_mille: u32,
    /// ‰ of incoming frames with the envelope tag byte flipped.
    pub corrupt_per_mille: u32,
    /// ‰ of outgoing frames that kill the connection (sticky).
    pub disconnect_per_mille: u32,
    /// ‰ of outgoing frames that wedge the site silently (sticky).
    pub hang_per_mille: u32,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            delay_per_mille: 0,
            drop_per_mille: 0,
            truncate_per_mille: 0,
            corrupt_per_mille: 0,
            disconnect_per_mille: 0,
            hang_per_mille: 0,
            max_delay: Duration::from_millis(20),
        }
    }
}

impl ChaosConfig {
    /// A schedule with every fault class enabled at `per_mille` each,
    /// drawn from `seed` — the workhorse for proptest fault scripts.
    pub fn uniform(seed: u64, per_mille: u32) -> ChaosConfig {
        ChaosConfig {
            seed,
            delay_per_mille: per_mille,
            drop_per_mille: per_mille,
            truncate_per_mille: per_mille,
            corrupt_per_mille: per_mille,
            disconnect_per_mille: per_mille,
            hang_per_mille: per_mille,
            ..ChaosConfig::default()
        }
    }
}

/// Counts of faults actually injected, by class. Monotone; read with
/// [`ChaosTransport::stats`].
#[derive(Debug, Default)]
pub struct ChaosStats {
    delays: AtomicU64,
    drops: AtomicU64,
    truncates: AtomicU64,
    corrupts: AtomicU64,
    disconnects: AtomicU64,
    hangs: AtomicU64,
}

impl ChaosStats {
    /// Injected delays so far.
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// Dropped outgoing frames so far.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Truncated incoming frames so far.
    pub fn truncates(&self) -> u64 {
        self.truncates.load(Ordering::Relaxed)
    }

    /// Corrupted incoming frames so far.
    pub fn corrupts(&self) -> u64 {
        self.corrupts.load(Ordering::Relaxed)
    }

    /// Injected disconnects so far.
    pub fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
    }

    /// Injected hangs so far.
    pub fn hangs(&self) -> u64 {
        self.hangs.load(Ordering::Relaxed)
    }

    /// Total faults of every class.
    pub fn total(&self) -> u64 {
        self.delays()
            + self.drops()
            + self.truncates()
            + self.corrupts()
            + self.disconnects()
            + self.hangs()
    }
}

/// Sticky per-site condition injected by the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Down {
    /// Healthy: traffic flows (modulo per-frame faults).
    Up,
    /// Connection killed: sends and receives fail with `Closed`.
    Disconnected,
    /// Silent wedge: sends are swallowed, receives block.
    Hung,
}

/// Per-site chaos state: frame sequence numbers (the deterministic
/// draw's input) plus the sticky down condition.
#[derive(Debug)]
struct SiteChaos {
    send_seq: AtomicU64,
    recv_seq: AtomicU64,
    down: Mutex<Down>,
    /// Signalled when `down` changes, so hung receivers can re-check.
    revived: Condvar,
}

/// The fault classes a single frame can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Delay,
    Drop,
    Truncate,
    Corrupt,
    Disconnect,
    Hang,
}

/// SplitMix64 finalizer: the deterministic per-frame hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`Transport`] decorator injecting seed-deterministic faults; see the
/// module docs for the fault model.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    config: ChaosConfig,
    enabled: AtomicBool,
    sites: Vec<SiteChaos>,
    stats: ChaosStats,
}

impl ChaosTransport {
    /// Wrap `inner` with the fault schedule in `config` (enabled).
    pub fn new(inner: impl Transport + 'static, config: ChaosConfig) -> ChaosTransport {
        let inner: Arc<dyn Transport> = Arc::new(inner);
        Self::over(inner, config)
    }

    /// Wrap an already-shared transport.
    pub fn over(inner: Arc<dyn Transport>, config: ChaosConfig) -> ChaosTransport {
        let sites = (0..inner.sites())
            .map(|_| SiteChaos {
                send_seq: AtomicU64::new(0),
                recv_seq: AtomicU64::new(0),
                down: Mutex::new(Down::Up),
                revived: Condvar::new(),
            })
            .collect();
        ChaosTransport {
            inner,
            config,
            enabled: AtomicBool::new(true),
            sites,
            stats: ChaosStats::default(),
        }
    }

    /// Turn fault injection on or off. Off means pure pass-through for
    /// *new* faults; sticky conditions already injected persist until
    /// [`Transport::reconnect`] repairs the site.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether faults are currently being injected.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Deterministic fault draw for frame `seq` in direction `dir`
    /// (0 = send, 1 = recv) to/from `site`.
    fn draw(&self, site: usize, dir: u64, seq: u64) -> Fault {
        if !self.is_enabled() {
            return Fault::None;
        }
        let h = mix(self.config.seed ^ mix(((site as u64) << 1) | dir) ^ mix(seq));
        let roll = (h % 1000) as u32;
        let c = &self.config;
        // Only send-side classes on sends, recv-side classes on recvs;
        // delay applies to both. Thresholds stack in a fixed order.
        let mut acc = 0;
        if dir == 0 {
            for (p, fault) in [
                (c.drop_per_mille, Fault::Drop),
                (c.disconnect_per_mille, Fault::Disconnect),
                (c.hang_per_mille, Fault::Hang),
                (c.delay_per_mille, Fault::Delay),
            ] {
                acc += p;
                if roll < acc {
                    return fault;
                }
            }
        } else {
            for (p, fault) in [
                (c.truncate_per_mille, Fault::Truncate),
                (c.corrupt_per_mille, Fault::Corrupt),
                (c.delay_per_mille, Fault::Delay),
            ] {
                acc += p;
                if roll < acc {
                    return fault;
                }
            }
        }
        Fault::None
    }

    /// A deterministic sub-`max_delay` duration for frame `seq`.
    fn delay_for(&self, site: usize, seq: u64) -> Duration {
        let h = mix(self.config.seed ^ mix(site as u64) ^ seq);
        let micros = self.config.max_delay.as_micros().max(1) as u64;
        Duration::from_micros(h % micros)
    }
}

impl std::fmt::Debug for ChaosTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTransport")
            .field("config", &self.config)
            .field("enabled", &self.is_enabled())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Transport for ChaosTransport {
    fn sites(&self) -> usize {
        self.inner.sites()
    }

    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        let chaos = self
            .sites
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        match *chaos.down.lock().expect("chaos state poisoned") {
            Down::Disconnected => return Err(TransportError::Closed { site }),
            // A hung site swallows traffic without erroring — the
            // caller only learns from the reply that never arrives.
            Down::Hung => return Ok(()),
            Down::Up => {}
        }
        let seq = chaos.send_seq.fetch_add(1, Ordering::Relaxed);
        match self.draw(site, 0, seq) {
            Fault::Drop => {
                self.stats.drops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Fault::Disconnect => {
                self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                *chaos.down.lock().expect("chaos state poisoned") = Down::Disconnected;
                chaos.revived.notify_all();
                Err(TransportError::Closed { site })
            }
            Fault::Hang => {
                self.stats.hangs.fetch_add(1, Ordering::Relaxed);
                *chaos.down.lock().expect("chaos state poisoned") = Down::Hung;
                chaos.revived.notify_all();
                Ok(())
            }
            Fault::Delay => {
                self.stats.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.delay_for(site, seq));
                self.inner.send(site, frame)
            }
            _ => self.inner.send(site, frame),
        }
    }

    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
        let chaos = self
            .sites
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        loop {
            {
                let mut down = chaos.down.lock().expect("chaos state poisoned");
                loop {
                    match *down {
                        Down::Disconnected => return Err(TransportError::Closed { site }),
                        Down::Up => break,
                        Down::Hung => {
                            let remaining = deadline.saturating_duration_since(Instant::now());
                            if remaining.is_zero() {
                                return Err(TransportError::TimedOut { site });
                            }
                            let (next, _) = chaos
                                .revived
                                .wait_timeout(down, remaining)
                                .expect("chaos state poisoned");
                            down = next;
                        }
                    }
                }
            }
            let frame = self.inner.recv_deadline(site, deadline)?;
            let seq = chaos.recv_seq.fetch_add(1, Ordering::Relaxed);
            match self.draw(site, 1, seq) {
                Fault::Truncate => {
                    self.stats.truncates.fetch_add(1, Ordering::Relaxed);
                    return Ok(frame.slice(0..frame.len() / 2));
                }
                Fault::Corrupt => {
                    self.stats.corrupts.fetch_add(1, Ordering::Relaxed);
                    let mut bytes = frame.to_vec();
                    // Flip the high bits of the envelope tag: it decodes
                    // to an unknown tag, never silently to other valid
                    // data. A frame too short to hold a tag cannot
                    // decode anyway; its last byte stands in.
                    let at = REPLY_TAG_OFFSET.min(bytes.len().saturating_sub(1));
                    match bytes.get_mut(at) {
                        Some(b) => *b ^= 0xE0,
                        None => continue, // empty frame: nothing to flip
                    }
                    return Ok(Bytes::from(bytes));
                }
                Fault::Delay => {
                    self.stats.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.delay_for(site, seq));
                    return Ok(frame);
                }
                _ => return Ok(frame),
            }
        }
    }

    fn reconnect(&self, site: usize) -> Result<(), TransportError> {
        let chaos = self
            .sites
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        let was = {
            let mut down = chaos.down.lock().expect("chaos state poisoned");
            let was = *down;
            *down = Down::Up;
            was
        };
        chaos.revived.notify_all();
        // A simulated condition lives entirely in this wrapper — the
        // inner link never failed, so clearing it is the whole repair.
        // Otherwise the failure was real (a dead worker, a mangled
        // reply stream), and the inner backend re-establishes the site.
        if was != Down::Up {
            return Ok(());
        }
        self.inner.reconnect(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcessTransport;
    use crate::worker::serve_endpoint;

    /// Echo fleet behind a chaos wrapper; workers stop on empty frames.
    fn chaos_echo(
        sites: usize,
        config: ChaosConfig,
    ) -> (ChaosTransport, Vec<std::thread::JoinHandle<()>>) {
        let (inner, endpoints) = InProcessTransport::pair(sites);
        let workers = endpoints
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    serve_endpoint(ep, |f: Bytes| if f.is_empty() { None } else { Some(f) });
                })
            })
            .collect();
        (ChaosTransport::new(inner, config), workers)
    }

    fn stop_workers(transport: ChaosTransport, workers: Vec<std::thread::JoinHandle<()>>) {
        transport.set_enabled(false);
        for site in 0..transport.sites() {
            // Repair any sticky condition so the stop frame gets through.
            let _ = transport.reconnect(site);
            transport.send(site, Bytes::new()).unwrap();
        }
        drop(transport);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn no_faults_is_a_pass_through() {
        let (transport, workers) = chaos_echo(2, ChaosConfig::default());
        transport.send(0, Bytes::from_static(b"a")).unwrap();
        transport.send(1, Bytes::from_static(b"b")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"a");
        assert_eq!(transport.recv(1).unwrap().as_ref(), b"b");
        assert_eq!(transport.stats().total(), 0);
        stop_workers(transport, workers);
    }

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        // Same seed → identical fault sequence; different seed → (for
        // this config) a different one.
        let outcomes = |seed: u64| -> Vec<bool> {
            let (transport, workers) = chaos_echo(1, ChaosConfig::uniform(seed, 120));
            let mut got = Vec::new();
            for i in 0..40u32 {
                let sent = transport.send(0, Bytes::from(i.to_le_bytes().to_vec()));
                if sent.is_err() {
                    // Disconnected: repair and carry on scripting.
                    transport.reconnect(0).unwrap();
                }
                got.push(sent.is_ok());
            }
            stop_workers(transport, workers);
            got
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8));
    }

    #[test]
    fn hang_blocks_until_deadline_and_reconnect_revives() {
        let config = ChaosConfig {
            seed: 1,
            hang_per_mille: 1000, // first send hangs the site
            ..ChaosConfig::default()
        };
        let (transport, workers) = chaos_echo(1, config);
        transport.send(0, Bytes::from_static(b"x")).unwrap();
        assert_eq!(transport.stats().hangs(), 1);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(30);
        assert_eq!(
            transport.recv_deadline(0, deadline),
            Err(TransportError::TimedOut { site: 0 })
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        // Repair: the site answers again (the hung frame was swallowed).
        transport.reconnect(0).unwrap();
        transport.set_enabled(false);
        transport.send(0, Bytes::from_static(b"y")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"y");
        stop_workers(transport, workers);
    }

    #[test]
    fn disconnect_is_sticky_until_reconnect() {
        let config = ChaosConfig {
            seed: 1,
            disconnect_per_mille: 1000,
            ..ChaosConfig::default()
        };
        let (transport, workers) = chaos_echo(1, config);
        assert_eq!(
            transport.send(0, Bytes::from_static(b"x")),
            Err(TransportError::Closed { site: 0 })
        );
        assert_eq!(transport.recv(0), Err(TransportError::Closed { site: 0 }));
        transport.set_enabled(false);
        transport.reconnect(0).unwrap();
        transport.send(0, Bytes::from_static(b"y")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"y");
        stop_workers(transport, workers);
    }

    #[test]
    fn truncate_and_corrupt_mangle_replies_detectably() {
        let config = ChaosConfig {
            seed: 3,
            truncate_per_mille: 500,
            corrupt_per_mille: 500, // every reply is mangled one way
            ..ChaosConfig::default()
        };
        let (transport, workers) = chaos_echo(1, config);
        for i in 0..20u32 {
            let payload = Bytes::from(vec![0x01; 8 + i as usize]);
            transport.send(0, payload.clone()).unwrap();
            let got = transport.recv(0).unwrap();
            assert_ne!(got, payload, "frame {i} should have been mangled");
        }
        assert_eq!(
            transport.stats().truncates() + transport.stats().corrupts(),
            20
        );
        stop_workers(transport, workers);
    }

    #[test]
    fn dropped_sends_surface_as_recv_timeouts() {
        let config = ChaosConfig {
            seed: 5,
            drop_per_mille: 1000,
            ..ChaosConfig::default()
        };
        let (transport, workers) = chaos_echo(1, config);
        transport.send(0, Bytes::from_static(b"gone")).unwrap();
        assert_eq!(transport.stats().drops(), 1);
        assert_eq!(
            transport.recv_deadline(0, Instant::now() + Duration::from_millis(20)),
            Err(TransportError::TimedOut { site: 0 })
        );
        stop_workers(transport, workers);
    }
}
