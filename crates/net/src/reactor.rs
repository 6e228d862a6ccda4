//! Readiness-driven TCP transport: one I/O thread for the whole fleet.
//!
//! [`ReactorTransport`] is the coordinator's only TCP backend. Every
//! site socket is non-blocking and registered with an epoll-backed
//! [`polling::Poller`]; one I/O thread multiplexes all reads and
//! writes, maintaining a per-connection partial-frame state machine in
//! each direction, so the coordinator needs no thread per site.
//! Coordinator threads interact only with in-memory queues:
//!
//! * [`ReactorTransport::send`] appends the frame to the site's outbox
//!   and wakes the poller; the I/O thread drains the outbox whenever the
//!   socket is writable, each frame's length prefix and payload in one
//!   vectored write, registering write interest only while bytes remain
//!   queued.
//! * [`ReactorTransport::recv`] blocks on a condvar until the I/O thread
//!   has reassembled the site's next complete frame (or the site
//!   failed).
//!
//! The wire format is the one [`write_frame`](crate::transport::write_frame)
//! and [`read_frame`](crate::transport::read_frame) speak on the worker
//! side — little-endian `u32` length prefix, payload, [`MAX_FRAME_LEN`]
//! cap. A length prefix above the cap fails the connection *before* any
//! allocation, so a hostile peer cannot trigger an unbounded buffer.
//!
//! Thread-count contract: exactly one I/O thread regardless of fleet
//! size ([`ReactorTransport::io_threads`] returns the constant).
//!
//! Platform: the vendored `polling` shim implements epoll only, so on
//! any OS other than Linux [`ReactorTransport::connect`] fails with an
//! `Unsupported` I/O error and `Backend::Tcp` is unavailable there.
//!
//! Lock discipline: a site's outbox (`tx`) and inbox (`rx`) mutexes are
//! never held together, and where the stream mutex nests with either it
//! is always taken first (the I/O loop holds the stream while filling a
//! queue). Failure propagation (`fail_site`) and reconnection take each
//! lock strictly one at a time.
//!
//! Failed sites are repairable: [`Transport::reconnect`] re-dials the
//! stored worker address, registers the fresh socket with the poller,
//! and clears the sticky failure, after which sends and receives flow
//! again — the coordinator re-installs the site's fragment before
//! reusing it.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use polling::{Event, Events, Poller};

use crate::transport::{
    write_frame_from, TransferCounters, Transport, TransportError, MAX_FRAME_LEN,
};

/// Outbound side of one site connection: frames queued by `send`, plus
/// the write cursor of the frame currently on the wire.
#[derive(Debug, Default)]
struct Outbox {
    /// Frames not yet fully written, oldest first. The front frame may
    /// be partially written (see `pos`).
    queue: VecDeque<Bytes>,
    /// Bytes of length prefix + payload already written for the front
    /// frame (0..4 = inside the prefix, 4.. = inside the payload).
    pos: usize,
    /// Whether write interest is currently registered with the poller.
    want_write: bool,
}

/// Inbound side of one site connection: the read-side frame state
/// machine plus completed frames awaiting `recv`.
#[derive(Debug, Default)]
struct Inbox {
    /// Fully reassembled frames, oldest first.
    frames: VecDeque<Bytes>,
    /// Set once the connection failed; every pending and future `recv`
    /// returns a clone of this error.
    failed: Option<TransportError>,
    /// Partial length prefix.
    header: [u8; 4],
    /// Bytes of the length prefix received so far.
    header_filled: usize,
    /// Payload buffer, allocated once the (validated) prefix completes.
    payload: Vec<u8>,
    /// Bytes of the payload received so far.
    payload_filled: usize,
    /// Whether we are mid-payload (false = reading the prefix).
    in_payload: bool,
}

/// One site connection: the socket plus its two directional queues.
///
/// The stream sits behind its own mutex so [`Transport::reconnect`]
/// can swap in a fresh socket. Lock order where locks nest: `stream`
/// before `tx` or `rx` (the I/O loop holds `stream` while it fills a
/// queue); no path takes `tx` and `rx` together.
#[derive(Debug)]
struct SiteState {
    stream: Mutex<TcpStream>,
    /// The worker's address, kept for re-dialing on repair.
    addr: SocketAddr,
    tx: Mutex<Outbox>,
    rx: Mutex<Inbox>,
    /// Signalled when `rx.frames` grows or `rx.failed` is set.
    rx_ready: Condvar,
}

#[derive(Debug)]
struct Shared {
    poller: Poller,
    sites: Vec<SiteState>,
    counters: TransferCounters,
    shutdown: AtomicBool,
}

/// Epoll-multiplexed TCP transport: all site sockets serviced by one
/// I/O thread; see the module docs for the design.
#[derive(Debug)]
pub struct ReactorTransport {
    shared: Arc<Shared>,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorTransport {
    /// Connect to one worker address per site, in site order, and start
    /// the I/O thread. Every socket gets `TCP_NODELAY` (stage requests
    /// are small; Nagle would add delays per frame) and is switched to
    /// non-blocking mode.
    pub fn connect<A: ToSocketAddrs>(workers: &[A]) -> Result<ReactorTransport, TransportError> {
        assert!(!workers.is_empty(), "need at least one site");
        let poller = Poller::new()?;
        let mut sites = Vec::with_capacity(workers.len());
        for (site, addr) in workers.iter().enumerate() {
            let dial = |e: String| TransportError::Connect { site, detail: e };
            let resolved = addr
                .to_socket_addrs()
                .map_err(|e| dial(e.to_string()))?
                .next()
                .ok_or_else(|| dial("address resolved to nothing".into()))?;
            let stream = TcpStream::connect(resolved).map_err(|e| dial(e.to_string()))?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(&stream, Event::readable(site))?;
            sites.push(SiteState {
                stream: Mutex::new(stream),
                addr: resolved,
                tx: Mutex::new(Outbox::default()),
                rx: Mutex::new(Inbox::default()),
                rx_ready: Condvar::new(),
            });
        }
        let shared = Arc::new(Shared {
            poller,
            sites,
            counters: TransferCounters::default(),
            shutdown: AtomicBool::new(false),
        });
        let loop_shared = Arc::clone(&shared);
        let io_thread = std::thread::Builder::new()
            .name("gstored-reactor".into())
            .spawn(move || io_loop(&loop_shared))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(ReactorTransport {
            shared,
            io_thread: Some(io_thread),
        })
    }

    /// Frame/byte totals moved through this transport so far.
    pub fn counters(&self) -> &TransferCounters {
        &self.shared.counters
    }

    /// Number of coordinator I/O threads this transport runs: always 1,
    /// independent of fleet size. Exists so benchmarks can assert the
    /// O(1)-threads property without groping `/proc`.
    pub fn io_threads(&self) -> usize {
        1
    }
}

impl Transport for ReactorTransport {
    fn sites(&self) -> usize {
        self.shared.sites.len()
    }

    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        let state = self
            .shared
            .sites
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        // A failed connection rejects sends immediately rather than
        // queueing frames that can never leave.
        {
            let rx = state.rx.lock().expect("reactor inbox poisoned");
            if let Some(err) = &rx.failed {
                return Err(err.clone());
            }
        }
        assert!(frame.len() <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
        self.shared.counters.record(frame.len());
        {
            let mut tx = state.tx.lock().expect("reactor outbox poisoned");
            tx.queue.push_back(frame);
        }
        // Wake the I/O thread so it attempts the write now instead of
        // at the next readiness event.
        self.shared.poller.notify()?;
        Ok(())
    }

    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
        let state = self
            .shared
            .sites
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        let mut rx = state.rx.lock().expect("reactor inbox poisoned");
        loop {
            if let Some(frame) = rx.frames.pop_front() {
                self.shared.counters.record(frame.len());
                return Ok(frame);
            }
            if let Some(err) = &rx.failed {
                return Err(err.clone());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Giving up on the wait consumes nothing: the I/O thread
                // keeps reassembling in the background, so this timeout
                // is always at a clean boundary for the caller.
                return Err(TransportError::TimedOut { site });
            }
            let (next, _timed_out) = state
                .rx_ready
                .wait_timeout(rx, remaining)
                .expect("reactor inbox poisoned");
            rx = next;
        }
    }

    fn reconnect(&self, site: usize) -> Result<(), TransportError> {
        let state = self
            .shared
            .sites
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        // Dial first; if the worker is still down the old (failed) state
        // is left untouched. Locks are taken strictly one at a time.
        let fresh = TcpStream::connect(state.addr).map_err(|e| TransportError::Connect {
            site,
            detail: e.to_string(),
        })?;
        fresh.set_nodelay(true)?;
        fresh.set_nonblocking(true)?;
        {
            let mut stream = state.stream.lock().expect("reactor stream poisoned");
            // The old socket may or may not still be registered
            // (fail_site deletes it); either way is fine.
            let _ = self.shared.poller.delete(&*stream);
            self.shared.poller.add(&fresh, Event::readable(site))?;
            *stream = fresh;
        }
        {
            let mut tx = state.tx.lock().expect("reactor outbox poisoned");
            tx.queue.clear();
            tx.pos = 0;
            tx.want_write = false;
        }
        {
            let mut rx = state.rx.lock().expect("reactor inbox poisoned");
            rx.frames.clear();
            rx.failed = None;
            rx.header_filled = 0;
            rx.payload = Vec::new();
            rx.payload_filled = 0;
            rx.in_payload = false;
        }
        // Kick the poller so the I/O thread notices the new registration.
        self.shared.poller.notify()?;
        Ok(())
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.shared.poller.notify();
        if let Some(handle) = self.io_thread.take() {
            let _ = handle.join();
        }
        // Sockets close when `shared.sites` drops with the last Arc.
    }
}

/// The event loop: wait for readiness, service reads, then retry every
/// queued write. Runs until `shutdown` is set and joined by `Drop`.
fn io_loop(shared: &Shared) {
    let mut events = Events::new();
    loop {
        // A modest timeout bounds how stale a missed wakeup can get;
        // notify() makes the common path immediate.
        if shared
            .poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            // Poller broken: fail every live site and bail out.
            for site in 0..shared.sites.len() {
                fail_site(shared, site, TransportError::Io("poller failed".into()));
            }
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for event in events.iter() {
            let site = event.key;
            if site >= shared.sites.len() {
                continue;
            }
            if event.readable {
                if let Err(e) = drain_read(shared, site) {
                    fail_site(shared, site, e);
                }
            }
        }
        // Writes are retried for every site with a non-empty outbox, not
        // just those with a writability event: a fresh `send` wakes us
        // via notify() with no event at all. O(sites) per wake is cheap
        // at the fleet sizes this coordinator drives.
        for site in 0..shared.sites.len() {
            if let Err(e) = drain_write(shared, site) {
                fail_site(shared, site, e);
            }
        }
    }
}

/// Read everything currently available on `site`'s socket, advancing the
/// header/payload state machine. Completed frames go straight into the
/// inbox under the lock, so an error return (which triggers `fail_site`
/// and its wakeup) never loses frames reassembled earlier in the pass.
fn drain_read(shared: &Shared, site: usize) -> Result<(), TransportError> {
    let state = &shared.sites[site];
    let stream_guard = state.stream.lock().expect("reactor stream poisoned");
    let mut stream = &*stream_guard;
    let mut rx = state.rx.lock().expect("reactor inbox poisoned");
    if rx.failed.is_some() {
        return Ok(());
    }
    let mut delivered = false;
    let result = loop {
        if !rx.in_payload {
            // Reading the 4-byte length prefix, possibly 1 byte at a
            // time.
            let filled = rx.header_filled;
            let n = match stream.read(&mut rx.header[filled..]) {
                Ok(0) => {
                    break if rx.header_filled == 0 {
                        // Clean close between frames: the polite hangup.
                        Err(TransportError::Closed { site })
                    } else {
                        Err(TransportError::Io(
                            "stream ended inside a frame header".into(),
                        ))
                    };
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e.into()),
            };
            rx.header_filled += n;
            if rx.header_filled == 4 {
                let len = u32::from_le_bytes(rx.header) as usize;
                // Validate before allocating: a hostile prefix must not
                // size a buffer.
                if len > MAX_FRAME_LEN {
                    break Err(TransportError::Io(
                        "frame length exceeds MAX_FRAME_LEN".into(),
                    ));
                }
                rx.payload = vec![0u8; len];
                rx.payload_filled = 0;
                rx.in_payload = true;
            }
        } else {
            let filled = rx.payload_filled;
            if filled == rx.payload.len() {
                // Zero-length frame or payload complete.
                let frame = Bytes::from(std::mem::take(&mut rx.payload));
                rx.frames.push_back(frame);
                delivered = true;
                rx.payload_filled = 0;
                rx.header_filled = 0;
                rx.in_payload = false;
                continue;
            }
            let n = match stream.read(&mut rx.payload[filled..]) {
                Ok(0) => {
                    break Err(TransportError::Io(
                        "stream ended inside a frame payload".into(),
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e.into()),
            };
            rx.payload_filled += n;
        }
    };
    if delivered {
        state.rx_ready.notify_all();
    }
    result
}

/// Write as much of `site`'s outbox as the socket accepts, arming or
/// disarming write interest to match whether bytes remain queued.
fn drain_write(shared: &Shared, site: usize) -> Result<(), TransportError> {
    let state = &shared.sites[site];
    let stream_guard = state.stream.lock().expect("reactor stream poisoned");
    let mut stream = &*stream_guard;
    let mut tx = state.tx.lock().expect("reactor outbox poisoned");
    loop {
        // Cheap refcount clone releases the queue borrow so the cursor
        // fields can be updated while the frame is being written.
        let Some(front) = tx.queue.front().cloned() else {
            if tx.want_write {
                tx.want_write = false;
                shared
                    .poller
                    .modify(&*stream_guard, Event::readable(site))?;
            }
            return Ok(());
        };
        match write_frame_from(&mut stream, &front, tx.pos) {
            Ok(0) => return Err(TransportError::Io("socket write returned 0".into())),
            Ok(n) => {
                tx.pos += n;
                if tx.pos == 4 + front.len() {
                    tx.queue.pop_front();
                    tx.pos = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !tx.want_write {
                    tx.want_write = true;
                    shared.poller.modify(&*stream_guard, Event::all(site))?;
                }
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Mark `site` failed: stop polling the socket, drop undeliverable
/// outbox frames, record the error in the inbox (keeping any frames
/// already reassembled deliverable), and wake all `recv` waiters.
/// Called by the I/O loop with no locks held; takes `tx` then `rx`
/// sequentially, never together.
fn fail_site(shared: &Shared, site: usize, error: TransportError) {
    let state = &shared.sites[site];
    {
        let stream = state.stream.lock().expect("reactor stream poisoned");
        let _ = shared.poller.delete(&*stream);
    }
    {
        let mut tx = state.tx.lock().expect("reactor outbox poisoned");
        tx.queue.clear();
        tx.pos = 0;
        tx.want_write = false;
    }
    let mut rx = state.rx.lock().expect("reactor inbox poisoned");
    if rx.failed.is_none() {
        rx.failed = Some(error);
    }
    state.rx_ready.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{read_frame, write_frame};
    use std::net::TcpListener;

    /// An echo worker that replies to each frame with its reverse.
    fn reverse_echo_worker(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while let Some(frame) = read_frame(&mut stream).unwrap_or(None) {
                let mut reply = frame.to_vec();
                reply.reverse();
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
        })
    }

    #[test]
    fn roundtrip_counts_payload_bytes_and_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = reverse_echo_worker(listener);
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        assert_eq!(transport.io_threads(), 1);
        transport.send(0, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"gnip");
        // Payload bytes only, no length prefixes: 4 out + 4 in.
        assert_eq!(transport.counters().bytes(), 8);
        assert_eq!(transport.counters().frames(), 2);
        drop(transport);
        worker.join().unwrap();
    }

    #[test]
    fn pipelined_sends_preserve_fifo_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = reverse_echo_worker(listener);
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        // Queue many requests before reading a single reply.
        for i in 0..100u32 {
            transport
                .send(0, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..100u32 {
            let mut expect = i.to_le_bytes().to_vec();
            expect.reverse();
            assert_eq!(transport.recv(0).unwrap().as_ref(), &expect[..]);
        }
        drop(transport);
        worker.join().unwrap();
    }

    #[test]
    fn one_byte_writes_reassemble() {
        // A peer trickling a frame 1 byte at a time (worst-case partial
        // delivery) must still produce one intact frame.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let payload = b"slow but intact";
            let mut wire = Vec::new();
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
            for byte in wire {
                use std::io::Write as _;
                stream.write_all(&[byte]).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
            // Hold the socket open until the coordinator has read the
            // frame, then close.
            let _ = read_frame(&mut stream);
        });
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"slow but intact");
        drop(transport);
        worker.join().unwrap();
    }

    #[test]
    fn disconnect_surfaces_closed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate hangup
        });
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        assert_eq!(transport.recv(0), Err(TransportError::Closed { site: 0 }));
        // Failure is sticky: sends are rejected too.
        assert_eq!(
            transport.send(0, Bytes::from_static(b"x")),
            Err(TransportError::Closed { site: 0 })
        );
        worker.join().unwrap();
    }

    #[test]
    fn hostile_oversized_prefix_rejected_without_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            use std::io::Write as _;
            // Claims a 4 GiB frame; the reactor must fail the site
            // instead of allocating.
            stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
            stream.flush().unwrap();
            // Keep the socket open so the error comes from validation,
            // not a hangup.
            std::thread::sleep(Duration::from_millis(200));
        });
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        match transport.recv(0) {
            Err(TransportError::Io(msg)) => {
                assert!(msg.contains("MAX_FRAME_LEN"), "unexpected error: {msg}")
            }
            other => panic!("expected oversized-frame error, got {other:?}"),
        }
        worker.join().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_without_failing_the_site() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            write_frame(&mut stream, b"late").unwrap();
            let _ = read_frame(&mut stream); // hold until coordinator closes
        });
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_millis(10);
        assert_eq!(
            transport.recv_deadline(0, deadline),
            Err(TransportError::TimedOut { site: 0 })
        );
        // The site is not failed — the frame arrives on a patient retry.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        assert_eq!(
            transport.recv_deadline(0, deadline).unwrap().as_ref(),
            b"late"
        );
        drop(transport);
        worker.join().unwrap();
    }

    #[test]
    fn reconnect_revives_a_failed_site() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // crash the first connection
            let (mut stream, _) = listener.accept().unwrap();
            while let Some(frame) = read_frame(&mut stream).unwrap_or(None) {
                let mut reply = frame.to_vec();
                reply.reverse();
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
        });
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        assert_eq!(transport.recv(0), Err(TransportError::Closed { site: 0 }));
        assert!(transport.send(0, Bytes::from_static(b"x")).is_err());
        transport.reconnect(0).unwrap();
        transport.send(0, Bytes::from_static(b"pong")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"gnop");
        drop(transport);
        worker.join().unwrap();
    }

    #[test]
    fn unknown_site_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = reverse_echo_worker(listener);
        let transport = ReactorTransport::connect(&[addr]).unwrap();
        assert_eq!(
            transport.send(9, Bytes::new()),
            Err(TransportError::UnknownSite { site: 9 })
        );
        assert_eq!(
            transport.recv(9),
            Err(TransportError::UnknownSite { site: 9 })
        );
        drop(transport);
        worker.join().unwrap();
    }
}
