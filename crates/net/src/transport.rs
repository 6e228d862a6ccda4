//! Pluggable message transports between the coordinator and site workers.
//!
//! The engine speaks to its sites through the [`Transport`] trait: an
//! ordered, reliable, length-delimited frame channel per site. This
//! module holds the trait, the in-process backend and the TCP frame
//! codec:
//!
//! * [`InProcessTransport`] — sites in the coordinator's process, run as
//!   step handlers on one pool of `min(available_parallelism(), sites)` threads (the
//!   [`executor`]) and answering over channels. The
//!   default backend: deterministic, no sockets, but every frame is still
//!   a real serialized byte buffer, so shipment accounting is identical
//!   to a networked deployment.
//! * [`write_frame`] / [`read_frame`] — length-prefixed frames over a
//!   byte stream, spoken by the `gstored-worker` serve loops and by the
//!   coordinator's TCP backend,
//!   [`ReactorTransport`](crate::reactor::ReactorTransport).
//!
//! What a frame *means* is defined one layer up (`gstored_core::protocol`
//! encodes typed request/response envelopes); this module only moves
//! opaque bytes and counts them.

use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::executor::{self, Mailboxes};

/// Upper bound on a single frame's payload length (1 GiB). A length
/// prefix above this is treated as a corrupt stream rather than an
/// allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// A transport failure: the peer went away or the stream is corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The worker side of the channel/socket is closed.
    Closed {
        /// Site whose channel closed.
        site: usize,
    },
    /// The site index is outside `0..sites()`.
    UnknownSite {
        /// The offending site index.
        site: usize,
    },
    /// No frame arrived from the site before the caller's deadline.
    /// [`Transport::recv_deadline`] only returns this at a clean frame
    /// boundary: giving up consumes nothing, so the caller may retry.
    /// The coordinator still treats a timed-out site as needing repair,
    /// since silence cannot tell a slow worker from a hung one.
    TimedOut {
        /// Site that failed to answer in time.
        site: usize,
    },
    /// Dialing a site's worker address failed (connection refused,
    /// unresolvable address). Carries the site index so the caller can
    /// attribute the failure — a refused dial means *that worker* is
    /// unreachable, which the session surfaces as site-unavailable
    /// degradation rather than an anonymous transport fault.
    Connect {
        /// Site whose address could not be dialed.
        site: usize,
        /// The underlying dial failure.
        detail: String,
    },
    /// An I/O error from the underlying socket.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed { site } => {
                write!(f, "transport to site {site} is closed")
            }
            TransportError::UnknownSite { site } => write!(f, "no such site: {site}"),
            TransportError::TimedOut { site } => {
                write!(f, "site {site} did not answer before the deadline")
            }
            TransportError::Connect { site, detail } => {
                write!(f, "cannot connect to site {site}: {detail}")
            }
            TransportError::Io(msg) => write!(f, "transport I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

/// Coordinator-side view of `k` site workers: an ordered, reliable frame
/// channel per site.
///
/// The engine's contract is FIFO pipelining per site: it may have
/// several request frames in flight to one site at a time (concurrent
/// queries' chains interleave on one connection), and the site answers
/// every request in arrival order. Implementations
/// must therefore preserve per-site frame order in both directions but
/// need no reordering or windowing — `recv(site)` always yields the
/// reply to the oldest unanswered request. Sends to *different* sites
/// happen back to back, which is what gives the scatter stages their
/// parallelism; the `ReplyRouter` one layer up handles interleaving
/// *across* queries.
///
/// ```
/// use bytes::Bytes;
/// use gstored_net::transport::{InProcessTransport, Transport};
///
/// // One echo worker behind the in-process backend.
/// let (transport, endpoints) = InProcessTransport::pair(1);
/// std::thread::scope(|scope| {
///     for ep in endpoints {
///         scope.spawn(move || {
///             gstored_net::worker::serve_endpoint(ep, |frame| Some(frame))
///         });
///     }
///     transport.send(0, Bytes::from_static(b"ping")).unwrap();
///     assert_eq!(transport.recv(0).unwrap().as_ref(), b"ping");
///     drop(transport); // closes the channels; the worker loop ends
/// });
/// ```
pub trait Transport: Send + Sync {
    /// Number of sites behind this transport.
    fn sites(&self) -> usize;

    /// Ship one frame to `site`.
    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError>;

    /// Block until `site`'s next frame arrives or `deadline` passes,
    /// returning [`TransportError::TimedOut`] in the latter case. The
    /// one receive every backend implements.
    ///
    /// A timeout must leave the connection at a clean frame boundary
    /// (no partial frame consumed) so the caller can either retry the
    /// receive or declare the site dead — the provided backends all
    /// guarantee this, failing the connection instead if a frame was
    /// torn mid-read.
    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError>;

    /// Block until `site`'s next frame arrives:
    /// [`Transport::recv_deadline`] with a deadline a day away.
    fn recv(&self, site: usize) -> Result<Bytes, TransportError> {
        self.recv_deadline(site, Instant::now() + Duration::from_secs(86_400))
    }

    /// Tear down and re-establish the connection to `site`, clearing
    /// any sticky failure state and any frame still queued on the old
    /// connection. The coordinator's one recovery path: after a site is
    /// marked dead or times out, it reconnects that site and re-installs
    /// its fragment. Backends with nothing to re-establish return an
    /// error, which the repair reports after its capped attempts.
    fn reconnect(&self, site: usize) -> Result<(), TransportError> {
        Err(TransportError::Io(format!(
            "transport cannot reconnect site {site}: backend does not support re-dialing"
        )))
    }
}

/// Running totals of frames and bytes moved through a transport, in both
/// directions. Used by tests to assert that the engine's shipment metrics
/// equal what actually crossed the transport.
#[derive(Debug, Default)]
pub struct TransferCounters {
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl TransferCounters {
    /// Total frames sent plus received.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent plus received (excluding the transport's
    /// own length prefixes — the quantity charged as data shipment).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn record(&self, len: usize) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
    }
}

/// The worker-side half of one in-process channel: frames from the
/// coordinator arrive via [`InProcessEndpoint::recv`], replies go back
/// via [`InProcessEndpoint::send`].
#[derive(Debug)]
pub struct InProcessEndpoint {
    rx: Receiver<Bytes>,
    tx: Sender<Bytes>,
}

impl InProcessEndpoint {
    /// Block for the next frame; `None` once the coordinator hung up.
    pub fn recv(&self) -> Option<Bytes> {
        self.rx.recv().ok()
    }

    /// Send a reply frame; `false` once the coordinator hung up.
    pub fn send(&self, frame: Bytes) -> bool {
        self.tx.send(frame).is_ok()
    }
}

/// Where an [`InProcessTransport`]'s request frames go.
#[derive(Debug)]
enum Requests {
    /// One channel per site, served by the caller through the
    /// [`InProcessEndpoint`]s of [`InProcessTransport::pair`].
    Endpoints(Vec<Sender<Bytes>>),
    /// The site mailboxes of the transport's [`executor`].
    Pool(Arc<Mailboxes>),
}

/// Channel-backed transport to `k` in-process sites.
///
/// [`InProcessTransport::pooled`] (and its scoped twin
/// [`InProcessTransport::pooled_in`]) runs every site as a step handler
/// on one pool of `min(available_parallelism(), sites)` threads — the
/// [`executor`] — and can
/// [reconnect](Transport::reconnect) a site by giving it a fresh
/// handler. [`InProcessTransport::pair`] hands per-site endpoints to the
/// caller instead, to be served by threads of the caller's own.
/// Replies come back over one channel per site either way. Dropping the
/// transport stops the pool (joining the threads it owns) or hangs up
/// the endpoints.
#[derive(Debug)]
pub struct InProcessTransport {
    requests: Requests,
    /// Behind a lock per site so one reader at a time receives, and so
    /// `reconnect` can swap a site's reply channel.
    from_workers: Vec<Mutex<Receiver<Bytes>>>,
    counters: TransferCounters,
    /// The pool threads of a [`InProcessTransport::pooled`] fleet (a
    /// scoped fleet's are joined by its scope).
    threads: Vec<JoinHandle<()>>,
}

impl InProcessTransport {
    /// Create the coordinator side plus one endpoint per site. Spawn a
    /// worker loop (see `gstored_net::worker::serve_endpoint`) on each
    /// endpoint before exercising the transport. Such a transport cannot
    /// [reconnect](Transport::reconnect): it does not own the workers.
    pub fn pair(sites: usize) -> (InProcessTransport, Vec<InProcessEndpoint>) {
        assert!(sites > 0, "need at least one site");
        let mut to_workers = Vec::with_capacity(sites);
        let mut from_workers = Vec::with_capacity(sites);
        let mut endpoints = Vec::with_capacity(sites);
        for _ in 0..sites {
            let (req_tx, req_rx) = channel();
            let (resp_tx, resp_rx) = channel();
            to_workers.push(req_tx);
            from_workers.push(resp_rx);
            endpoints.push(InProcessEndpoint {
                rx: req_rx,
                tx: resp_tx,
            });
        }
        let transport = InProcessTransport::new(Requests::Endpoints(to_workers), from_workers);
        (transport, endpoints)
    }

    /// A fleet of `sites` step handlers on a pool of
    /// `min(available_parallelism(), sites)` threads the transport owns, named
    /// `gstored-site-{i}`. `make(site)` builds a site's handler, at start
    /// and after each [reconnect](Transport::reconnect). Dropping the
    /// transport stops and joins the pool.
    pub fn pooled<H>(
        sites: usize,
        make: impl Fn(usize) -> H + Send + Sync + 'static,
    ) -> InProcessTransport
    where
        H: FnMut(Bytes) -> Option<Bytes> + Send + 'static,
    {
        let (mailboxes, receivers, pool) = executor::start(sites, make);
        let mut transport = InProcessTransport::new(Requests::Pool(mailboxes), receivers);
        transport.threads = executor::spawn(pool);
        transport
    }

    /// [`InProcessTransport::pooled`] on threads of `scope`, so the
    /// handlers may borrow what outlives the scope. Drop the transport
    /// before the scope ends: that stops the pool, and the scope joins
    /// its threads.
    pub fn pooled_in<'scope, 'env, H>(
        scope: &'scope Scope<'scope, 'env>,
        sites: usize,
        make: impl Fn(usize) -> H + Send + Sync + 'env,
    ) -> InProcessTransport
    where
        H: FnMut(Bytes) -> Option<Bytes> + Send + 'env,
    {
        let (mailboxes, receivers, pool) = executor::start(sites, make);
        executor::spawn_in(scope, pool);
        InProcessTransport::new(Requests::Pool(mailboxes), receivers)
    }

    fn new(requests: Requests, from_workers: Vec<Receiver<Bytes>>) -> InProcessTransport {
        InProcessTransport {
            requests,
            from_workers: from_workers.into_iter().map(Mutex::new).collect(),
            counters: TransferCounters::default(),
            threads: Vec::new(),
        }
    }

    /// Frame/byte totals moved through this transport so far.
    pub fn counters(&self) -> &TransferCounters {
        &self.counters
    }
}

impl Transport for InProcessTransport {
    fn sites(&self) -> usize {
        self.from_workers.len()
    }

    fn send(&self, site: usize, frame: Bytes) -> Result<(), TransportError> {
        if site >= self.sites() {
            return Err(TransportError::UnknownSite { site });
        }
        self.counters.record(frame.len());
        match &self.requests {
            Requests::Endpoints(to_workers) => to_workers[site]
                .send(frame)
                .map_err(|_| TransportError::Closed { site }),
            Requests::Pool(mailboxes) => mailboxes.post(site, frame),
        }
    }

    fn recv_deadline(&self, site: usize, deadline: Instant) -> Result<Bytes, TransportError> {
        let rx = self
            .from_workers
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        let guard = rx.lock().expect("transport receiver poisoned");
        let timeout = deadline.saturating_duration_since(Instant::now());
        let frame = guard.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::TimedOut { site },
            RecvTimeoutError::Disconnected => TransportError::Closed { site },
        })?;
        self.counters.record(frame.len());
        Ok(frame)
    }

    /// Start `site` over with a fresh handler: frames still queued for
    /// it are dropped, and so is any reply its old handler has yet to
    /// emit. The old reply channel hangs up first, so a receive still
    /// blocked on it returns before it is replaced.
    fn reconnect(&self, site: usize) -> Result<(), TransportError> {
        let slot = self
            .from_workers
            .get(site)
            .ok_or(TransportError::UnknownSite { site })?;
        let Requests::Pool(mailboxes) = &self.requests else {
            return Err(TransportError::Io(format!(
                "site {site}'s worker is not owned by this transport, so it cannot be restarted"
            )));
        };
        let rx = mailboxes.reset(site);
        *slot.lock().expect("transport receiver poisoned") = rx;
        Ok(())
    }
}

impl Drop for InProcessTransport {
    fn drop(&mut self) {
        if let Requests::Pool(mailboxes) = &self.requests {
            mailboxes.stop();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Write one length-prefixed frame (`u32` little-endian length, then the
/// payload) and flush. Prefix and payload leave together in one vectored
/// write, so on a `TCP_NODELAY` socket a small frame is one segment and
/// wakes its reader once; partial writes resume where they stopped.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    assert!(frame.len() <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    let mut pos = 0;
    while pos < 4 + frame.len() {
        match write_frame_from(w, frame, pos) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// One vectored write of what remains of a frame from byte `pos` of its
/// length prefix + payload. Returns the bytes the writer took.
pub(crate) fn write_frame_from<W: Write>(w: &mut W, frame: &[u8], pos: usize) -> io::Result<usize> {
    let header = (frame.len() as u32).to_le_bytes();
    w.write_vectored(&[
        IoSlice::new(&header[pos.min(4)..]),
        IoSlice::new(&frame[pos.saturating_sub(4)..]),
    ])
}

/// Read one length-prefixed frame. Returns `None` on a clean end of
/// stream (the peer closed between frames); errors on a truncated frame
/// or an oversized length prefix. Interrupted reads are retried.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Bytes>> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte means the peer hung up politely.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_LEN",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(Bytes::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_roundtrip_and_counters() {
        let (transport, endpoints) = InProcessTransport::pair(2);
        std::thread::scope(|scope| {
            for ep in endpoints {
                scope.spawn(move || {
                    while let Some(frame) = ep.recv() {
                        let mut reply = frame.to_vec();
                        reply.reverse();
                        if !ep.send(Bytes::from(reply)) {
                            break;
                        }
                    }
                });
            }
            transport.send(0, Bytes::from_static(b"abc")).unwrap();
            transport.send(1, Bytes::from_static(b"xy")).unwrap();
            assert_eq!(transport.recv(0).unwrap().as_ref(), b"cba");
            assert_eq!(transport.recv(1).unwrap().as_ref(), b"yx");
            assert_eq!(transport.counters().frames(), 4);
            assert_eq!(transport.counters().bytes(), 10);
            drop(transport);
        });
    }

    #[test]
    fn in_process_unknown_site_rejected() {
        let (transport, _endpoints) = InProcessTransport::pair(1);
        assert_eq!(
            transport.send(3, Bytes::new()),
            Err(TransportError::UnknownSite { site: 3 })
        );
    }

    #[test]
    fn in_process_closed_worker_detected() {
        let (transport, endpoints) = InProcessTransport::pair(1);
        drop(endpoints);
        assert_eq!(
            transport.send(0, Bytes::new()),
            Err(TransportError::Closed { site: 0 })
        );
        assert_eq!(transport.recv(0), Err(TransportError::Closed { site: 0 }));
    }

    #[test]
    fn frame_codec_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Records each write call; takes at most `limit` bytes per call.
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.limit - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_call() {
        let mut sink = Sink {
            bytes: Vec::new(),
            calls: 0,
            limit: usize::MAX,
        };
        for (i, frame) in [&b"hello"[..], b"", &[7u8; 3000]].into_iter().enumerate() {
            write_frame(&mut sink, frame).unwrap();
            assert_eq!(sink.calls, i + 1, "frame {i} took more than one write");
        }
        let mut cursor = io::Cursor::new(sink.bytes);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"");
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap().as_ref(),
            &[7u8; 3000]
        );
    }

    /// A writer that takes one byte per call still receives exactly the
    /// bytes of the two-write encoding: prefix, then payload.
    #[test]
    fn one_byte_writes_resume_byte_identically() {
        let mut sink = Sink {
            bytes: Vec::new(),
            calls: 0,
            limit: 1,
        };
        write_frame(&mut sink, b"hello").unwrap();
        write_frame(&mut sink, b"").unwrap();
        let mut expected = Vec::from(5u32.to_le_bytes());
        expected.extend_from_slice(b"hello");
        expected.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(sink.bytes, expected);
        assert_eq!(sink.calls, expected.len());
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
        // A torn header is also an error, not a clean EOF.
        let mut cursor = io::Cursor::new(vec![1u8, 0]);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A read interrupted by a signal is retried, in the header as in
    /// the payload, and the frame still arrives whole.
    #[test]
    fn interrupted_reads_are_retried() {
        struct Interrupting {
            inner: io::Cursor<Vec<u8>>,
            interrupt_next: bool,
        }
        impl Read for Interrupting {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.interrupt_next = !self.interrupt_next;
                if self.interrupt_next {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                // One byte per call, so the header takes four reads.
                let n = buf.len().min(1);
                self.inner.read(&mut buf[..n])
            }
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = Interrupting {
            inner: io::Cursor::new(buf),
            interrupt_next: false,
        };
        assert_eq!(read_frame(&mut r).unwrap().unwrap().as_ref(), b"hello");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::from(u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"x");
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn in_process_recv_deadline_times_out_cleanly() {
        let (transport, endpoints) = InProcessTransport::pair(1);
        // No worker is serving, so nothing ever arrives.
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(
            transport.recv_deadline(0, deadline),
            Err(TransportError::TimedOut { site: 0 })
        );
        // The channel is untouched: a frame sent later is received fine.
        assert!(endpoints[0].send(Bytes::from_static(b"late")));
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"late");
    }
}
