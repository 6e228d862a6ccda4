//! Generic worker serve loops: frames in, frames out.
//!
//! A worker is a handler function `FnMut(Bytes) -> Option<Bytes>`: it
//! receives one request frame and returns `Some(reply)` to answer and
//! keep serving, or `None` to stop (e.g. after a shutdown request). The
//! loops here drive such a handler over either transport backend; the
//! gStoreD-specific handler lives in `gstored_core::worker`, keeping this
//! crate free of engine types.

use std::io::{self, Read, Write};

use bytes::Bytes;

use crate::transport::{is_timeout, write_frame, InProcessEndpoint, MAX_FRAME_LEN};

/// Why a serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The coordinator hung up (channel dropped / socket EOF). A
    /// persistent worker process goes back to accepting connections.
    Disconnected,
    /// The handler returned `None` (shutdown was requested).
    Stopped,
}

/// Serve frames over a byte stream (e.g. a `TcpStream`) until the peer
/// disconnects or the handler stops: [`serve_stream_idle`] with no idle
/// work.
pub fn serve_stream<S, H>(stream: &mut S, handler: H) -> io::Result<ServeOutcome>
where
    S: Read + Write,
    H: FnMut(Bytes) -> Option<Bytes>,
{
    serve_stream_idle(stream, handler, || {})
}

/// [`serve_stream`] with an **idle tick**: whenever a full tick passes
/// without a new frame starting, `on_idle` runs (housekeeping — e.g. the
/// site worker's stale-query TTL sweep) and the loop keeps waiting. A
/// worker whose coordinator died mid-conversation stops receiving frames
/// entirely, so housekeeping must not depend on traffic.
///
/// The caller must arm a socket read timeout (`set_read_timeout`) for
/// ticks to fire; timeouts are retried at *any* stream position — a tick
/// elapsing mid-frame just means the coordinator is slow writing, not
/// that the stream is torn, because this side never gives up on the
/// frame. Without a socket timeout `on_idle` never runs.
pub fn serve_stream_idle<S, H, I>(
    stream: &mut S,
    mut handler: H,
    mut on_idle: I,
) -> io::Result<ServeOutcome>
where
    S: Read + Write,
    H: FnMut(Bytes) -> Option<Bytes>,
    I: FnMut(),
{
    // One read that rides out timeouts (ticking) and interrupts; `Ok(0)`
    // is EOF, surfaced to the framing loops below.
    fn read_ticking<S: Read>(
        stream: &mut S,
        buf: &mut [u8],
        on_idle: &mut impl FnMut(),
    ) -> io::Result<usize> {
        loop {
            match stream.read(buf) {
                Ok(n) => return Ok(n),
                Err(e) if is_timeout(&e) => on_idle(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    loop {
        let mut len_buf = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            match read_ticking(stream, &mut len_buf[filled..], &mut on_idle)? {
                0 if filled == 0 => return Ok(ServeOutcome::Disconnected),
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended inside a frame header",
                    ))
                }
                n => filled += n,
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
        let mut filled = 0;
        while filled < len {
            match read_ticking(stream, &mut payload[filled..], &mut on_idle)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended inside a frame payload",
                    ))
                }
                n => filled += n,
            }
        }
        match handler(Bytes::from(payload)) {
            Some(reply) => write_frame(stream, &reply)?,
            None => return Ok(ServeOutcome::Stopped),
        }
    }
}

/// Serve frames over an in-process endpoint until the coordinator drops
/// the transport or the handler stops.
pub fn serve_endpoint<H>(endpoint: InProcessEndpoint, mut handler: H) -> ServeOutcome
where
    H: FnMut(Bytes) -> Option<Bytes>,
{
    while let Some(frame) = endpoint.recv() {
        match handler(frame) {
            Some(reply) => {
                if !endpoint.send(reply) {
                    return ServeOutcome::Disconnected;
                }
            }
            None => return ServeOutcome::Stopped,
        }
    }
    ServeOutcome::Disconnected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{read_frame, InProcessTransport, Transport};

    #[test]
    fn endpoint_loop_replies_until_disconnect() {
        let (transport, mut endpoints) = InProcessTransport::pair(1);
        let ep = endpoints.pop().unwrap();
        let worker = std::thread::spawn(move || serve_endpoint(ep, Some));
        transport.send(0, Bytes::from_static(b"a")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"a");
        drop(transport);
        assert_eq!(worker.join().unwrap(), ServeOutcome::Disconnected);
    }

    #[test]
    fn endpoint_loop_stops_when_handler_says_so() {
        let (transport, mut endpoints) = InProcessTransport::pair(1);
        let ep = endpoints.pop().unwrap();
        let worker = std::thread::spawn(move || {
            serve_endpoint(
                ep,
                |frame| if frame.is_empty() { None } else { Some(frame) },
            )
        });
        transport.send(0, Bytes::from_static(b"x")).unwrap();
        assert_eq!(transport.recv(0).unwrap().as_ref(), b"x");
        transport.send(0, Bytes::new()).unwrap();
        assert_eq!(worker.join().unwrap(), ServeOutcome::Stopped);
    }

    #[test]
    fn idle_loop_ticks_while_quiet_and_still_serves() {
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::Duration;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ticks = Arc::new(AtomicUsize::new(0));
        let server_ticks = Arc::clone(&ticks);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(5)))
                .unwrap();
            serve_stream_idle(&mut stream, Some, || {
                server_ticks.fetch_add(1, Ordering::SeqCst);
            })
        });
        let mut client = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        write_frame(&mut client, b"ping").unwrap();
        assert_eq!(read_frame(&mut client).unwrap().unwrap().as_ref(), b"ping");
        assert!(
            ticks.load(Ordering::SeqCst) >= 1,
            "idle ticks fire while the connection is quiet"
        );
        drop(client);
        assert_eq!(server.join().unwrap().unwrap(), ServeOutcome::Disconnected);
    }

    #[test]
    fn stream_loop_serves_frames() {
        let mut requests = Vec::new();
        write_frame(&mut requests, b"one").unwrap();
        write_frame(&mut requests, b"two").unwrap();
        struct Duplex {
            input: io::Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut duplex = Duplex {
            input: io::Cursor::new(requests),
            output: Vec::new(),
        };
        let outcome = serve_stream(&mut duplex, Some).unwrap();
        assert_eq!(outcome, ServeOutcome::Disconnected);
        let mut replies = io::Cursor::new(duplex.output);
        assert_eq!(read_frame(&mut replies).unwrap().unwrap().as_ref(), b"one");
        assert_eq!(read_frame(&mut replies).unwrap().unwrap().as_ref(), b"two");
    }
}
