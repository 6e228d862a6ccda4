//! Generic worker serve loops: frames in, frames out.
//!
//! A worker is a handler function `FnMut(Bytes) -> Option<Bytes>`: it
//! receives one request frame and returns `Some(reply)` to answer and
//! keep serving, or `None` to stop (e.g. after a shutdown request). The
//! loops here drive such a handler over either transport backend; the
//! gStoreD-specific handler lives in `gstored_core::worker`, keeping this
//! crate free of engine types.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener};

use bytes::Bytes;

use crate::transport::{read_frame, write_frame, InProcessEndpoint};

/// Why a serve loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The coordinator hung up (channel dropped / socket EOF). A
    /// persistent worker process goes back to accepting connections.
    Disconnected,
    /// The handler returned `None` (shutdown was requested).
    Stopped,
}

/// The address a thread connects to so that a loop blocked in
/// `listener.accept()` wakes up and can see it should stop. A wildcard
/// bind (`0.0.0.0` / `[::]`) is not connectable on every platform; loopback
/// at the bound port is.
pub fn wake_addr(listener: &TcpListener) -> io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        match addr {
            SocketAddr::V4(_) => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            SocketAddr::V6(_) => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        }
    }
    Ok(addr)
}

/// Serve frames over a byte stream (e.g. a `TcpStream`) until the peer
/// disconnects between frames or the handler stops. A torn or oversized
/// frame ends the loop with the read error.
pub fn serve_stream<S, H>(stream: &mut S, mut handler: H) -> io::Result<ServeOutcome>
where
    S: Read + Write,
    H: FnMut(Bytes) -> Option<Bytes>,
{
    while let Some(frame) = read_frame(stream)? {
        match handler(frame) {
            Some(reply) => write_frame(stream, &reply)?,
            None => return Ok(ServeOutcome::Stopped),
        }
    }
    Ok(ServeOutcome::Disconnected)
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
    use crate::transport::{InProcessTransport, Transport};

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
