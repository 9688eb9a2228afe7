//! A framed protocol connection, and a `poll(2)` wait over several.
//!
//! Frames are the serve protocol's: an 8-byte little-endian length, then
//! that many bytes of JSON. Received bytes are accumulated in a buffer,
//! so a timeout or a non-blocking drain in the middle of a frame just
//! leaves it for the next call.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One client connection.
pub struct FrameConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameConn {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> io::Result<FrameConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrameConn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// A second handle on the same socket (one thread sends while another
    /// receives). The receive buffer is not shared: receive on one handle.
    pub fn try_clone(&self) -> io::Result<FrameConn> {
        Ok(FrameConn {
            stream: self.stream.try_clone()?,
            buf: Vec::new(),
        })
    }

    /// Sends one frame. Works on a socket another handle switched to
    /// non-blocking mode: a full send buffer is retried, not an error.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(payload);
        let mut rest = frame.as_slice();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived without blocking and appends every
    /// complete frame to `out`; a partial frame stays buffered. Switches
    /// the socket to non-blocking mode. Returns `false` at end of stream.
    pub fn drain_ready(&mut self, out: &mut Vec<Vec<u8>>) -> io::Result<bool> {
        self.stream.set_nonblocking(true)?;
        let mut chunk = [0u8; 1 << 16];
        let open = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        while let Some(frame) = self.take_frame() {
            out.push(frame);
        }
        Ok(open)
    }

    /// The socket's file descriptor, for [`wait_readable`].
    pub fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    fn take_frame(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 8 {
            return None;
        }
        let len = u64::from_le_bytes(self.buf[..8].try_into().expect("8 bytes")) as usize;
        if self.buf.len() < 8 + len {
            return None;
        }
        let payload = self.buf[8..8 + len].to_vec();
        self.buf.drain(..8 + len);
        Some(payload)
    }

    /// Receives one frame, waiting at most `timeout` (`None` blocks).
    /// `Ok(None)` means the wait timed out; end of stream is an error.
    /// For control calls: the kernel rounds a socket read timeout up to
    /// its scheduler tick, so timed traffic waits in [`wait_readable`].
    pub fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<Vec<u8>>> {
        if let Some(frame) = self.take_frame() {
            return Ok(Some(frame));
        }
        self.stream.set_nonblocking(false)?;
        let timeout = timeout.map(|t| t.max(Duration::from_micros(10)));
        self.stream.set_read_timeout(timeout)?;
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(frame) = self.take_frame() {
                        return Ok(Some(frame));
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a request and waits for the next frame, parsed as JSON.
    pub fn call(&mut self, payload: &str, timeout: Duration) -> io::Result<serde_json::Value> {
        self.send(payload.as_bytes())?;
        let frame = self
            .recv(Some(timeout))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no answer in time"))?;
        parse(&frame)
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Blocks until at least one of `fds` is readable (or hung up), or
/// `timeout` passes; returns which are ready. `poll(2)` wakes as soon as
/// data arrives, whereas a socket read timeout is rounded up to the
/// kernel's scheduler tick.
pub fn wait_readable(fds: &[i32], timeout: Duration) -> io::Result<Vec<bool>> {
    const POLLIN: i16 = 0x1;
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `set` is a live, correctly laid out pollfd array of exactly
    // the length passed, and poll(2) writes only its `revents` fields.
    let n = unsafe { poll(set.as_mut_ptr(), set.len() as std::ffi::c_ulong, millis) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(vec![false; fds.len()])
        } else {
            Err(e)
        };
    }
    Ok(set.iter().map(|p| p.revents != 0).collect())
}

/// Parses a response frame.
pub fn parse(frame: &[u8]) -> io::Result<serde_json::Value> {
    std::str::from_utf8(frame)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response is not JSON"))
}
