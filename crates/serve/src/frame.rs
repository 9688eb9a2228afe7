//! Length-delimited framing for the wire protocol.
//!
//! Each frame is an 8-byte little-endian payload length followed by that
//! many bytes of UTF-8 JSON (one document per frame). Length delimiting —
//! rather than scanning for newlines — lets the reader allocate exactly
//! once per message and reject oversized garbage before buffering it.

use std::io::{self, IoSlice, Read, Write};

/// Upper bound on a single frame's payload. Snapshots of bench-scale
/// cities fit comfortably; anything larger is a corrupt or hostile stream.
pub const MAX_FRAME_LEN: u64 = 256 << 20;

/// Writes one frame (header + payload) and flushes.
///
/// Header and payload leave in one vectored write, not two writes: on a
/// socket, a lone 8-byte header write followed by the payload write is
/// the write-write-read pattern that stalls each reply on Nagle's
/// algorithm plus the peer's delayed ACK. The payload is not copied, so a
/// multi-megabyte snapshot costs no extra buffer. Short writes continue
/// from where the previous call stopped.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let header = (payload.len() as u64).to_le_bytes();
    let mut sent = 0;
    while sent < header.len() + payload.len() {
        let result = if sent < header.len() {
            w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - header.len()..])
        };
        match result {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean end of stream
/// (EOF at a frame boundary); mid-frame truncation is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u64::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"a\":1}").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, "π".as_bytes()).unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "π".as_bytes());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"xyz").unwrap();
        wire.truncate(4);
        let mut r = Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"xyz").unwrap();
        wire.truncate(9);
        let mut r = Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
    }

    /// A writer that accepts at most `cap` bytes per call and records the
    /// calls, standing in for a socket that takes partial writes.
    struct Trickle {
        cap: usize,
        wire: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.cap - n);
                self.wire.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_when_the_writer_takes_it_whole() {
        let mut w = Trickle {
            cap: usize::MAX,
            wire: Vec::new(),
            calls: 0,
        };
        write_frame(&mut w, b"{\"a\":1}").unwrap();
        assert_eq!(w.calls, 1);
        let mut want = 7u64.to_le_bytes().to_vec();
        want.extend_from_slice(b"{\"a\":1}");
        assert_eq!(w.wire, want);
    }

    #[test]
    fn short_writes_resume_without_changing_the_bytes() {
        let payload: Vec<u8> = (0..100u8).collect();
        for cap in [1, 3, 8, 9, 50] {
            let mut w = Trickle {
                cap,
                wire: Vec::new(),
                calls: 0,
            };
            write_frame(&mut w, &payload).unwrap();
            let mut r = Cursor::new(w.wire);
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload, "cap {cap}");
            assert!(read_frame(&mut r).unwrap().is_none());
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut r = Cursor::new(u64::MAX.to_le_bytes());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
