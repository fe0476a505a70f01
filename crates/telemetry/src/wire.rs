//! Length-prefixed JSON framing for socket transports.
//!
//! One frame is a little-endian `u32` payload length followed by that
//! many bytes of UTF-8 JSON text:
//!
//! ```text
//! | u32 len (LE) | len bytes of JSON |
//! ```
//!
//! **One write per frame.** [`write_frame`] serializes header and payload
//! into one buffer and hands it to the transport in a single `write_all`.
//! On a TCP stream two writes per frame (header, then payload) make every
//! request write–write–read: Nagle holds the second segment until the
//! first is acknowledged, and the peer's delayed-ACK timer (~40 ms) is
//! what acknowledges it — once per direction, ~85 ms per round trip for
//! no work at all (`docs/SERVER.md`, "Wire latency").
//!
//! The codec is defensive by construction — it is the boundary where
//! untrusted bytes enter the process:
//!
//! * frames larger than the caller's limit are rejected **before** any
//!   payload allocation ([`FrameError::TooLarge`]), and an accepted
//!   length reserves at most 64 KiB up front — the rest of the buffer is
//!   paid for as bytes arrive,
//! * short reads surface as [`FrameError::Truncated`] rather than a
//!   panic or a hang on garbage lengths,
//! * payloads must be valid UTF-8 and valid JSON ([`FrameError::BadJson`]),
//! * a clean EOF **between** frames is [`FrameError::Closed`], so peers
//!   can distinguish orderly hangup from corruption.
//!
//! `gem-server` builds its wire protocol on this module (see
//! `docs/SERVER.md`).

use crate::json::{parse, Json, JsonError};
use std::fmt;
use std::io::{Read, Write};

/// Default per-frame payload limit (16 MiB) — comfortably above any
/// compile request for the designs in this repository, far below
/// anything that could exhaust memory.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

const HEADER_BYTES: usize = 4;

/// What [`read_frame`] reserves up front for a payload, however large
/// the header says it is.
const READ_CHUNK: usize = 64 * 1024;

/// Errors from [`read_frame`] / [`write_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (orderly EOF).
    Closed,
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The frame length exceeds the configured limit. The stream is no
    /// longer synchronized; the connection must be dropped.
    TooLarge {
        /// Declared (or serialized) payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload was not valid UTF-8 JSON.
    BadJson(JsonError),
    /// Transport failure.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::BadJson(e) => write!(f, "bad frame payload: {e}"),
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<JsonError> for FrameError {
    fn from(e: JsonError) -> Self {
        FrameError::BadJson(e)
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serializes `v` compactly and writes it as one frame, in one `write`.
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the serialized payload exceeds `max`
/// (nothing is written), or [`FrameError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, v: &Json, max: usize) -> Result<(), FrameError> {
    // Four NUL bytes (valid UTF-8) hold the header's place, so the payload
    // is serialized straight behind it and never copied.
    let mut frame = String::from("\0\0\0\0");
    v.write_compact(&mut frame);
    let mut frame = frame.into_bytes();
    let len = frame.len() - HEADER_BYTES;
    let header = match u32::try_from(len) {
        Ok(n) if len <= max => n,
        _ => return Err(FrameError::TooLarge { len, max }),
    };
    frame[..HEADER_BYTES].copy_from_slice(&header.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame and parses its payload.
///
/// # Errors
///
/// See [`FrameError`]; after [`FrameError::TooLarge`], [`Truncated`]
/// (mid-frame EOF), or [`BadJson`] the stream position is undefined and
/// the connection should be dropped.
///
/// [`Truncated`]: FrameError::Truncated
/// [`BadJson`]: FrameError::BadJson
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Json, FrameError> {
    let mut len_bytes = [0u8; HEADER_BYTES];
    // Read the header byte-wise so a clean EOF before any byte maps to
    // Closed while EOF inside the header maps to Truncated.
    let mut filled = 0usize;
    while filled < HEADER_BYTES {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Err(FrameError::Closed),
            0 => {
                return Err(FrameError::Truncated {
                    expected: HEADER_BYTES,
                    got: filled,
                })
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    // The header is only a claim: reserve one chunk and let the buffer
    // grow as bytes actually arrive.
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    let got = r.take(len as u64).read_to_end(&mut payload)?;
    if got < len {
        return Err(FrameError::Truncated { expected: len, got });
    }
    let text = std::str::from_utf8(&payload).map_err(|e| {
        FrameError::BadJson(JsonError {
            at: e.valid_up_to(),
            message: "payload is not UTF-8".to_string(),
        })
    })?;
    Ok(parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn round_trip(v: &Json) -> Json {
        let mut buf = Vec::new();
        write_frame(&mut buf, v, DEFAULT_MAX_FRAME).expect("writes");
        read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).expect("reads")
    }

    #[test]
    fn frames_round_trip() {
        let v = json!({"cmd": "step", "cycles": 64u64, "s": "😀\n\u{1}"});
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn multiple_frames_in_one_stream() {
        let mut buf = Vec::new();
        let a = json!({"id": 1u64});
        let b = json!({"id": 2u64});
        write_frame(&mut buf, &a, 1024).unwrap();
        write_frame(&mut buf, &b, 1024).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 1024).unwrap(), a);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b);
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_frames_rejected_without_allocation() {
        // Declared length of ~4 GiB with no payload: must fail fast on
        // the limit check, not try to allocate or read 4 GiB.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameError::TooLarge {
                len: 4294967295,
                max: 1024
            }
        ));
        // Write side enforces the same bound.
        let big = Json::Str("x".repeat(2048));
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, &big, 1024),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(out.is_empty(), "nothing written after a rejected frame");
    }

    #[test]
    fn truncated_frames_reported() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &json!({"k": "value"}), 1024).unwrap();
        // Cut inside the payload.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], 1024),
            Err(FrameError::Truncated { .. })
        ));
        // Cut inside the header.
        assert!(matches!(
            read_frame(&mut &buf[..2], 1024),
            Err(FrameError::Truncated {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn declared_length_is_not_committed_before_bytes_arrive() {
        // A header may claim the whole limit; with ten bytes behind it the
        // answer is Truncated, reached without a limit-sized buffer.
        let max = DEFAULT_MAX_FRAME;
        let mut buf = (max as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(b"0123456789");
        match read_frame(&mut buf.as_slice(), max) {
            Err(FrameError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (max, 10));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// Counts `write` calls; accepts every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_frame_and_none_when_too_large() {
        // Two writes per frame on a TCP stream is the Nagle × delayed-ACK
        // stall (module docs); the contract is exactly one.
        let v = json!({"cmd": "step", "cycles": 16u64, "act": "01234567"});
        let mut w = CountingWriter::default();
        write_frame(&mut w, &v, 1024).expect("writes");
        assert_eq!(w.writes, 1);
        write_frame(&mut w, &v, 1024).expect("writes");
        assert_eq!(w.writes, 2);
        let mut r = w.bytes.as_slice();
        assert_eq!(read_frame(&mut r, 1024).unwrap(), v);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), v);

        let mut w = CountingWriter::default();
        let big = Json::Str("x".repeat(2048));
        assert!(matches!(
            write_frame(&mut w, &big, 1024),
            Err(FrameError::TooLarge {
                len: 2050,
                max: 1024
            })
        ));
        assert_eq!(w.writes, 0);
    }

    #[test]
    fn non_utf8_and_non_json_payloads_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE, 0x00, 0x01]);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(FrameError::BadJson(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(b"{x}");
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(FrameError::BadJson(_))
        ));
    }
}
