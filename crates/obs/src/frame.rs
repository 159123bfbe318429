//! Length-prefixed, schema-versioned message frames for the farm's
//! daemon/worker/client wire protocol.
//!
//! A frame is `MAGIC(4) ‖ length(4, LE) ‖ payload(length)` where the
//! payload is a UTF-8 [`Json`] document. The magic bytes carry the frame
//! format version (`b"MFR\x01"`), so a reader connected to a future
//! daemon fails with a typed [`CodecError::BadMagic`] instead of
//! misparsing; the *semantic* schema version rides inside the payload
//! (`maps-farm`'s `proto` field) and is checked there.
//!
//! Decoding never panics and never blocks past the underlying reader:
//! every malformed input — wrong magic, an oversized or truncated length,
//! a payload cut mid-byte, invalid UTF-8, malformed JSON — surfaces as a
//! typed [`CodecError`]. A *clean* EOF at a frame boundary is not an error:
//! [`read_frame`] returns `Ok(None)`, so stream consumers can tell an
//! orderly shutdown from a torn one.

use std::io::{Read, Write};

use crate::codec::CodecError;
use crate::json::Json;

/// Frame format marker + version byte.
pub const FRAME_MAGIC: [u8; 4] = *b"MFR\x01";

/// Upper bound on a frame payload. Large enough for any campaign
/// document (plans with every figure stay well under a megabyte), small
/// enough that a corrupted length field cannot make a reader attempt a
/// multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Writes one frame and flushes the writer, so a frame is either fully
/// buffered in the kernel or the write errored — the sender never leaves
/// a half-frame in userspace buffers.
///
/// # Errors
///
/// Any I/O failure from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &Json) -> std::io::Result<()> {
    let body = payload.to_pretty();
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload too large",
        ));
    }
    w.write_all(&FRAME_MAGIC)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads either a full buffer or, at a clean boundary, nothing at all.
/// Returns `Ok(false)` when the stream was already at EOF; EOF *inside*
/// the buffer is [`CodecError::Truncated`].
fn read_full_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, CodecError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(CodecError::Truncated {
                    missing: buf.len() - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads exactly `buf.len()` bytes; EOF anywhere is a truncation.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), CodecError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(CodecError::Truncated {
                    missing: buf.len() - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame. `Ok(None)` means the stream ended cleanly *between*
/// frames; every torn, corrupt, or oversized input is a typed
/// [`CodecError`].
///
/// # Errors
///
/// [`CodecError::Io`], [`CodecError::BadMagic`], [`CodecError::Oversized`],
/// [`CodecError::Truncated`], [`CodecError::Utf8`] or
/// [`CodecError::Parse`] — one variant per failure mode, never a panic.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Json>, CodecError> {
    let mut magic = [0u8; 4];
    if !read_full_or_eof(r, &mut magic)? {
        return Ok(None);
    }
    if magic != FRAME_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let mut len_bytes = [0u8; 4];
    read_full(r, &mut len_bytes)?;
    let declared = u32::from_le_bytes(len_bytes);
    if declared > MAX_FRAME_BYTES {
        return Err(CodecError::Oversized { declared });
    }
    let mut body = vec![0u8; declared as usize];
    read_full(r, &mut body)?;
    let text = std::str::from_utf8(&body).map_err(|_| CodecError::Utf8)?;
    Ok(Some(Json::parse(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(payload: &Json) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).expect("write frame");
        buf
    }

    fn sample() -> Json {
        Json::Obj(vec![
            ("type".into(), Json::Str("event".into())),
            ("seq".into(), Json::UInt(u64::MAX)),
            (
                "nested".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true)]),
            ),
        ])
    }

    #[test]
    fn frames_round_trip() {
        let bytes = frame_bytes(&sample());
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor).expect("read").expect("one frame");
        assert_eq!(decoded, sample());
        assert!(read_frame(&mut cursor).expect("clean eof").is_none());
    }

    #[test]
    fn back_to_back_frames_stream() {
        let mut bytes = frame_bytes(&Json::UInt(1));
        bytes.extend(frame_bytes(&Json::UInt(2)));
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Json::UInt(1)));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Json::UInt(2)));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = frame_bytes(&sample());
        // Cut after the first byte through one-short-of-complete: all
        // torn, none clean, none panic.
        for cut in 1..bytes.len() {
            let mut cursor = &bytes[..cut];
            match read_frame(&mut cursor) {
                Err(CodecError::Truncated { missing }) => assert!(missing > 0),
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected_with_the_found_bytes() {
        let mut bytes = frame_bytes(&sample());
        bytes[0] = b'X';
        let err = read_frame(&mut &bytes[..]).expect_err("bad magic");
        match err {
            CodecError::BadMagic { found } => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend(FRAME_MAGIC);
        bytes.extend(u32::MAX.to_le_bytes());
        bytes.extend([0u8; 8]);
        let err = read_frame(&mut &bytes[..]).expect_err("oversized");
        assert!(matches!(
            err,
            CodecError::Oversized { declared } if declared == u32::MAX
        ));
    }

    #[test]
    fn garbage_payloads_are_typed_errors() {
        // Valid header, payload that is not UTF-8.
        let mut bytes = Vec::new();
        bytes.extend(FRAME_MAGIC);
        bytes.extend(4u32.to_le_bytes());
        bytes.extend([0xFF, 0xFE, 0x80, 0x81]);
        assert!(matches!(read_frame(&mut &bytes[..]), Err(CodecError::Utf8)));
        // Valid header, payload that is not JSON.
        let mut bytes = Vec::new();
        bytes.extend(FRAME_MAGIC);
        bytes.extend(3u32.to_le_bytes());
        bytes.extend(b"{x}");
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(CodecError::Parse(_))
        ));
    }

    #[test]
    fn trailing_garbage_after_a_frame_is_the_next_reads_problem() {
        let mut bytes = frame_bytes(&Json::UInt(7));
        bytes.extend(b"junk");
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Json::UInt(7)));
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CodecError::BadMagic { .. })
        ));
    }
}
